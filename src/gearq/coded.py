"""MDS-coded frame ARQ: exact stage kernel, matrix MGFs and metrics.

A frame is M coded packets; any N distinct packets decode it.  Feedback
is a cumulative degrees-of-freedom count, delivered each slot over the
reverse chain.  Protocol semantics (shared by the analytic kernel and
the frame rules of sim.py, which are normative and run every scheme, a
packet being a one-packet frame):

* the M packets go out back to back; the frame-level feedback arrives
  one RTT after the last of them;
* while nothing has been acknowledged the whole frame is retransmitted
  (on a delivered all-zero feedback, or when the frame timer runs out);
  once m >= 1 degrees of freedom are acknowledged, repairs are single
  fresh coded packets;
* a delivered feedback acknowledges every degree of freedom it reports
  (multi-ack); if it reports progress the sender drops any not yet sent
  repair packets and schedules the next repair one RTT later; a
  no-progress feedback on a round's own feedback slot triggers the next
  round immediately;
* timers run from a round's first transmission slot and are reset by
  every (re)scheduling; receptions beyond N are discarded.

The analytic kernel runs on the product space (chain state, u) where
u = received-but-unacknowledged degrees of freedom, so round outcomes,
multi-acks and repair pipelining are carried exactly; stage n (the n-th
acknowledgment) advances by consuming one unit of u.  After an erased
feedback a stage waits out repair rounds that repeat every T slots; one
table per stage (_period) states that period's slots, and both the walk
and the stage's own ACK read it.  Every branch gain states the packets
it transmits and the slots it takes; the transmission-time MGF lets z
count the packets, the delay MGF the slots (protocols.Accounting).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import CompositeChannel, ParameterError, kron
from .genfunc import (
    DualMatrix,
    dual_add,
    dual_geo,
    dual_identity,
    dual_mul,
    dual_sum_truncated,
    scalarize,
)
from .protocols import Accounting, Metrics, ProtocolParams


@dataclass(frozen=True)
class CodedKernel:
    """Stage matrices of the coded scheme on the (chain, u) product space,
    for link ch and protocol p.

    For stage n (1-based), cap_n = N - n + 1 receptions remain useful.
    K0/K1 steps transmit one packet (u may rise) and split by the reverse
    bit, their sum being the unobserved step; W0/W1 steps only observe
    feedback.  The classified observation matrices P_C(n, x, y) split a
    stage's decisive step by forward outcome x (0: the needed DoF is
    available afterwards, i.e. u >= 1) and reverse outcome y; their sum
    over xy is row stochastic.  advance consumes one unit of u (an
    acknowledgment).
    """

    ch: CompositeChannel
    p: ProtocolParams
    dim: int
    plain: np.ndarray
    W0: np.ndarray
    W1: np.ndarray
    K0: tuple[np.ndarray, ...]
    K1: tuple[np.ndarray, ...]
    proj_up: np.ndarray
    proj_zero: np.ndarray
    advance: np.ndarray

    def P_C(self, n: int, x: int, y: int) -> np.ndarray:
        Ky = (self.K0, self.K1)[y][n - 1]
        proj = self.proj_up if x == 0 else self.proj_zero
        return Ky @ proj

    def start_vector(self) -> np.ndarray:
        e0 = np.zeros(self.dim // 4)
        e0[0] = 1.0
        return np.outer(e0, self.ch.pi_I).ravel()


def default_coded_kernel(ch: CompositeChannel, p: ProtocolParams) -> CodedKernel:
    """Exact kernel for the protocol semantics above."""
    N = p.N
    size = N + 1
    # the u operators: the projections on u = 0 and u >= 1, u - 1 floored
    # at 0, and stage n's u + 1 saturating at its cap N - n + 1
    I_u = np.eye(size)
    u_zero = np.outer(I_u[0], I_u[0])
    down = np.eye(size, k=-1) + u_zero
    caps = np.arange(N, 0, -1)[:, None, None]  # stage n = 1 .. N
    ups = np.where(np.arange(size)[:, None] < caps, np.eye(size, k=1), I_u)
    K0 = tuple(kron(up, ch.P00) + kron(I_u, ch.P10) for up in ups)
    K1 = tuple(kron(up, ch.P01) + kron(I_u, ch.P11) for up in ups)
    return CodedKernel(
        ch=ch,
        p=p,
        dim=4 * size,
        plain=kron(I_u, ch.Pc),
        W0=kron(I_u, ch.Px0),
        W1=kron(I_u, ch.Px1),
        K0=K0,
        K1=K1,
        proj_up=kron(I_u - u_zero, np.eye(4)),
        proj_zero=kron(u_zero, np.eye(4)),
        advance=kron(down, np.eye(4)),
    )


def _period(kern: CodedKernel, n: int, L: int) -> list[tuple]:
    """The T-slot period of stage n's recovery walk, in rounds of L packets.

    Entry o - 1 is offset o = 1 .. T after a round's own feedback slot: a
    repair round fills the last L offsets of every period (the timer runs
    from the previous round's first slot), so offset T is again a round's
    last packet and feedback slot.  An entry is (end, continue), each the
    (value matrix, packets) of a one-slot branch: end takes a delivered
    feedback the sender acts on, continue the erased one.  end is None on
    mid-round offsets, where the sender does not act on feedback and the
    slot only transmits.  Offsets are those of the slot a feedback reports
    on, which reaches the sender k slots later: the repairs at offsets
    o+1 .. o+k-1 are committed before an ACK at offset o acts, and end
    charges them to the transmission count (their payload is superseded).
    """
    k, T = kern.p.k, kern.p.T
    K0, K1 = kern.K0[n - 1], kern.K1[n - 1]
    Km = K0 + K1

    def sends(o: int) -> bool:  # a round fills the last L offsets of each period
        return -o % T < L

    period = []
    for o in range(1, T + 1):
        if sends(o) and o < T:
            period.append((None, (Km, 1)))
        else:
            x0, x1, sent = (K0, K1, 1) if o == T else (kern.W0, kern.W1, 0)
            flight = sum(map(sends, range(o + 1, o + k)))
            period.append(((x0, sent + flight), (x1, sent)))
    return period


def _recovery_walk(kern: CodedKernel, period: list[tuple], acc: Accounting) -> DualMatrix:
    """Wait for an acted-on delivered feedback after a stage's DoF arrived
    unacked: cycle over the period's offsets, one slot each, summing the
    walk's end branches.

    The period's branch gains are built once per walk, and every cycle
    reads them.  The sum is a series, truncated after the first term whose
    value and derivative entries all fall below 1e-12 (dual_sum_truncated),
    not a closure: on slowly mixing links it is off by a few parts in 1e11
    (the frame tau mean, 2.6e-11 relative at r = 0.01, eps = 0.5,
    (k, T, M, N) = (5, 20, 1, 1)).
    """
    gains = [
        (None if end is None else acc.term(*end, 1), acc.term(*cont, 1)) for end, cont in period
    ]

    def steps():
        prefix = dual_identity(kern.dim)
        for end, cont in itertools.cycle(gains):
            if end is not None:
                yield dual_mul(prefix, end)
            prefix = dual_mul(prefix, cont)

    return dual_sum_truncated(steps())


def build_coded_mgf(kern: CodedKernel, kind: str = "tau", z: float = 1.0) -> DualMatrix:
    """Matrix MGF of the coded frame on the link and frame shape kern was
    built for (kind 'tau': packets, 'delay': slots)."""
    acc = Accounting(kind, z)
    k, T, M, N = kern.p.k, kern.p.T, kern.p.M, kern.p.N

    Pk1 = np.linalg.matrix_power(kern.plain, k - 1)

    def stage(n: int, L: int) -> DualMatrix:
        """Stage n in rounds of L packets: k-1 slots line up the feedback,
        L-1 packets precede the decisive step (the L-th), the round repeats
        while nothing is acknowledged, then an ACK or the recovery walk."""
        obs = {(x, y): kern.P_C(n, x, y) for x in (0, 1) for y in (0, 1)}
        KL1 = np.linalg.matrix_power(kern.K0[n - 1] + kern.K1[n - 1], L - 1)
        loop = dual_add(
            acc.term(obs[(1, 0)] @ Pk1 @ KL1, L, k + L - 1),
            acc.term(obs[(1, 1)] @ np.linalg.matrix_power(kern.plain, T - L) @ KL1, L, T),
        )
        # the round's own feedback is the period's offset T
        period = _period(kern, n, L)
        (_, own), (_, sent) = period[-1]
        exits = dual_add(
            acc.term(obs[(0, 0)], own, 1),
            dual_mul(acc.term(obs[(0, 1)], sent, 1), _recovery_walk(kern, period, acc)),
        )
        send = dual_mul(acc.term(Pk1, 0, k - 1), acc.term(KL1, L - 1, L - 1))
        return dual_mul(send, dual_mul(dual_geo(loop), exits))

    # stage(1, M): the frame goes out whole; a later stage either holds its
    # DoF already (proj_up) or sends single-packet repair rounds
    phi = stage(1, M)
    for n in range(2, N + 1):
        repair = dual_mul(acc.term(kern.proj_zero, 0, 0), stage(n, 1))
        factor = dual_mul(
            acc.term(kern.advance, 0, 0), dual_add(acc.term(kern.proj_up, 0, 0), repair)
        )
        phi = dual_mul(phi, factor)
    return phi


def coded_metrics(ch: CompositeChannel, p: ProtocolParams) -> Metrics:
    """Frame-level and per-packet throughput/delay for the coded scheme."""
    if p.scheme != "coded":
        raise ParameterError("params do not select the coded scheme")
    kern = default_coded_kernel(ch, p)
    pi = kern.start_vector()
    v_tau, frame_tau = scalarize(pi, build_coded_mgf(kern, "tau"))
    v_d, frame_delay = scalarize(pi, build_coded_mgf(kern, "delay"))
    return Metrics(frame_tau, frame_delay, p.M, abs(v_tau - 1.0), abs(v_d - 1.0))
