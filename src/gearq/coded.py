"""MDS-coded frame ARQ: exact stage kernel, matrix MGFs and metrics.

A frame is M coded packets; any N distinct packets decode it.  Feedback
is a cumulative degrees-of-freedom count, delivered each slot over the
reverse chain.  Protocol semantics (shared by the analytic kernel and
the coded lane rules of sim.py, which are normative):

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
acknowledgment) advances by consuming one unit of u.  Transmission-time
MGFs attach z to every transmitted packet; delay MGFs attach z to every
slot.
"""
from __future__ import annotations

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
    dual_term,
)
from .protocols import Metrics, ProtocolParams, _metrics_from_mgfs


def _shift_up(size: int, cap: int) -> np.ndarray:
    """Saturating u+1 operator: increments beyond cap are discarded."""
    U = np.zeros((size, size))
    for u in range(size):
        U[u, u + 1 if u < cap else u] = 1.0
    return U


def _shift_down(size: int) -> np.ndarray:
    """u-1 operator used when an acknowledgment consumes one DoF."""
    D = np.zeros((size, size))
    D[0, 0] = 1.0
    for u in range(1, size):
        D[u, u - 1] = 1.0
    return D


@dataclass(frozen=True)
class CodedKernel:
    """Stage matrices of the coded scheme on the (chain, u) product space.

    For stage n (1-based), cap_n = N - n + 1 receptions remain useful.
    K steps transmit one packet (u may rise), W steps only observe
    feedback.  The classified observation matrices P_C(n, x, y) split a
    stage's decisive step by forward outcome x (0: the needed DoF is
    available afterwards, i.e. u >= 1) and reverse outcome y; their sum
    over xy is row stochastic.
    """

    ch: CompositeChannel
    N: int
    dim: int
    plain: np.ndarray
    W0: np.ndarray
    W1: np.ndarray
    K: tuple[np.ndarray, ...]
    K0: tuple[np.ndarray, ...]
    K1: tuple[np.ndarray, ...]
    proj_up: np.ndarray
    proj_zero: np.ndarray
    advance: np.ndarray

    def P_A(self, n: int) -> np.ndarray:
        """Stage-advance gain: identity at 0, one u-consumption after that."""
        return np.eye(self.dim) if n == 0 else self.advance

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
    F0 = kron(ch.fwd.P0, ch.rev.P)
    F1 = kron(ch.fwd.P1, ch.rev.P)
    F00 = kron(ch.fwd.P0, ch.rev.P0)
    F01 = kron(ch.fwd.P0, ch.rev.P1)
    F10 = kron(ch.fwd.P1, ch.rev.P0)
    F11 = kron(ch.fwd.P1, ch.rev.P1)
    I_u = np.eye(size)
    K, K0, K1 = [], [], []
    for n in range(1, N + 1):
        up = _shift_up(size, N - n + 1)
        K.append(kron(up, F0) + kron(I_u, F1))
        K0.append(kron(up, F00) + kron(I_u, F10))
        K1.append(kron(up, F01) + kron(I_u, F11))
    u_pos = np.zeros((size, size))
    u_pos[1:, 1:] = np.eye(size - 1)
    u_zero = np.zeros((size, size))
    u_zero[0, 0] = 1.0
    return CodedKernel(
        ch=ch,
        N=N,
        dim=4 * size,
        plain=kron(I_u, ch.Pc),
        W0=kron(I_u, ch.Px0),
        W1=kron(I_u, ch.Px1),
        K=tuple(K),
        K0=tuple(K0),
        K1=tuple(K1),
        proj_up=kron(u_pos, np.eye(4)),
        proj_zero=kron(u_zero, np.eye(4)),
        advance=kron(_shift_down(size), np.eye(4)),
    )


def _in_flight(offset: int, k: int, T: int, round_len: int) -> int:
    """Packets scheduled within the RTT after an acknowledgment at `offset`.

    A feedback acting at shifted offset o is received k slots after its
    pairing slot, so repair packets with slots in (o, o+k) have already
    been committed when the sender learns of the acknowledgment.  They
    are charged to the transmission count; their payload is superseded.
    """
    return sum(
        1 for o2 in range(offset + 1, offset + k) if (o2 - 1) % T >= T - round_len
    )


def _recovery_walk(
    kern: CodedKernel,
    stage: int,
    round_len: int,
    k: int,
    T: int,
    kind: str,
    z: float,
    tol: float,
) -> DualMatrix:
    """Wait for a delivered feedback after stage `stage`'s DoF arrived unacked.

    Repair rounds of round_len packets are inserted every T slots (the
    timer runs from the previous round's first slot); the sender acts on
    feedback only between rounds and at a round's final slot, so
    mid-round offsets are forward-only steps.  Any acted-on delivered
    feedback ends the walk with the acknowledgment, plus the
    transmission charge for repairs already in flight.
    """
    slot = kind == "delay"
    K0 = kern.K0[stage - 1]
    K1 = kern.K1[stage - 1]
    Km = kern.K[stage - 1]

    def steps():
        prefix = dual_identity(kern.dim)
        o = 1
        while True:
            pos = (o - 1) % T - (T - round_len)
            if 0 <= pos < round_len - 1:
                # mid-round packet slot: transmit, feedback not acted on
                prefix = dual_mul(prefix, dual_term(Km, 1, z))
            else:
                boundary = pos == round_len - 1
                x0, x1 = (K0, K1) if boundary else (kern.W0, kern.W1)
                z_step = 1 if (slot or boundary) else 0
                z_exit = z_step + (_in_flight(o, k, T, round_len) if kind == "tau" else 0)
                yield dual_mul(prefix, dual_term(x0, z_exit, z))
                prefix = dual_mul(prefix, dual_term(x1, z_step, z))
            o += 1

    return dual_sum_truncated(steps(), tol=tol)


def build_coded_mgf(
    ch: CompositeChannel,
    p: ProtocolParams,
    kernel: CodedKernel | None = None,
    kind: str = "tau",
    z: float = 1.0,
) -> DualMatrix:
    """Matrix MGF of the coded frame (kind 'tau': packets, 'delay': slots)."""
    if kind not in ("tau", "delay"):
        raise ValueError("kind must be 'tau' or 'delay'")
    kern = default_coded_kernel(ch, p) if kernel is None else kernel
    k, T, M, N = p.k, p.T, p.M, p.N
    slot = kind == "delay"

    Pk1 = np.linalg.matrix_power(kern.plain, k - 1)

    def stage(n: int, L: int) -> DualMatrix:
        """Stage n in rounds of L packets: k-1 slots line up the feedback,
        L-1 packets precede the decisive step (the L-th), the round repeats
        while nothing is acknowledged, then an ACK or the recovery walk."""
        obs = {(x, y): kern.P_C(n, x, y) for x in (0, 1) for y in (0, 1)}
        KL1 = np.linalg.matrix_power(kern.K[n - 1], L - 1)
        loop = dual_add(
            dual_term(obs[(1, 0)] @ Pk1 @ KL1, (k + L - 1) if slot else L, z),
            dual_term(
                obs[(1, 1)] @ np.linalg.matrix_power(kern.plain, T - L) @ KL1,
                T if slot else L,
                z,
            ),
        )
        ack_z = 1 + (0 if slot else _in_flight(0, k, T, L))
        exits = dual_add(
            dual_term(obs[(0, 0)], ack_z, z),
            dual_mul(
                dual_term(obs[(0, 1)], 1, z),
                _recovery_walk(kern, n, L, k, T, kind, z, p.series_tol),
            ),
        )
        send = dual_mul(dual_term(Pk1, (k - 1) if slot else 0, z), dual_term(KL1, L - 1, z))
        return dual_mul(send, dual_mul(dual_geo(loop), exits))

    # stage(1, M): the frame goes out whole; a later stage either holds its
    # DoF already (proj_up) or sends single-packet repair rounds
    phi = stage(1, M)
    for n in range(2, N + 1):
        repair = dual_mul(dual_term(kern.proj_zero, 0, z), stage(n, 1))
        factor = dual_mul(
            dual_term(kern.P_A(n - 1), 0, z), dual_add(dual_term(kern.proj_up, 0, z), repair)
        )
        phi = dual_mul(phi, factor)
    return phi


def coded_metrics(
    ch: CompositeChannel, p: ProtocolParams, kernel: CodedKernel | None = None
) -> Metrics:
    """Frame-level and per-packet throughput/delay for the coded scheme."""
    if p.scheme != "coded":
        raise ParameterError("params do not select the coded scheme")
    kern = default_coded_kernel(ch, p) if kernel is None else kernel
    tau = build_coded_mgf(ch, p, kern, "tau")
    delay = build_coded_mgf(ch, p, kern, "delay")
    return _metrics_from_mgfs(ch, p.M, tau, delay, pi_I=kern.start_vector())

