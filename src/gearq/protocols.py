"""Transmission-time and delay MGFs for uncoded and soft-combining ARQ.

Both schemes share one machine: a retransmission loop entered on a lost
packet (immediate resend on a delivered NACK, resend at timer expiry on
an erased one), an acknowledgment branch, and a recovery branch for the
packet whose ACK was erased and that is later covered by cumulative
feedback.  The recovery draws its reverse erasure rates from one
AttemptModel: the uncoded scheme is its constant sequence at the nominal
rate, soft combining a rate that falls with the combining index.

Both MGFs are one construction.  Every branch gain states how many
packets it transmits and how many slots it takes; Accounting, built once
per MGF, lets z count the packets (the transmission-time MGF, kind
"tau") or the slots (the delay MGF, kind "delay").  Feedback for the
packet sent in slot t arrives in slot t+k, so an error-free first
exchange has delay k.  The recovery is one per-slot walk: each slot
takes one slot, and each timer expiry sends one packet (the pointless
retransmission).  One blocked kernel steps it, values and z-derivatives
stacked side by side: a constant model is closed exactly over one T-slot
period, soft combining is summed as a series, 32 slots per kernel call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CompositeChannel, ParameterError, kron
from .genfunc import (
    DualMatrix,
    NonConvergenceError,
    dual_add,
    dual_geo,
    dual_mul,
    dual_term,
    scalarize,
)

SCHEMES = ("uncoded", "harq", "coded")
_BLOCK = 32  # slots per kernel call of a series walk


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol configuration: RTT k, timeout T, scheme, coded frame shape.

    Requires T >= k >= M >= N.  d = T - k slots remain on the timer when
    a packet's feedback arrives; the coded frame's first-feedback
    residual T - (k+M-1) may be negative for short timers, in which case
    expiry actions clamp to the feedback slot.
    """

    k: int
    T: int
    scheme: str = "uncoded"
    M: int = 1
    N: int = 1
    gamma_over_rho: float = 0.0
    series_tol: float = 1e-12

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if not 1 <= self.N <= self.M <= self.k <= self.T:
            raise ParameterError("need T >= k >= M >= N >= 1")
        if self.scheme != "coded" and (self.M != 1 or self.N != 1):
            raise ParameterError("M and N apply to the coded scheme only")
        if self.gamma_over_rho < 0:
            raise ParameterError("gamma_over_rho must be >= 0")

    @property
    def d(self) -> int:
        """Residual timer slots after a single packet's feedback arrives."""
        return self.T - self.k


@dataclass(frozen=True)
class Metrics:
    """Per-packet throughput figures plus frame-level delay.

    tau_mean and throughput are per packet for every scheme (a coded
    frame's transmission count is divided by M).  delay_mean is the
    full-frame delay; delay_mean_per_packet divides by M for comparison
    across schemes and equals delay_mean when M = 1.
    """

    tau_mean: float
    throughput: float
    delay_mean: float
    delay_mean_per_packet: float
    frame_tau_mean: float
    mgf_err_tau: float
    mgf_err_delay: float


@dataclass(frozen=True)
class Accounting:
    """What z counts in one MGF: packets for kind "tau", slots for "delay".

    Every branch gain states both its packet count and its slot count;
    this is the one place that picks between them.
    """

    kind: str
    z: float = 1.0

    def __post_init__(self):
        if self.kind not in ("tau", "delay"):
            raise ValueError("kind must be 'tau' or 'delay'")

    def power(self, packets, slots):
        """The z-power of a branch; numbers, or arrays of per-slot counts."""
        return slots if self.kind == "delay" else packets

    def term(self, coeff: np.ndarray, packets: int, slots: int) -> DualMatrix:
        """Branch gain coeff * z**power(packets, slots) as a dual."""
        return dual_term(coeff, self.power(packets, slots), self.z)


class AttemptModel:
    """Reverse-link erasure rates along the combining index, as chain matrices.

    eps_B is state B's erasure-rate sequence over the combining index
    m >= 1: a number for a constant sequence (closed exactly with
    dual_geo), or a vectorized function of m (summed as a truncated
    series).  State G's rate at m is min(eps_G, eps_B(m)): combining
    never makes state G worse than its nominal rate, nor worse than
    state B.  Observations are linear in the rates (self._K: the chain
    step into reverse state G, into B).
    """

    def __init__(self, ch: CompositeChannel, eps_B):
        self.ch = ch
        self.constant = not callable(eps_B)
        self.eps_B = (lambda m: eps_B) if self.constant else eps_B
        self._K = [kron(ch.fwd.P, ch.rev.P * mask) for mask in ([1.0, 0.0], [0.0, 1.0])]

    def rates(self, m):
        """(eps_G, eps_B) of the reverse link at index m (scalar or array)."""
        eb = self.eps_B(m)
        return np.minimum(self.ch.rev.eps_G, eb), eb

    def observation(self, m) -> tuple[np.ndarray, np.ndarray]:
        """(Px0, Px1) at index m: the composite chain step split by the
        reverse bit (delivered, erased), summing to the chain matrix; for
        an array of n indices, two (n, 4, 4) stacks."""
        KG, KB = self._K
        eg, eb = (np.broadcast_to(x, np.shape(m))[..., None, None] for x in self.rates(m))
        return (1.0 - eg) * KG + (1.0 - eb) * KB, eg * KG + eb * KB


def _walk(att: AttemptModel, p: ProtocolParams, acc: Accounting, j: int, n: int, wait):
    """Slots j .. j+n-1 of the recovery walk entered with `wait`: the
    (n, 4, 8) stack of each slot's end and the wait through the last.

    Duals travel as [val | der] (4x8); both X0 (end) and X1 (wait on)
    carry z^e(i) at slot i, e(i) its count (one slot; one packet at each
    timer expiry), so one 4x8 @ 8x16 product steps a slot.
    """
    i = np.arange(j, j + n)
    expiry = (i > p.d) & ((i - p.d - 1) % p.T == 0)
    e, z = acc.power(expiry * 1.0, np.ones(n)), acc.z
    c, dc = (z**e)[:, None, None], (e * z ** (e - 1))[:, None, None]
    step = np.zeros((n, 8, 16))
    for col, X in zip((0, 8), att.observation(i)):
        step[:, :4, col : col + 4] = step[:, 4:, col + 4 : col + 8] = c * X
        step[:, :4, col + 4 : col + 8] = dc * X
    out = np.empty((n, 4, 16))
    for t in range(n):
        wait = np.matmul(wait, step[t], out=out[t])[:, 8:]
    return out[:, :, :8], wait


def _stacked(s: np.ndarray) -> DualMatrix:
    return DualMatrix(s[:, :4], s[:, 4:])


def _walk_series(att: AttemptModel, p: ProtocolParams, acc: Accounting):
    """(the walk's series [val | der], its term count) by dual_sum_truncated's
    stop rule (at p.series_tol) and its 10**6-term guard."""
    total, j, wait = np.zeros((4, 8)), 1, np.eye(4, 8)
    while j <= 10**6:
        ends, wait = _walk(att, p, acc, j, _BLOCK, wait)
        small = np.max(np.abs(ends), axis=(1, 2)) < p.series_tol
        small[0] &= j > 1
        hits = np.flatnonzero(small)
        n = hits[0] + 1 if hits.size else _BLOCK
        total += ends[:n].sum(axis=0)
        if hits.size:
            return total, int(j - 1 + n)
        j += _BLOCK
    raise NonConvergenceError("series did not converge in 1000000 terms")


def _recovery_walk(att: AttemptModel, p: ProtocolParams, acc: Accounting) -> DualMatrix:
    """Wait for a delivered cumulative feedback after the ACK was erased.

    Slot j >= 1 (the combining index) ends the walk with X0(j) and
    continues it with X1(j), both charged z^e(j): every slot takes one
    slot, and each timer expiry (j = d+1, d+1+T, ...) sends one
    pointless retransmission.  A constant model sums the first d slots
    and one T-slot period closed exactly with dual_geo, a varying one
    the series of _walk_series.
    """
    if not att.constant:
        return _stacked(_walk_series(att, p, acc)[0])
    lead, lead_wait = _walk(att, p, acc, 1, p.d, np.eye(4, 8))
    period, wait = _walk(att, p, acc, p.d + 1, p.T, np.eye(4, 8))
    tail = dual_mul(dual_geo(_stacked(wait)), _stacked(period.sum(axis=0)))
    return dual_add(_stacked(lead.sum(axis=0)), dual_mul(_stacked(lead_wait), tail))


def _arq_bracket(
    ch: CompositeChannel, p: ProtocolParams, att: AttemptModel, acc: Accounting
) -> DualMatrix:
    """Feedback-resolution branch after a delivered packet: ACK, or recovery.

    P00 + P01 walk, each feedback branch taking the feedback slot and no
    packet.  The recovery walk closes a constant model over one T-slot
    period.
    """
    head = acc.term(ch.P00, 0, 1)
    return dual_add(head, dual_mul(acc.term(ch.P01, 0, 1), _recovery_walk(att, p, acc)))


def _loop_gain(
    ch: CompositeChannel, p: ProtocolParams, acc: Accounting, Pk: np.ndarray, PT: np.ndarray
) -> DualMatrix:
    """One traversal of the lost-packet retransmission loop.

    A delivered NACK re-sends after k slots, an erased one waits for the
    timer (T slots); either way one packet is sent again.  Pk and PT are
    Pc^(k-1) and Pc^(T-1).
    """
    return dual_add(acc.term(ch.P10 @ Pk, 1, p.k), acc.term(ch.P11 @ PT, 1, p.T))


def build_arq_mgf(
    ch: CompositeChannel,
    p: ProtocolParams,
    att: AttemptModel,
    kind: str,
    z: float = 1.0,
) -> DualMatrix:
    """Full matrix MGF for the single-packet schemes (uncoded / harq).

    kind selects the random variable: "tau" (transmissions per packet)
    or "delay" (slots from first transmission to ACK receipt).  The
    packet's own feedback sees the nominal channel; `att` governs the
    recovery by cumulative feedback after an erased acknowledgment.
    """
    acc = Accounting(kind, z)
    Pk = np.linalg.matrix_power(ch.Pc, p.k - 1)
    PT = np.linalg.matrix_power(ch.Pc, p.T - 1)
    # the first transmission, then k - 1 slots to its feedback
    prefix = acc.term(Pk, 1, p.k - 1)
    loop = dual_geo(_loop_gain(ch, p, acc, Pk, PT))
    bracket = _arq_bracket(ch, p, att, acc)
    return dual_mul(prefix, dual_mul(loop, bracket))


def _metrics_from_mgfs(
    ch: CompositeChannel, M: int, tau_mgf: DualMatrix, delay_mgf: DualMatrix, pi_I=None
) -> Metrics:
    pi = ch.pi_I if pi_I is None else pi_I
    v_tau, frame_tau = scalarize(pi, tau_mgf)
    v_d, frame_delay = scalarize(pi, delay_mgf)
    tau_pp = frame_tau / M
    return Metrics(
        tau_mean=tau_pp,
        throughput=1.0 / tau_pp,
        delay_mean=frame_delay,
        delay_mean_per_packet=frame_delay / M,
        frame_tau_mean=frame_tau,
        mgf_err_tau=abs(v_tau - 1.0),
        mgf_err_delay=abs(v_d - 1.0),
    )


def attempt_model_for(ch: CompositeChannel, p: ProtocolParams) -> AttemptModel:
    """The recovery model of the scheme in `p`: its state-B rate sequence.

    Uncoded and coded are the constant sequence at the nominal eps_B; harq
    combines with eps_B(m) = min(eps_B, 1 - exp(-(gamma/rho)/m)), never
    worse than an uncombined reception, and 0 for gamma/rho = 0.
    """
    g, eb = p.gamma_over_rho, ch.rev.eps_B
    if p.scheme != "harq":
        return AttemptModel(ch, eb)
    if g == 0.0:
        return AttemptModel(ch, 0.0)
    return AttemptModel(ch, lambda m: np.minimum(eb, 1.0 - np.exp(-g / m)))


def _arq_metrics(ch: CompositeChannel, p: ProtocolParams, scheme: str) -> Metrics:
    if p.scheme != scheme:
        raise ParameterError(f"params do not select the {scheme} scheme")
    att = attempt_model_for(ch, p)
    return _metrics_from_mgfs(
        ch, 1, build_arq_mgf(ch, p, att, "tau"), build_arq_mgf(ch, p, att, "delay")
    )


def uncoded_metrics(ch: CompositeChannel, p: ProtocolParams) -> Metrics:
    """Throughput and delay for plain selective-repeat ARQ."""
    return _arq_metrics(ch, p, "uncoded")


def harq_metrics(ch: CompositeChannel, p: ProtocolParams) -> Metrics:
    """Throughput and delay with soft combining of repeated feedback."""
    return _arq_metrics(ch, p, "harq")
