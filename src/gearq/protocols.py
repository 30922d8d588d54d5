"""Transmission-time and delay MGFs for uncoded and soft-combining ARQ.

Both schemes share one machine: a retransmission loop entered on a lost
packet (immediate resend on a delivered NACK, resend at timer expiry on
an erased one), an acknowledgment branch, and a recovery branch for the
packet whose ACK was erased and that is later covered by cumulative
feedback.  The recovery draws its reverse erasure rates from one
AttemptModel: the uncoded scheme is its constant sequence at the nominal
rate, soft combining a rate that falls with the combining index.

Both MGFs are one construction; only the z-powers differ.  In the
transmission-time MGF z counts packet transmissions; in the delay MGF z
counts slots.  Feedback for the packet sent in slot t arrives in slot
t+k, so an error-free first exchange has delay k.  The recovery is one
per-slot walk that charges delay one z per slot and transmissions one z
per timer expiry (the pointless retransmission); a constant model closes
it exactly over one T-slot period.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .channel import CompositeChannel, ParameterError
from .genfunc import (
    DualMatrix,
    dual_add,
    dual_geo,
    dual_identity,
    dual_mul,
    dual_sum_truncated,
    dual_term,
    scalarize,
)

SCHEMES = ("uncoded", "harq", "coded")


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


class AttemptModel:
    """Reverse-link erasure rates along the combining index, as chain matrices.

    eps_B is state B's erasure-rate sequence over the combining index
    m >= 1: a number for a constant sequence (closed exactly with
    dual_geo), or a function of m (summed as a truncated series).  State
    G's rate at m is min(eps_G, eps_B(m)): combining never makes state G
    worse than its nominal rate, nor worse than state B.
    """

    def __init__(self, ch: CompositeChannel, eps_B):
        self.ch = ch
        self.constant = not callable(eps_B)
        self.eps_B = (lambda m: eps_B) if self.constant else eps_B
        self._fixed = self._split(1) if self.constant else None

    def rates(self, m):
        """(eps_G, eps_B) of the reverse link at index m (scalar or array)."""
        eb = self.eps_B(m)
        return np.minimum(self.ch.rev.eps_G, eb), eb

    def observation(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(Px0, Px1) at index m: the composite chain step split by the
        reverse bit (delivered, erased); the two sum to the chain matrix."""
        return self._fixed if self.constant else self._split(m)

    def _split(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        eg, eb = self.rates(m)
        fwd, rev = self.ch.fwd.P, self.ch.rev.P
        return (
            np.kron(fwd, rev @ np.diag([1.0 - eg, 1.0 - eb])),
            np.kron(fwd, rev @ np.diag([eg, eb])),
        )


def _chain_power(ch: CompositeChannel, n: int) -> np.ndarray:
    return np.linalg.matrix_power(ch.Pc, n)


def _recovery_walk(att: AttemptModel, p: ProtocolParams, kind: str, z: float) -> DualMatrix:
    """Wait for a delivered cumulative feedback after the ACK was erased.

    Slot j >= 1 observes att.observation(j): X0(j) ends the wait, X1(j)
    continues it, and both carry z^e(j).  Delay counts every slot
    (e = 1); transmission counts the pointless retransmission at each
    timer expiry, j = d+1, d+1+T, ... (e = 1 there, 0 elsewhere).  A
    constant model sums the first d slots, then one T-slot period closed
    exactly with dual_geo; otherwise the per-slot series is truncated at
    p.series_tol, the combining index running on.
    """
    d, T = p.d, p.T

    def slots(j: int):
        """(the walk ends at slot i, it waits through slot i) for i >= j."""
        wait = dual_identity(4)
        while True:
            e = 1 if kind == "delay" or (j > d and (j - d - 1) % T == 0) else 0
            X0, X1 = att.observation(j)
            end = dual_mul(wait, dual_term(X0, e, z))
            wait = dual_mul(wait, dual_term(X1, e, z))
            yield end, wait
            j += 1

    if not att.constant:
        return dual_sum_truncated((end for end, _ in slots(1)), tol=p.series_tol)

    def window(j: int, n: int) -> tuple[DualMatrix, DualMatrix]:
        """(sum of the ends at slots j .. j+n-1, the wait through them)."""
        ends, wait = dual_term(np.zeros((4, 4)), 0), dual_identity(4)
        for end, wait in islice(slots(j), n):
            ends = dual_add(ends, end)
        return ends, wait

    lead_ends, lead_wait = window(1, d)
    ends, wait = window(d + 1, T)
    return dual_add(lead_ends, dual_mul(lead_wait, dual_mul(dual_geo(wait), ends)))


def _arq_bracket(
    ch: CompositeChannel, p: ProtocolParams, att: AttemptModel, kind: str, z: float
) -> DualMatrix:
    """Feedback-resolution branch after a delivered packet: ACK, or recovery.

    P00 z^s + P01 z^s walk, where s = 1 (the feedback slot) for delay and
    0 for transmissions.  The one recovery walk charges delay one z per
    slot and transmissions one z per timer expiry, and closes a constant
    model over one T-slot period.
    """
    s = 1 if kind == "delay" else 0
    head = dual_term(ch.P00, s, z)
    return dual_add(head, dual_mul(dual_term(ch.P01, s, z), _recovery_walk(att, p, kind, z)))


def _loop_gain(ch: CompositeChannel, p: ProtocolParams, kind: str, z: float) -> DualMatrix:
    """One traversal of the lost-packet retransmission loop.

    A delivered NACK re-sends after k slots, an erased one waits for the
    timer (T slots).  Transmission accounting charges one z per
    traversal; delay accounting charges the slots.
    """
    Pk = _chain_power(ch, p.k - 1)
    PT = _chain_power(ch, p.T - 1)
    if kind == "tau":
        return dual_add(dual_term(ch.P10 @ Pk, 1, z), dual_term(ch.P11 @ PT, 1, z))
    return dual_add(dual_term(ch.P10 @ Pk, p.k, z), dual_term(ch.P11 @ PT, p.T, z))


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
    if kind not in ("tau", "delay"):
        raise ValueError("kind must be 'tau' or 'delay'")
    prefix = dual_term(_chain_power(ch, p.k - 1), 1 if kind == "tau" else p.k - 1, z)
    loop = dual_geo(_loop_gain(ch, p, kind, z))
    bracket = _arq_bracket(ch, p, att, kind, z)
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

    Uncoded is the constant sequence at the nominal eps_B; harq combines
    with eps_B(m) = 1 - exp(-(gamma/rho)/m), which is 0 for gamma/rho = 0.
    """
    if p.scheme != "harq":
        return AttemptModel(ch, ch.rev.eps_B)
    g = p.gamma_over_rho
    if g == 0.0:
        return AttemptModel(ch, 0.0)
    return AttemptModel(ch, lambda m: 1.0 - np.exp(-g / m))


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
