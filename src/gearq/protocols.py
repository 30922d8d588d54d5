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
stacked side by side, and a closure over its last T-slot period ends it
with a certified bound on the error of its mean (_recovery_walk).
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
_BLOCK = 32  # slots in a block of the recovery walk, rounded up to whole periods
_CERTIFIED = 1e-15  # the recovery walk stops once its certified mean error is this small


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
    m >= 1: a number, or a vectorized function of m that never rises and
    takes m = inf (its limit).  State G's rate at m is min(eps_G,
    eps_B(m)): combining never makes state G worse than its nominal
    rate, nor worse than state B.  Observations are linear in the rates
    (self._K: the chain step into reverse state G, into B).
    """

    def __init__(self, ch: CompositeChannel, eps_B):
        self.ch = ch
        self.constant = not callable(eps_B)
        self.eps_B = (lambda m: eps_B) if self.constant else eps_B
        self._K = [kron(ch.fwd.P, ch.rev.P * mask) for mask in ([1.0, 0.0], [0.0, 1.0])]

    def rates(self, m):
        """(eps_G, eps_B) of the reverse link at index m, each shaped like m."""
        eb = self.eps_B(m) + np.zeros(np.shape(m))
        return np.minimum(self.ch.rev.eps_G, eb), eb

    def observation(self, m) -> tuple[np.ndarray, np.ndarray]:
        """(Px0, Px1) at index m: the composite chain step split by the
        reverse bit (delivered, erased), summing to the chain matrix; for
        an array of n indices, two (n, 4, 4) stacks."""
        KG, KB = self._K
        eg, eb = (x[..., None, None] for x in self.rates(m))
        return (1.0 - eg) * KG + (1.0 - eb) * KB, eg * KG + eb * KB


def _steps(att: AttemptModel, p: ProtocolParams, acc: Accounting, j: int, n: int) -> np.ndarray:
    """Slots j..j+n-1 of the walk as _pack steps of X0 (end) and X1 (wait on, never rising),
    charged z^e(i): a slot, or a packet per timer expiry (slots d+1, d+1+T, ..., none before)."""
    i = np.arange(max(j - 1, 1), j + n)  # and the last call's last slot: a rise between calls shows
    X0, X1 = att.observation(i)
    rises = (X1[1:] > X1[:-1]).any(axis=(-2, -1))
    if rises.any():
        raise ParameterError(f"recovery rates rise along the combining index at {i[1:][rises][0]}")
    X0, X1, i = X0[-n:], X1[-n:], i[-n:]
    e, z = acc.power(((i - p.d - 1) % p.T == 0) * 1.0, np.ones(n)), acc.z
    c, dc = (z**e)[:, None, None], (e * z ** (e - 1))[:, None, None]
    return _pack(*(np.concatenate((c * X, dc * X), axis=-1) for X in (X0, X1)))


def _pack(end: np.ndarray, wait: np.ndarray) -> np.ndarray:
    """The 8x16 step [[E, E', W, W'], [0, E, 0, W]] (or a stack) that maps
    [val | der] rows to [ends | wait], for an end and a wait in [val | der]."""
    step = np.zeros(end.shape[:-2] + (8, 16))
    for col, D in ((0, end), (8, wait)):
        step[..., :4, col : col + 8] = D
        step[..., 4:, col + 4 : col + 8] = D[..., :4]
    return step


_IDLE = _pack(np.zeros((1, 4, 8)), np.eye(4, 8)[None])  # ends nothing, passes the wait on


def _chain(wait: np.ndarray, steps: np.ndarray):
    """Step [val | der] rows `wait` (or a stack) through `steps`: their ends, the last wait."""
    out = np.empty(steps.shape[:-2] + (4, 16))
    for t, step in enumerate(steps):
        wait = np.matmul(wait, step, out=out[t])[..., 8:]
    return out[..., :8], wait


def _stacked(s: np.ndarray) -> DualMatrix:
    return DualMatrix(s[:, :4], s[:, 4:])


def _recovery_walk(att: AttemptModel, p: ProtocolParams, acc: Accounting):
    """Wait for a delivered cumulative feedback after the ACK was erased:
    the walk, and a bound on the error of its mean.

    Slot j >= 1 (the combining index) ends the walk with X0(j) and
    continues it with X1(j).  The d-slot lead and blocks of whole T-slot
    periods are each stepped from the identity, and dual_geo over a
    block's last period closes the rest.  Rates never rise, so that
    closure keeps the surviving mass and over-counts its future: its
    future mean on the surviving mass bounds the error of the mean from
    every start state (at z = 1).  The walk stops once the bound is at
    most _CERTIFIED, or at once (bound 0) at the limit rates eps_B(inf).
    """
    total, wait, limit = np.zeros((4, 8)), np.eye(4, 8), att.eps_B(np.inf)
    j, lead, per_block = p.d + 1, p.d, -(-_BLOCK // p.T)
    while j <= 10**6:
        exact = att.eps_B(j) == limit  # and so is every later rate
        n = 1 if exact else per_block
        steps = _steps(att, p, acc, j - lead, lead + n * p.T)
        if lead:  # the lead ends a period of idle steps
            steps = np.concatenate((np.repeat(_IDLE, p.T - lead, axis=0), steps))
        ends, last = _chain(np.eye(4, 8), steps.reshape(-1, p.T, 8, 16).swapaxes(0, 1))
        sums = ends.sum(axis=0)
        kernels = _pack(sums, last)  # the lead and the periods, stepped side by side
        ends, wait = _chain(wait, kernels[:-1])
        total = total + ends.sum(axis=0)
        tail = dual_mul(dual_geo(_stacked(last[-1])), _stacked(sums[-1]))
        bound = 0.0 if exact else float((wait[:, :4] @ last[-1, :, :4] @ tail.der.sum(1)).max())
        if bound <= _CERTIFIED:
            return dual_add(_stacked(total), dual_mul(_stacked(wait), tail)), bound
        ends, wait = _chain(wait, kernels[-1:])
        total, j, lead = total + ends[0], j + n * p.T, 0
    raise NonConvergenceError("recovery walk not certified in 1000000 slots")


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
    # the feedback (its slot, no packet): the ACK (P00), or an erased one (P01) and the walk
    recovery = dual_mul(acc.term(ch.P01, 0, 1), _recovery_walk(att, p, acc)[0])
    return dual_mul(prefix, dual_mul(loop, dual_add(acc.term(ch.P00, 0, 1), recovery)))


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
