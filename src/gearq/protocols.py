"""Transmission-time and delay MGFs for uncoded and soft-combining ARQ.

Both schemes share one machine: a retransmission loop entered on a lost
packet (immediate resend on a delivered NACK, resend at timer expiry on
an erased one), an acknowledgment branch, and a recovery branch for the
packet whose ACK was erased and that is later covered by cumulative
feedback.  The recovery draws its reverse erasure rates from one
AttemptModel: the uncoded scheme is its constant sequence at the nominal
rate, soft combining a rate that falls with the combining index.

Both MGFs come from one traversal.  Every branch gain states how many
packets it transmits and how many slots it takes, and is marked
z_packets**packets * z_slots**slots; at z = (1, 1) the transmission-time
MGF (its mean counts packets) and the delay MGF (slots) share every
value matrix, so one traversal that carries the derivative in each z
gives both means (build_arq_mgf: der[0] counts packets, der[1] slots).
Coded frames and the flow graph still build one kind per call, through
Accounting.  Feedback for the packet sent in slot t
arrives in slot t+k, so an error-free first exchange has delay k.  The
recovery is one per-slot walk: each slot takes one slot, and each timer
expiry sends one packet (the pointless retransmission), so a path's
weight is a closed-form monomial in its slot.  The walk multiplies plain
4x4 values and weights them afterwards; a constant recovery is one
closure, and a closure at the next slot's rates ends each block of the
walk with a certified bound on the error of both means (_recovery_walk).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .channel import CompositeChannel, ParameterError
from .genfunc import (
    DualMatrix,
    NonConvergenceError,
    dual_geo,
    dual_term,
    scalarize,
)

SCHEMES = ("uncoded", "harq", "coded")
_EYE = np.eye(4)
_BLOCK = 32  # slots in a block of the recovery walk, rounded up to whole periods
_CERTIFIED = 1e-15  # the recovery walk stops once its certified mean error is this small


@dataclass(frozen=True, slots=True)
class ProtocolParams:
    """Protocol configuration: RTT k, timeout T, scheme, coded frame shape.

    Requires integers T >= k >= M >= N; M and N apply to coded only,
    gamma_over_rho (the combining gain) to harq only.  d = T - k slots
    remain on the timer when a packet's feedback arrives; the coded
    frame's first-feedback residual T - (k+M-1) may be negative for short
    timers, in which case expiry actions clamp to the feedback slot.
    """

    k: int
    T: int
    scheme: str = "uncoded"
    M: int = 1
    N: int = 1
    gamma_over_rho: float = 0.0

    def __post_init__(self):
        for name in ("k", "T", "M", "N"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ParameterError(f"{name} must be an integer, not {value!r}") from None
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if not 1 <= self.N <= self.M <= self.k <= self.T:
            raise ParameterError("need T >= k >= M >= N >= 1")
        if self.scheme != "coded" and (self.M != 1 or self.N != 1):
            raise ParameterError("M and N apply to the coded scheme only")
        if self.scheme != "harq" and self.gamma_over_rho != 0:
            raise ParameterError("gamma_over_rho applies to the harq scheme only")
        if not self.gamma_over_rho >= 0:
            raise ParameterError("gamma_over_rho must be >= 0")

    @property
    def d(self) -> int:
        """Residual timer slots after a single packet's feedback arrives."""
        return self.T - self.k


@dataclass(frozen=True, slots=True)
class Metrics:
    """Frame-level means of one scheme, and the per-packet figures they give.

    frame_tau_mean counts the packets a frame transmits and delay_mean the
    slots until it is acknowledged, M the packets it carries (1 for uncoded
    and harq).  tau_mean and throughput are per packet for every scheme;
    delay_mean_per_packet divides the frame's delay by M for comparison
    across schemes, and equals delay_mean when M = 1.
    """

    frame_tau_mean: float
    delay_mean: float
    M: int
    mgf_err_tau: float
    mgf_err_delay: float

    @property
    def tau_mean(self) -> float:
        return self.frame_tau_mean / self.M

    @property
    def throughput(self) -> float:
        return 1.0 / self.tau_mean

    @property
    def delay_mean_per_packet(self) -> float:
        return self.delay_mean / self.M


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

    def term(self, coeff: np.ndarray, packets: int, slots: int) -> DualMatrix:
        """Branch gain coeff * z**packets (kind "tau") or z**slots ("delay") as a dual."""
        return dual_term(coeff, slots if self.kind == "delay" else packets, self.z)


class AttemptModel:
    """Reverse-link erasure rates along the combining index, as chain matrices.

    eps_B is state B's erasure-rate sequence over the combining index
    m >= 1: a vectorized function of m that never rises and takes
    m = inf (its limit), or a number, which is the constant sequence.
    State G's rate at m is min(eps_G, eps_B(m)): combining never makes
    state G worse than its nominal rate, nor worse than state B.
    Observations are linear in the rates (self._split: the composite's Pc
    restricted to the columns of reverse state G, and of B, in each half).
    """

    def __init__(self, ch: CompositeChannel, eps_B):
        self.ch = ch
        self.eps_B = eps_B if callable(eps_B) else (lambda m: eps_B)
        self._split = (_MASKS[:, None] * np.concatenate((ch.Pc, ch.Pc), axis=1)).reshape(4, 32)

    def rates(self, m):
        """(eps_G, eps_B) of the reverse link at index m, each shaped like m."""
        eb = self.eps_B(m) + np.zeros(np.shape(m))
        return np.minimum(self.ch.rev.eps_G, eb), eb

    def steps(self, m) -> np.ndarray:
        """[Px0 | Px1] at index m, shaped like m plus (4, 8): the chain step split
        by the reverse bit (delivered, erased), summing to the chain matrix."""
        eg, eb = self.rates(m)
        return (np.array((1.0 - eg, 1.0 - eb, eg, eb)).T @ self._split).reshape(np.shape(m) + (4, 8))


# [Px0 | Px1] = (1 - eps_G, 1 - eps_B, eps_G, eps_B) . [Pc | Pc] masked by each row
_MASKS = np.kron(np.eye(2), [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def _weights(packets, slots, z):
    """z_packets**packets * z_slots**slots at z = (z_packets, z_slots), then
    its derivative in each; numbers, or arrays of per-path counts."""
    zp, zs = z
    value = zp**packets * zs**slots
    return value, value * packets / zp, value * slots / zs


def _stack(coeff: np.ndarray, packets: int, slots: int, z) -> np.ndarray:
    """Branch gain coeff * z_packets**packets * z_slots**slots, and its derivative in each count."""
    return np.array(_weights(packets, slots, z))[:, None, None] * coeff


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two stacks along the signal path: (ab)' = a'b + ab'."""
    out = a.dot(b[0])
    out[1:] += a[0] @ b[1:]
    return out


def _geo(a: np.ndarray) -> np.ndarray:
    g = dual_geo(DualMatrix(a[0], a[1:]))  # the one guarded closure
    return np.concatenate((g.val[None], g.der))


def _weighted(w: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """The sum of a stack of 4x4 paths, each weighted by its _weights w[:, ...], as a stack."""
    return w.reshape(3, -1).dot(paths.reshape(-1, 16)).reshape(3, 4, 4)


def _periods(steps):
    """Periods side by side from the identity, from their T steps, (T, ..., 4, 8) or a list:
    each one's ends X1 ... X1 X0 at each slot, and its wait X1 ... X1 over all T."""
    out, wait = np.empty((len(steps),) + steps[0].shape), _EYE
    mul = np.dot if out.ndim == 3 else np.matmul  # one period: np.dot, the same product for less
    for t, step in enumerate(steps):
        wait = mul(wait, step, out=out[t])[..., 4:]
    return out[..., :4], wait


def _close(ends: np.ndarray, wait: np.ndarray, w: np.ndarray, z) -> np.ndarray:
    """A period repeated for good, its slots weighted by w: dual_geo(period) . ends."""
    return _mul(_geo(_stack(wait, 1, len(ends), z)), _weighted(w, ends))


def _recovery_walk(att: AttemptModel, p: ProtocolParams, z):
    """Wait for a delivered cumulative feedback after the ACK was erased:
    the walk in both counts at z (a stack), and a bound on its means' error.

    Slot j >= 1 (the combining index) ends the walk with X0(j) and
    continues it with X1(j).  The timer expires at slot d + 1 <= T and
    every T slots on, so a path that ends at slot j has the closed-form
    weight z_packets**e * z_slots**j, e the expiries it passed.  Rates
    never rise, so holding them at one slot's for good keeps the surviving
    mass and over-counts its future: that constant recovery is one closure
    (_close), and at the limit rates eps_B(inf) the whole walk (bound 0).
    Otherwise blocks of whole periods, stepped side by side as plain values
    with one that repeats the next slot (_periods), are weighted afterwards
    and joined to the walk, and the closure at the next slot's rates ends
    it: its future mean on the surviving mass, in either count, bounds the
    error of that mean from every start state (at z = (1, 1)).  The walk
    stops once the larger is at most _CERTIFIED or the closure is exact.
    """
    T, limit, j = p.T, att.eps_B(np.inf), 1
    n = 0 if att.eps_B(1) == limit else -(-_BLOCK // T)
    # a path ending at slot s of a block has passed (s + k - 1) // T expiries
    s = np.arange(1.0, max(n, 1) * T + 1)
    w = np.array(_weights((s + (p.k - 1)) // T, s, z))
    if n == 0:
        return _close(*_periods([att.steps(1)] * T), w, z), 0.0
    while j <= 10**6:
        step = att.steps(np.minimum(np.arange(j, j + (n + 1) * T), j + n * T))
        rises = (step[1:] > step[:-1])[:, :, 4:]
        if rises.any():
            at = j + 1 + rises.nonzero()[0][0]
            raise ParameterError(f"recovery rates rise along the combining index at {at}")
        ends, waits = _periods(step.reshape(n + 1, T, 4, 8).swapaxes(0, 1))
        close = _close(ends[:, n], waits[n], w[:, :T], z)
        starts = np.empty((n + 1, 4, 4))
        starts[0] = _EYE
        for q in range(n):
            np.dot(starts[q], waits[q], out=starts[q + 1])
        block = _weighted(w, starts[:n, None] @ ends[:, :n].swapaxes(0, 1))
        after = _stack(starts[n], n, n * T, z)
        if j == 1:
            total, wait = block, after
        else:  # join the block to the walk so far
            total, wait = total + _mul(wait, block), _mul(wait, after)
        j += n * T
        bound = float((wait[0] @ close[1:].sum(-1).T).max())
        if bound <= _CERTIFIED or att.eps_B(j) == limit:
            return total + _mul(wait, close), bound if bound <= _CERTIFIED else 0.0
    raise NonConvergenceError("recovery walk not certified in 1000000 slots")


def build_arq_mgf(
    ch: CompositeChannel, p: ProtocolParams, att: AttemptModel, z=(1.0, 1.0)
) -> DualMatrix:
    """Full matrix MGF of the single-packet schemes (uncoded / harq) in both
    counts at z = (z_packets, z_slots).

    der[0] is its derivative in z_packets (transmissions per packet), der[1]
    in z_slots (slots from first transmission to ACK receipt).  The packet's
    own feedback sees the nominal channel; `att` governs the recovery by
    cumulative feedback after an erased acknowledgment.
    """
    Pk = np.linalg.matrix_power(ch.Pc, p.k - 1)
    PT = np.linalg.matrix_power(ch.Pc, p.T - 1)
    # the lost-packet loop: a delivered NACK re-sends after k slots, an
    # erased one waits for the timer (T slots); either way one packet
    loop = _geo(_stack(ch.P10.dot(Pk), 1, p.k, z) + _stack(ch.P11.dot(PT), 1, p.T, z))
    # the feedback: the ACK (P00), or an erased one (P01) and the walk
    feedback = ch.P01 @ _recovery_walk(att, p, z)[0]
    feedback[0] += ch.P00
    # the first transmission, k - 1 slots to its feedback and the feedback's slot
    phi = _mul(_stack(Pk, 1, p.k, z), _mul(loop, feedback))
    return DualMatrix(phi[0], phi[1:])


def _metrics_from_mgfs(
    pi_I: np.ndarray, M: int, tau_mgf: DualMatrix, delay_mgf: DualMatrix
) -> Metrics:
    """Metrics of a frame of M packets from start vector pi_I and its two MGFs."""
    v_tau, frame_tau = scalarize(pi_I, tau_mgf)
    v_d, frame_delay = scalarize(pi_I, delay_mgf)
    return Metrics(frame_tau, frame_delay, M, abs(v_tau - 1.0), abs(v_d - 1.0))


def attempt_model_for(ch: CompositeChannel, p: ProtocolParams) -> AttemptModel:
    """The recovery model of the scheme in `p`: its state-B rate sequence.

    Uncoded and coded are the constant sequence at the nominal eps_B; harq
    combines with eps_B(m) = min(eps_B, 1 - exp(-(gamma/rho)/m)), never
    worse than an uncombined reception, and 0 at every m for gamma/rho = 0.
    """
    g, eb = p.gamma_over_rho, ch.rev.eps_B
    if p.scheme != "harq":
        return AttemptModel(ch, eb)
    return AttemptModel(ch, lambda m: np.minimum(eb, 1.0 - np.exp(-g / m)))


def _arq_metrics(ch: CompositeChannel, p: ProtocolParams, scheme: str) -> Metrics:
    if p.scheme != scheme:
        raise ParameterError(f"params do not select the {scheme} scheme")
    v, (tau, delay) = scalarize(ch.pi_I, build_arq_mgf(ch, p, attempt_model_for(ch, p)))
    err = abs(v - 1.0)  # one MGF value serves both counts
    return Metrics(tau, delay, 1, err, err)


def uncoded_metrics(ch: CompositeChannel, p: ProtocolParams) -> Metrics:
    """Throughput and delay for plain selective-repeat ARQ."""
    return _arq_metrics(ch, p, "uncoded")


def harq_metrics(ch: CompositeChannel, p: ProtocolParams) -> Metrics:
    """Throughput and delay with soft combining of repeated feedback."""
    return _arq_metrics(ch, p, "harq")
