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
4x4 values, weights them afterwards, and a closure over its last T-slot
period ends it with a certified bound on the error of both means
(_recovery_walk).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .channel import CompositeChannel, ParameterError
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
    Observations are linear in the rates (self._K: the composite's Pc
    restricted to the columns of reverse state G, and of B).
    """

    def __init__(self, ch: CompositeChannel, eps_B):
        self.ch = ch
        self.eps_B = eps_B if callable(eps_B) else (lambda m: eps_B)
        self._K = [ch.Pc * mask for mask in ([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])]

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


def _weights(packets, slots, z):
    """z_packets**packets * z_slots**slots at z = (z_packets, z_slots), then
    its derivative in each; numbers, or arrays of per-path counts."""
    zp, zs = z
    value = zp**packets * zs**slots
    return value, packets * zp ** (packets - 1) * zs**slots, slots * zp**packets * zs ** (slots - 1)


def _term(coeff: np.ndarray, packets: int, slots: int, z) -> DualMatrix:
    """Branch gain coeff * z_packets**packets * z_slots**slots as a dual in both counts."""
    c, dp, ds = _weights(packets, slots, z)
    return DualMatrix(c * coeff, np.multiply.outer((dp, ds), coeff))


def _periods(att: AttemptModel, p: ProtocolParams, j: int, n: int):
    """The n T-slot periods of the walk from slot j, stepped side by side, each
    from the identity, as plain value products: a (T, n, 4, 4) stack of each
    period's ends X1 ... X1 X0 at each of its slots, and an (n, 4, 4) stack
    of its waits X1 ... X1 over all T."""
    i = np.arange(max(j - 1, 1), j + n * p.T)  # and the last block's last slot: a rise between blocks shows
    X0, X1 = att.observation(i)
    rises = (X1[1:] > X1[:-1]).any(axis=(-2, -1))
    if rises.any():
        raise ParameterError(f"recovery rates rise along the combining index at {i[1:][rises][0]}")
    steps = np.concatenate((X0, X1), axis=-1)[-n * p.T :].reshape(n, p.T, 4, 8).swapaxes(0, 1)
    out, wait = np.empty((p.T, n, 4, 8)), np.eye(4)
    for t, step in enumerate(steps):
        wait = np.matmul(wait, step, out=out[t])[..., 4:]
    return out[..., :4], wait


def _weighted(w: np.ndarray, paths: np.ndarray) -> DualMatrix:
    """The sum of a stack of 4x4 paths, each weighted by its _weights w[:, ...], as a dual."""
    s = (w.reshape(3, -1) @ paths.reshape(-1, 16)).reshape(3, 4, 4)
    return DualMatrix(s[0], s[1:])


def _recovery_walk(att: AttemptModel, p: ProtocolParams, z):
    """Wait for a delivered cumulative feedback after the ACK was erased:
    the walk in both counts at z, and a bound on the error of its means.

    Slot j >= 1 (the combining index) ends the walk with X0(j) and
    continues it with X1(j).  The timer expires at slot d + 1 <= T and
    every T slots on, so every T-slot period from slot 1 sends one packet,
    and a path that ends at slot j has the closed-form weight
    z_packets**e * z_slots**j, e the expiries it passed.  Blocks of whole
    periods are stepped as plain values (_periods), weighted by _weights
    afterwards, and joined to the walk as duals; dual_geo over a block's
    last period closes the rest.  Rates never rise, so that closure keeps
    the surviving mass and over-counts its future: its future mean on the
    surviving mass, in either count, bounds the error of that mean from
    every start state (at z = (1, 1)); the bound is the larger of the two.
    The walk stops once the bound is at most _CERTIFIED, or at once
    (bound 0) at the limit rates eps_B(inf).
    """
    j, per_block, limit = 1, -(-_BLOCK // p.T), att.eps_B(np.inf)
    while j <= 10**6:
        exact = att.eps_B(j) == limit  # and so is every later rate
        n = 1 if exact else per_block
        ends, last = _periods(att, p, j, n)
        starts = np.empty((n + 1, 4, 4))
        starts[0] = np.eye(4)
        for q in range(n):
            np.matmul(starts[q], last[q], out=starts[q + 1])
        # the path that ends at slot t (from 0) of period q has taken q T + t + 1
        # slots, and q expiries, one more from t = d on (slot d + 1 of its period)
        t, q = np.arange(p.T)[:, None], np.arange(n, dtype=float)
        w = np.array(_weights(q + (t >= p.d), q * p.T + t + 1, z))
        block, after = _weighted(w, starts[:n] @ ends), _term(starts[n], n, n * p.T, z)
        if j == 1:
            total, wait = block, after
        else:  # join the block to the walk so far
            total, wait = dual_add(total, dual_mul(wait, block)), dual_mul(wait, after)
        tail = dual_mul(dual_geo(_term(last[-1], 1, p.T, z)), _weighted(w[:, :, 0], ends[:, -1]))
        bound = 0.0 if exact else float((wait.val @ tail.der.sum(-1).T).max())
        if bound <= _CERTIFIED:
            return dual_add(total, dual_mul(wait, tail)), bound
        j += n * p.T
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
    # the first transmission, then k - 1 slots to its feedback
    prefix = _term(Pk, 1, p.k - 1, z)
    # the lost-packet loop: a delivered NACK re-sends after k slots, an
    # erased one waits for the timer (T slots); either way one packet
    loop = dual_geo(dual_add(_term(ch.P10 @ Pk, 1, p.k, z), _term(ch.P11 @ PT, 1, p.T, z)))
    # the feedback (its slot, no packet): the ACK (P00), or an erased one (P01) and the walk
    recovery = dual_mul(_term(ch.P01, 0, 1, z), _recovery_walk(att, p, z)[0])
    return dual_mul(prefix, dual_mul(loop, dual_add(_term(ch.P00, 0, 1, z), recovery)))


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
    worse than an uncombined reception, and 0 at every m for gamma/rho = 0.
    """
    g, eb = p.gamma_over_rho, ch.rev.eps_B
    if p.scheme != "harq":
        return AttemptModel(ch, eb)
    return AttemptModel(ch, lambda m: np.minimum(eb, 1.0 - np.exp(-g / m)))


def _arq_metrics(ch: CompositeChannel, p: ProtocolParams, scheme: str) -> Metrics:
    if p.scheme != scheme:
        raise ParameterError(f"params do not select the {scheme} scheme")
    phi = build_arq_mgf(ch, p, attempt_model_for(ch, p))
    return _metrics_from_mgfs(ch, 1, *(DualMatrix(phi.val, der) for der in phi.der))


def uncoded_metrics(ch: CompositeChannel, p: ProtocolParams) -> Metrics:
    """Throughput and delay for plain selective-repeat ARQ."""
    return _arq_metrics(ch, p, "uncoded")


def harq_metrics(ch: CompositeChannel, p: ProtocolParams) -> Metrics:
    """Throughput and delay with soft combining of repeated feedback."""
    return _arq_metrics(ch, p, "harq")
