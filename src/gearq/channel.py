"""Gilbert-Elliott erasure channels and the joint forward/reverse composite.

The data (forward) and feedback (reverse) links are each modeled as a
two-state Markov chain with states G (good) and B (bad) and per-state
erasure rates.  Protocol analysis works on the joint channel: a 4-state
chain whose observation matrices are Kronecker products of the per-link
success/error matrices, one for each (forward bit, reverse bit) pair.
build_composite splits the chain once; every consumer (the ARQ and coded
analyses, the flow graph and the simulator) reads its splits from the
one CompositeChannel of a link.  Stationary vectors are closed forms: a
link's pi = (r, q) / (q + r) (Gilbert, "Capacity of a burst-noise
channel", BSTJ 1960), and the joint chain's pi_fwd (x) pi_rev.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ParameterError(ValueError):
    """A channel parameter is outside its admissible domain."""


class DegenerateChainError(ValueError):
    """The chain is reducible; its stationary distribution is not unique."""


@dataclass(frozen=True)
class HalfChannel:
    """One direction of the link: chain, observation matrices, aggregates.

    P is the 2x2 state-transition matrix (rows G, B).  P0 and P1 weight
    each transition with the probability of a successful / erased packet
    observed in the destination state, so P0 + P1 = P.  eps is the
    stationary block-error rate pi_G*eps_G + pi_B*eps_B.
    """

    r: float
    q: float
    eps_G: float
    eps_B: float
    P: np.ndarray
    P0: np.ndarray
    P1: np.ndarray
    pi: np.ndarray
    eps: float


@dataclass(frozen=True)
class CompositeChannel:
    """Joint forward x reverse channel on the 4-state product chain.

    Observation index "xy" means forward bit x and reverse bit y (0 =
    delivered, 1 = erased).  State order is (G,G), (G,B), (B,G), (B,B),
    forward component major, so reverse state G is columns 0 and 2 of Pc
    and reverse state B columns 1 and 3.  pi_c = pi_fwd (x) pi_rev in the
    same order.  pi_I = pi_c @ P0x is kept un-normalized; MGF
    scalarization divides by pi_I @ 1.
    """

    P00: np.ndarray
    P01: np.ndarray
    P10: np.ndarray
    P11: np.ndarray
    P0x: np.ndarray
    Px0: np.ndarray
    Px1: np.ndarray
    Pc: np.ndarray
    pi_c: np.ndarray
    pi_I: np.ndarray
    fwd: HalfChannel
    rev: HalfChannel


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name}={value} is not a probability")


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


# A HalfChannel is immutable, so calls at the same link parameters share
# one; typed, so that 0 and 0.0 keep the field types of the call.
@lru_cache(maxsize=128, typed=True)
def build_half_channel(r: float, eps_G: float, eps_B: float, eps: float) -> HalfChannel:
    """Construct one channel direction from (r, eps_G, eps_B, eps).

    The G->B rate follows from the requested aggregate error rate as
    q = r*(eps - eps_G)/(eps_B - eps).  Two boundary regimes are special:

    * eps_G == eps_B (== eps): a constant erasure rate regardless of
      state.  The chain is made memoryless (both rows equal) with
      q = 1 - r, so that it mixes and pi = (r, 1 - r).
    * r == 0 with eps == eps_B: the chain is absorbed in B, giving a
      constant erasure rate eps_B; any positive q yields the same
      stationary behavior, so q = 1 is used.

    Parameters
    ----------
    r : float
        B -> G transition probability.
    eps_G, eps_B : float
        Per-state erasure rates, eps_G <= eps_B.
    eps : float
        Target aggregate block-error rate, eps_G <= eps <= eps_B.

    Raises
    ------
    ParameterError
        If any input is outside [0, 1], the ordering constraint fails,
        eps >= eps_B outside the boundary regimes above, or the implied
        q falls outside [0, 1].
    DegenerateChainError
        If q + r == 0 (r = 0 with eps < eps_B): the chain never leaves its
        state, so its stationary vector is not unique.
    """
    for name, value in (("r", r), ("eps_G", eps_G), ("eps_B", eps_B), ("eps", eps)):
        _check_prob(name, value)
    if not eps_G <= eps <= eps_B:
        raise ParameterError(f"need eps_G <= eps <= eps_B, got ({eps_G}, {eps}, {eps_B})")

    if eps == eps_B:
        if eps_G == eps_B:
            q = 1.0 - r
        elif r == 0.0:
            q = 1.0
        else:
            raise ParameterError(
                "eps == eps_B with eps_G < eps_B and r > 0 has no finite q"
            )
    else:
        q = r * (eps - eps_G) / (eps_B - eps)
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"implied q={q} is outside [0, 1]")

    if q + r == 0:
        raise DegenerateChainError("r = q = 0: the link never changes state")
    P = np.array([[1.0 - q, q], [r, 1.0 - r]])
    pi = np.array([r, q]) / (q + r)
    P0 = P @ np.diag([1.0 - eps_G, 1.0 - eps_B])
    P1 = P @ np.diag([eps_G, eps_B])
    _freeze(P, P0, P1, pi)
    return HalfChannel(r=r, q=q, eps_G=eps_G, eps_B=eps_B, P=P, P0=P0, P1=P1, pi=pi, eps=eps)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2-D arrays, bit for bit, without its generic set-up."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def build_composite(fwd: HalfChannel, rev: HalfChannel) -> CompositeChannel:
    """Compose two half channels into the joint 4-state channel.

    Pxy = P_fwd,x (x) P_rev,y is the step with forward bit x and reverse
    bit y.  Marginals: P0x splits the composite step by a delivered
    forward bit, Px0/Px1 by the reverse bit.  Pc = P_fwd (x) P_rev has the
    stationary vector pi_c = pi_fwd (x) pi_rev of two independent links;
    pi_I = pi_c @ P0x is the (un-normalized) state vector in force when a
    new packet is sent.

    Raises DegenerateChainError when Pc is reducible, so that pi_c is not
    unique: a half that never changes state (q + r == 0), or two periodic
    halves (q == r == 1), whose product splits into two classes.
    """
    if fwd.q + fwd.r == 0 or rev.q + rev.r == 0:
        raise DegenerateChainError("a link that never changes state: no unique stationary vector")
    if fwd.q == fwd.r == rev.q == rev.r == 1:
        raise DegenerateChainError("two periodic links: the joint chain splits into two classes")
    P00, P01 = kron(fwd.P0, rev.P0), kron(fwd.P0, rev.P1)
    P10, P11 = kron(fwd.P1, rev.P0), kron(fwd.P1, rev.P1)
    Pc = kron(fwd.P, rev.P)
    P0x = P00 + P01
    Px0 = P00 + P10
    Px1 = P01 + P11
    pi_c = np.outer(fwd.pi, rev.pi).ravel()
    pi_I = pi_c @ P0x
    _freeze(P00, P01, P10, P11, P0x, Px0, Px1, Pc, pi_c, pi_I)
    return CompositeChannel(
        P00=P00, P01=P01, P10=P10, P11=P11,
        P0x=P0x, Px0=Px0, Px1=Px1,
        Pc=Pc, pi_c=pi_c, pi_I=pi_I, fwd=fwd, rev=rev,
    )


# Cached like build_half_channel: a CompositeChannel is immutable too.
@lru_cache(maxsize=128, typed=True)
def symmetric_composite(r: float, eps_G: float, eps_B: float, eps: float) -> CompositeChannel:
    """Composite channel with identical forward and reverse parameters."""
    half = build_half_channel(r, eps_G, eps_B, eps)
    return build_composite(half, half)
