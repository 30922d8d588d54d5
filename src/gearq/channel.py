"""Gilbert-Elliott erasure channels and the joint forward/reverse composite.

The data (forward) and feedback (reverse) links are each modeled as a
two-state Markov chain with states G (good) and B (bad) and per-state
erasure rates.  Protocol analysis works on the joint channel: a 4-state
chain whose observation matrices are Kronecker products of the per-link
success/error matrices, one for each (forward bit, reverse bit) pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ParameterError(ValueError):
    """A channel parameter is outside its admissible domain."""


class DegenerateChainError(ValueError):
    """The chain is reducible; its stationary distribution is not unique."""


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of a row-stochastic matrix via a direct solve.

    Solves pi @ P = pi together with sum(pi) = 1 by replacing one equation
    of (P.T - I) x = 0 with the normalization row.  Small chains only; no
    iterative methods.

    Raises
    ------
    DegenerateChainError
        If the system is singular or the solution fails to be a
        probability vector (reducible chain).
    """
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateChainError("chain has no unique stationary vector") from exc
    if np.max(np.abs(pi @ P - pi)) > 1e-9 or np.min(pi) < -1e-12:
        raise DegenerateChainError("chain has no unique stationary vector")
    return np.clip(pi, 0.0, None)


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
    forward component major.  pi_I = pi_c @ P0x is kept un-normalized;
    MGF scalarization divides by pi_I @ 1.
    """

    P00: np.ndarray
    P01: np.ndarray
    P10: np.ndarray
    P11: np.ndarray
    P0x: np.ndarray
    P1x: np.ndarray
    Px0: np.ndarray
    Px1: np.ndarray
    Pc: np.ndarray
    pi_c: np.ndarray
    pi_I: np.ndarray
    eps: float
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
      q = 1 - r, which keeps the stationary solve well posed.
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

    P = np.array([[1.0 - q, q], [r, 1.0 - r]])
    pi = stationary_distribution(P)
    P0 = P @ np.diag([1.0 - eps_G, 1.0 - eps_B])
    P1 = P @ np.diag([eps_G, eps_B])
    _freeze(P, P0, P1, pi)
    return HalfChannel(r=r, q=q, eps_G=eps_G, eps_B=eps_B, P=P, P0=P0, P1=P1, pi=pi, eps=eps)


def joint_observation_matrices(
    fwd_P0: np.ndarray, fwd_P1: np.ndarray, rev_P0: np.ndarray, rev_P1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kronecker observation matrices (P00, P01, P10, P11), forward bit first."""
    return (
        np.kron(fwd_P0, rev_P0),
        np.kron(fwd_P0, rev_P1),
        np.kron(fwd_P1, rev_P0),
        np.kron(fwd_P1, rev_P1),
    )


def build_composite(fwd: HalfChannel, rev: HalfChannel) -> CompositeChannel:
    """Compose two half channels into the joint 4-state channel.

    Marginals: P0x/P1x split the composite step by the forward bit,
    Px0/Px1 by the reverse bit.  pi_c solves the stationary equations of
    Pc = P_fwd (x) P_rev; pi_I = pi_c @ P0x is the (un-normalized) state
    vector in force when a new packet is sent.
    """
    P00, P01, P10, P11 = joint_observation_matrices(fwd.P0, fwd.P1, rev.P0, rev.P1)
    Pc = np.kron(fwd.P, rev.P)
    P0x = P00 + P01
    P1x = P10 + P11
    Px0 = P00 + P10
    Px1 = P01 + P11
    pi_c = stationary_distribution(Pc)
    pi_I = pi_c @ P0x
    _freeze(P00, P01, P10, P11, P0x, P1x, Px0, Px1, Pc, pi_c, pi_I)
    return CompositeChannel(
        P00=P00, P01=P01, P10=P10, P11=P11,
        P0x=P0x, P1x=P1x, Px0=Px0, Px1=Px1,
        Pc=Pc, pi_c=pi_c, pi_I=pi_I, eps=fwd.eps, fwd=fwd, rev=rev,
    )


def symmetric_composite(r: float, eps_G: float, eps_B: float, eps: float) -> CompositeChannel:
    """Composite channel with identical forward and reverse parameters."""
    half = build_half_channel(r, eps_G, eps_B, eps)
    return build_composite(half, half)
