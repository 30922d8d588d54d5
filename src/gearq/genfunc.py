"""Matrix generating functions evaluated with forward-mode derivatives.

A matrix MGF Phi(z) built from branch gains of the form ``A * z**n`` is
evaluated as a :class:`DualMatrix` carrying (Phi(z), dPhi/dz(z)) through
products, geometric closures and truncated series; for several z's, one
derivative per z (the uncoded/harq MGF in z_packets and z_slots).
Evaluating at z = 1 yields the total-probability check and the mean;
evaluating at z != 1 supports finite-difference cross-checks of the dual
derivative.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


class NonConvergenceError(ArithmeticError):
    """A geometric closure or truncated series failed to converge."""


class ImproperMGFError(ArithmeticError):
    """phi(1) deviated from 1 beyond tolerance; the model leaks probability."""


# Negative entries of a computed (I - A)^-1 down to -_ROUNDING * ||.||_inf
# are read as rounding.  On 20k seeded random nonnegative matrices each,
# convergent loops gave none below -2e-16 relative, and divergent loops
# (with ||.||_inf < 1e9) none above -8e-11: the cut is 500x from both.
_ROUNDING = 1e-13
_SLACK = 1e-9  # a closure that returns has rho(a) < 1 - _SLACK
_MASS_TOL = 1e-6  # scalarize's largest accepted |phi(1) - 1|


@dataclass(frozen=True)
class DualMatrix:
    """Value and first z-derivative of a matrix-valued function at one point.

    For a function of several z's, der carries a leading direction axis:
    der[i] is the derivative in the i-th z.  dual_add, dual_mul and
    dual_geo broadcast over it, each direction bit for bit as its own
    one-direction computation.
    """

    val: np.ndarray
    der: np.ndarray

    def __post_init__(self):
        if self.der.shape[-2:] != self.val.shape:
            raise ValueError("val and der shapes differ")

    @property
    def n(self) -> int:
        return self.val.shape[0]


def dual_term(coeff: np.ndarray, z_power: int, z: float = 1.0) -> DualMatrix:
    """Branch gain ``coeff * z**z_power`` as a dual at evaluation point z."""
    if z_power < 0:
        raise ValueError("z_power must be >= 0")
    coeff = np.asarray(coeff, dtype=float)
    val = coeff * z**z_power
    der = np.zeros_like(coeff) if z_power == 0 else z_power * coeff * z ** (z_power - 1)
    return DualMatrix(val, der)


def dual_identity(n: int) -> DualMatrix:
    return DualMatrix(np.eye(n), np.zeros((n, n)))


def dual_add(a: DualMatrix, b: DualMatrix) -> DualMatrix:
    return DualMatrix(a.val + b.val, a.der + b.der)


def dual_mul(a: DualMatrix, b: DualMatrix) -> DualMatrix:
    """Product along the signal path: (ab)' = a'b + ab'.  Order matters."""
    if a.val.shape[1] != b.val.shape[0]:
        raise ValueError("dimension mismatch")
    return DualMatrix(a.val @ b.val, a.der @ b.val + a.val @ b.der)


def spectral_radius(A: np.ndarray) -> float:
    """Spectral radius max |lambda_i(A)|, from the eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def dual_geo(a: DualMatrix) -> DualMatrix:
    """Geometric closure sum_{j>=0} a^j = (I - a)^(-1) with derivative.

    Precondition: a.val is entrywise nonnegative, as every branch gain
    (probabilities times nonnegative powers of z > 0) is.  For such a,
    rho(a) < 1 if and only if N = (I - a)^(-1) exists and is entrywise
    nonnegative (I - a is then a nonsingular M-matrix), and then
    1 - rho(a) >= 1 / ||N||_inf.  The guard therefore reads convergence
    off N itself: it raises NonConvergenceError when I - a is singular,
    when N has a negative entry beyond rounding, or when ||N||_inf is
    not below 1/_SLACK.  A closure that returns has rho(a) < 1 - _SLACK;
    in protocol terms, fewer than 1/_SLACK expected loop traversals.
    """
    try:
        inv = np.linalg.inv(np.eye(a.n) - a.val)
    except np.linalg.LinAlgError:
        raise NonConvergenceError("I - a is singular: self-loop spectral radius 1") from None
    norm = np.abs(inv).sum(axis=1).max()
    if not norm < 1.0 / _SLACK:
        raise NonConvergenceError(f"||(I - a)^-1||_inf = {norm:.3g}: loop gain too close to 1")
    if inv.min() < -_ROUNDING * norm:
        raise NonConvergenceError("(I - a)^-1 has a negative entry: loop gain above 1")
    return DualMatrix(inv, inv @ a.der @ inv)


def dual_sum_truncated(
    terms: Iterable[DualMatrix], tol: float = 1e-12, max_terms: int = 10**6
) -> DualMatrix:
    """Sum a decaying series of duals until both increments drop below tol.

    Truncation uses the max-norm of the value and derivative increments.
    Raises NonConvergenceError if max_terms accumulate without reaching
    tol.
    """
    it: Iterator[DualMatrix] = iter(terms)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("empty series") from None
    val = first.val.copy()
    der = first.der.copy()
    for count, term in enumerate(it, start=2):
        val += term.val
        der += term.der
        if max(np.max(np.abs(term.val)), np.max(np.abs(term.der))) < tol:
            break
        if count >= max_terms:
            raise NonConvergenceError(f"series did not converge in {max_terms} terms")
    return DualMatrix(val, der)


def scalarize(pi_I: np.ndarray, Phi: DualMatrix, *, check: bool = True) -> tuple[float, float | list]:
    """Reduce a matrix MGF to (phi(z), phi'(z)) for a start vector pi_I.

    phi(z) = pi_I Phi(z) 1 / (pi_I 1); the derivative, one per z in a list
    if Phi.der has a direction axis, is the mean at z = 1.  With check=True
    (at z = 1), |phi(1) - 1| beyond _MASS_TOL raises ImproperMGFError: the
    model or a series truncation lost probability mass.  A NaN fails every
    guard: in pi_I as a ValueError, in phi(1) as an ImproperMGFError.
    """
    if not (pi_I >= 0).all():
        raise ValueError("pi_I must be non-negative")
    norm = float(pi_I.sum())
    if not norm > 0:
        raise ValueError("pi_I must have positive mass")
    value = float(pi_I.dot(Phi.val).sum()) / norm
    mean = ((pi_I @ Phi.der).sum(-1) / norm).tolist()
    if check and not abs(value - 1.0) <= _MASS_TOL:
        raise ImproperMGFError(f"phi(1) = {value!r} deviates from 1 beyond {_MASS_TOL}")
    return value, mean
