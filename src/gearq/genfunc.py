"""Matrix generating functions evaluated with forward-mode derivatives.

A matrix MGF Phi(z) built from branch gains of the form ``A * z**n`` is
evaluated as a :class:`DualMatrix` carrying (Phi(z), dPhi/dz(z)) through
products, geometric closures and truncated series.  Evaluating at z = 1
yields the total-probability check and the mean; evaluating at z != 1
supports finite-difference cross-checks of the dual derivative.
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


@dataclass(frozen=True)
class DualMatrix:
    """Value and first z-derivative of a matrix-valued function at one point."""

    val: np.ndarray
    der: np.ndarray

    def __post_init__(self):
        if self.val.shape != self.der.shape:
            raise ValueError("val and der shapes differ")

    @property
    def n(self) -> int:
        return self.val.shape[0]


def dual_term(coeff: np.ndarray, z_power: int, z: float = 1.0) -> DualMatrix:
    """Branch gain ``coeff * z**z_power`` as a dual at evaluation point z."""
    if z_power < 0:
        raise ValueError("z_power must be >= 0")
    coeff = np.asarray(coeff, dtype=float)
    if z == 1.0:
        return DualMatrix(coeff.copy(), z_power * coeff)
    val = coeff * z**z_power
    der = np.zeros_like(coeff) if z_power == 0 else z_power * coeff * z ** (z_power - 1)
    return DualMatrix(val, der)


def dual_identity(n: int) -> DualMatrix:
    return DualMatrix(np.eye(n), np.zeros((n, n)))


def dual_zero(n: int) -> DualMatrix:
    return DualMatrix(np.zeros((n, n)), np.zeros((n, n)))


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


def dual_geo(a: DualMatrix, slack: float = 1e-9) -> DualMatrix:
    """Geometric closure sum_{j>=0} a^j = (I - a)^(-1) with derivative.

    Precondition: a.val is entrywise nonnegative, as every branch gain
    (probabilities times nonnegative powers of z > 0) is.  For such a,
    rho(a) < 1 if and only if N = (I - a)^(-1) exists and is entrywise
    nonnegative (I - a is then a nonsingular M-matrix), and then
    1 - rho(a) >= 1 / ||N||_inf.  The guard therefore reads convergence
    off N itself: it raises NonConvergenceError when I - a is singular,
    when N has a negative entry beyond rounding, or when ||N||_inf is
    not below 1/slack.  A closure that returns has rho(a) < 1 - slack;
    in protocol terms, fewer than 1/slack expected loop traversals.
    """
    try:
        inv = np.linalg.inv(np.eye(a.n) - a.val)
    except np.linalg.LinAlgError:
        raise NonConvergenceError("I - a is singular: self-loop spectral radius 1") from None
    norm = np.max(np.sum(np.abs(inv), axis=1))
    if not norm < 1.0 / slack:
        raise NonConvergenceError(f"||(I - a)^-1||_inf = {norm:.3g}: loop gain too close to 1")
    if np.min(inv) < -_ROUNDING * norm:
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


def scalarize(
    pi_I: np.ndarray,
    Phi: DualMatrix,
    *,
    check: bool = True,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Reduce a matrix MGF to (phi(z), phi'(z)) for a start vector pi_I.

    phi(z) = pi_I Phi(z) 1 / (pi_I 1); the derivative is the mean when
    z = 1.  With check=True (evaluation at z = 1), a deviation of phi(1)
    from 1 beyond tol raises ImproperMGFError: the protocol model or a
    series truncation lost probability mass.
    """
    if np.min(pi_I) < 0:
        raise ValueError("pi_I must be non-negative")
    norm = float(np.sum(pi_I))
    ones = np.ones(Phi.n)
    value = float(pi_I @ Phi.val @ ones) / norm
    mean = float(pi_I @ Phi.der @ ones) / norm
    if check and abs(value - 1.0) > tol:
        raise ImproperMGFError(f"phi(1) = {value!r} deviates from 1 beyond {tol}")
    return value, mean
