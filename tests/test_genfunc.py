"""Dual-matrix arithmetic: power rule, product rule, closures, truncation."""
import numpy as np
import pytest

from gearq.genfunc import (
    DualMatrix,
    ImproperMGFError,
    NonConvergenceError,
    dual_add,
    dual_geo,
    dual_identity,
    dual_mul,
    dual_sum_truncated,
    dual_term,
    scalarize,
    spectral_radius,
)

TOL = 1e-12


def rand_dual(rng, n=3, scale=0.3):
    return DualMatrix(scale * rng.random((n, n)), rng.random((n, n)))


def test_term_constant():
    d = dual_term(np.eye(2), 0)
    assert np.allclose(d.val, np.eye(2)) and np.allclose(d.der, 0.0)


def test_term_linear_and_power_rule():
    A = np.arange(4.0).reshape(2, 2)
    d = dual_term(A, 1)
    assert np.allclose(d.val, A) and np.allclose(d.der, A)
    k = 5
    d4 = dual_term(A, k - 1)
    assert np.allclose(d4.der, 4 * A, atol=TOL)


def test_term_at_off_unit_point():
    A = np.array([[0.5, 0.1], [0.2, 0.3]])
    z = 1.1
    d = dual_term(A, 3, z)
    assert np.allclose(d.val, A * z**3, atol=TOL)
    assert np.allclose(d.der, 3 * A * z**2, atol=TOL)


def test_mul_examples():
    rng = np.random.default_rng(0)
    A, B = rng.random((2, 2)), rng.random((2, 2))
    prod = dual_mul(dual_term(A, 1), dual_term(B, 1))
    assert np.allclose(prod.val, A @ B, atol=TOL)
    assert np.allclose(prod.der, 2 * A @ B, atol=TOL)
    ident = dual_identity(2)
    b = dual_term(B, 3)
    out = dual_mul(ident, b)
    assert np.allclose(out.val, b.val) and np.allclose(out.der, b.der)
    out2 = dual_mul(DualMatrix(A, A), DualMatrix(B, np.zeros((2, 2))))
    assert np.allclose(out2.val, A @ B) and np.allclose(out2.der, A @ B)


def test_mul_associative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, c = (rand_dual(rng) for _ in range(3))
        left = dual_mul(dual_mul(a, b), c)
        right = dual_mul(a, dual_mul(b, c))
        assert np.allclose(left.val, right.val, atol=TOL)
        assert np.allclose(left.der, right.der, atol=TOL)


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        dual_mul(dual_identity(2), dual_identity(3))


@pytest.mark.parametrize("n", [4, 8, 20])
def test_ops_broadcast_over_the_direction_axis(n):
    # der with a leading direction axis, (2, n, n), as the two-count ARQ MGF
    # carries it: each direction bit for bit as its one-direction computation
    rng = np.random.default_rng(n)
    for _ in range(50):
        a, b = (DualMatrix(rng.random((n, n)) / n, rng.random((2, n, n))) for _ in range(2))
        for op, args in ((dual_add, (a, b)), (dual_mul, (a, b)), (dual_geo, (a,))):
            both = op(*args)
            for i in range(2):
                each = op(*(DualMatrix(x.val, x.der[i]) for x in args))
                assert np.array_equal(both.val, each.val), op.__name__
                assert np.array_equal(both.der[i], each.der), op.__name__


def test_geo_empty_loop():
    g = dual_geo(DualMatrix(np.zeros((3, 3)), np.zeros((3, 3))))
    assert np.allclose(g.val, np.eye(3)) and np.allclose(g.der, 0.0)


def test_geo_scalar_series():
    # sum z^j (I/2)^j at z=1: value 2I, derivative 2I * I/2 * 2I = 2I
    A = 0.5 * np.eye(2)
    g = dual_geo(DualMatrix(A, A))
    assert np.allclose(g.val, 2 * np.eye(2), atol=TOL)
    assert np.allclose(g.der, 2 * np.eye(2), atol=TOL)


def test_geo_inverse_derivative_identity():
    rng = np.random.default_rng(2)
    A = 0.4 * rng.random((3, 3))
    g = dual_geo(dual_term(A, 1))
    inv = np.linalg.inv(np.eye(3) - A)
    assert np.allclose(g.der, inv @ A @ inv, atol=1e-11)
    assert np.allclose((np.eye(3) - A) @ g.val, np.eye(3), atol=TOL)


def test_geo_divergence_guard():
    with pytest.raises(NonConvergenceError):
        dual_geo(dual_term(np.eye(2), 1))


def test_geo_guard_singular_is_nonconvergence():
    # I - A singular: the solve fails, and the guard names it
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(NonConvergenceError):
        dual_geo(dual_term(A, 1))


@pytest.mark.parametrize("A", [
    [[0.0, 2.0], [2.0, 0.0]],
    # a slow but convergent block next to a divergent one: the negative
    # entry is only 1e-8 of ||(I - A)^-1||_inf, far above rounding
    [[1 - 1e-8, 0.0], [0.0, 2.0]],
], ids=["irreducible", "reducible"])
def test_geo_guard_rejects_invertible_divergent_loop(A):
    # I - A is invertible, but rho(A) = 2: the inverse has negative entries
    with pytest.raises(NonConvergenceError):
        dual_geo(dual_term(np.array(A), 1))


def test_geo_guard_rejects_within_slack():
    # rho = 1 - 1e-12 < 1, but about 1e12 expected traversals
    P = np.array([[0.2, 0.8, 0.0], [0.1, 0.6, 0.3], [0.5, 0.0, 0.5]])
    with pytest.raises(NonConvergenceError):
        dual_geo(dual_term((1 - 1e-12) * P, 1))


def test_geo_guard_accepts_near_one_and_matches_inverse():
    P = np.array([[0.2, 0.8, 0.0], [0.1, 0.6, 0.3], [0.5, 0.0, 0.5]])
    A = 0.999 * P
    assert spectral_radius(A) == pytest.approx(0.999, abs=1e-12)
    g = dual_geo(dual_term(A, 1))
    assert np.array_equal(g.val, np.linalg.inv(np.eye(3) - A))


def test_geo_guard_matches_spectral_radius_on_random_matrices():
    rng = np.random.default_rng(7)
    slack = 1e-9  # dual_geo's built-in slack
    checked = rejected = 0
    while checked < 200:
        n = int(rng.integers(1, 9))
        B = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.3, 1.0))
        rho_B = spectral_radius(B)
        if rho_B == 0.0:
            continue
        A = B * (rng.uniform(0.2, 2.0) / rho_B)
        rho = spectral_radius(A)
        if abs(rho - 1.0) <= 1e-6:
            continue
        expect_reject = rho >= 1.0 - slack
        try:
            dual_geo(dual_term(A, 1))
            got_reject = False
        except NonConvergenceError:
            got_reject = True
        assert got_reject == expect_reject, (A, rho)
        checked += 1
        rejected += got_reject
    assert 0 < rejected < checked


def test_spectral_radius_power_iteration():
    rng = np.random.default_rng(3)
    A = rng.random((4, 4))
    assert spectral_radius(A) == pytest.approx(
        max(abs(np.linalg.eigvals(A))), rel=1e-6
    )
    assert spectral_radius(np.zeros((2, 2))) == 0.0


def test_sum_truncated_zero_terms():
    def zeros():
        while True:
            yield DualMatrix(np.zeros((2, 2)), np.zeros((2, 2)))

    out = dual_sum_truncated(zeros(), tol=1e-12)
    assert np.allclose(out.val, 0.0) and np.allclose(out.der, 0.0)


def test_sum_truncated_matches_geometric():
    A = np.array([[0.3, 0.1], [0.05, 0.4]])

    def powers():
        term = dual_identity(2)
        step = dual_term(A, 1)
        while True:
            yield term
            term = dual_mul(term, step)

    out = dual_sum_truncated(powers(), tol=1e-14)
    ref = dual_geo(dual_term(A, 1))
    assert np.allclose(out.val, ref.val, atol=1e-12)
    assert np.allclose(out.der, ref.der, atol=1e-12)


def test_sum_truncated_refinement():
    # attempt-decaying terms: halving the tolerance changes almost nothing
    def terms(tol_probe):
        prefix = dual_identity(2)
        m = 1
        while True:
            eb = 1.0 - np.exp(-1.0 / m)
            prefix = dual_mul(prefix, dual_term(eb * np.eye(2) * 0.8, 1))
            yield prefix
            m += 1

    coarse = dual_sum_truncated(terms(None), tol=1e-12)
    fine = dual_sum_truncated(terms(None), tol=1e-13)
    assert np.max(np.abs(coarse.val - fine.val)) < 1e-11


def test_sum_truncated_nonconvergence():
    def ones():
        while True:
            yield dual_identity(2)

    with pytest.raises(NonConvergenceError):
        dual_sum_truncated(ones(), tol=1e-12, max_terms=100)


def test_scalarize_deterministic_time():
    k = 5
    phi = DualMatrix(np.eye(4), k * np.eye(4))
    value, mean = scalarize(np.full(4, 0.25), phi)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert mean == pytest.approx(k, abs=1e-12)
    # a derivative in each of two z's: one built-in float mean per z
    two = DualMatrix(np.eye(4), np.multiply.outer([1.0, k], np.eye(4)))
    value, means = scalarize(np.full(4, 0.25), two)
    assert value == 1.0 and means == [1.0, k] and all(type(m) is float for m in means)


def test_scalarize_improper_flag():
    phi = DualMatrix(0.9 * np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ImproperMGFError):
        scalarize(np.array([0.5, 0.5]), phi)
    value, _ = scalarize(np.array([0.5, 0.5]), phi, check=False)
    assert value == pytest.approx(0.9)


@pytest.mark.parametrize(
    "pi_I,match",
    [
        (np.array([np.nan, 1.0, 1.0, 1.0]), "non-negative"),
        (np.array([1.0, -1.0, 1.0, 1.0]), "non-negative"),
        (np.zeros(4), "positive mass"),
    ],
    ids=["nan", "negative", "all-zero"],
)
def test_scalarize_rejects_a_start_vector_without_mass(pi_I, match):
    phi = DualMatrix(np.eye(4), 5 * np.eye(4))
    for check in (True, False):
        with pytest.raises(ValueError, match=match):
            scalarize(pi_I, phi, check=check)


def test_scalarize_flags_a_nan_mgf():
    val = np.eye(4)
    val[0, 0] = np.nan
    phi = DualMatrix(val, 5 * np.eye(4))
    with pytest.raises(ImproperMGFError):
        scalarize(np.full(4, 0.25), phi)
