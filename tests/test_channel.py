"""Channel construction: frozen examples, invariants, parameter domain."""
import numpy as np
import pytest

from gearq.channel import (
    DegenerateChainError,
    ParameterError,
    build_composite,
    build_half_channel,
    joint_observation_matrices,
    stationary_distribution,
    symmetric_composite,
)

TOL = 1e-12


def test_symmetric_half_channel_values():
    # q = r*eps/(1-eps) = 0.3*0.5/0.5 = 0.3; symmetric chain => pi = (1/2, 1/2)
    h = build_half_channel(r=0.3, eps_G=0.0, eps_B=1.0, eps=0.5)
    assert h.q == pytest.approx(0.3, abs=TOL)
    assert h.pi == pytest.approx([0.5, 0.5], abs=TOL)


def test_zero_error_half_channel():
    h = build_half_channel(r=0.3, eps_G=0.0, eps_B=1.0, eps=0.0)
    assert h.q == 0.0
    assert h.pi == pytest.approx([1.0, 0.0], abs=TOL)
    # the bad state is unreachable, so the error process carries no mass
    # and the success matrix agrees with the chain on the reachable row
    assert h.pi @ h.P1 @ np.ones(2) == pytest.approx(0.0, abs=TOL)
    assert np.allclose(h.P0[0], h.P[0], atol=TOL)
    assert np.allclose(h.P1[0], 0.0, atol=TOL)


def test_memoryless_limit():
    # constant erasure rate regardless of state
    h = build_half_channel(r=0.0, eps_G=0.4, eps_B=0.4, eps=0.4)
    assert h.eps == 0.4
    agg = h.pi @ np.array([h.eps_G, h.eps_B])
    assert agg == pytest.approx(0.4, abs=TOL)
    # r=0 regime: the chain is absorbed in B, eps = eps_B
    h2 = build_half_channel(r=0.0, eps_G=0.0, eps_B=0.7, eps=0.7)
    assert h2.pi == pytest.approx([0.0, 1.0], abs=TOL)


@pytest.mark.parametrize("r,eg,eb,eps", [
    (0.3, 0.0, 1.0, 0.05), (0.3, 0.0, 1.0, 0.6), (0.7, 0.1, 0.9, 0.3),
    (0.5, 0.2, 0.8, 0.5), (0.3, 1.0, 1.0, 1.0),
])
def test_half_channel_invariants(r, eg, eb, eps):
    h = build_half_channel(r, eg, eb, eps)
    assert np.allclose(h.P.sum(axis=1), 1.0, atol=TOL)
    assert np.all((h.P >= 0) & (h.P <= 1))
    assert np.allclose(h.P0 + h.P1, h.P, atol=TOL)
    assert np.allclose(h.pi @ h.P, h.pi, atol=TOL)
    assert h.pi.sum() == pytest.approx(1.0, abs=TOL)
    assert h.pi @ np.array([eg, eb]) == pytest.approx(eps, abs=TOL)


@pytest.mark.parametrize("kwargs", [
    dict(r=0.3, eps_G=0.5, eps_B=1.0, eps=0.3),   # eps < eps_G
    dict(r=0.3, eps_G=0.0, eps_B=0.5, eps=0.6),   # eps > eps_B
    dict(r=0.3, eps_G=0.0, eps_B=0.5, eps=0.5),   # eps == eps_B, q infinite
    dict(r=1.5, eps_G=0.0, eps_B=1.0, eps=0.3),   # r not a probability
    dict(r=0.1, eps_G=0.0, eps_B=1.0, eps=0.95),  # implied q > 1
])
def test_half_channel_domain_errors(kwargs):
    for _ in range(2):  # a failed build is not remembered
        with pytest.raises(ParameterError):
            build_half_channel(**kwargs)


def test_half_channel_is_shared_and_read_only():
    h = build_half_channel(0.3, 0.0, 1.0, 0.4)
    assert build_half_channel(0.3, 0.0, 1.0, 0.4) is h
    for a in (h.P, h.P0, h.P1, h.pi):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.5
    # 0 and 0.0 are equal keys, but each call gets its own field types
    as_int = build_half_channel(0.3, 0, 1, 0.4)
    assert type(as_int.eps_G) is int and type(as_int.eps_B) is int
    assert type(h.eps_G) is float and type(h.eps_B) is float
    assert build_half_channel(0.3, 0, 1, 0.4) is as_int


def test_composite_symmetric_example():
    ch = symmetric_composite(r=0.3, eps_G=0.0, eps_B=1.0, eps=0.5)
    assert ch.pi_c == pytest.approx([0.25] * 4, abs=TOL)
    assert ch.pi_c @ ch.P1x @ np.ones(4) == pytest.approx(0.5, abs=TOL)


def test_composite_invariants():
    ch = symmetric_composite(r=0.3, eps_G=0.0, eps_B=1.0, eps=0.3)
    total = ch.P00 + ch.P01 + ch.P10 + ch.P11
    assert np.allclose(total, ch.Pc, atol=TOL)
    assert np.allclose(ch.Pc, np.kron(ch.fwd.P, ch.rev.P), atol=TOL)
    assert np.allclose(ch.P0x, ch.P00 + ch.P01, atol=TOL)
    assert np.allclose(ch.Px1, ch.P01 + ch.P11, atol=TOL)
    assert np.allclose(ch.pi_c @ ch.Pc, ch.pi_c, atol=TOL)
    assert ch.pi_c @ ch.P1x @ np.ones(4) == pytest.approx(ch.eps, abs=TOL)
    assert np.allclose(ch.pi_I, ch.pi_c @ ch.P0x, atol=TOL)
    # pi_I is left un-normalized: total mass 1 - eps
    assert ch.pi_I.sum() == pytest.approx(1.0 - ch.eps, abs=TOL)


def test_zero_error_composite():
    ch = symmetric_composite(r=0.3, eps_G=0.0, eps_B=1.0, eps=0.0)
    ones = np.ones(4)
    # all observation mass sits on the double-success matrix
    assert ch.pi_c @ ch.P00 @ ones == pytest.approx(1.0, abs=TOL)
    for mat in (ch.P01, ch.P10, ch.P11):
        assert ch.pi_c @ mat @ ones == pytest.approx(0.0, abs=TOL)
    assert np.allclose(ch.P00[0], ch.Pc[0], atol=TOL)


def test_identity_chain_kron_and_degeneracy():
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    P00, P01, P10, P11 = joint_observation_matrices(eye, zero, eye, zero)
    assert np.allclose(P00 + P01 + P10 + P11, np.eye(4), atol=TOL)
    with pytest.raises(DegenerateChainError):
        stationary_distribution(np.eye(4))


def test_row_sums_random_parameters():
    rng = np.random.default_rng(7)
    for _ in range(50):
        eg = rng.uniform(0, 0.4)
        eb = rng.uniform(0.6, 1.0)
        eps = rng.uniform(eg, eb * 0.95)
        r = rng.uniform(0.05, 1.0)
        q = r * (eps - eg) / (eb - eps)
        if not 0 <= q <= 1:
            continue
        ch = symmetric_composite(r, eg, eb, eps)
        assert np.allclose(ch.Pc.sum(axis=1), 1.0, atol=TOL)


def test_kronecker_mixed_product_identity():
    rng = np.random.default_rng(11)
    h = build_half_channel(0.3, 0.0, 1.0, 0.3)
    for _ in range(20):
        A = rng.random((2, 2))
        B = rng.random((2, 2))
        left = np.kron(h.P0, h.P1) @ np.kron(A, B)
        right = np.kron(h.P0 @ A, h.P1 @ B)
        assert np.allclose(left, right, atol=TOL)


def test_q_monotone_in_eps():
    qs = [build_half_channel(0.3, 0.0, 1.0, e).q for e in np.linspace(0.01, 0.7, 15)]
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_asymmetric_directions_allowed():
    fwd = build_half_channel(0.3, 0.0, 1.0, 0.3)
    rev = build_half_channel(0.5, 0.1, 0.9, 0.4)
    ch = build_composite(fwd, rev)
    assert ch.eps == fwd.eps
    assert np.allclose(ch.Pc.sum(axis=1), 1.0, atol=TOL)
