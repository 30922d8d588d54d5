"""Coded-frame scheme: kernel structure, exact limits, exhaustive oracle."""
import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from gearq import coded, protocols
from gearq.channel import build_composite, build_half_channel, symmetric_composite
from gearq.coded import build_coded_mgf, coded_metrics, default_coded_kernel
from gearq.genfunc import dual_identity, dual_mul, dual_sum_truncated
from gearq.protocols import ProtocolParams, uncoded_metrics

import exhaustive


PLAIN = (0.3, 0.0, 1.0)  # the channel's (r, eps_G, eps_B)


def channel(eps):
    return symmetric_composite(*PLAIN, eps)


def test_error_free_frame():
    # when T < k + M - 1 the frame timer expires before the feedback returns,
    # and the ACK then finds k + M - 1 - T packets of the next round in flight
    ch = channel(0.0)
    shapes = [
        (k, T, M, N)
        for k in (1, 3, 5) for M in range(1, k + 1) for N in range(1, M + 1)
        for T in sorted({*range(k, k + M + 1), 10})
    ]
    for k, T, M, N in shapes:
        m = coded_metrics(ch, ProtocolParams(k=k, T=T, scheme="coded", M=M, N=N))
        sent = M + max(0, k + M - 1 - T)
        assert m.frame_tau_mean == pytest.approx(sent, abs=1e-9), (k, T, M, N)
        assert m.throughput == pytest.approx(M / sent, abs=1e-9), (k, T, M, N)
        assert m.delay_mean == pytest.approx(k + M - 1, abs=1e-9), (k, T, M, N)


@pytest.mark.parametrize("link", [PLAIN, (0.3, 0.1, 0.9)], ids=["plain", "eps_G0.1"])
def test_single_packet_frame_equals_uncoded(link):
    # k = 5 beside the k = 1 and T = k edges and a long timer
    for eps in (0.1, 0.3, 0.5):
        ch = symmetric_composite(*link, eps)
        for k, T in ((5, 5), (5, 10), (1, 1), (1, 7), (3, 40)):
            mu = uncoded_metrics(ch, ProtocolParams(k=k, T=T))
            mc = coded_metrics(ch, ProtocolParams(k=k, T=T, scheme="coded", M=1, N=1))
            assert mc.tau_mean == pytest.approx(mu.tau_mean, abs=1e-11), (eps, k, T)
            assert mc.delay_mean == pytest.approx(mu.delay_mean, abs=1e-11), (eps, k, T)


def test_single_packet_kernel_reduces_to_composite():
    # with M = N = 1 the classified stage-1 matrices collapse onto the
    # plain composite observation matrices once the u-coordinate is
    # marginalized from a u=0 start
    eps = 0.3
    ch = channel(eps)
    p = ProtocolParams(k=5, T=10, scheme="coded", M=1, N=1)
    kern = default_coded_kernel(ch, p)
    expected = {(0, 0): ch.P00, (0, 1): ch.P01, (1, 0): ch.P10, (1, 1): ch.P11}
    for (x, y), ref in expected.items():
        big = kern.P_C(1, x, y)
        # start in u=0, sum over destination u
        reduced = sum(big[:4, 4 * u : 4 * (u + 1)] for u in range(kern.dim // 4))
        assert np.allclose(reduced, ref, atol=1e-12)


@pytest.mark.parametrize("N", [1, 4])
def test_kernel_equals_numpy_kron_build(N):
    # every kernel array, bit for bit, against the build with np.kron
    ch = symmetric_composite(0.3, 0.1, 0.9, 0.4)
    kern = default_coded_kernel(ch, ProtocolParams(k=5, T=10, scheme="coded", M=5, N=N))
    f, r = ch.fwd, ch.rev
    I_u, I4 = np.eye(N + 1), np.eye(4)

    def u_map(step):  # the 0/1 matrix sending each u to step(u)
        return np.array([[float(v == step(u)) for v in range(N + 1)] for u in range(N + 1)])

    # stage n's u + 1 saturates at its cap N - n + 1; an acknowledgment's u - 1 at 0
    ups = [u_map(lambda u, cap=N - n + 1: u + 1 if u < cap else u) for n in range(1, N + 1)]
    u_pos, u_zero = np.diag([0.0] + [1.0] * N), np.diag([1.0] + [0.0] * N)
    ref = dict(
        plain=np.kron(I_u, ch.Pc), W0=np.kron(I_u, ch.Px0), W1=np.kron(I_u, ch.Px1),
        K0=[np.kron(up, np.kron(f.P0, r.P0)) + np.kron(I_u, np.kron(f.P1, r.P0)) for up in ups],
        K1=[np.kron(up, np.kron(f.P0, r.P1)) + np.kron(I_u, np.kron(f.P1, r.P1)) for up in ups],
        proj_up=np.kron(u_pos, I4), proj_zero=np.kron(u_zero, I4),
        advance=np.kron(u_map(lambda u: max(u - 1, 0)), I4),
    )
    for name, want in ref.items():
        assert np.array_equal(np.array(getattr(kern, name)), np.array(want)), name
    e0 = np.zeros(N + 1)
    e0[0] = 1.0
    assert np.all(kern.start_vector() == np.kron(e0, ch.pi_I))
    assert np.all(ch.Pc == np.kron(f.P, r.P))
    assert all(
        np.all(got == np.kron(a, b))
        for got, (a, b) in zip(
            (ch.P00, ch.P01, ch.P10, ch.P11),
            ((f.P0, r.P0), (f.P0, r.P1), (f.P1, r.P0), (f.P1, r.P1)),
        )
    )


def test_kernel_observation_matrices_row_stochastic():
    ch = channel(0.3)
    p = ProtocolParams(k=5, T=10, scheme="coded", M=3, N=2)
    kern = default_coded_kernel(ch, p)
    for n in range(1, p.N + 1):
        total = sum(kern.P_C(n, x, y) for x in (0, 1) for y in (0, 1))
        assert np.allclose(total.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(kern.advance.sum(axis=1), 1.0, atol=1e-12)


def test_zero_error_kernel_loops_vanish():
    ch = channel(0.0)
    p = ProtocolParams(k=5, T=10, scheme="coded", M=3, N=2)
    kern = default_coded_kernel(ch, p)
    start = kern.start_vector()
    ones = np.ones(kern.dim)
    # no erased-feedback mass from any reachable state
    assert start @ kern.W1 @ ones == pytest.approx(0.0, abs=1e-12)
    assert start @ kern.K1[0] @ ones == pytest.approx(0.0, abs=1e-12)
    # every packet lands, so after a full round no mass remains at u = 0
    after = start @ np.linalg.matrix_power(kern.plain, 4) @ np.linalg.matrix_power(kern.K0[0] + kern.K1[0], 3)
    assert after[:4].sum() == pytest.approx(0.0, abs=1e-12)


def test_normalization_and_frame_bounds_on_grid():
    for eps in (0.05, 0.2, 0.45, 0.6):
        ch = channel(eps)
        for T in (5, 10, 20):
            m = coded_metrics(ch, ProtocolParams(k=5, T=T, scheme="coded", M=5, N=4))
            assert m.mgf_err_tau <= 1e-9 and m.mgf_err_delay <= 1e-9
            assert m.frame_tau_mean >= 5.0
            assert m.delay_mean >= 5.0


@pytest.mark.parametrize(
    "link,eps,k,T,M,N",
    [
        (PLAIN, 0.6, 3, 3, 3, 2), (PLAIN, 0.6, 3, 4, 3, 2), (PLAIN, 0.3, 3, 4, 3, 2),
        (PLAIN, 0.6, 5, 10, 4, 2), (PLAIN, 0.3, 4, 4, 4, 3), (PLAIN, 0.5, 4, 6, 3, 3),
        (PLAIN, 0.5, 3, 3, 3, 3), (PLAIN, 0.5, 1, 1, 1, 1), (PLAIN, 0.5, 5, 5, 5, 1),
        (PLAIN, 0.3, 5, 10, 5, 4), ((0.3, 0.1, 0.9), 0.4, 4, 6, 3, 3), ((0.03, 0.0, 1.0), 0.3, 5, 10, 5, 4),
    ],
    ids=[
        "0.6-3-3-3-2", "0.6-3-4-3-2", "0.3-3-4-3-2", "0.6-5-10-4-2", "0.3-4-4-4-3", "0.5-4-6-3-3",
        "0.5-3-3-3-3", "0.5-1-1-1-1", "0.5-5-5-5-1", "0.3-5-10-5-4", "eps_G0.1-0.4-4-6-3-3",
        "r0.03-0.3-5-10-5-4",
    ],
)
def test_kernel_matches_exhaustive_enumeration(link, eps, k, T, M, N):
    # the exact absorbing-chain solve of the protocol rules: the strongest
    # oracle the frame machine has, independent of both the kernel algebra
    # and the Monte Carlo sampling
    ch = symmetric_composite(*link, eps)
    p = ProtocolParams(k=k, T=T, scheme="coded", M=M, N=N)
    mass, e_tau, e_delay, _ = exhaustive.coded(ch, p)
    m = coded_metrics(ch, p)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert e_tau == pytest.approx(m.frame_tau_mean, rel=1e-11, abs=0)
    assert e_delay == pytest.approx(m.delay_mean, rel=1e-11, abs=0)


SERIES = pytest.mark.xfail(strict=True, reason="coded truncated series, ROADMAP item 2")


@SERIES
@pytest.mark.parametrize(
    "link,eps,k,T,M,N",
    [((0.01, 0.0, 1.0), 0.5, 5, 20, 1, 1), ((0.01, 0.0, 1.0), 0.5, 3, 6, 3, 2)],
    ids=["r0.01-0.5-5-20-1-1", "r0.01-0.5-3-6-3-2"],
)
def test_kernel_matches_exhaustive_enumeration_to_1e_12(link, eps, k, T, M, N):
    # the exact oracle on a slowly mixing link, 10x tighter: an exact
    # closure of the recovery walk meets it, the truncated series does not
    ch = symmetric_composite(*link, eps)
    p = ProtocolParams(k=k, T=T, scheme="coded", M=M, N=N)
    mass, e_tau, e_delay, _ = exhaustive.coded(ch, p)
    m = coded_metrics(ch, p)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert e_tau == pytest.approx(m.frame_tau_mean, rel=1e-12, abs=0)
    assert e_delay == pytest.approx(m.delay_mean, rel=1e-12, abs=0)


# rational links: eps = 3/10 on eps_G = 0, eps_B = 1 at r = 1/100 and 3/10;
# eps_G = 1/10, eps_B = 9/10; and one with different halves
EXACT = {
    "r0.01": ((Fraction(1, 100), 0, 1, Fraction(3, 10)),),
    "r0.3": ((Fraction(3, 10), 0, 1, Fraction(3, 10)),),
    "eps_G0.1": ((Fraction(3, 10), Fraction(1, 10), Fraction(9, 10), Fraction(4, 10)),),
    "asym": (
        (Fraction(4, 10), Fraction(1, 10), Fraction(9, 10), Fraction(4, 10)),
        (Fraction(2, 10), 0, 1, Fraction(35, 100)),
    ),
}


@pytest.mark.parametrize("bound", [1e-11, pytest.param(1e-13, marks=SERIES)], ids=["1e-11", "1e-13"])
@pytest.mark.parametrize(
    "shape,link",
    [((3, 6, 3, 2), "r0.01"), ((3, 5, 2, 1), "r0.01"), ((5, 10, 5, 4), "r0.01"), ((5, 10, 5, 4), "r0.3"),
     ((5, 10, 5, 4), "eps_G0.1"), ((5, 10, 5, 4), "asym")],
    ids=["3-6-3-2", "3-5-2-1", "5-10-5-4-r0.01", "5-10-5-4-r0.3", "5-10-5-4-eps_G0.1", "5-10-5-4-asym"],
)
def test_coded_is_accurate_against_exact_arithmetic(shape, link, bound):
    # the certified solve on the link stated exactly: the error of the
    # floating-point frame means themselves (the series' 1e-12 stop leaves
    # 8e-14 to 3e-12 relative)
    k, T, M, N = shape
    p = ProtocolParams(k=k, T=T, scheme="coded", M=M, N=N)
    solved = exhaustive.coded(exhaustive.exact_link(*EXACT[link]), p)
    errors = exhaustive.errors(frame_means(p, link), solved)
    assert max(errors) <= bound, errors


@functools.lru_cache(maxsize=None)
def frame_means(p, link):
    """(1, frame tau, delay) of the analysis on the float channel of an EXACT
    link, shared by both bounds: at r = 0.01 it costs 0.2-0.6 s, the
    certified solve 0.01-0.1 s."""
    halves = [build_half_channel(*map(float, h)) for h in EXACT[link]]
    m = coded_metrics(build_composite(halves[0], halves[-1]), p)
    return 1.0, m.frame_tau_mean, m.delay_mean


def per_slot_walk(kern, period, acc):
    """The recovery walk that builds each slot's branch gains anew on every
    step of its series: the reference for the walk that builds them once."""

    def steps():
        prefix = dual_identity(kern.dim)
        for end, (x1, sent) in itertools.cycle(period):
            if end is not None:
                yield dual_mul(prefix, acc.term(*end, 1))
            prefix = dual_mul(prefix, acc.term(x1, sent, 1))

    return dual_sum_truncated(steps())


@pytest.mark.parametrize(
    "link", [PLAIN, (0.03, 0.0, 1.0), (0.3, 0.1, 0.9)], ids=["plain", "r0.03", "eps_G0.1"]
)
@pytest.mark.parametrize("shape", [(5, 10, 5, 4), (3, 6, 3, 2)], ids=["5-10-5-4", "3-6-3-2"])
def test_walk_equals_the_per_slot_walk_bit_for_bit(link, shape, monkeypatch):
    # the same gains summed in the same order: the same bits, and the series
    # stops at the same slot
    k, T, M, N = shape
    kern = default_coded_kernel(
        symmetric_composite(*link, 0.5), ProtocolParams(k=k, T=T, scheme="coded", M=M, N=N)
    )
    once = [build_coded_mgf(kern, kind) for kind in ("tau", "delay")]
    monkeypatch.setattr(coded, "_recovery_walk", per_slot_walk)
    for kind, got in zip(("tau", "delay"), once):
        want = build_coded_mgf(kern, kind)
        assert np.array_equal(got.val, want.val) and np.array_equal(got.der, want.der), kind


def test_walk_builds_its_branch_gains_once(monkeypatch):
    # a slower-mixing link makes the walk longer, not its gains more: the
    # per-slot walk made 699 dual_term calls at r = 0.3 and 21,503 at r = 0.01
    calls = []
    term = protocols.dual_term
    monkeypatch.setattr(protocols, "dual_term", lambda *args: calls.append(args) or term(*args))
    p = ProtocolParams(k=5, T=10, scheme="coded", M=5, N=4)
    counts = []
    for r in (0.3, 0.01):
        calls.clear()
        build_coded_mgf(default_coded_kernel(symmetric_composite(r, 0.0, 1.0, 0.5), p))
        counts.append(len(calls))
    assert counts[0] == counts[1], counts
