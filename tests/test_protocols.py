"""Protocol MGFs: exact limits, derivative oracle, scheme relations."""
import dataclasses
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from gearq.channel import (
    ParameterError,
    build_composite,
    build_half_channel,
    kron,
    symmetric_composite,
)
from gearq.coded import build_coded_mgf, coded_metrics, default_coded_kernel
from gearq.flowgraph import build_uncoded_graph
from gearq.genfunc import (
    DualMatrix,
    NonConvergenceError,
    dual_add,
    dual_geo,
    dual_identity,
    dual_mul,
    dual_sum_truncated,
    dual_term,
    scalarize,
)
from gearq import protocols
from gearq.protocols import (
    AttemptModel,
    ProtocolParams,
    _recovery_walk,
    attempt_model_for,
    build_arq_mgf,
    harq_metrics,
    uncoded_metrics,
)

import exhaustive

EPS_GRID = [round(0.05 * i, 2) for i in range(1, 13)]
ONE = (1.0, 1.0)  # (z_packets, z_slots) where both means are read
KINDS = ("tau", "delay")  # build_arq_mgf's der[0] counts packets, der[1] slots


def channel(eps):
    return symmetric_composite(0.3, 0.0, 1.0, eps)


# a channel whose good state also erases: eps_G = 0.1, eps_B = 0.9
LOSSY_G = symmetric_composite(0.3, 0.1, 0.9, 0.4)


def harq_params(T, gamma_over_rho):
    return ProtocolParams(k=5, T=T, scheme="harq", gamma_over_rho=gamma_over_rho)


def arq_kind(ch, p, att, kind, z=1.0):
    """One kind of the two-count ARQ MGF, for the one-kind constructions it
    is checked against: z on that kind's count, the other count at 1."""
    i = KINDS.index(kind)
    phi = build_arq_mgf(ch, p, att, (z, 1.0) if i == 0 else (1.0, z))
    return DualMatrix(phi.val, phi.der[i])


def constant_harq(ch, T):
    """(tau, delay) means of HARQ held at the nominal eps_B for every attempt."""
    phi = build_arq_mgf(ch, harq_params(T, 1.0), AttemptModel(ch, ch.rev.eps_B))
    return tuple(scalarize(ch.pi_I, DualMatrix(phi.val, der))[1] for der in phi.der)


def observation(att, m):
    """(Px0, Px1) at index m: the delivered and erased halves of att.steps(m)."""
    step = att.steps(m)
    return step[..., :4], step[..., 4:]


def combined_eps_B(ch, gamma_over_rho, m):
    """State B's rate at combining index m: never above the nominal eps_B."""
    return min(ch.rev.eps_B, 1.0 - np.exp(-gamma_over_rho / m))


def test_params_validation():
    with pytest.raises(ParameterError):
        ProtocolParams(k=5, T=4)                      # T < k
    with pytest.raises(ParameterError):
        ProtocolParams(k=5, T=10, scheme="coded", M=6, N=4)   # M > k
    with pytest.raises(ParameterError):
        ProtocolParams(k=5, T=10, scheme="uncoded", M=2)      # M without coded
    with pytest.raises(ParameterError):
        ProtocolParams(k=5, T=10, scheme="nope")
    with pytest.raises(ParameterError, match="gamma_over_rho must be >= 0"):
        ProtocolParams(k=5, T=10, scheme="harq", gamma_over_rho=float("nan"))
    # a combining gain would be silently ignored by the other schemes
    for scheme, shape in (("uncoded", {}), ("coded", {"M": 5, "N": 4})):
        with pytest.raises(ParameterError, match="gamma_over_rho applies to the harq scheme only"):
            ProtocolParams(k=5, T=10, scheme=scheme, gamma_over_rho=3.0, **shape)
    # a fractional count is named here, not left to fail inside a later build
    for name, value, scheme in (("T", 10.5, "uncoded"), ("k", 5.0, "uncoded"),
                                ("M", 4.5, "coded"), ("N", "4", "coded")):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            ProtocolParams(**{"k": 5, "T": 10, "scheme": scheme, name: value})
    assert ProtocolParams(k=5, T=10).d == 5
    # numpy integers are integers
    p = ProtocolParams(k=np.int64(5), T=np.int64(10))
    assert uncoded_metrics(channel(0.3), p).delay_mean == 8.716480525683714


def test_error_free_uncoded():
    m = uncoded_metrics(channel(0.0), ProtocolParams(k=5, T=10))
    assert m.tau_mean == pytest.approx(1.0, abs=1e-12)
    assert m.throughput == pytest.approx(1.0, abs=1e-12)
    assert m.delay_mean == pytest.approx(5.0, abs=1e-12)


def test_soft_combining_rates():
    # state-B error rate 1 - exp(-1/m) for gamma/rho = 1
    att = attempt_model_for(channel(0.3), harq_params(10, 1.0))
    assert att.eps_B(1) == pytest.approx(0.632121, abs=1e-6)
    assert att.eps_B(2) == pytest.approx(0.393469, abs=1e-6)
    ebs = [att.eps_B(m) for m in range(1, 30)]
    assert all(b < a for a, b in zip(ebs, ebs[1:]))


def test_attempt_matrices_partition_and_monotone():
    for ch in (channel(0.3), LOSSY_G):
        att = attempt_model_for(ch, harq_params(10, 3.0))
        prev = None
        for m in range(1, 8):
            X0, X1 = observation(att, m)
            assert np.allclose(X0 + X1, ch.Pc, atol=1e-12)
            if prev is not None:
                assert np.all(X1 <= prev + 1e-12)
            prev = X1


@pytest.mark.parametrize("ch", [channel(0.3), LOSSY_G], ids=["eps_G0", "eps_G0.1"])
def test_observation_matches_kronecker_formula(ch):
    # the split by the reverse bit as it was built per index, the oracle
    # for the stacks linear in the rates
    fwd, rev, eps_G = ch.fwd.P, ch.rev.P, ch.rev.eps_G
    ms = np.arange(1, 65)
    models = [
        (attempt_model_for(ch, ProtocolParams(k=5, T=10)), lambda m: ch.rev.eps_B),
        (attempt_model_for(ch, harq_params(10, 3.0)), lambda m: combined_eps_B(ch, 3.0, m)),
        (attempt_model_for(ch, harq_params(10, 10.0)), lambda m: combined_eps_B(ch, 10.0, m)),
        (AttemptModel(ch, 0.0), lambda m: 0.0),
    ]
    for att, eps_B in models:
        X0s, X1s = observation(att, ms)
        assert X0s.shape == X1s.shape == (ms.size, 4, 4)
        for m, X0, X1 in zip(ms, X0s, X1s):
            eb = eps_B(int(m))
            eg = min(eps_G, eb)
            ref0 = np.kron(fwd, rev @ np.diag([1.0 - eg, 1.0 - eb]))
            ref1 = np.kron(fwd, rev @ np.diag([eg, eb]))
            one0, one1 = observation(att, int(m))
            for got, ref in ((X0, ref0), (X1, ref1), (one0, ref0), (one1, ref1)):
                assert got.shape == (4, 4)
                assert np.max(np.abs(got - ref)) <= 1e-15
            assert np.max(np.abs(X0 + X1 - ch.Pc)) <= 1e-15


@pytest.mark.parametrize(
    "ch",
    [
        channel(0.3),
        LOSSY_G,
        symmetric_composite(0.01, 0.0, 1.0, 0.5),
        build_composite(
            build_half_channel(0.3, 0.0, 1.0, 0.3), build_half_channel(0.5, 0.1, 0.9, 0.4)
        ),
    ],
    ids=["eps_G0", "eps_G0.1", "r0.01", "asymmetric"],
)
def test_attempt_kernels_are_the_composite_columns(ch):
    # the kernels as they were built: the forward chain times the reverse
    # chain masked to its destination state, one Kronecker product each, in
    # the delivered and in the erased half of a step [Px0 | Px1]
    KG, KB = (kron(ch.fwd.P, ch.rev.P * mask) for mask in ([1.0, 0.0], [0.0, 1.0]))
    zero = np.zeros((4, 4))
    ref = [np.hstack(halves) for halves in ((KG, zero), (KB, zero), (zero, KG), (zero, KB))]
    for eps_B in (ch.rev.eps_B, lambda m: np.minimum(ch.rev.eps_B, 1.0 - np.exp(-3.0 / m))):
        for got, want in zip(AttemptModel(ch, eps_B)._split.reshape(4, 4, 8), ref):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("ch", [channel(0.3), LOSSY_G], ids=["eps_G0", "eps_G0.1"])
@pytest.mark.parametrize("T", [5, 10])
def test_harq_without_combining_gain_is_the_zero_sequence(ch, T, monkeypatch):
    # gamma/rho = 0 takes the combining formula, which is 0 at every m and
    # at m = inf, so the walk stops at once on the constant sequence 0
    p = harq_params(T, 0.0)
    att = attempt_model_for(ch, p)
    assert att.eps_B(np.arange(1, 5)).tolist() == [0.0] * 4 and att.eps_B(np.inf) == 0.0
    assert _recovery_walk(att, p, ONE)[1] == 0.0
    combined = harq_metrics(ch, p)
    monkeypatch.setattr(protocols, "attempt_model_for", lambda ch, p: AttemptModel(ch, 0.0))
    assert harq_metrics(ch, p) == combined


def test_harq_constant_equals_uncoded():
    # includes a channel with eps_G > 0: combining held at the nominal
    # rate must keep state G's nominal rate too
    for ch in [channel(eps) for eps in EPS_GRID] + [LOSSY_G]:
        for T in (5, 10, 20):
            mu = uncoded_metrics(ch, ProtocolParams(k=5, T=T))
            tau, delay = constant_harq(ch, T)
            assert abs(mu.tau_mean - tau) <= 1e-12
            assert abs(mu.delay_mean - delay) <= 1e-12
            assert abs(mu.throughput - 1.0 / tau) <= 1e-12


def test_harq_constant_equals_uncoded_entrywise():
    ch = channel(0.3)
    p_unc = ProtocolParams(k=5, T=10)
    p_cmb = harq_params(10, 1.0)
    a = build_arq_mgf(ch, p_unc, attempt_model_for(ch, p_unc))
    b = build_arq_mgf(ch, p_cmb, AttemptModel(ch, ch.rev.eps_B))
    assert np.max(np.abs(a.val - b.val)) <= 1e-12
    assert np.max(np.abs(a.der - b.der)) <= 1e-12


def test_mgf_normalization_grid():
    for eps in EPS_GRID:
        ch = channel(eps)
        for T in (5, 10, 20):
            mu = uncoded_metrics(ch, ProtocolParams(k=5, T=T))
            mh = harq_metrics(
                ch, ProtocolParams(k=5, T=T, scheme="harq", gamma_over_rho=10 * eps)
            )
            for m in (mu, mh):
                assert m.mgf_err_tau <= 1e-9
                assert m.mgf_err_delay <= 1e-9


def test_mgf_value_range():
    # probability-built MGF values stay inside [0, 1] entrywise
    ch = channel(0.4)
    p = ProtocolParams(k=5, T=10)
    phi = build_arq_mgf(ch, p, attempt_model_for(ch, p))
    assert np.all(phi.val >= -1e-15)
    assert np.all(phi.val <= 1.0 + 1e-9)
    assert np.all(phi.val.sum(axis=1) <= 1.0 + 1e-9)


def finite_difference(build, h=1e-5):
    vp, _ = build(1.0 + h)
    vm, _ = build(1.0 - h)
    return (vp - vm) / (2 * h)


@pytest.mark.parametrize("scheme", ["uncoded", "harq", "coded"])
@pytest.mark.parametrize("kind", ["tau", "delay"])
def test_derivative_matches_finite_difference(scheme, kind):
    for eps in (0.1, 0.3, 0.5):
        ch = channel(eps)
        if scheme == "coded":
            p = ProtocolParams(k=5, T=10, scheme="coded", M=5, N=4)
            kern = default_coded_kernel(ch, p)
            pi = kern.start_vector()

            def build(z):
                return scalarize(pi, build_coded_mgf(kern, kind, z), check=False)
        else:
            gor = 10 * eps if scheme == "harq" else 0.0
            p = ProtocolParams(k=5, T=10, scheme=scheme, gamma_over_rho=gor)
            att = attempt_model_for(ch, p)
            pi = ch.pi_I

            def build(z):
                return scalarize(pi, arq_kind(ch, p, att, kind, z), check=False)

        _, mean = build(1.0)
        fd = finite_difference(build)
        assert abs(mean - fd) / abs(mean) <= 1e-6


@pytest.mark.parametrize("scheme", ["uncoded", "harq"])
@pytest.mark.parametrize(
    "r,eps,T", [(0.3, 0.3, 10), (0.01, 0.8, 5)], ids=["r0.3", "r0.01-two-blocks"]
)
def test_two_count_derivatives_off_both_ones(scheme, r, eps, T):
    # at z = (0.97, 0.98) each derivative carries the other count's power,
    # which z = (z, 1) or (1, z) never shows; the harq walk at r = 0.01
    # joins a second block to its first
    ch = symmetric_composite(r, 0.0, 1.0, eps)
    gor = 10 * eps if scheme == "harq" else 0.0
    p = ProtocolParams(k=5, T=T, scheme=scheme, gamma_over_rho=gor)
    att = attempt_model_for(ch, p)
    z, h, ones = np.array([0.97, 0.98]), 1e-6, np.ones(4)

    def phi(at):
        return ch.pi_I @ build_arq_mgf(ch, p, att, tuple(at)).val @ ones

    der = build_arq_mgf(ch, p, att, tuple(z)).der
    for i, step in enumerate(h * np.eye(2)):
        fd = (phi(z + step) - phi(z - step)) / (2 * h)
        assert abs(ch.pi_I @ der[i] @ ones - fd) <= 1e-8 * abs(fd), (KINDS[i], fd)


def test_throughput_monotone_in_eps():
    for T in (5, 10, 20):
        for scheme in ("uncoded", "harq"):
            etas = []
            for eps in EPS_GRID:
                ch = channel(eps)
                if scheme == "uncoded":
                    m = uncoded_metrics(ch, ProtocolParams(k=5, T=T))
                else:
                    m = harq_metrics(
                        ch,
                        ProtocolParams(k=5, T=T, scheme="harq", gamma_over_rho=10 * eps),
                    )
                etas.append(m.throughput)
            assert all(b <= a + 1e-12 for a, b in zip(etas, etas[1:]))


def test_throughput_and_delay_rise_with_timer():
    ch = channel(0.3)
    mus = [uncoded_metrics(ch, ProtocolParams(k=5, T=T)) for T in (5, 10, 20)]
    assert mus[0].throughput <= mus[1].throughput <= mus[2].throughput
    assert mus[0].delay_mean <= mus[1].delay_mean <= mus[2].delay_mean


def test_metrics_invariants():
    for eps in (0.1, 0.4):
        ch = channel(eps)
        m = uncoded_metrics(ch, ProtocolParams(k=5, T=10))
        assert m.throughput * m.tau_mean == pytest.approx(1.0, abs=1e-12)
        assert m.tau_mean >= 1.0
        assert m.delay_mean >= 5.0 - 1e-9
        mc = coded_metrics(ch, ProtocolParams(k=5, T=10, scheme="coded", M=5, N=4))
        assert mc.throughput * mc.tau_mean == pytest.approx(1.0, abs=1e-12)
        assert mc.delay_mean >= 5.0 - 1e-9          # frame-level delay
        assert mc.frame_tau_mean >= 5.0             # at least M transmissions


def test_metrics_stores_frame_means_and_derives_the_rest():
    ch = channel(0.3)
    points = {
        "uncoded": uncoded_metrics(ch, ProtocolParams(k=5, T=10)),
        "harq": harq_metrics(ch, harq_params(10, 3.0)),
        "coded": coded_metrics(ch, ProtocolParams(k=5, T=10, scheme="coded", M=5, N=4)),
    }
    for scheme, m in points.items():
        assert [f.name for f in dataclasses.fields(m)] == [
            "frame_tau_mean", "delay_mean", "M", "mgf_err_tau", "mgf_err_delay"]
        assert not hasattr(m, "__dict__")
        # the derived figures are the quotients the metrics were built from, bit for bit
        assert m.tau_mean == m.frame_tau_mean / m.M
        assert m.throughput == 1.0 / (m.frame_tau_mean / m.M)
        assert m.delay_mean_per_packet == m.delay_mean / m.M
        for name in ("tau_mean", "throughput", "delay_mean_per_packet"):
            assert type(getattr(m, name)) is float, (scheme, name)
        twin = dataclasses.replace(m)
        assert twin == m and hash(twin) == hash(m) and twin is not m
        assert pickle.loads(pickle.dumps(m)) == m
        assert dataclasses.replace(m, M=2 * m.M).tau_mean == m.tau_mean / 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.delay_mean = 0.0
    assert points["uncoded"].M == points["harq"].M == 1 and points["coded"].M == 5
    assert points["uncoded"] != points["harq"]


def test_protocol_params_are_slotted_values():
    p = ProtocolParams(k=5, T=10, scheme="coded", M=5, N=4)
    assert not hasattr(p, "__dict__")
    assert pickle.loads(pickle.dumps(p)) == p and hash(dataclasses.replace(p)) == hash(p)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.T = 20
    with pytest.raises(ParameterError):
        dataclasses.replace(p, M=6)


def test_harq_improves_delay_with_combining():
    for eps in (0.1, 0.3, 0.5):
        ch = channel(eps)
        mu = uncoded_metrics(ch, ProtocolParams(k=5, T=10))
        mh = harq_metrics(
            ch, ProtocolParams(k=5, T=10, scheme="harq", gamma_over_rho=10 * eps)
        )
        assert mh.delay_mean <= mu.delay_mean


def test_harq_state_B_rule_caps_at_the_nominal_rate():
    # eps_B < 1: combining is never slower than uncoded; eps_B = 1: the
    # cap moves nothing, bit for bit
    for eps_B, eps in ((0.5, 0.3), (0.6, 0.4), (0.9, 0.4)):
        ch = symmetric_composite(0.3, 0.0, eps_B, eps)
        for T in (5, 10):
            p = harq_params(T, 10 * eps)
            assert attempt_model_for(ch, p).eps_B(1) == eps_B
            mu, mh = uncoded_metrics(ch, ProtocolParams(k=5, T=T)), harq_metrics(ch, p)
            assert mh.delay_mean <= mu.delay_mean and mh.tau_mean <= mu.tau_mean
    ch, p = channel(0.3), harq_params(10, 3.0)
    uncapped = AttemptModel(ch, lambda m: 1.0 - np.exp(-3.0 / m))
    a = build_arq_mgf(ch, p, attempt_model_for(ch, p))
    b = build_arq_mgf(ch, p, uncapped)
    assert np.array_equal(a.val, b.val) and np.array_equal(a.der, b.der)


# single-packet shapes for the exact oracle: k = 1, T = k (d = 0), eps_G > 0
ORACLE_EDGES = [(0.3, 1, 1, 0.0, 1.0), (0.3, 1, 4, 0.0, 1.0), (0.3, 5, 5, 0.0, 1.0), (0.4, 5, 10, 0.1, 0.9)]
ORACLE_EDGE_IDS = ["k1-T1", "k1-T4", "d0-0.3-5", "eps_G0.1-0.4-10"]


@pytest.mark.parametrize(
    "eps,k,T,eps_G,eps_B",
    [(0.3, 5, 10, 0.0, 1.0), (0.5, 5, 5, 0.0, 1.0), (0.6, 5, 20, 0.0, 1.0)] + ORACLE_EDGES,
    ids=["0.3-10", "0.5-5", "0.6-20"] + ORACLE_EDGE_IDS,
)
def test_uncoded_matches_exhaustive_enumeration(eps, k, T, eps_G, eps_B):
    # the exact absorbing-chain solve of the per-slot protocol rules
    ch = symmetric_composite(0.3, eps_G, eps_B, eps)
    p = ProtocolParams(k=k, T=T)
    mass, e_tau, e_delay = exhaustive.uncoded(ch, p)
    m = uncoded_metrics(ch, p)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert e_tau == pytest.approx(m.tau_mean, rel=1e-12, abs=0)
    assert e_delay == pytest.approx(m.delay_mean, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "eps,k,T,eps_G,eps_B",
    [
        (0.3, 5, 10, 0.0, 1.0), (0.5, 5, 5, 0.0, 1.0), (0.1, 5, 10, 0.0, 1.0), (0.4, 5, 10, 0.1, 0.9),
        (0.3, 5, 5, 0.0, 0.5), (0.4, 5, 10, 0.0, 0.6),
    ] + ORACLE_EDGES[:3],
    ids=["0.3-10", "0.5-5", "0.1-10", "eps_G0.1-0.4-10", "eps_B0.5-0.3-5", "eps_B0.6-0.4-10"]
    + ORACLE_EDGE_IDS[:3],
)
def test_harq_matches_exhaustive_enumeration(eps, k, T, eps_G, eps_B):
    # exact oracle for the combining recovery, index continuing across
    # timer expiries; the per-state rates come from the scheme's model.
    # The oracle brackets the exact values (rates frozen past its cut).
    ch = symmetric_composite(0.3, eps_G, eps_B, eps)
    p = ProtocolParams(k=k, T=T, scheme="harq", gamma_over_rho=10 * eps)
    low, high = exhaustive.harq(ch, p, attempt_model_for(ch, p).rates)
    m = harq_metrics(ch, p)
    assert low[0] == pytest.approx(1.0, abs=1e-12) and high[0] == pytest.approx(1.0, abs=1e-12)
    for i, (name, value) in enumerate((("tau", m.tau_mean), ("delay", m.delay_mean)), start=1):
        width = (high[i] - low[i]) / value
        print(f"{name} bracket width {width:.1e}")  # shown by pytest -rP
        assert abs(width) <= 1e-12, f"{name} bracket width {width:.1e}"  # rounding may flip its sign
        assert low[i] * (1 - 1e-12) <= value <= high[i] * (1 + 1e-12), name


def reference_arq_mgf(ch, p, att, kind, z):
    """The ARQ MGF with the recovery built the older way, two constructions.

    tau: a d-slot pre-sum, then T-slot windows each entered by a
    pointless retransmission that costs one z (closed with dual_geo for
    a constant model, a series over windows otherwise).  delay: the
    per-slot series z^j (prod X1) X0, closed with dual_geo for a
    constant model.  A model is taken as constant when its first rates
    already equal its limit.
    """
    constant = all(att.eps_B(m) == att.eps_B(np.inf) for m in (1, 2, 3))

    def presum(budget, base):
        total, prefix = dual_term(np.zeros((4, 4)), 0, z), dual_identity(4)
        for j in range(budget):
            X0, X1 = observation(att, base + j + 1)
            total = dual_add(total, dual_mul(prefix, dual_term(X0, 0, z)))
            prefix = dual_mul(prefix, dual_term(X1, 0, z))
        return total, prefix

    if kind == "tau":
        retx = dual_term(np.eye(4), 1, z)
        pre, allfail = presum(p.d, 0)
        if constant:
            exit_sum, fail = presum(p.T, p.d)
            tail = dual_mul(dual_geo(dual_mul(retx, fail)), dual_mul(retx, exit_sum))
        else:

            def windows():
                prefix, base = dual_identity(4), p.d
                while True:
                    exit_sum, fail = presum(p.T, base)
                    yield dual_mul(prefix, dual_mul(retx, exit_sum))
                    prefix = dual_mul(prefix, dual_mul(retx, fail))
                    base += p.T

            tail = dual_sum_truncated(windows(), tol=1e-15)
        recov = dual_add(pre, dual_mul(allfail, tail))
        bracket = dual_add(dual_term(ch.P00, 0, z), dual_mul(dual_term(ch.P01, 0, z), recov))
        loop = dual_add(
            dual_term(ch.P10 @ np.linalg.matrix_power(ch.Pc, p.k - 1), 1, z),
            dual_term(ch.P11 @ np.linalg.matrix_power(ch.Pc, p.T - 1), 1, z),
        )
        head = dual_term(np.linalg.matrix_power(ch.Pc, p.k - 1), 1, z)
    else:
        if constant:
            X0, X1 = observation(att, 1)
            wait = dual_mul(dual_geo(dual_term(X1, 1, z)), dual_term(X0, 0, z))
        else:

            def series():
                prefix, j = dual_identity(4), 1
                while True:
                    X0, X1 = observation(att, j)
                    yield dual_mul(prefix, dual_term(X0, 0, z))
                    prefix = dual_mul(prefix, dual_term(X1, 1, z))
                    j += 1

            wait = dual_sum_truncated(series(), tol=1e-15)
        bracket = dual_add(dual_term(ch.P00, 1, z), dual_mul(dual_term(ch.P01, 2, z), wait))
        loop = dual_add(
            dual_term(ch.P10 @ np.linalg.matrix_power(ch.Pc, p.k - 1), p.k, z),
            dual_term(ch.P11 @ np.linalg.matrix_power(ch.Pc, p.T - 1), p.T, z),
        )
        head = dual_term(np.linalg.matrix_power(ch.Pc, p.k - 1), p.k - 1, z)
    return dual_mul(head, dual_mul(dual_geo(loop), bracket))


@pytest.mark.parametrize("k,T", [(5, 5), (5, 20), (1, 1), (1, 4)])
def test_recovery_walk_matches_reference_constructions(k, T):
    # the one per-slot walk against the two constructions it replaced:
    # same numbers for both kinds, constant and combining models, at
    # z = 1 (mass and mean) and off it (where every z-power shows)
    channels = [channel(0.1), channel(0.5), LOSSY_G, symmetric_composite(0.01, 0.0, 1.0, 0.3)]
    for ch in channels:
        eps = ch.fwd.eps
        for scheme, gor in (("uncoded", 0.0), ("harq", 10 * eps)):
            p = ProtocolParams(k=k, T=T, scheme=scheme, gamma_over_rho=gor)
            att = attempt_model_for(ch, p)
            for kind in ("tau", "delay"):
                for z in (1.0, 0.99):
                    got = arq_kind(ch, p, att, kind, z)
                    ref = reference_arq_mgf(ch, p, att, kind, z)
                    for a, b in ((got.val, ref.val), (got.der, ref.der)):
                        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (
                            scheme, eps, kind, z)


def test_recovery_walk_matches_reference_past_one_block():
    # a slowly mixing channel with strong combining: the walk is not
    # certified after its first block and runs on
    ch = symmetric_composite(0.01, 0.0, 1.0, 0.3)
    p = harq_params(10, 30.0)
    att = attempt_model_for(ch, p)
    for kind in ("tau", "delay"):
        for z in (1.0, 0.99):
            got = arq_kind(ch, p, att, kind, z)
            ref = reference_arq_mgf(ch, p, att, kind, z)
            for a, b in ((got.val, ref.val), (got.der, ref.der)):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (kind, z)


def walk_far(att, p, slots=4000):
    """(mass, means) of each start state's recovery walk, summed slot by
    slot far past where the certified walk stops; means[0] counts
    packets, means[1] slots."""
    mass, means, wait = np.zeros(4), np.zeros((2, 4)), np.eye(4)
    timer, expiries = p.d + 1, 0  # the timer runs out at slot d + 1, then every T slots
    for j, (X0, X1) in enumerate(zip(*observation(att, np.arange(1, slots + 1))), start=1):
        timer -= 1
        if timer == 0:
            timer, expiries = p.T, expiries + 1
        ends = wait @ X0.sum(axis=1)
        mass += ends
        means += np.outer((expiries, j), ends)
        wait = wait @ X1
    return mass, means


def certified_points():
    # the criterion-6 harq grid, the same at r = 0.01, and strong
    # combining on a slowly mixing channel
    for r in (0.3, 0.01):
        for eps in (0.1, 0.3, 0.5):
            for T in (5, 10):
                yield symmetric_composite(r, 0.0, 1.0, eps), harq_params(T, 10 * eps)
    yield symmetric_composite(0.01, 0.0, 1.0, 0.3), harq_params(10, 30.0)


def test_recovery_walk_is_certified():
    # the stop is certified: the one bound is at most 1e-15 and at least
    # the distance of both means (packets and slots) from a reference
    # summed far past it (up to the rounding of the two sums); the mass
    # is exact
    for ch, p in certified_points():
        att = attempt_model_for(ch, p)
        walk, bound = _recovery_walk(att, p, ONE)
        mass, means = walk_far(att, p)
        assert bound <= 1e-15
        err = np.abs(walk[1:].sum(axis=-1) - means)
        assert np.all(err <= bound + 1e-14 * means.max(axis=1, keepdims=True)), (err.max(), bound)
        assert np.max(np.abs(walk[0].sum(axis=1) - mass)) <= 1e-14


@pytest.mark.parametrize("certified", [1e-1, 1e-3, 1e-5, 1e-7, 1e-9])
def test_recovery_walk_bound_holds_where_it_stops(monkeypatch, certified):
    # stopped early (one period per block, a loose stop), the walk
    # over-counts in both counts: each mean lies between the far-summed
    # reference and the reference plus the one reported bound
    monkeypatch.setattr(protocols, "_BLOCK", 1)
    monkeypatch.setattr(protocols, "_CERTIFIED", certified)
    slow = symmetric_composite(0.01, 0.0, 1.0, 0.3)
    cases = [
        (slow, harq_params(5, 30.0), None),
        (slow, harq_params(10, 30.0), None),
        (channel(0.5), harq_params(5, 5.0), None),
        (slow, harq_params(5, 1.0), lambda m: 0.5 + 0.5 / m),  # falls to a limit above 0
    ]
    for ch, p, eps_B in cases:
        att = attempt_model_for(ch, p) if eps_B is None else AttemptModel(ch, eps_B)
        walk, bound = _recovery_walk(att, p, ONE)
        _, means = walk_far(att, p)
        over = walk[1:].sum(axis=-1) - means
        slack = 1e-13 * means.max(axis=1, keepdims=True)
        assert bound <= certified
        assert np.all(over >= -slack) and np.all(over <= bound + slack), (p.T, over, bound)


@pytest.mark.parametrize("scheme", ["uncoded", "harq"])
def test_one_arq_point_runs_one_walk(monkeypatch, scheme):
    # both means of a point come from one traversal: one recovery walk,
    # also where the walk needs more than one block
    walks = []
    walk = protocols._recovery_walk
    monkeypatch.setattr(protocols, "_recovery_walk", lambda *args: walks.append(args) or walk(*args))
    metrics = uncoded_metrics if scheme == "uncoded" else harq_metrics
    for ch, gor in ((channel(0.3), 3.0), (symmetric_composite(0.01, 0.0, 1.0, 0.3), 30.0)):
        p = ProtocolParams(k=5, T=10, scheme=scheme, gamma_over_rho=gor if scheme == "harq" else 0.0)
        walks.clear()
        metrics(ch, p)
        assert len(walks) == 1


def test_recovery_rates_that_rise_are_named():
    ch, p = channel(0.3), harq_params(10, 3.0)
    rising = AttemptModel(ch, lambda m: np.minimum(0.9, 0.1 + m / 100.0))
    with pytest.raises(ParameterError, match="rates rise along the combining index"):
        build_arq_mgf(ch, p, rising)
    # a rise at the first slot of the walk's second block, on a slowly
    # mixing channel whose walk needs that block: only the check across
    # two calls of _periods sees it
    first_block = -(-protocols._BLOCK // p.T) * p.T
    slow = symmetric_composite(0.01, 0.0, 1.0, 0.3)
    step = AttemptModel(slow, lambda m: np.where(m <= first_block, 0.98, 0.99))
    with pytest.raises(ParameterError, match=f"rates rise along the combining index at {first_block + 1}"):
        build_arq_mgf(slow, p, step)


def test_a_rise_in_a_state_no_step_enters_is_no_rise():
    # the rise check reads the erased steps X1, not the rates: a reverse half
    # with q = 0, r = 1 never enters state B, so its kernel column is zero
    # and eps_B may rise there without changing any step
    ch = build_composite(build_half_channel(0.3, 0.0, 1.0, 0.3), build_half_channel(1.0, 0.0, 1.0, 0.0))
    p, rising = harq_params(10, 3.0), lambda m: np.minimum(0.9, 0.1 + m / 100.0)
    assert not AttemptModel(ch, rising)._split[3].any()  # the erased step's state-B kernel
    phi = build_arq_mgf(ch, p, AttemptModel(ch, rising))
    assert np.array_equal(phi.val, build_arq_mgf(ch, p, AttemptModel(ch, 0.1)).val)


def recording_steps(att):
    """att with its steps() recording the last slot each call evaluates, and
    how many indices it takes."""
    seen, steps = [], att.steps
    att.steps = lambda m: seen.append((int(np.max(m)), np.size(m))) or steps(m)
    return att, seen


def relative_gap(walk, att, p):
    """The walk's largest distance from walk_far, relative to the mass and to
    the largest mean (slots: at least 1)."""
    mass, means = walk_far(att, p)
    return max(
        np.max(np.abs(walk[0].sum(axis=1) - mass) / mass),
        np.max(np.abs(walk[1:].sum(axis=-1) - means)) / means.max(),
    )


@pytest.mark.parametrize("scheme", ["uncoded", "harq"])
@pytest.mark.parametrize("T", [5, 10])
def test_a_constant_recovery_is_one_closure(scheme, T):
    # rates at their limit from the first slot (uncoded, and harq at
    # gamma/rho = 0): one slot's observation, one closure, bound 0
    for ch in (channel(0.3), LOSSY_G, symmetric_composite(0.01, 0.0, 1.0, 0.3)):
        p = ProtocolParams(k=5, T=T, scheme=scheme)
        att, seen = recording_steps(attempt_model_for(ch, p))
        walk, bound = _recovery_walk(att, p, ONE)
        assert seen == [(1, 1)] and bound == 0.0
        assert relative_gap(walk, att, p) <= 1e-13


def test_a_recovery_at_its_limit_after_one_block_closes_there():
    # the rates reach their limit at the first slot after the walk's first
    # block: the closure there is exact (bound 0), on a slowly mixing channel
    # whose bound would not certify that early
    ch, p = symmetric_composite(0.01, 0.0, 1.0, 0.3), harq_params(10, 3.0)
    first_block = -(-protocols._BLOCK // p.T) * p.T
    att, seen = recording_steps(AttemptModel(ch, lambda m: np.where(m <= first_block, 0.9, 0.5)))
    walk, bound = _recovery_walk(att, p, ONE)
    assert [last for last, _ in seen] == [first_block + 1] and bound == 0.0
    assert relative_gap(walk, att, p) <= 1e-13


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference_seed0.json"
REF_FIELDS = ("tau_mean", "throughput", "delay_mean", "delay_mean_per_packet", "frame_tau_mean")


@pytest.mark.parametrize("grid,points", [("analytic-grid", 48), ("slow-mixing", 24)])
def test_arq_points_match_the_benchmark_reference(grid, points):
    # every uncoded and harq point of the benchmark's seed-0 reference (read
    # only) at its --compare gate, 1e-12 relative; links and the harq gain
    # 10 eps as the sweep builds them
    reference = json.loads(REFERENCE.read_text())[grid]
    keys = [key for key in reference if not key.startswith("coded/")]
    assert len(keys) == points
    worst = 0.0
    for key in keys:
        scheme, eps, r, T = re.fullmatch(r"(\w+)/eps=(.+)/r=(.+)/T=(\d+)", key).groups()
        eps, half = float(eps), build_half_channel(float(r), 0.0, 1.0, float(eps))
        gain = 10.0 * eps if scheme == "harq" else 0.0
        metrics = (harq_metrics if scheme == "harq" else uncoded_metrics)(
            build_composite(half, half), ProtocolParams(k=5, T=int(T), scheme=scheme, gamma_over_rho=gain))
        for f in REF_FIELDS:
            worst = max(worst, abs(getattr(metrics, f) - reference[key][f]) / abs(reference[key][f]))
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("build", ["coded", "graph"])
def test_every_builder_rejects_an_unknown_kind(build):
    ch, p = channel(0.3), ProtocolParams(k=5, T=10)
    with pytest.raises(ValueError, match="kind must be 'tau' or 'delay'"):
        if build == "coded":
            kern = default_coded_kernel(ch, ProtocolParams(k=5, T=10, scheme="coded"))
            build_coded_mgf(kern, kind="slots")
        else:
            build_uncoded_graph(ch, p, "slots")


def test_all_erased_feedback_never_converges():
    fwd = build_half_channel(0.3, 0.0, 1.0, 0.3)
    rev = build_half_channel(0.3, 1.0, 1.0, 1.0)   # feedback always erased
    ch = build_composite(fwd, rev)
    with pytest.raises(NonConvergenceError):
        uncoded_metrics(ch, ProtocolParams(k=5, T=10))


def test_scheme_param_cross_checks():
    ch = channel(0.2)
    with pytest.raises(ParameterError):
        uncoded_metrics(ch, ProtocolParams(k=5, T=10, scheme="harq", gamma_over_rho=1.0))
    with pytest.raises(ParameterError):
        harq_metrics(ch, ProtocolParams(k=5, T=10))
