"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here and not configurable.
"""
import numpy as np
import pytest

from gearq.channel import symmetric_composite
from gearq.cli import SweepConfig, run_sweep
from gearq.coded import build_coded_mgf, coded_metrics, default_coded_kernel
from gearq.flowgraph import build_uncoded_graph, graph_gain
from gearq.genfunc import DualMatrix, scalarize
from gearq.protocols import (
    AttemptModel,
    ProtocolParams,
    attempt_model_for,
    build_arq_mgf,
    harq_metrics,
    uncoded_metrics,
)
from gearq.sim import SimConfig, pooled_estimate, simulate

K = 5
R = 0.3
EPS_GRID = [round(0.05 * i, 2) for i in range(1, 13)]
T_GRID = [5, 10, 20]
CODED_MN = (5, 4)


def channel(eps):
    return symmetric_composite(R, 0.0, 1.0, eps)


def metrics_for(scheme, ch, eps, T):
    if scheme == "uncoded":
        return uncoded_metrics(ch, ProtocolParams(k=K, T=T))
    if scheme == "harq":
        return harq_metrics(
            ch, ProtocolParams(k=K, T=T, scheme="harq", gamma_over_rho=10 * eps)
        )
    M, N = CODED_MN
    return coded_metrics(ch, ProtocolParams(k=K, T=T, scheme="coded", M=M, N=N))


def between_seed(stats):
    """(tau_mean, tau_stderr, delay_mean, delay_stderr) from the seed means.

    The standard error is the spread of the m seed means over sqrt(m):
    the acceptance estimator of criteria 6 and 7, kept apart from the
    per-episode pooling of pooled_estimate.
    """
    out = []
    for means in ([st.tau_mean_hat for st in stats], [st.delay_mean_hat for st in stats]):
        out += [np.mean(means), np.std(means, ddof=1) / np.sqrt(len(means))]
    return tuple(out)


def worst_z(exact_tau, exact_delay, estimate):
    tm, ts, dm, ds = estimate
    return max(abs(exact_tau - tm) / ts, abs(exact_delay - dm) / ds)


def report(num, label, passed):
    print(f"criterion {num} [{label}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({label}) failed"


def test_criterion_1_mgf_normalization():
    worst = 0.0
    for eps in EPS_GRID:
        ch = channel(eps)
        for T in T_GRID:
            for scheme in ("uncoded", "harq", "coded"):
                m = metrics_for(scheme, ch, eps, T)
                worst = max(worst, m.mgf_err_tau, m.mgf_err_delay)
    report(1, f"normalization, worst |phi(1)-1| = {worst:.2e}", worst <= 1e-9)


def test_criterion_2_degenerate_exactness():
    ch = channel(0.0)
    mu = uncoded_metrics(ch, ProtocolParams(k=K, T=10))
    ok = (
        abs(mu.throughput - 1.0) <= 1e-12
        and abs(mu.delay_mean - K) <= 1e-12
    )
    M, N = CODED_MN
    mc = coded_metrics(ch, ProtocolParams(k=K, T=10, scheme="coded", M=M, N=N))
    ok = ok and abs(mc.delay_mean - (K + M - 1)) <= 1e-9
    report(2, "error-free exactness", ok)


def test_criterion_3_constant_harq_equals_uncoded():
    worst = 0.0
    for eps in EPS_GRID:
        ch = channel(eps)
        for T in T_GRID:
            mu = uncoded_metrics(ch, ProtocolParams(k=K, T=T))
            p = ProtocolParams(k=K, T=T, scheme="harq", gamma_over_rho=10 * eps)
            phi = build_arq_mgf(ch, p, AttemptModel(ch, ch.rev.eps_B))
            # der[0] counts packets (tau), der[1] slots (delay)
            tau, delay = (scalarize(ch.pi_I, DualMatrix(phi.val, der))[1] for der in phi.der)
            worst = max(
                worst,
                abs(mu.tau_mean - tau),
                abs(mu.throughput - 1.0 / tau),
                abs(mu.delay_mean - delay),
            )
    report(3, f"constant-attempt harq == uncoded, worst diff = {worst:.2e}", worst <= 1e-12)


def test_criterion_4_graph_engine_oracle():
    worst = 0.0
    for eps in EPS_GRID:
        ch = channel(eps)
        for T in T_GRID:
            p = ProtocolParams(k=K, T=T)
            closed = build_arq_mgf(ch, p, attempt_model_for(ch, p))
            for der, kind in zip(closed.der, ("tau", "delay")):
                gg = graph_gain(build_uncoded_graph(ch, p, kind))
                worst = max(
                    worst,
                    float(np.max(np.abs(closed.val - gg.val))),
                    float(np.max(np.abs(der - gg.der))),
                )
    report(4, f"flow graph == closed form, worst diff = {worst:.2e}", worst <= 1e-12)


def test_criterion_5_derivative_oracle():
    h = 1e-5
    worst = 0.0
    for eps in EPS_GRID:
        ch = channel(eps)
        for T in T_GRID:
            for scheme in ("uncoded", "harq", "coded"):
                if scheme == "coded":
                    M, N = CODED_MN
                    p = ProtocolParams(k=K, T=T, scheme="coded", M=M, N=N)
                    kern = default_coded_kernel(ch, p)
                    pi = kern.start_vector()

                    def phi(z, kind):
                        return scalarize(
                            pi, build_coded_mgf(kern, kind, z), check=False
                        )
                else:
                    gor = 10 * eps if scheme == "harq" else 0.0
                    p = ProtocolParams(k=K, T=T, scheme=scheme, gamma_over_rho=gor)
                    att = attempt_model_for(ch, p)

                    def phi(z, kind):
                        # z on the kind's count: der[0] packets (tau), der[1] slots
                        i = ("tau", "delay").index(kind)
                        mgf = build_arq_mgf(ch, p, att, (z, 1.0) if i == 0 else (1.0, z))
                        return scalarize(ch.pi_I, DualMatrix(mgf.val, mgf.der[i]), check=False)

                for kind in ("tau", "delay"):
                    _, mean = phi(1.0, kind)
                    fd = (phi(1.0 + h, kind)[0] - phi(1.0 - h, kind)[0]) / (2 * h)
                    worst = max(worst, abs(mean - fd) / abs(mean))
    report(5, f"dual vs finite difference, worst rel err = {worst:.2e}", worst <= 1e-6)


def test_criterion_6_simulation_agreement_uncoded_harq():
    seeds = range(20)
    horizon = 100_000
    worst, worst_pooled = 0.0, 0.0
    for scheme in ("uncoded", "harq"):
        for eps in (0.1, 0.3, 0.5):
            ch = channel(eps)
            for T in (5, 10):
                if scheme == "uncoded":
                    p = ProtocolParams(k=K, T=T)
                    ana = uncoded_metrics(ch, p)
                else:
                    p = ProtocolParams(
                        k=K, T=T, scheme="harq", gamma_over_rho=10 * eps
                    )
                    ana = harq_metrics(ch, p)
                stats = [
                    simulate(SimConfig(params=p, ch=ch, seed=s, horizon=horizon))
                    for s in seeds
                ]
                exact = (ana.tau_mean, ana.delay_mean)
                worst = max(worst, worst_z(*exact, between_seed(stats)))
                worst_pooled = max(worst_pooled, worst_z(*exact, pooled_estimate(stats)))
    report(
        6,
        f"uncoded/harq sim agreement, worst |z| = {worst:.2f}"
        f" (per-episode pooled: {worst_pooled:.2f})",
        worst <= 3.0,
    )


def test_criterion_7_coded_kernel_validation():
    seeds = range(20)
    horizon = 50_000
    M, N = CODED_MN
    worst, worst_pooled = 0.0, 0.0
    for eps in (0.1, 0.3, 0.5):
        ch = channel(eps)
        p = ProtocolParams(k=K, T=10, scheme="coded", M=M, N=N)
        ana = coded_metrics(ch, p)
        stats = [simulate(SimConfig(params=p, ch=ch, seed=s, horizon=horizon)) for s in seeds]
        exact = (ana.frame_tau_mean, ana.delay_mean)
        worst = max(worst, worst_z(*exact, between_seed(stats)))
        worst_pooled = max(worst_pooled, worst_z(*exact, pooled_estimate(stats)))
    report(
        7,
        f"coded sim agreement, worst |z| = {worst:.2f} (per-episode pooled: {worst_pooled:.2f})",
        worst <= 3.0,
    )


def test_criterion_8_qualitative_trends():
    rows = {}
    for eps in EPS_GRID:
        ch = channel(eps)
        rows[eps] = {s: metrics_for(s, ch, eps, 10) for s in ("uncoded", "harq", "coded")}
    ok = True
    # per-packet throughput non-increasing in eps for every scheme
    for scheme in ("uncoded", "harq", "coded"):
        etas = [rows[e][scheme].throughput for e in EPS_GRID]
        ok &= all(b <= a + 1e-12 for a, b in zip(etas, etas[1:]))
    # coded throughput at least uncoded from eps = 0.3 up
    ok &= all(
        rows[e]["coded"].throughput >= rows[e]["uncoded"].throughput
        for e in EPS_GRID if e >= 0.3
    )
    # coded per-packet delay below uncoded across the grid
    ok &= all(
        rows[e]["coded"].delay_mean_per_packet <= rows[e]["uncoded"].delay_mean
        for e in EPS_GRID
    )
    # soft combining shortens the delay, also where state B erases only
    # part of the uncombined receptions (eps_B < 1, admissible eps only)
    ok &= all(
        rows[e]["harq"].delay_mean <= rows[e]["uncoded"].delay_mean for e in EPS_GRID
    )
    for eps_B in (0.5, 0.6):
        for e in (e for e in EPS_GRID if R * e <= eps_B - e):
            ch_B = symmetric_composite(R, 0.0, eps_B, e)
            for T in (5, 10):
                harq, unc = (metrics_for(s, ch_B, e, T) for s in ("harq", "uncoded"))
                ok &= harq.delay_mean <= unc.delay_mean
    # larger timers raise both throughput and delay at eps = 0.3
    ch = channel(0.3)
    for scheme in ("uncoded", "harq", "coded"):
        ms = [metrics_for(scheme, ch, 0.3, T) for T in T_GRID]
        ok &= ms[0].throughput <= ms[1].throughput <= ms[2].throughput
        ok &= ms[0].delay_mean <= ms[1].delay_mean <= ms[2].delay_mean
    report(8, "qualitative trends", bool(ok))


def test_criterion_9_sweep_determinism():
    cfg = SweepConfig(
        eps=(0.1, 0.3), T=(5, 10), schemes=("uncoded", "harq", "coded"),
        M=CODED_MN[0], N=CODED_MN[1], mode="both", seeds=(0, 1), horizon=2_000,
    )
    t1, e1 = run_sweep(cfg)
    t2, e2 = run_sweep(cfg)
    report(9, "byte-identical sweep reruns", t1 == t2 and e1 == e2 == 0)
