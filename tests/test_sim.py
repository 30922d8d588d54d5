"""Simulator: chain statistics, exact limits, determinism, cross-checks."""
import numpy as np
import pytest

from gearq.channel import build_composite, build_half_channel, symmetric_composite
from gearq.coded import coded_metrics
from gearq.protocols import ProtocolParams, harq_metrics, uncoded_metrics
from gearq.sim import (
    SimConfig,
    _chain_step,
    _draw_states,
    _jump_rows,
    pooled_estimate,
    simulate,
)


def half(eps, r=0.3, eg=0.0, eb=1.0):
    return build_half_channel(r, eg, eb, eps)


def cfg(scheme="uncoded", eps=0.3, T=10, seed=0, horizon=20_000, **kw):
    params_kw = {}
    for key in ("M", "N", "gamma_over_rho"):
        if key in kw:
            params_kw[key] = kw.pop(key)
    p = ProtocolParams(k=5, T=T, scheme=scheme, **params_kw)
    h = half(eps)
    return SimConfig(params=p, fwd=h, rev=h, seed=seed, horizon=horizon, **kw)


def run_chain(h, lanes, steps, seed, start=None):
    """(states, erasures) of independent lanes, drawn as the simulator draws.

    Lanes start from the stationary vector (or all in `start`), take one
    `_chain_step` per slot and draw an erasure at the landing state.
    """
    rng = np.random.default_rng(seed)
    cumP = np.cumsum(h.P, axis=1)
    eps = np.array([h.eps_G, h.eps_B])
    state = _draw_states(rng, h.pi, lanes) if start is None else np.full(lanes, start)
    states = np.empty((steps, lanes), dtype=np.int64)
    erased = np.empty((steps, lanes), dtype=bool)
    for t in range(steps):
        u_step, u_obs = rng.random((2, lanes))
        state = _chain_step(cumP, state, u_step)
        states[t], erased[t] = state, u_obs < eps[state]
    return states, erased


def test_chain_sampler_absorbing():
    h = build_half_channel(0.3, 0.0, 1.0, 0.0)     # q = 0: G absorbing
    states, _ = run_chain(h, lanes=1000, steps=100, seed=0, start=0)
    assert np.all(states == 0)


def test_chain_sampler_memoryless_iid():
    # r = 0 with constant erasure rate: i.i.d. erasures
    h = build_half_channel(0.0, 0.4, 0.4, 0.4)
    _, erased = run_chain(h, lanes=1000, steps=200, seed=1)
    assert erased.mean() == pytest.approx(0.4, abs=0.005)


def test_chain_sampler_stationary_fraction():
    h = build_half_channel(0.3, 0.0, 1.0, 0.5)      # q = 0.3: pi_G = 0.5
    states, erased = run_chain(h, lanes=1000, steps=1000, seed=2)
    assert (states == 0).mean() == pytest.approx(0.5, abs=0.005)
    # per-slot erasure rate converges to eps within 3 sigma
    assert erased.mean() == pytest.approx(0.5, abs=0.0015)


def gathered_row_step(cumP, state, u):
    """The reference inversion: compare u with the whole gathered row."""
    return np.minimum((u[:, None] >= cumP[state]).sum(axis=1), cumP.shape[1] - 1)


def test_chain_step_matches_gathered_rows():
    rng = np.random.default_rng(5)
    tables = []
    for n in (2, 4):
        for _ in range(20):
            P = rng.random((n, n)) * (rng.random((n, n)) < 0.7)  # some zero entries
            P[:, 0] += 1e-3
            P /= P.sum(axis=1, keepdims=True)
            tables.append(np.cumsum(P, axis=1))
            tables.append(_jump_rows(P, range(1, 9)))  # stacked P^1 .. P^8
    # a last column that rounds below 1
    tables.append(np.array([[0.25, 0.5, 1.0 - 2**-40], [0.0, 0.0, 1.0 - 2**-30]]))
    for cumP in tables:
        state = rng.integers(0, cumP.shape[0], 5_000)
        u = rng.random(5_000)
        # u equal to an entry of its own row, and u above the row's last entry
        u[:500] = cumP[state[:500], rng.integers(0, cumP.shape[1], 500)]
        u[500:600] = np.nextafter(cumP[state[500:600], -1], 2.0)
        assert np.array_equal(_chain_step(cumP, state, u), gathered_row_step(cumP, state, u))


@pytest.mark.parametrize("j", [2, 5, 10])
def test_jump_rows_match_repeated_steps(j):
    # one draw from the rows of Pc^j lands where j single steps land
    h = half(0.4)
    ch = build_composite(h, half(0.3, eg=0.1, eb=0.9))
    lanes = 100_000
    rng = np.random.default_rng(j)
    start = rng.integers(0, 4, lanes)
    jumped = _chain_step(_jump_rows(ch.Pc, [1, j]), 4 + start, rng.random(lanes))
    stepped = start
    cumP = np.cumsum(ch.Pc, axis=1)
    for _ in range(j):
        stepped = _chain_step(cumP, stepped, rng.random(lanes))
    exact = np.linalg.matrix_power(ch.Pc, j)
    for s0 in range(4):
        n = int((start == s0).sum())
        sigma = np.sqrt(exact[s0] * (1 - exact[s0]) / n)
        for landed in (jumped, stepped):
            freq = np.bincount(landed[start == s0], minlength=4) / n
            assert np.all(np.abs(freq - exact[s0]) <= 4 * sigma + 1e-12)


def test_error_free_exactness():
    st = simulate(cfg(eps=0.0, horizon=10_000))
    assert st.tau_mean_hat == 1.0
    assert st.delay_mean_hat == 5.0
    assert st.tau_stderr == 0.0
    assert st.slots_elapsed == 5 * 10_000


def test_harq_error_free_exactness():
    st = simulate(cfg("harq", eps=0.0, gamma_over_rho=3.0, horizon=10_000))
    assert (st.tau_mean_hat, st.delay_mean_hat) == (1.0, 5.0)
    assert st.tau_stderr == st.delay_stderr == 0.0


SCHEME_KW = {"uncoded": {}, "harq": {"gamma_over_rho": 3.0}, "coded": {"M": 5, "N": 4}}


def test_determinism():
    for scheme, kw in SCHEME_KW.items():
        a = simulate(cfg(scheme, seed=7, horizon=5_000, **kw))
        b = simulate(cfg(scheme, seed=7, horizon=5_000, **kw))
        assert a == b, scheme
        c = simulate(cfg(scheme, seed=8, horizon=5_000, **kw))
        assert c != a, scheme


@pytest.mark.parametrize("scheme", SCHEME_KW)
@pytest.mark.parametrize("horizon,batch", [(1_500, 400), (1_000, 4096)])
def test_every_started_episode_is_delivered(scheme, horizon, batch):
    # horizon % batch != 0, and batch > horizon
    st = simulate(cfg(scheme, eps=0.4, horizon=horizon, batch=batch, **SCHEME_KW[scheme]))
    assert st.delivered == horizon


def test_sample_floors():
    st = simulate(cfg(eps=0.5, horizon=5_000))
    assert st.tau_mean_hat >= 1.0
    assert st.delay_mean_hat >= 5.0
    assert st.delivered == 5_000


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(horizon=10)
    with pytest.raises(ValueError):
        cfg(init_mode="whatever")


@pytest.mark.parametrize("batch", [0, -5])
def test_config_rejects_nonpositive_batch(batch):
    with pytest.raises(ValueError, match="batch"):
        cfg(batch=batch)


def test_pooled_estimate_pools_episode_moments():
    a = simulate(cfg(seed=1, horizon=5_000))
    b = simulate(cfg(seed=2, horizon=5_000))
    tm, ts, dm, ds = pooled_estimate([a, b])
    assert tm == pytest.approx((a.tau_mean_hat + b.tau_mean_hat) / 2)
    assert ts == pytest.approx(np.hypot(a.tau_stderr, b.tau_stderr) / 2)
    assert dm == pytest.approx((a.delay_mean_hat + b.delay_mean_hat) / 2)
    assert ds == pytest.approx(np.hypot(a.delay_stderr, b.delay_stderr) / 2)
    assert pooled_estimate([a]) == (a.tau_mean_hat, a.tau_stderr, a.delay_mean_hat, a.delay_stderr)
    with pytest.raises(ValueError):
        pooled_estimate([])


def test_feedback_erasures_hurt():
    # same forward channel, reverse erasures on vs off, paired seeds
    p = ProtocolParams(k=5, T=10)
    fwd = half(0.3)
    noisy = [
        simulate(SimConfig(params=p, fwd=fwd, rev=half(0.3), seed=s, horizon=30_000))
        for s in range(4)
    ]
    clean = [
        simulate(SimConfig(params=p, fwd=fwd, rev=half(0.0), seed=s, horizon=30_000))
        for s in range(4)
    ]
    assert np.mean([s.throughput_hat for s in clean]) > np.mean(
        [s.throughput_hat for s in noisy]
    )
    assert np.mean([s.delay_mean_hat for s in clean]) < np.mean(
        [s.delay_mean_hat for s in noisy]
    )


@pytest.mark.parametrize(
    "scheme,eps,eps_G,eps_B",
    [
        ("uncoded", 0.3, 0.0, 1.0),
        ("harq", 0.3, 0.0, 1.0),
        ("harq", 0.4, 0.1, 0.9),
        # dropping eps_G from the recovery draw moves this delay by 0.17
        # (|z| = 6.4 here); at eps_G = 0.1 it moves 0.04 (|z| = 2.1, unseen)
        ("harq", 0.5, 0.3, 0.9),
    ],
    ids=["uncoded-0.3", "harq-0.3", "harq-0.4-eps_G0.1", "harq-0.5-eps_G0.3"],
)
def test_sim_matches_analysis_quick(scheme, eps, eps_G, eps_B):
    h = half(eps, eg=eps_G, eb=eps_B)
    ch = build_composite(h, h)
    p = ProtocolParams(k=5, T=10, scheme=scheme, gamma_over_rho=3.0 if scheme == "harq" else 0.0)
    ana = uncoded_metrics(ch, p) if scheme == "uncoded" else harq_metrics(ch, p)
    stats = [
        simulate(SimConfig(params=p, fwd=h, rev=h, seed=s, horizon=50_000)) for s in range(6)
    ]
    tm, ts, dm, ds = pooled_estimate(stats)
    assert abs(ana.tau_mean - tm) <= 4 * ts
    assert abs(ana.delay_mean - dm) <= 4 * ds


def test_coded_sim_error_free():
    st = simulate(cfg(scheme="coded", eps=0.0, M=5, N=4, horizon=5_000))
    assert st.tau_mean_hat == 5.0
    assert st.delay_mean_hat == 9.0
    # model slots, whatever the number of engine steps
    assert st.slots_elapsed == 9 * 5_000


def test_coded_sim_matches_analysis_quick():
    eps = 0.3
    ch = symmetric_composite(0.3, 0.0, 1.0, eps)
    p = ProtocolParams(k=5, T=10, scheme="coded", M=5, N=4)
    ana = coded_metrics(ch, p)
    stats = [
        simulate(cfg(scheme="coded", eps=eps, M=5, N=4, seed=s, horizon=20_000))
        for s in range(6)
    ]
    tm, ts, dm, ds = pooled_estimate(stats)
    assert abs(ana.frame_tau_mean - tm) <= 4 * ts
    assert abs(ana.delay_mean - dm) <= 4 * ds


@pytest.mark.parametrize(
    "h,k,T,M,N",
    [
        # eps_G > 0 and a long timer: long idle stretches with G-state losses
        (half(0.4, eg=0.1, eb=0.9), 5, 12, 5, 4),
        # the corner T = k = M = N; a jump one slot short fails only here
        (half(0.3), 3, 3, 3, 3),
    ],
    ids=["eps_G0.1-T12", "k3-T3-M3-N3"],
)
def test_coded_idle_jump_matches_analysis(h, k, T, M, N):
    # jumping a lane over a slot that still holds an unacknowledged DoF
    # skips feedback that would act: delay |z| > 6 on both cases
    ch = build_composite(h, h)
    p = ProtocolParams(k=k, T=T, scheme="coded", M=M, N=N)
    ana = coded_metrics(ch, p)
    stats = [
        simulate(SimConfig(params=p, fwd=h, rev=h, seed=s, horizon=20_000)) for s in range(6)
    ]
    tm, ts, dm, ds = pooled_estimate(stats)
    assert abs(ana.frame_tau_mean - tm) <= 4 * ts
    assert abs(ana.delay_mean - dm) <= 4 * ds


def test_coded_sim_determinism_and_floors():
    a = simulate(cfg(scheme="coded", eps=0.4, M=5, N=4, seed=11, horizon=5_000))
    b = simulate(cfg(scheme="coded", eps=0.4, M=5, N=4, seed=11, horizon=5_000))
    assert a == b
    assert a.tau_mean_hat >= 5.0
    assert a.delay_mean_hat >= 9.0
