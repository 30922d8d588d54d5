"""Simulator: chain statistics, exact limits, determinism, cross-checks."""
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from gearq import sim
from gearq.channel import build_composite, build_half_channel, symmetric_composite
from gearq.coded import coded_metrics
from gearq.protocols import ProtocolParams, attempt_model_for, harq_metrics, uncoded_metrics
from gearq.sim import (
    _LANES,
    SimConfig,
    SimStats,
    _chain_step,
    _Moments,
    _frame_rules,
    _round_rows,
    _run_lanes,
    _to_good,
    pooled_estimate,
    simulate,
)

import exhaustive


def half(eps, r=0.3, eg=0.0, eb=1.0):
    return build_half_channel(r, eg, eb, eps)


def cfg(scheme="uncoded", eps=0.3, T=10, seed=0, horizon=20_000, **kw):
    params_kw = {}
    for key in ("M", "N", "gamma_over_rho"):
        if key in kw:
            params_kw[key] = kw.pop(key)
    p = ProtocolParams(k=5, T=T, scheme=scheme, **params_kw)
    h = half(eps)
    return SimConfig(params=p, ch=build_composite(h, h), seed=seed, horizon=horizon, **kw)


def cum_rows(P, js):
    """The cumulative rows of P^j for j in js, stacked: row i * s + y is row y of P^js[i]."""
    mats = np.stack([np.linalg.matrix_power(P, j) for j in js])
    return np.cumsum(mats, axis=2).reshape(-1, P.shape[0])


def run_chain(h, lanes, steps, seed, start=None):
    """(states, erasures) of independent lanes, drawn as the simulator draws.

    Lanes start from the stationary vector (or all in `start`), take one
    `_chain_step` per slot and draw an erasure at the landing state.
    """
    rng = np.random.default_rng(seed)
    cumP = np.cumsum(h.P, axis=1)
    eps = np.array([h.eps_G, h.eps_B])
    if start is None:  # one draw from the stationary vector's cumulative row
        row = np.cumsum(h.pi)[None]
        state = _chain_step(row, np.zeros(lanes, dtype=np.int64), rng.random(lanes))
    else:
        state = np.full(lanes, start)
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
            tables.append(cum_rows(P, range(1, 9)))  # stacked P^1 .. P^8
    # a last column that rounds below 1
    tables.append(np.array([[0.25, 0.5, 1.0 - 2**-40], [0.0, 0.0, 1.0 - 2**-30]]))
    for cumP in tables:
        state = rng.integers(0, cumP.shape[0], 5_000)
        u = rng.random(5_000)
        # u equal to an entry of its own row, and u above the row's last entry
        u[:500] = cumP[state[:500], rng.integers(0, cumP.shape[1], 500)]
        u[500:600] = np.nextafter(cumP[state[500:600], -1], 2.0)
        assert np.array_equal(_chain_step(cumP, state, u), gathered_row_step(cumP, state, u))


EDGE_HALVES = {  # build_half_channel(r, eps_G, eps_B, eps)
    "periodic": (1.0, 0.0, 1.0, 0.5),  # q = r = 1: lam = -1
    "memoryless": (0.3, 0.2, 0.2, 0.2),  # q = 1 - r: lam = 0
    "absorbed-B": (0.0, 0.0, 0.4, 0.4),  # r = 0, q = 1: lam = 0
    "r1e-9": (1e-9, 0.0, 1.0, 0.5),
    "eps_G0.1": (0.3, 0.1, 0.9, 0.4),
}


@pytest.mark.parametrize("link", EDGE_HALVES.values(), ids=EDGE_HALVES)
def test_closed_form_matches_matrix_power(link):
    h = build_half_channel(*link)
    js = np.arange(65)
    exact = np.stack([np.linalg.matrix_power(h.P, j)[:, 0] for j in js])
    assert np.allclose(_to_good(h, js), exact, rtol=0, atol=1e-14)


NEAR_PERIODIC = ((0.95, 0.0, 1.0, 0.5), (0.9, 0.1, 0.9, 0.5))  # forward, reverse halves
JUMP_LINKS = {
    "mixing": (half(0.4), half(0.3, eg=0.1, eb=0.9)),  # lam 0.5 and 0.6
    # lam -0.9 and -0.8: P^j and P^(j+1) stay far apart at j = 10, so a
    # jump one slot off or a swapped half lands outside the band there too
    "near-periodic": tuple(build_half_channel(*h) for h in NEAR_PERIODIC),
}


@pytest.mark.parametrize("link", JUMP_LINKS.values(), ids=JUMP_LINKS)
@pytest.mark.parametrize("j", [2, 5, 10])
def test_jump_rows_match_repeated_steps(j, link):
    # the move a rule step makes from the halves' closed forms, j slots on,
    # lands where j single steps land, both at the exact Pc^j
    ch = build_composite(*link)
    init, step = _frame_rules(SimConfig(params=ProtocolParams(k=5, T=10), ch=ch, seed=0, horizon=1000))
    lanes = 100_000
    rng = np.random.default_rng(j)
    start = rng.integers(0, 4, lanes)
    # idle lanes at slot 0 whose one-packet round is due at slot j
    L = SimpleNamespace(**{f: np.full(lanes, v) for f, v in init.items()}, state=start)
    L.sched_start[:] = j
    step(L, rng.random((3, lanes)))
    jumped = L.state
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


LINK = (0.3, 0.0, 1.0, 0.3)  # symmetric_composite(r, eps_G, eps_B, eps)
ASYM = ((0.4, 0.1, 0.9, 0.4), (0.2, 0.0, 1.0, 0.35))  # forward, reverse halves


def link_channel(link):
    """symmetric_composite of one half's parameters, or build_composite of a pair."""
    if len(link) == 2:
        return build_composite(*(build_half_channel(*h) for h in link))
    return symmetric_composite(*link)


PINNED = [
    ("uncoded", LINK, 1_000, SimStats(
        1.464, 0.026470814116683304, 8.642, 0.1842819470268317, 1000, 8642, 17, 14592, 46)),
    ("uncoded", LINK, 4_500, SimStats(
        1.472, 0.012550091239646701, 8.686444444444444, 0.08540522813704846,
        4500, 39089, 23, 83289, 55)),
    ("harq", LINK, 1_000, SimStats(
        1.407, 0.02536436476634099, 8.269, 0.17164101782499427, 1000, 8269, 8, 5947, 45)),
    ("harq", LINK, 4_500, SimStats(
        1.4248888888888889, 0.012207288744478998, 8.38111111111111, 0.0828466959769281,
        4500, 37715, 11, 35597, 52)),
    ("coded", LINK, 1_000, SimStats(
        6.9, 0.08079603950689657, 16.397, 0.3235110369060074, 1000, 16397, 27, 23475, 73)),
    ("coded", LINK, 4_500, SimStats(
        6.842888888888889, 0.03649719924613492, 16.00911111111111, 0.14743044000216454,
        4500, 72041, 30, 107502, 87)),
    ("harq", (0.3, 0.1, 0.9, 0.4), 4_500, SimStats(
        1.6775555555555555, 0.015977040797577703, 10.503111111111112, 0.11580079882972394,
        4500, 47264, 13, 41966, 75)),
    ("coded", ASYM, 4_500, SimStats(
        7.866666666666666, 0.04300444995636362, 21.115333333333332, 0.19043720224788016,
        4500, 95019, 58, 213377, 92)),
]


@pytest.mark.parametrize(
    "scheme,link,horizon,expect", PINNED,
    ids=[f"{s}-{'asym' if link is ASYM else f'eps_G{link[1]}'}-{h}" for s, link, h, _ in PINNED],
)
def test_random_stream_is_pinned(scheme, link, horizon, expect):
    # every field, exactly (k = 5, T = 10, seed 0): a refactor of the rules
    # or the engine that claims to keep the random stream must keep these
    p = ProtocolParams(k=5, T=10, scheme=scheme, **SCHEME_KW[scheme])
    ch = link_channel(link)
    assert simulate(SimConfig(params=p, ch=ch, seed=0, horizon=horizon)) == expect


def full_width_run_lanes(cfg, init, step):
    """The reference engine: every lane steps at the full width until the
    last episode ends, retired lanes unobserved, and nothing moves.  It
    draws the compacted engine's (3, width) uniforms on the same halving
    schedule; each live lane reads the column of its position, which a
    halving resets to the lane's rank among the live lanes."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    start_row = np.cumsum(cfg.ch.pi_I / cfg.ch.pi_I.sum())[None]
    B = min(_LANES, cfg.horizon)
    L = SimpleNamespace(**{f: np.zeros(B, dtype=np.int64) for f in ("state", *init)})

    def begin(idx):
        L.state[idx] = _chain_step(start_row, np.zeros_like(idx), rng.random(idx.size))
        for f, value in init.items():
            getattr(L, f)[idx] = value

    begin(np.arange(B))
    active = np.ones(B, dtype=bool)
    pos = np.arange(B)  # the column each lane reads; retired lanes' are clipped
    started = n_active = width = B
    iterations = retired = 0
    acc = _Moments()
    while n_active:
        iterations += 1
        retired += B - n_active
        u = rng.random((3, width))
        ends = np.flatnonzero(step(L, u[:, np.minimum(pos, width - 1)]) & active)
        if ends.size:
            acc.add(L.tau[ends], L.s[ends])
            n_new = min(ends.size, cfg.horizon - started)
            active[ends[n_new:]] = False
            n_active -= ends.size - n_new
            if n_new:
                begin(ends[:n_new])
                started += n_new
        if started == cfg.horizon and 0 < n_active <= width // 2:
            while n_active <= width // 2:
                width //= 2
            pos[active] = np.arange(n_active)
    return acc.stats(iterations, retired)


ENGINE_LINKS = {
    "eps_G0": LINK, "eps_G0.1": (0.3, 0.1, 0.9, 0.4), "asym": ASYM, "near-periodic": NEAR_PERIODIC,
    "r0.01": (0.01, 0.0, 1.0, 0.3),  # slow mixing: the drain runs long on a few lanes
}
ENGINE_CASES = [  # (scheme, link, horizon, ProtocolParams fields besides the scheme's)
    # 1,000 lanes is not a power of two; 4,097 leaves one episode for the drain
    *[(s, "eps_G0", h, {}) for s in SCHEME_KW for h in (1_000, 4_096, 4_097, 20_000)],
    *[(s, link, 4_097, {}) for s in SCHEME_KW for link in ("eps_G0.1", "asym", "near-periodic", "r0.01")],
    *[(s, "eps_G0", 4_097, dict(k=1, T=3)) for s in SCHEME_KW],
    *[(s, "eps_G0", 4_097, dict(T=5)) for s in SCHEME_KW],  # T = k
    ("harq", "eps_G0", 4_097, dict(gamma_over_rho=0.0)),
]


@pytest.mark.parametrize(
    "scheme,link,horizon,kw", ENGINE_CASES,
    ids=["-".join([s, link, str(h), *(f"{f}{v}" for f, v in kw.items())]) for s, link, h, kw in ENGINE_CASES],
)
def test_compacted_drain_matches_full_width_engine(scheme, link, horizon, kw):
    # the reference moves no lane but hands each live lane the column of
    # its compacted position, so every SimStats field equals its own
    fields = dict(dict(k=5, T=10, scheme=scheme, **SCHEME_KW[scheme]), **kw)
    if scheme == "coded" and fields["k"] == 1:
        fields.update(M=1, N=1)
    ch = link_channel(ENGINE_LINKS[link])
    c = SimConfig(params=ProtocolParams(**fields), ch=ch, seed=0, horizon=horizon)
    assert simulate(c) == full_width_run_lanes(c, *_frame_rules(c))


@pytest.mark.parametrize("horizon", [1_000, 20_000])
def test_drain_steps_halving_widths(horizon, monkeypatch):
    # the widths go B, B/2, B/4, ... and never rise; every iteration steps
    # the narrowest of them that holds its live lanes (these runs' drains
    # end on one or two)
    c = cfg("uncoded", horizon=horizon)
    init, step = _frame_rules(c)
    B = min(_LANES, horizon)
    moments = []

    class Recorded(_Moments):
        def __init__(self):
            super().__init__()
            moments.append(self)

    monkeypatch.setattr(sim, "_Moments", Recorded)
    widths = []

    def spy(L, u):
        width = u.shape[1]
        live = min(B, horizon - moments[0].n)  # episodes not yet ended
        assert width // 2 < live <= width
        assert all(v.shape == (width,) for v in vars(L).values())
        widths.append(width)
        return step(L, u)

    st = _run_lanes(c, init, spy)
    assert len(widths) == st.iterations
    assert widths == sorted(widths, reverse=True)
    assert set(widths) <= {B >> i for i in range(13)}
    assert widths[-1] <= 2


@pytest.mark.parametrize("scheme", SCHEME_KW)
@pytest.mark.parametrize("horizon", [4_500, 1_000])
def test_every_started_episode_is_delivered(scheme, horizon):
    # lanes are reused and horizon % 4096 != 0, or lanes outnumber the horizon
    st = simulate(cfg(scheme, eps=0.4, horizon=horizon, **SCHEME_KW[scheme]))
    assert st.delivered == horizon


def test_sample_floors():
    st = simulate(cfg(eps=0.5, horizon=5_000))
    assert st.tau_mean_hat >= 1.0
    assert st.delay_mean_hat >= 5.0
    assert st.delivered == 5_000


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(horizon=10)
    with pytest.raises(ValueError, match="seed must be an integer"):
        cfg(seed=1.5)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        cfg(horizon=1000.5)
    numpy_ints = cfg(seed=np.int64(3), horizon=np.int64(1000))
    assert simulate(numpy_ints) == simulate(cfg(seed=3, horizon=1000))


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_config_rejects_a_link_where_no_episode_ends(direction):
    # every packet (or every feedback) erased: no episode could end, so a
    # run would never return; the analysis raises NonConvergenceError there
    if direction == "forward":
        ch = symmetric_composite(0.3, 1.0, 1.0, 1.0)
    else:  # absorbed in a state that erases everything
        ch = build_composite(half(0.3), half(1.0, r=0.0))
    with pytest.raises(ValueError, match=f"the {direction} link erases every packet"):
        SimConfig(params=ProtocolParams(k=5, T=10), ch=ch, seed=0, horizon=1000)


def test_moments_match_numpy():
    # integer sums are exact, so the means are the exact quotients
    rng = np.random.default_rng(3)
    batches = [(rng.integers(1, 9, n), rng.integers(5, 400, n)) for n in (1, 700, 4096)]
    acc = _Moments()
    for tau, delay in batches:
        acc.add(tau, delay)
    st = acc.stats(iterations=3, retired_lane_steps=0)
    tau, delay = (np.concatenate(x) for x in zip(*batches))
    assert (st.delivered, st.slots_elapsed, st.max_episode_slots) == (
        tau.size, delay.sum(), delay.max())
    assert st.tau_mean_hat == tau.sum() / tau.size
    assert st.delay_mean_hat == delay.sum() / delay.size
    assert st.tau_stderr == pytest.approx(tau.std() / np.sqrt(tau.size), rel=1e-12)
    assert st.delay_stderr == pytest.approx(delay.std() / np.sqrt(delay.size), rel=1e-12)


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
    noisy_ch, clean_ch = build_composite(fwd, half(0.3)), build_composite(fwd, half(0.0))
    noisy = [simulate(SimConfig(params=p, ch=noisy_ch, seed=s, horizon=30_000)) for s in range(4)]
    clean = [simulate(SimConfig(params=p, ch=clean_ch, seed=s, horizon=30_000)) for s in range(4)]
    assert np.mean([1 / s.tau_mean_hat for s in clean]) > np.mean(
        [1 / s.tau_mean_hat for s in noisy]
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
        # combining capped at the nominal eps_B: state-B rate 0.5 up to m = 4
        ("harq", 0.3, 0.0, 0.5),
    ],
    ids=["uncoded-0.3", "harq-0.3", "harq-0.4-eps_G0.1", "harq-0.5-eps_G0.3", "harq-eps_B0.5"],
)
def test_sim_matches_analysis_quick(scheme, eps, eps_G, eps_B):
    h = half(eps, eg=eps_G, eb=eps_B)
    ch = build_composite(h, h)
    p = ProtocolParams(k=5, T=10, scheme=scheme, gamma_over_rho=3.0 if scheme == "harq" else 0.0)
    ana = uncoded_metrics(ch, p) if scheme == "uncoded" else harq_metrics(ch, p)
    stats = [
        simulate(SimConfig(params=p, ch=ch, seed=s, horizon=50_000)) for s in range(6)
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
    # frame shapes with k in {1, 3, 5} and timers T = k .. k + M, as analysed
    # in tests/test_coded.py::test_error_free_frame
    ch = build_composite(half(0.0), half(0.0))
    shapes = [
        (k, T, M, N)
        for k in (1, 3, 5) for M in range(1, k + 1) for N in range(1, M + 1) for T in range(k, k + M + 1)
    ]
    for k, T, M, N in shapes:
        p = ProtocolParams(k=k, T=T, scheme="coded", M=M, N=N)
        st = simulate(SimConfig(params=p, ch=ch, seed=0, horizon=1_000))
        assert st.tau_mean_hat == M + max(0, k + M - 1 - T), (k, T, M, N)
        assert st.delay_mean_hat == k + M - 1, (k, T, M, N)


@pytest.mark.parametrize("scheme", ["uncoded", "coded"])
def test_error_free_run_takes_two_iterations(scheme):
    # every lane delivers in its first step (a coded frame in one round);
    # the 904 episodes left over run in a second step beside 3192 retired lanes
    st = simulate(cfg(scheme, eps=0.0, horizon=5_000, **SCHEME_KW[scheme]))
    assert st.iterations == 2
    assert st.retired_lane_steps == 4096 - 904


@pytest.mark.parametrize("scheme,slots", [("uncoded", 5), ("coded", 5 + 5 - 1)])
def test_error_free_longest_episode(scheme, slots):
    # k slots to the feedback, after the frame's M - 1 further packets if coded
    st = simulate(cfg(scheme, eps=0.0, horizon=5_000, **SCHEME_KW[scheme]))
    assert st.max_episode_slots == slots
    lossy = simulate(cfg(scheme, eps=0.3, horizon=5_000, **SCHEME_KW[scheme]))
    assert lossy.max_episode_slots > lossy.delay_mean_hat > slots


def brute_round_counts(P, miss, n):
    """P(c received, landing state | round's first state), shape (s, s, n + 1).

    Sums every state path of an n-packet round and every forward-bit
    sequence on it; n = 0 lands where the round would have started.
    """
    s = P.shape[0]
    out = np.zeros((s, s, n + 1))
    if n == 0:
        out[:, :, 0] = np.eye(s)
        return out
    for path in itertools.product(range(s), repeat=n):
        p_path = np.prod([P[a, b] for a, b in zip(path, path[1:])])
        for bits in itertools.product((0, 1), repeat=n):
            p_bits = np.prod([1 - miss[x] if b else miss[x] for x, b in zip(path, bits)])
            out[path[0], path[-1], sum(bits)] += p_path * p_bits
    return out


@pytest.mark.parametrize("h", [half(0.3), half(0.4, eg=0.1, eb=0.9)], ids=["eps_G0", "eps_G0.1"])
def test_round_rows_match_path_enumeration(h):
    # rows over the forward half's states, against every path of its chain
    k, T, M = 5, 10, 5
    miss = np.array([h.eps_G, h.eps_B])
    leads = [np.linalg.matrix_power(h.P, j) for j in range(1, k + T + 1)]
    rows = _round_rows(h, np.arange(1, k + T + 1), M).reshape(k + T, M + 1, 2, 2, M + 1)
    for n in (0, 1, M):
        paths = brute_round_counts(h.P, miss, n)
        for adv, lead in enumerate(leads, start=1):
            joint = np.einsum("ya,axc->yxc", lead, paths)
            cond = joint / joint.sum(axis=-1, keepdims=True)
            expect = np.ones((2, 2, M + 1))
            expect[..., : n + 1] = np.cumsum(cond, axis=-1)
            assert np.allclose(rows[adv - 1, n], expect, rtol=0, atol=1e-12), (n, adv)


@pytest.mark.parametrize(
    "link,k,T,M,N",
    [
        (LINK, 5, 10, 5, 4),
        ((0.3, 0.1, 0.9, 0.4), 4, 9, 4, 3),
        # T = k = M: a timer expiry can fall on a round's last slot + 1
        (LINK, 3, 3, 3, 3),
        # different halves: moves within a round that follow the reverse
        # half's chain read z = 47 (tau) and -18 (delay) here
        (ASYM, 5, 10, 5, 4),
    ],
    ids=["k5-T10-M5-N4", "eps_G0.1-k4-T9-M4-N3", "k3-T3-M3-N3", "asym-k5-T10-M5-N4"],
)
def test_round_step_matches_exact_coded_means(link, k, T, M, N):
    # against the exact solve of the per-slot rules: an idle lane's advance
    # one slot past its round start reads |z| > 100; count rows read one
    # lead off bias the means by 0.2-0.5%, |z| 5.8-10.8 at this horizon
    # (under 4 at 20,000 frames a seed)
    ch = link_channel(link)
    p = ProtocolParams(k=k, T=T, scheme="coded", M=M, N=N)
    mass, e_tau, e_delay, _ = exhaustive.coded(ch, p)
    assert mass == pytest.approx(1.0, abs=1e-12)
    stats = [simulate(SimConfig(params=p, ch=ch, seed=s, horizon=200_000)) for s in range(3)]
    tm, ts, dm, ds = pooled_estimate(stats)
    assert abs(e_tau - tm) <= 4 * ts
    assert abs(e_delay - dm) <= 4 * ds


def reference_arq_rules(cfg):
    """The reference uncoded/HARQ rules: one packet waits k or T slots for
    its own feedback, then recovers slot by slot while its ACK is erased."""
    RECOV, WAIT_K, WAIT_T = 0, 1, 2
    p, ch = cfg.params, cfg.ch
    k, T, d = p.k, p.T, p.d
    att = attempt_model_for(ch, p)
    legs = np.array([1, k, T])
    leg_rows = cum_rows(ch.Pc, legs)
    eps_f = np.array([ch.fwd.eps_G, ch.fwd.eps_B])
    eps_r = np.array([ch.rev.eps_G, ch.rev.eps_B])

    init = dict(s=0, tau=1, leg=WAIT_K, ecd=0, ri=0)

    def step(L, u):
        u_step, u_f, u_r = u
        rv = L.leg == RECOV
        L.state = gathered_row_step(leg_rows, 4 * L.leg + L.state, u_step)
        L.s += legs[L.leg]
        fwd_bad, rev_bad = L.state // 2, L.state % 2
        # own feedback at the nominal rates, a recovery slot at index ri
        L.ri += rv
        eg, eb = att.rates(np.maximum(L.ri, 1))
        r_err = u_r < np.where(rv, np.where(rev_bad, eb, eg), eps_r[rev_bad])
        f_err = ~rv & (u_f < eps_f[fwd_bad])
        rec = ~rv & ~f_err & r_err
        L.ecd -= rv & r_err
        hit = rv & r_err & (L.ecd == 0)
        L.tau += f_err | hit | (rec & (d == 0))
        L.leg = np.where(f_err, np.where(r_err, WAIT_T, WAIT_K), np.where(rec, RECOV, L.leg))
        L.ri[rec] = 0
        L.ecd = np.where(hit, T, np.where(rec, d or T, L.ecd))
        return ~f_err & ~r_err

    return init, step


@pytest.mark.parametrize("scheme,gamma_over_rho", [("uncoded", 0.0), ("harq", 0.0), ("harq", 3.0)])
@pytest.mark.parametrize("horizon", [4_500, 3_000])
def test_one_packet_frames_match_reference_arq_rules(scheme, gamma_over_rho, horizon):
    # a packet is a one-packet frame: every SimStats field is equal, with
    # lanes reused and with more lanes than episodes
    for k, d, eps_G, eps_B in itertools.product((1, 5), (0, 7), (0.0, 0.2), (0.9, 1.0)):
        fwd, rev = half(0.4, eg=eps_G, eb=eps_B), half(0.35, r=0.2, eg=eps_G, eb=eps_B)
        ch = build_composite(fwd, rev)
        p = ProtocolParams(k=k, T=k + d, scheme=scheme, gamma_over_rho=gamma_over_rho)
        c = SimConfig(params=p, ch=ch, seed=k + d, horizon=horizon)
        frames = _run_lanes(c, *_frame_rules(c))
        assert frames == _run_lanes(c, *reference_arq_rules(c)), (k, d, eps_G, eps_B)


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
        # one-slot rounds and timers, and whole-frame rounds with T = k = M
        (half(0.4, eg=0.1, eb=0.9), 1, 1, 1, 1),
        (half(0.4, eg=0.1, eb=0.9), 5, 5, 5, 1),
    ],
    ids=["eps_G0.1-T12", "k3-T3-M3-N3", "eps_G0.1-k1-T1-M1-N1", "eps_G0.1-k5-T5-M5-N1"],
)
def test_coded_idle_jump_matches_analysis(h, k, T, M, N):
    # jumping a lane over a slot that still holds an unacknowledged DoF
    # skips feedback that would act: delay |z| > 6 on both cases
    ch = build_composite(h, h)
    p = ProtocolParams(k=k, T=T, scheme="coded", M=M, N=N)
    ana = coded_metrics(ch, p)
    stats = [
        simulate(SimConfig(params=p, ch=ch, seed=s, horizon=20_000)) for s in range(6)
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
