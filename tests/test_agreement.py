"""Seeded random agreement: each scheme's closed form against the certified
exact means, on links and shapes drawn at random.

A draw comes from random.Random(seed) alone, so its id reproduces it.  It
takes two halves, each with r in [1e-3, 1] (uniform in log r), eps_G 0 or
U(0, 0.2), eps_B 1 or U(0.5, 1) and eps uniform over the values whose q is
at most 1; then 1 <= k <= 5, k <= T <= 12, any admissible (M, N) with
M <= 4, and gamma/rho in [0, 10].  Each bound is the scheme's fixed-case
bound.  A draw that fails prints its seed and inputs; it is mended or
registered as a strict xfail, never drawn again.
"""
import math
import random

import numpy as np
import pytest

from gearq.channel import ParameterError, build_composite, build_half_channel
from gearq.coded import coded_metrics
from gearq.flowgraph import build_uncoded_graph, graph_gain
from gearq.protocols import (
    AttemptModel,
    ProtocolParams,
    attempt_model_for,
    build_arq_mgf,
    harq_metrics,
    uncoded_metrics,
)

import exhaustive

SEED = 12345
DRAWS = 12


def draw_half(rng):
    """(r, eps_G, eps_B, eps) of an admissible half."""
    r = 10 ** rng.uniform(-3, 0)
    eps_G = rng.choice((0.0, rng.uniform(0, 0.2)))
    eps_B = rng.choice((1.0, rng.uniform(0.5, 1)))
    # q = r (eps - eps_G) / (eps_B - eps) is 1 at eps = (eps_B + r eps_G) / (1 + r)
    return r, eps_G, eps_B, rng.uniform(eps_G, (eps_B + r * eps_G) / (1 + r))


def draw(seed):
    """The channel, (k, T, M, N) and gamma/rho of one draw, and its inputs as text."""
    rng = random.Random(seed)
    halves = draw_half(rng), draw_half(rng)
    k = rng.randint(1, 5)
    T = rng.randint(k, 12)
    M = rng.randint(1, min(k, 4))
    shape, gor = (k, T, M, rng.randint(1, M)), rng.uniform(0, 10)
    inputs = f"seed {seed}: halves {halves}, (k, T, M, N) {shape}, gamma/rho {gor}"
    return build_composite(*(build_half_channel(*h) for h in halves)), shape, gor, inputs


SEEDS = range(SEED, SEED + DRAWS)


def seed_id(seed):
    return f"seed{seed}"


GRAPH_DRIFT = pytest.mark.xfail(strict=True, reason="the graph's closures lose digits at small r, ROADMAP item 17")


@pytest.mark.parametrize("seed", SEEDS, ids=seed_id)
def test_uncoded_agrees_with_the_certified_means(seed):
    ch, (k, T, _, _), _, inputs = draw(seed)
    p = ProtocolParams(k=k, T=T)
    m = uncoded_metrics(ch, p)
    errors = exhaustive.errors((1.0, m.tau_mean, m.delay_mean), exhaustive.uncoded(ch, p))
    assert max(errors) <= 1e-12, (inputs, errors)


@pytest.mark.parametrize(
    "seed", [pytest.param(s, marks=GRAPH_DRIFT) if s == 12356 else s for s in SEEDS], ids=seed_id
)
def test_uncoded_graph_agrees_with_the_closed_form(seed):
    # every entry within 1e-12, as the flow-graph tests have it; seed 12356
    # (an r = 0.0065 reverse half) is 4.1e-12 off on a delay entry of 143
    ch, (k, T, _, _), _, inputs = draw(seed)
    p = ProtocolParams(k=k, T=T)
    closed = build_arq_mgf(ch, p, attempt_model_for(ch, p))
    for der, kind in enumerate(("tau", "delay")):
        graph = graph_gain(build_uncoded_graph(ch, p, kind))
        gap = max(np.max(np.abs(closed.val - graph.val)), np.max(np.abs(closed.der[der] - graph.der)))
        assert gap <= 1e-12, (inputs, kind, gap)


@pytest.mark.parametrize("seed", SEEDS, ids=seed_id)
def test_harq_lies_in_the_certified_bracket(seed):
    # within 1e-12 of both ends of the certified bracket
    ch, (k, T, _, _), gor, inputs = draw(seed)
    p = ProtocolParams(k=k, T=T, scheme="harq", gamma_over_rho=gor)
    m = harq_metrics(ch, p)
    low, high, _ = exhaustive.harq(ch, p, attempt_model_for(ch, p).rates, 1e-13)
    errors = exhaustive.errors((1.0, m.tau_mean, m.delay_mean), low, high)
    assert max(errors) <= 1e-12, (inputs, errors)


@pytest.mark.parametrize("seed", SEEDS, ids=seed_id)
def test_coded_agrees_with_the_certified_means(seed):
    # 1e-11: the series stop (item 2)
    ch, (k, T, M, N), _, inputs = draw(seed)
    p = ProtocolParams(k=k, T=T, scheme="coded", M=M, N=N)
    m = coded_metrics(ch, p)
    errors = exhaustive.errors((1.0, m.frame_tau_mean, m.delay_mean), exhaustive.coded(ch, p))
    assert max(errors) <= 1e-11, (inputs, errors)


def nan_field(rng, half):
    at = rng.randrange(4)
    args = [math.nan if i == at else v for i, v in enumerate(half)]
    return lambda: build_half_channel(*args), f"{('r', 'eps_G', 'eps_B', 'eps')[at]}=nan"


def eps_at_eps_B(rng, half):
    r, eps_G, eps_B, _ = half
    return lambda: build_half_channel(r, eps_G, eps_B, eps_B), "has no finite q"


def q_above_one(rng, half):
    r, eps_G, eps_B, _ = half
    eps = rng.uniform((eps_B + r * eps_G) / (1 + r), eps_B)
    return lambda: build_half_channel(r, eps_G, eps_B, eps), "implied q="


def nan_gamma_over_rho(rng, half):
    return lambda: ProtocolParams(k=5, T=10, scheme="harq", gamma_over_rho=math.nan), "gamma_over_rho"


def nan_recovery_rate(rng, half):
    # a NaN at an index of the first 32, which every walk reads
    ch, at = build_composite(*(build_half_channel(*half),) * 2), rng.randint(1, 32)
    att = AttemptModel(ch, lambda m: np.where(m == at, math.nan, 0.3))
    return lambda: build_arq_mgf(ch, ProtocolParams(k=5, T=10), att), f"at index {at} "


@pytest.mark.parametrize("seed", range(SEED, SEED + 4), ids=seed_id)
@pytest.mark.parametrize("corrupt", [nan_field, eps_at_eps_B, q_above_one, nan_gamma_over_rho, nan_recovery_rate])
def test_invalid_draws_raise_a_named_error(corrupt, seed):
    rng = random.Random(seed)
    call, names = corrupt(rng, draw_half(rng))
    with pytest.raises(ParameterError, match=names):
        call()
