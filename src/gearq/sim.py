"""Slot-level Monte Carlo simulation of the ARQ schemes.

Episodes follow one packet (one frame for the coded scheme) through the
protocol over the joint forward/reverse chain: one chain step per slot,
per-state erasure draws for transmissions and feedback, per-packet
timers, cumulative acknowledgments.  The reverse component is paired
with the forward one at the feedback lag, so a slot's step carries the
forward bit of that slot's transmission together with the reverse bit of
its feedback k slots later; D = k for an error-free exchange.

Episode start states are drawn from the new-packet vector pi_I (the
distribution the analysis assigns to the slot a fresh packet enters
service), or from the stationary vector with init_mode="stationary".
Batches of episodes run in lockstep for speed; the seed fully determines
every estimate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CompositeChannel, HalfChannel, build_composite
from .protocols import ProtocolParams, SoftCombiningAttempts

WAIT, RECOV = 0, 1


@dataclass(frozen=True)
class SimConfig:
    """One reproducible run: protocol, channel directions, seed, horizon.

    horizon counts delivered packets (delivered frames for the coded
    scheme).  Statistics need horizon >= 1000.
    """

    params: ProtocolParams
    fwd: HalfChannel
    rev: HalfChannel
    seed: int
    horizon: int = 100_000
    init_mode: str = "model"
    batch: int = 4096
    eps_B_override: float | None = None

    def __post_init__(self):
        if self.horizon < 1000:
            raise ValueError("horizon must be >= 1000 for usable statistics")
        if self.init_mode not in ("model", "stationary"):
            raise ValueError("init_mode must be 'model' or 'stationary'")


@dataclass(frozen=True)
class SimStats:
    """Sample means with standard errors from per-packet samples."""

    tau_mean_hat: float
    tau_stderr: float
    delay_mean_hat: float
    delay_stderr: float
    throughput_hat: float
    delivered: int
    slots_elapsed: int


def ge_step(half: HalfChannel, state, u_step, u_obs):
    """One Gilbert-Elliott chain step plus an erasure draw.

    Vectorized over `state` (0 = G, 1 = B) and the two uniforms; returns
    (next_state, erased).  The erasure rate is the one of the landing
    state.
    """
    state = np.asarray(state)
    go_other = np.where(state == 0, u_step < half.q, u_step < half.r)
    nxt = np.where(go_other, 1 - state, state)
    eps = np.where(nxt == 0, half.eps_G, half.eps_B)
    return nxt, u_obs < eps


def ge_run(half: HalfChannel, n: int, seed: int, init: int | None = None):
    """Simulate n slots of one chain; returns (states, erasures)."""
    rng = np.random.default_rng(seed)
    states = np.empty(n, dtype=np.int64)
    erased = np.empty(n, dtype=bool)
    if init is None:
        s = int(rng.random() < half.pi[1])
    else:
        s = init
    u = rng.random((n, 2))
    for t in range(n):
        s, e = ge_step(half, s, u[t, 0], u[t, 1])
        states[t], erased[t] = s, e
    return states, erased


class _Moments:
    """Accumulate mean/stderr for tau and delay samples."""

    def __init__(self):
        self.n = 0
        self.sum_tau = 0.0
        self.sq_tau = 0.0
        self.sum_d = 0.0
        self.sq_d = 0.0
        self.slots = 0

    def add(self, tau: np.ndarray, delay: np.ndarray):
        self.n += tau.size
        self.sum_tau += float(tau.sum())
        self.sq_tau += float((tau.astype(float) ** 2).sum())
        self.sum_d += float(delay.sum())
        self.sq_d += float((delay.astype(float) ** 2).sum())
        self.slots += int(delay.sum())

    def stats(self) -> SimStats:
        n = self.n
        tau_mean = self.sum_tau / n
        d_mean = self.sum_d / n
        var_tau = max(self.sq_tau / n - tau_mean**2, 0.0)
        var_d = max(self.sq_d / n - d_mean**2, 0.0)
        return SimStats(
            tau_mean_hat=tau_mean,
            tau_stderr=float(np.sqrt(var_tau / n)),
            delay_mean_hat=d_mean,
            delay_stderr=float(np.sqrt(var_d / n)),
            throughput_hat=1.0 / tau_mean,
            delivered=n,
            slots_elapsed=self.slots,
        )


def _draw_states(rng, dist: np.ndarray, count: int) -> np.ndarray:
    cum = np.cumsum(dist / dist.sum())
    return np.minimum((rng.random(count)[:, None] >= cum).sum(axis=1), dist.size - 1)


def _chain_step(cumP: np.ndarray, state: np.ndarray, u: np.ndarray) -> np.ndarray:
    rows = cumP[state]
    return np.minimum((u[:, None] >= rows).sum(axis=1), cumP.shape[0] - 1)


def _simulate_arq(cfg: SimConfig, ch: CompositeChannel) -> SimStats:
    """Single-packet episodes (uncoded and soft-combining feedback)."""
    p = cfg.params
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    harq = p.scheme == "harq"
    att = SoftCombiningAttempts(ch, p.gamma_over_rho) if harq else None

    k, T, d = p.k, p.T, p.d
    cumP = np.cumsum(ch.Pc, axis=1)
    eps_f = np.array([ch.fwd.eps_G, ch.fwd.eps_B])
    eps_r = np.array([ch.rev.eps_G, ch.rev.eps_B])
    init_dist = ch.pi_I if cfg.init_mode == "model" else ch.pi_c

    B = min(cfg.batch, cfg.horizon)
    quota = np.full(B, cfg.horizon // B, dtype=np.int64)
    quota[: cfg.horizon % B] += 1

    state = _draw_states(rng, init_dist, B)
    mode = np.zeros(B, dtype=np.int8)
    cd = np.full(B, k, dtype=np.int64)
    ecd = np.zeros(B, dtype=np.int64)
    ri = np.zeros(B, dtype=np.int64)
    tau = np.ones(B, dtype=np.int64)
    s = np.zeros(B, dtype=np.int64)
    active = quota > 0
    acc = _Moments()

    while active.any():
        u_step, u_f, u_r = rng.random((3, B))
        state[active] = _chain_step(cumP, state[active], u_step[active])
        s[active] += 1
        was_recov = mode == RECOV

        # own-feedback observation slots
        wait = active & (mode == WAIT)
        cd[wait] -= 1
        obs = wait & (cd == 0)
        done = np.zeros(B, dtype=bool)
        if obs.any():
            f_err = u_f < eps_f[state // 2]
            r_err = u_r < eps_r[state % 2]
            done |= obs & ~f_err & ~r_err
            rec = obs & ~f_err & r_err
            nack = obs & f_err & ~r_err
            tout = obs & f_err & r_err
            mode[rec] = RECOV
            ri[rec] = 0
            if d > 0:
                ecd[rec] = d
            else:
                tau[rec] += 1
                ecd[rec] = T
            tau[nack] += 1
            cd[nack] = k
            tau[tout] += 1
            cd[tout] = T

        # cumulative-feedback recovery slots
        rv = active & was_recov
        if rv.any():
            ri[rv] += 1
            if harq:
                if cfg.eps_B_override is not None:
                    eb = cfg.eps_B_override
                else:
                    eb = att.eps_B(np.maximum(ri, 1).astype(float))
                r_err2 = u_r < np.where(state % 2 == 1, eb, 0.0)
            else:
                r_err2 = u_r < eps_r[state % 2]
            done |= rv & ~r_err2
            expired = rv & r_err2
            ecd[expired] -= 1
            hit = expired & (ecd == 0)
            tau[hit] += 1
            ecd[hit] = T

        if done.any():
            acc.add(tau[done], s[done])
            quota[done] -= 1
            fresh = done & (quota > 0)
            active &= ~done | fresh
            n_new = int(fresh.sum())
            if n_new:
                state[fresh] = _draw_states(rng, init_dist, n_new)
                mode[fresh] = WAIT
                cd[fresh] = k
                tau[fresh] = 1
                s[fresh] = 0
    return acc.stats()


def simulate(cfg: SimConfig) -> SimStats:
    """Run one seeded simulation and return the sample estimates."""
    ch = build_composite(cfg.fwd, cfg.rev)
    if cfg.params.scheme in ("uncoded", "harq"):
        return _simulate_arq(cfg, ch)
    from .coded import simulate_coded

    return simulate_coded(cfg, ch)


def pooled_estimate(stats: list[SimStats]) -> tuple[float, float, float, float]:
    """Pool independent seeded runs: seed-level means and between-seed stderr.

    Returns (tau_mean, tau_stderr, delay_mean, delay_stderr).  A single
    run has no between-seed spread, so it reports its own per-episode
    standard errors; these hold because episodes are i.i.d. (each starts
    fresh from pi_I, and lanes are independent).
    """
    if len(stats) == 1:
        (st,) = stats
        return st.tau_mean_hat, st.tau_stderr, st.delay_mean_hat, st.delay_stderr
    taus = np.array([st.tau_mean_hat for st in stats])
    ds = np.array([st.delay_mean_hat for st in stats])
    m = len(stats)
    return (
        float(taus.mean()),
        float(taus.std(ddof=1) / np.sqrt(m)),
        float(ds.mean()),
        float(ds.std(ddof=1) / np.sqrt(m)),
    )
