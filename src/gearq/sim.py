"""Slot-level Monte Carlo simulation of the ARQ schemes.

Episodes follow one packet (one frame for the coded scheme) through the
protocol over the joint forward/reverse chain, with per-state erasure
draws for transmissions and feedback, per-packet timers and cumulative
acknowledgments.  The reverse component is paired with the forward one
at the feedback lag, so a slot's chain state carries the forward bit of
that slot's transmission together with the reverse bit of its feedback
k slots later; D = k for an error-free exchange.

One lane engine runs every scheme: each iteration advances every lane
to its next decision and applies the scheme's transition rules.  A lane
that can decide nothing before a known slot jumps there in one draw
from the rows of Pc^j, j slots on (the intermediate states are never
observed, so this is exact in distribution).  An uncoded or HARQ lane
waiting for its own feedback jumps k or T slots to it, and steps its
recovery slots one by one.  A coded lane steps slot by slot while a
packet is pending or a DoF is unacknowledged; from an idle slot it
jumps to the next round start or timer expiry.

Episode start states are drawn from the new-packet vector pi_I (the
distribution the analysis assigns to the slot a fresh packet enters
service), or from the stationary vector with init_mode="stationary".
Lanes share the episode budget, and the seed fully determines every
estimate.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .channel import CompositeChannel, HalfChannel, build_composite
from .protocols import ProtocolParams, attempt_model_for

# lane legs of the uncoded/HARQ rules: one recovery slot, or a wait of
# k (after a delivered NACK) or T (after a timeout) slots to own feedback
RECOV, WAIT_K, WAIT_T = 0, 1, 2
_FAR = np.iinfo(np.int64).max // 4  # a slot no episode reaches


@dataclass(frozen=True)
class SimConfig:
    """One reproducible run: protocol, channel directions, seed, horizon.

    horizon counts delivered packets (delivered frames for the coded
    scheme).  Statistics need horizon >= 1000.  batch is the number of
    lanes run side by side.
    """

    params: ProtocolParams
    fwd: HalfChannel
    rev: HalfChannel
    seed: int
    horizon: int = 100_000
    init_mode: str = "model"
    batch: int = 4096

    def __post_init__(self):
        if self.horizon < 1000:
            raise ValueError("horizon must be >= 1000 for usable statistics")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
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


def _jump_rows(P: np.ndarray, lengths) -> np.ndarray:
    """Cumulative rows of P^j for each j in lengths, stacked.

    Row i * n + state of the result is row `state` of P^lengths[i], for
    an n-state P.
    """
    return np.concatenate(
        [np.cumsum(np.linalg.matrix_power(P, j), axis=1) for j in lengths]
    )


def _chain_step(cumP: np.ndarray, state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Landing states: invert row `state` of the cumulative rows cumP at u.

    Counts the columns at or below u one column at a time; the last
    column is left out, so a row that rounds below 1 still lands in the
    last state.
    """
    landed = np.zeros_like(state)
    for col in cumP.T[:-1]:
        landed += u >= col[state]
    return landed


def _run_lanes(cfg: SimConfig, ch: CompositeChannel, fields, start, step) -> SimStats:
    """Run cfg.horizon episodes over min(batch, horizon) lanes.

    The episode budget is shared: a lane whose episode ends starts the
    next unstarted one until horizon episodes have started, and every
    started episode runs to its end.  The engine owns the chain state,
    the slot count s and the transmission count tau of every lane; the
    scheme names its other lane fields, sets them up in start(L, idx)
    for newly started lanes, and advances every lane by one decision in
    step(L, u), given three uniforms per lane, returning where an
    episode ended.  Retired lanes keep stepping unobserved, so the rules
    need no mask of active lanes.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    init = ch.pi_I if cfg.init_mode == "model" else ch.pi_c
    B = min(cfg.batch, cfg.horizon)
    L = SimpleNamespace(
        **{f: np.zeros(B, dtype=np.int64) for f in ("state", "s", "tau", *fields)}
    )

    def begin(idx):
        L.state[idx] = _draw_states(rng, init, idx.size)
        L.s[idx] = 0
        start(L, idx)

    begin(np.arange(B))
    active = np.ones(B, dtype=bool)
    started = B
    acc = _Moments()
    while active.any():
        ends = np.flatnonzero(step(L, rng.random((3, B))) & active)
        if ends.size:
            acc.add(L.tau[ends], L.s[ends])
            n_new = min(ends.size, cfg.horizon - started)
            active[ends[n_new:]] = False
            if n_new:
                begin(ends[:n_new])
                started += n_new
    return acc.stats()


def _arq_rules(cfg: SimConfig, ch: CompositeChannel):
    """Uncoded/HARQ lanes: wait for own feedback, then recover slot by slot."""
    p = cfg.params
    k, T, d = p.k, p.T, p.d
    att = attempt_model_for(ch, p)
    legs = np.array([1, k, T])
    jumps = _jump_rows(ch.Pc, legs)
    eps_f = np.array([ch.fwd.eps_G, ch.fwd.eps_B])
    eps_r = np.array([ch.rev.eps_G, ch.rev.eps_B])

    def start(L, idx):
        L.leg[idx] = WAIT_K
        L.tau[idx] = 1

    def step(L, u):
        u_step, u_f, u_r = u
        rv = L.leg == RECOV
        L.state = _chain_step(jumps, 4 * L.leg + L.state, u_step)
        L.s += legs[L.leg]
        fwd_bad, rev_bad = L.state // 2, L.state % 2

        # own feedback is drawn at the nominal rates, a recovery slot at
        # the rates of its combining index ri
        L.ri += rv
        eg, eb = att.rates(np.maximum(L.ri, 1))
        r_err = u_r < np.where(rv, np.where(rev_bad, eb, eg), eps_r[rev_bad])
        f_err = ~rv & (u_f < eps_f[fwd_bad])
        rec = ~rv & ~f_err & r_err
        # recovery: the timer runs while feedback stays erased
        L.ecd -= rv & r_err
        hit = rv & r_err & (L.ecd == 0)

        # own-feedback outcomes: a lost packet is sent again and waits k
        # (NACK delivered) or T (timeout) slots; a delivered packet whose
        # feedback is erased enters cumulative-feedback recovery, where
        # the timer has already run out when d = 0
        L.tau += f_err | hit | (rec & (d == 0))
        L.leg = np.where(f_err, np.where(r_err, WAIT_T, WAIT_K), np.where(rec, RECOV, L.leg))
        L.ri[rec] = 0
        L.ecd = np.where(hit, T, np.where(rec, d or T, L.ecd))
        return ~f_err & ~r_err

    return ("leg", "ecd", "ri"), start, step


def _coded_rules(cfg: SimConfig, ch: CompositeChannel):
    """Coded-frame lanes, normative for coded.py's kernel.

    Per-slot event order: scheduled round start / timer expiry, packet
    transmission (forward draw, DoF counting), feedback processing
    (reverse draw, multi-ack, repair scheduling).  tau and s count a
    frame's packets and slots.  A step covers one slot, except after an
    idle slot: one that ends with no packet pending and no unacknowledged
    DoF.  Nothing happens after it until the next round start or timer
    expiry, so the next step jumps to that slot in one draw from the
    rows of Pc^adv; a fresh frame jumps to its first round at slot k.
    """
    p = cfg.params
    k, T, M, N = p.k, p.T, p.M, p.N
    # the timer never expires more than k + T slots ahead, so no jump is longer
    jumps = _jump_rows(ch.Pc, range(1, k + T + 1))
    eps_f = np.array([ch.fwd.eps_G, ch.fwd.eps_B])
    eps_r = np.array([ch.rev.eps_G, ch.rev.eps_B])

    def start(L, idx):
        for f in ("tau", "c_rx", "c_ack", "cnt_rem"):
            getattr(L, f)[idx] = 0
        L.sched_start[idx] = k
        L.own_obs[idx] = _FAR
        L.next_expiry[idx] = k + T
        L.adv[idx] = k

    def step(L, u):
        u_step, u_f, u_r = u
        L.state = _chain_step(jumps, 4 * (L.adv - 1) + L.state, u_step)
        L.s += L.adv
        s = L.s
        # the whole frame until a DoF is acknowledged, then single repairs
        length = np.where(L.c_ack == 0, M, 1)

        # a round goes out at its scheduled start or when the timer expires
        exp = s == L.next_expiry
        go = exp | (s == L.sched_start)
        L.cnt_rem = np.where(go, length, L.cnt_rem)
        L.own_obs = np.where(go, s + length - 1, L.own_obs)
        L.next_expiry += T * exp

        cnt = L.cnt_rem > 0
        L.tau += cnt
        L.c_rx += cnt & (u_f >= eps_f[L.state // 2]) & (L.c_rx < N)
        L.cnt_rem -= cnt

        # feedback is acted on only between rounds / at a round's last slot
        fb = (u_r >= eps_r[L.state % 2]) & (L.cnt_rem == 0)
        prog = fb & (L.c_rx > L.c_ack)
        # charge repair packets already committed within one RTT
        pend = prog & (L.next_expiry > s) & (L.next_expiry < s + k)
        L.tau += np.where(pend, np.minimum(s + k - L.next_expiry, length), 0)
        L.c_ack = np.where(prog, L.c_rx, L.c_ack)
        done = prog & (L.c_ack == N)
        # progress schedules the next repair one RTT on; a no-progress
        # feedback on a round's own slot schedules that round again
        again = (prog & ~done) | (fb & ~prog & (s == L.own_obs))
        L.sched_start = np.where(again, s + k, L.sched_start)
        L.next_expiry = np.where(again, s + k + T, L.next_expiry)
        idle = (L.cnt_rem == 0) & (L.c_rx == L.c_ack)
        upcoming = np.where(L.sched_start > s, L.sched_start, L.next_expiry)
        target = np.minimum(upcoming, L.next_expiry)
        L.adv = np.where(idle, target - s, 1)
        return done

    fields = ("c_rx", "c_ack", "cnt_rem", "sched_start", "own_obs", "next_expiry", "adv")
    return fields, start, step


def simulate(cfg: SimConfig) -> SimStats:
    """Run one seeded simulation and return the sample estimates."""
    ch = build_composite(cfg.fwd, cfg.rev)
    rules = _coded_rules if cfg.params.scheme == "coded" else _arq_rules
    return _run_lanes(cfg, ch, *rules(cfg, ch))


def pooled_estimate(stats: list[SimStats]) -> tuple[float, float, float, float]:
    """Pool independent equal-size seeded runs by their per-episode moments.

    Returns (tau_mean, tau_stderr, delay_mean, delay_stderr): the average
    of the seed means, with standard error sqrt(sum se_i^2) / m over m
    runs.  Episodes are i.i.d. (each starts fresh from the start vector,
    and lanes are independent), so this has the degrees of freedom of
    all pooled episodes rather than the m - 1 of the seed means' spread.
    """
    if not stats:
        raise ValueError("pooled_estimate needs at least one run")
    m = len(stats)

    def pool(means, ses):
        return float(np.mean(means)), float(np.sqrt(np.sum(np.square(ses)))) / m

    return (
        *pool([st.tau_mean_hat for st in stats], [st.tau_stderr for st in stats]),
        *pool([st.delay_mean_hat for st in stats], [st.delay_stderr for st in stats]),
    )
