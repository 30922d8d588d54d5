"""Slot-level Monte Carlo simulation of the ARQ schemes.

Episodes follow one frame through the protocol over the joint
forward/reverse chain of a CompositeChannel (the link object the
analysis reads too), with per-state erasure draws for transmissions
and feedback, timers and cumulative acknowledgments.  A packet of the
uncoded and HARQ schemes is a one-packet frame (M = N = 1), so one rule
set, _frame_rules, serves every scheme.  The reverse component is
paired with the forward one at the feedback lag, so a slot's chain
state carries the forward bit of that slot's transmission together
with the reverse bit of its feedback k slots later; D = k for an
error-free exchange.

One lane engine, _run_lanes, runs a rule set (init, step): it writes
init, each lane field's value at an episode's start, into every lane it
starts, and step advances every lane to its next decision.  A lane that
can decide nothing before a known slot jumps there in one draw from the
rows of Pc^j, j slots on (the intermediate states are never observed,
so this is exact in distribution): a step that starts a round sends all
of it and lands on its last slot, the first its feedback can act on; a
lane steps slot by slot while a DoF is unacknowledged, and jumps from
an idle slot to the next round start or timer expiry.

Episode start states are drawn from the new-packet vector pi_I (the
distribution the analysis assigns to the slot a fresh packet enters
service).  A chain state is the code 2 f + r of the halves' bits, each
moved by its closed-form j-step law (_to_good).  The lane count is fixed
(_LANES), and lanes share the episode budget, so a seed and a horizon
determine every estimate.  Once every episode has started, the engine
steps only a leading slice of the lane arrays that holds the live lanes,
halved in place as they finish, and draws uniforms for that slice only;
the halving schedule is part of what a seed reproduces.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .channel import CompositeChannel, HalfChannel
from .protocols import ProtocolParams, attempt_model_for

_LANES = 4096  # lanes run side by side; part of what a seed reproduces


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One reproducible run: protocol, composite channel, seed, horizon.

    ch is the joint forward/reverse channel: build_composite, or the
    cached symmetric_composite of a link; a link direction that erases
    every packet (eps = 1) is a ValueError, since no episode would end.
    horizon counts delivered packets (delivered frames for the coded
    scheme).  Statistics need horizon >= 1000, and seeds are integers
    >= 0 (check).

    A lane steps slot by slot while a DoF waits unacknowledged, so a
    reverse link that erases every feedback in state B and leaves B at
    rate r costs about 1/r engine steps per run.
    """

    params: ProtocolParams
    ch: CompositeChannel
    seed: int
    horizon: int

    def __post_init__(self):
        self.check(self.seed, self.horizon)
        for name, half in (("forward", self.ch.fwd), ("reverse", self.ch.rev)):
            if half.eps == 1.0:
                raise ValueError(f"the {name} link erases every packet (eps = 1): no episode ends")

    @staticmethod
    def check(seed: int, horizon: int) -> None:
        """Raise ValueError unless a run can take this seed and horizon."""
        for name, value in (("seed", seed), ("horizon", horizon)):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
        if seed < 0:
            raise ValueError(f"seed must be >= 0, not {seed}")
        if horizon < 1000:
            raise ValueError(f"horizon must be >= 1000 for usable statistics, not {horizon}")


@dataclass(frozen=True, slots=True)
class SimStats:
    """Sample means with standard errors from per-packet samples; engine
    iterations, the longest episode's slots, and retired_lane_steps: the
    lane-steps a full-width engine would spend on lanes whose last episode
    has ended (lanes minus live lanes, summed over iterations), most of
    which the drain now skips."""

    tau_mean_hat: float
    tau_stderr: float
    delay_mean_hat: float
    delay_stderr: float
    delivered: int
    slots_elapsed: int
    iterations: int
    retired_lane_steps: int
    max_episode_slots: int


class _Moments:
    """Exact integer sums of tau, tau^2, delay and delay^2 for mean/stderr."""

    def __init__(self):
        self.n = self.max_slots = 0
        self.sums = np.zeros(4, dtype=np.int64)

    def add(self, tau: np.ndarray, delay: np.ndarray):
        self.n += tau.size
        self.sums += [tau.sum(), (tau * tau).sum(), delay.sum(), (delay * delay).sum()]
        self.max_slots = max(self.max_slots, int(delay.max()))

    def stats(self, iterations: int, retired_lane_steps: int) -> SimStats:
        n = self.n
        sum_tau, sq_tau, slots, sq_d = (int(x) for x in self.sums)
        tau_mean, d_mean = sum_tau / n, slots / n
        var_tau = max(sq_tau / n - tau_mean**2, 0.0)
        var_d = max(sq_d / n - d_mean**2, 0.0)
        return SimStats(
            tau_mean_hat=tau_mean,
            tau_stderr=float(np.sqrt(var_tau / n)),
            delay_mean_hat=d_mean,
            delay_stderr=float(np.sqrt(var_d / n)),
            delivered=n,
            slots_elapsed=slots,
            iterations=iterations, retired_lane_steps=retired_lane_steps,
            max_episode_slots=self.max_slots,
        )


def _to_good(h: HalfChannel, j) -> np.ndarray:
    """P(G after j slots | start G, B) of half h, [..., start], by the closed
    form P^j = 1 pi + lam^j (I - 1 pi), lam = 1 - q - r (Gilbert, BSTJ 1960)."""
    lam_j = (1.0 - h.q - h.r) ** np.asarray(j)[..., None]
    return h.pi[0] + lam_j * (np.array([1.0, 0.0]) - h.pi[0])


def _round_rows(h: HalfChannel, leads: np.ndarray, M: int) -> np.ndarray:
    """Cumulative rows over c = 0..M of P(c received | start state y, landing state x).

    States are the forward half h's, the only ones that erase packets.
    From y a step moves leads[i] slots, then sends n packets on
    consecutive slots at h's erasure rates, and lands on the last one's
    state (the lead's when n = 0): row ((i * (M + 1) + n) * 2 + y) * 2 + x.
    An x that y cannot reach draws c = 0.
    """
    miss = np.array([h.eps_G, h.eps_B])
    # R[n, c]: P(c received, landing state | state of the round's first slot)
    R = np.zeros((M + 1, M + 1, 2, 2))
    R[0, 0] = np.eye(2)
    for n, move in enumerate([np.eye(2), *[h.P] * (M - 1)], start=1):
        R[n] = R[n - 1] @ (move * miss) + np.roll(R[n - 1], 1, axis=0) @ (move * (1 - miss))
    good = _to_good(h, leads)[:, None, None]
    joint = np.moveaxis(np.stack([good, 1 - good], axis=-1) @ R, 2, -1)
    total = joint.sum(axis=-1, keepdims=True)
    cum = np.cumsum(joint, axis=-1) / np.where(total > 0, total, 1.0)
    return np.where(total > 0, cum, 1.0).reshape(-1, M + 1)


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


def _run_lanes(cfg: SimConfig, init: dict, step) -> SimStats:
    """Run cfg.horizon episodes over min(_LANES, horizon) lanes.

    The episode budget is shared: a lane whose episode ends starts the
    next unstarted one until horizon episodes have started, and every
    started episode runs to its end.  A rule set is (init, step): init
    maps every lane field but the chain state (which the engine draws),
    the slot count s and packet count tau among them, to its value at an
    episode's start, and the engine writes it into every lane it starts;
    step(L, u) advances every lane by one decision, given three uniforms
    per lane, and returns where an episode ended.  step must be lane-wise,
    so the rules need no mask of active lanes: once every episode has
    started, whenever the live lanes fit in half the width the engine moves
    them in order to the front of the lane arrays and steps the narrowest
    halving that holds them, the padding past them stepping unobserved.
    Each iteration draws (3, width) uniforms, one column per position, so
    the halving schedule is part of what a seed reproduces.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    start_row = np.cumsum(cfg.ch.pi_I / cfg.ch.pi_I.sum())[None]  # one cumulative row
    B = width = min(_LANES, cfg.horizon)
    L = SimpleNamespace(**{f: np.zeros(B, dtype=np.int64) for f in ("state", *init)})

    def begin(idx):
        L.state[idx] = _chain_step(start_row, np.zeros_like(idx), rng.random(idx.size))
        for f, value in init.items():
            getattr(L, f)[idx] = value

    begin(np.arange(B))
    active = np.ones(B, dtype=bool)
    started = n_active = B
    iterations = retired = 0
    acc = _Moments()
    while n_active:
        iterations += 1
        retired += B - n_active
        ends = np.flatnonzero(step(L, rng.random((3, width))) & active)
        if ends.size:
            acc.add(L.tau[ends], L.s[ends])
            n_new = min(ends.size, cfg.horizon - started)
            active[ends[n_new:]] = False
            n_active -= ends.size - n_new
            if n_new:
                begin(ends[:n_new])
                started += n_new
        if started == cfg.horizon and 0 < n_active <= width // 2:
            live = np.flatnonzero(active)
            while n_active <= width // 2:
                width //= 2
            for arr in (*vars(L).values(), active):
                arr[:n_active] = arr[live]
            L = SimpleNamespace(**{f: arr[:width] for f, arr in vars(L).items()})
            active = active[:width]
            active[n_active:] = False
    return acc.stats(iterations, retired)


def _frame_rules(cfg: SimConfig):
    """Frame lanes of every scheme, normative for coded.py's kernel.

    Per-slot event order: scheduled round start / timer expiry, packet
    transmission (forward draw, DoF counting), feedback processing
    (reverse draw, multi-ack, repair scheduling).  tau and s count a
    frame's packets and slots.  A step lands adv slots on and sends the
    whole round that starts there, if any: feedback is acted on only at
    a round's last slot, and as T >= k >= M no round start or expiry
    falls inside one, so one draw from the halves' rows of P^j lands on
    that slot, which then draws the round's DoF count and the feedback.
    The step works adv out from the schedule: 1 while a DoF waits
    unacknowledged, else up to the next round start or timer expiry.
    A round's own feedback is drawn at the nominal reverse rates, and a
    slot that starts with a DoF unacknowledged at the scheme's recovery
    rates (attempt_model_for) at index ri, the slots of that wait so far;
    a constant model's table repeats its one rate.
    """
    p, ch = cfg.params, cfg.ch
    k, T, M, N = p.k, p.T, p.M, p.N
    # [2 (j - 1) + y] for j <= k + T + M - 1: a timer expires at most k + T slots ahead
    good_f, good_r = (_to_good(h, np.arange(1, k + T + M)).ravel() for h in (ch.fwd, ch.rev))
    counts = _round_rows(ch.fwd, np.arange(1, k + T + 1), M)
    eps_r = np.array([ch.rev.eps_G, ch.rev.eps_B])
    att = attempt_model_for(ch, p)

    def table(top):  # [2 * m + reverse state]: nominal at m = 0, recovery at m = 1..top
        recovery = np.column_stack(att.rates(np.arange(1, top + 1)))
        return np.concatenate([eps_r, recovery.ravel()])

    miss = table(1)

    def feedback_miss(L, wait, rev):
        nonlocal miss
        L.ri = (L.ri + 1) * wait
        top = int(L.ri.max())
        if 2 * top + 2 > miss.size:
            miss = table(2 * top)
        return miss[2 * L.ri + rev]

    init = dict(s=0, tau=0, c_rx=0, c_ack=0, sched_start=k, next_expiry=k + T, ri=0)

    def step(L, u):
        u_step, u_f, u_r = u
        wait = L.c_rx > L.c_ack
        # the next decision: the next slot while a DoF waits, else the next
        # round start (always before its timer's expiry) or else the expiry
        due = np.where(L.sched_start > L.s, L.sched_start, L.next_expiry)
        first = np.where(wait, L.s + 1, due)
        # a round goes out at its scheduled start or when the timer expires:
        # the whole frame until a DoF is acknowledged, then single repairs
        exp = first == L.next_expiry
        go = exp | (first == L.sched_start)
        length = 1 + (M - 1) * (L.c_ack == 0)
        n, lead = go * length, first - L.s - 1
        rest = n - go  # slots of the round after its first
        count_row = 4 * ((M + 1) * lead + n) + (L.state & 2)  # 2 y, y the forward bit
        # row state of Pc^j, j = lead + rest + 1, has the cumulative entries (f r, f, f + r - f r)
        i = 2 * (lead + rest)
        f, r = good_f[i + (L.state >> 1)], good_r[i + (L.state & 1)]
        fr = f * r
        L.state = (u_step >= fr).astype(np.int64) + (u_step >= f) + (u_step >= f + r - fr)
        c = _chain_step(counts, count_row + (L.state >> 1), u_f)
        L.s = s = first + rest
        L.tau += n
        L.c_rx = np.minimum(L.c_rx + c, N)
        L.next_expiry += T * exp

        fb = u_r >= feedback_miss(L, wait, L.state & 1)
        prog = fb & (L.c_rx > L.c_ack)
        # charge repair packets already committed within one RTT
        pend = prog & (L.next_expiry > s) & (L.next_expiry < s + k)
        L.tau += pend * np.minimum(s + k - L.next_expiry, length)
        L.c_ack = np.where(prog, L.c_rx, L.c_ack)
        done = prog & (L.c_ack == N)
        # progress schedules the next repair one RTT on; a no-progress
        # feedback on a round's own last slot schedules that round again
        again = (prog & ~done) | (fb & ~prog & go)
        L.sched_start = np.where(again, s + k, L.sched_start)
        L.next_expiry = np.where(again, s + k + T, L.next_expiry)
        return done

    return init, step


def simulate(cfg: SimConfig) -> SimStats:
    """Run one seeded simulation and return the sample estimates."""
    return _run_lanes(cfg, *_frame_rules(cfg))


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
