"""Exact protocol expectations from the absorbing Markov chain of the per-slot rules.

Each scheme states its rules as one slot's moves from a protocol state,
moves(state) -> [(prob, next state or None when the episode ends, packets
sent)], in the per-slot event order of the simulator.  solve() finds every
reachable state by breadth-first search, builds the substochastic one-slot
matrix Q, the absorption vector and the packets sent per slot, and solves
(I - Q) x = r once (the fundamental matrix; Kemeny & Snell, Finite Markov
Chains, ch. III).  The absorbed mass, E[tau] and E[slots] it returns are
exact up to rounding: no time loop, no truncation.  On a link stated in
fractions.Fraction (exact_link) the uncoded and coded solves are exact
arithmetic, with no rounding at all: a referee that measures the error
of the floats (harq's bracket reads its rates as floats).

HARQ's combining index is unbounded, so its state keeps the index only up
to J.  harq() solves twice, with the rates past J frozen at 0 and at the
rates of J.  Rates never rise along the index, and a lower erasure rate
never lengthens an episode (monotone coupling), so the two solves bracket
the exact values.

Shares no code with the analysis or the simulator: an independent oracle
for both.
"""
from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

FAR = 10**9
J = 40  # the combining index HARQ's state keeps; past it the rates are frozen


def solve(starts, moves):
    """(absorbed mass, E[tau], E[slots]) of the chain from `starts`, [(prob, state)]:
    in floats, or exactly where the start probabilities are Fractions."""
    index, rows = {}, []
    for _, s in starts:
        index.setdefault(s, len(index))
    order = list(index)
    for s in order:  # breadth-first: the loop reaches the states appended as they are found
        row = [m for m in moves(s) if m[0] > 0.0]
        rows.append(row)
        for _, s2, _ in row:
            if s2 is not None and s2 not in index:
                index[s2] = len(order)
                order.append(s2)
    n, exact = len(order), isinstance(starts[0][0], Fraction)
    zero = Fraction(0) if exact else 0.0
    Q, r = np.full((n, n), zero), np.full((n, 3), zero)  # r: absorbed, packets, slots per slot
    r[:, 2] = 1
    for i, row in enumerate(rows):
        for prob, s2, packets in row:
            r[i, 1] += prob * packets
            if s2 is None:
                r[i, 0] += prob
            else:
                Q[i, index[s2]] += prob
    start = np.full(n, zero)
    for prob, s in starts:
        start[index[s]] += prob
    return tuple(start @ (_eliminate if exact else np.linalg.solve)(np.eye(n, dtype=Q.dtype) - Q, r))


def _eliminate(a, b):
    """x with a x = b, by Gauss-Jordan elimination in the entries' own
    arithmetic.  a = I - Q is a nonsingular M-matrix, so every pivot on
    its diagonal is positive: no row exchanges."""
    m = np.concatenate((a, b), axis=1)
    for i in range(len(a)):
        m[i] /= m[i, i]
        for j in np.flatnonzero(m[:, i]):
            if j != i:
                m[j] -= m[j, i] * m[i]
    return m[:, len(a):]


def exact_link(r, eps):
    """Both halves of a link with eps_G = 0 and eps_B = 1, in Fractions from
    rational r and eps (q = r eps / (1 - eps)): the fields _channel reads."""
    q = r * eps / (1 - eps)
    P = np.array([[1 - q, q], [r, 1 - r]], dtype=object)
    pi = np.array([r, q], dtype=object) / (q + r)
    half = SimpleNamespace(eps_G=Fraction(0), eps_B=Fraction(1))
    # pi_I: the stationary chain, then a step with the forward bit delivered
    pi_I = np.kron(pi, pi) @ np.kron(P * [1, 0], P)
    return SimpleNamespace(Pc=np.kron(P, P), fwd=half, rev=half, pi_I=pi_I)


def _channel(ch):
    """The composite chain, both links' erasure rates by state, the start states' weights."""
    eps_f = (ch.fwd.eps_G, ch.fwd.eps_B)
    eps_r = (ch.rev.eps_G, ch.rev.eps_B)
    pi0 = ch.pi_I / ch.pi_I.sum()
    return ch.Pc, eps_f, eps_r, pi0


def _arq(ch, p, rate, cap):
    """(mass, E[tau], E[delay]) of a single-packet scheme.

    `rate(m, rev_state)` is the erasure rate of the m-th cumulative
    feedback after a lost acknowledgment; the state keeps m up to `cap`
    (0 for a constant rate).
    """
    k, T, d = p.k, p.T, p.d
    Pc, eps_f, eps_r, pi0 = _channel(ch)
    WAIT, RECOV = 0, 1

    # state: (chain, mode, cd, m); cd slots to the own observation (WAIT) or
    # to the timer expiry (RECOV), m recovery slots so far
    def moves(state):
        c, mode, cd, m = state
        out = []
        for c2 in range(4):
            pc = Pc[c, c2]
            if mode == WAIT and cd > 1:
                out.append((pc, (c2, WAIT, cd - 1, 0), 0))
            elif mode == WAIT:  # own observation slot
                ef, er = eps_f[c2 // 2], eps_r[c2 % 2]
                out += [
                    (pc * (1 - ef) * (1 - er), None, 0),
                    (pc * (1 - ef) * er, (c2, RECOV, d if d > 0 else T, 0), 0 if d > 0 else 1),
                    (pc * ef * (1 - er), (c2, WAIT, k, 0), 1),
                    (pc * ef * er, (c2, WAIT, T, 0), 1),
                ]
            else:  # recovery slot: the (m+1)-th cumulative feedback since the loss
                er, m2 = rate(m + 1, c2 % 2), min(m + 1, cap)
                wait = (c2, RECOV, cd - 1 if cd > 1 else T, m2)
                out += [(pc * (1 - er), None, 0), (pc * er, wait, 0 if cd > 1 else 1)]
        return out

    starts = [(pi0[c], (c, WAIT, k, 0)) for c in range(4) if pi0[c] > 0]
    mass, tau, slots = solve(starts, moves)
    return mass, tau + mass, slots  # and the first transmission


def uncoded(ch, p):
    """(mass, E[tau], E[delay]) of uncoded ARQ: recovery at the nominal rates."""
    return _arq(ch, p, lambda m, s: (ch.rev.eps_G, ch.rev.eps_B)[s], 0)


def harq(ch, p, rates):
    """The (mass, E[tau], E[delay]) of the chains with `rates(m)` (the
    reverse (eps_G, eps_B) at combining index m) frozen past J at 0 and at
    rates(J): a (low, high) bracket of the exact values."""

    def frozen(scale):
        return lambda m, s: float(rates(min(m, J))[s]) * (1.0 if m <= J else scale)

    return tuple(_arq(ch, p, frozen(scale), J + 1) for scale in (0.0, 1.0))


def coded(ch, p):
    """(mass, E[tau], E[delay]) of the coded scheme, tau per frame."""
    k, T, M, N = p.k, p.T, p.M, p.N
    Pc, eps_f, eps_r, pi0 = _channel(ch)

    # state: (chain, c_rx, c_ack, cnt_rem, sched_in, sched_len, obs_in, exp_in)
    # counters are slots-until-event relative to the current slot, FAR if unset
    def moves(state):
        c, c_rx, c_ack, cnt, sched, slen, obs, expiry = state
        out = []
        for c2 in range(4):
            pc = Pc[c, c2]
            sched2 = sched - 1 if sched != FAR else FAR
            obs2 = obs - 1 if obs != FAR else FAR
            exp2 = expiry - 1 if expiry != FAR else FAR
            cnt2, slen2 = cnt, slen
            if sched2 == 0:
                cnt2, obs2, sched2 = slen, slen - 1, FAR
            if exp2 == 0:
                length = M if c_ack == 0 else 1
                cnt2, obs2, exp2 = length, length - 1, T
            ef, er = eps_f[c2 // 2], eps_r[c2 % 2]
            fwd_opts = [(1, 0, 0)] if cnt2 == 0 else [(1 - ef, 1, 1), (ef, 1, 0)]
            for p_f, dtau, drx in fwd_opts:
                rx = min(c_rx + drx, N)
                rem = cnt2 - 1 if cnt2 > 0 else 0
                for p_r, delivered in ((1 - er, True), (er, False)):
                    prob = pc * p_f * p_r
                    ack, cnt3, sched3, slen3, obs3, exp3 = c_ack, rem, sched2, slen2, obs2, exp2
                    extra = 0
                    if delivered and rem == 0:
                        if rx > c_ack:
                            # charge repairs already committed in the RTT
                            if exp3 != FAR and 0 < exp3 < k:
                                extra = min(k - exp3, M if c_ack == 0 else 1)
                            if rx == N:
                                out.append((prob, None, dtau + extra))
                                continue
                            ack = rx
                            cnt3, sched3, slen3 = 0, k, 1
                            obs3, exp3 = FAR, k + T
                        elif obs3 == 0:
                            sched3, slen3 = k, M if c_ack == 0 else 1
                            obs3, exp3 = FAR, k + T
                    if obs3 == 0:
                        obs3 = FAR
                    out.append((prob, (c2, rx, ack, cnt3, sched3, slen3, obs3, exp3), dtau + extra))
        return out

    starts = [(pi0[c], (c, 0, 0, 0, k, M, FAR, k + T)) for c in range(4) if pi0[c] > 0]
    return solve(starts, moves)
