"""Exact protocol expectations from the absorbing Markov chain of the per-slot rules.

Each scheme states its rules as one slot's moves from a protocol state,
moves(state) -> [(prob, next state or None when the episode ends, packets
sent)], in the per-slot event order of the simulator, every probability a
Fraction: _channel converts a float link exactly, exact_link states one in
rationals, and Fraction(x) converts a float rate exactly.

solve() finds every reachable state by breadth-first search and builds,
exactly, I - Q over its nonzeros (Q the substochastic one-slot matrix) and
the absorption, packets and slots per slot b.  It solves (I - Q) x = b in
floats, forms the residual b - (I - Q) x exactly (each float is a dyadic
rational) and adds float corrections to x exactly until the residual
certifies x (iterative refinement; Moler, JACM 14, 1967).  I - Q is a
nonsingular M-matrix: its inverse N is nonnegative and N 1 is the expected
number of slots to absorption (Kemeny & Snell, Finite Markov Chains,
ch. III).  So every entry of x is within ||res||_inf max E[slots] /
(1 - ||res||_inf) of the exact solution: the certificate solve() returns
with the absorbed mass, E[tau] and E[slots], each a Fraction.  It refines
until the certificate is at most 1e-25 of the smallest mean, one to three
corrections and 0.01-0.1 s at the 6-445 states of the coded and uncoded
shapes tested: a referee that bounds its own error and measures the error
of the analysis's floats.

HARQ's combining index is unbounded, so its state keeps the index only up
to J.  harq() solves twice, with the rates past J frozen at 0 and at the
rates of J.  Rates never rise along the index, and a lower erasure rate
never lengthens an episode (monotone coupling), so the two solves bracket
the exact values.  J doubles from 20 until the bracket is narrower than
the caller's gate.

Shares no code with the analysis or the simulator: an independent oracle
for both.
"""
from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

FAR = 10**9
ROUNDS = 10  # corrections before a solve gives up
JS = (20, 40, 80)  # the combining indices HARQ's state may keep; past J the rates are frozen
CERTIFIED = 1e-25  # a solve's certificate, relative to its smallest mean


def solve(starts, moves):
    """(absorbed mass, E[packets], E[slots], certificate) of the chain from
    `starts`, [(prob, state)] with probabilities summing to 1, every
    probability a rational: each mean, a Fraction, is within the
    certificate of its exact value."""
    index, rows = {}, []
    for _, s in starts:
        index.setdefault(s, len(index))
    order = list(index)
    for s in order:  # breadth-first: the loop reaches the states appended as they are found
        row = [m for m in moves(s) if m[0] > 0]
        rows.append(row)
        for _, s2, _ in row:
            if s2 is not None and s2 not in index:
                index[s2] = len(order)
                order.append(s2)
    n = len(order)
    b = np.zeros((n, 3), dtype=object)  # absorbed, packets and slots per slot
    b[:, 2] = 1
    entries = []  # I - Q over its nonzeros, row by row
    for i, row in enumerate(rows):
        coeffs = {i: 1}
        for prob, s2, packets in row:
            b[i, 1] += prob * packets
            if s2 is None:
                b[i, 0] += prob
            else:
                coeffs[index[s2]] = coeffs.get(index[s2], 0) - prob
        entries += [(i, j, v) for j, v in coeffs.items()]
    start = np.zeros(n, dtype=object)
    for prob, s in starts:
        start[index[s]] += prob
    i, j, v = (np.array(t) for t in zip(*entries))
    # the system in integers over one common denominator
    den = math.lcm(*(Fraction(t).denominator for t in (*v, *b.flat)))
    A, B = (np.frompyfunc(lambda t: int(t * den), 1, 1)(t) for t in (v, b))
    a = np.zeros((n, n))
    a[i, j] = A / den
    row_start = np.flatnonzero(np.diff(i, prepend=-1))
    x, e, res = np.zeros((n, 3), dtype=object), 0, B / den  # x / 2**e: the solution so far
    for _ in range(ROUNDS):
        d, ed = _dyadic(np.linalg.solve(a, res.astype(float)))
        x, e = np.left_shift(x, max(ed - e, 0)) + np.left_shift(d, max(e - ed, 0)), max(e, ed)
        # the residual b - (I - Q) x, exactly: den 2**e times it in integers
        res = B * (1 << e) - np.add.reduceat(A[:, None] * x[j], row_start)
        scale = den << e
        norm = max(map(abs, res.flat)) / scale
        # (I - Q)^-1 >= 0 and its row sums are the expected slots, the last
        # column of x: the error of every entry is at most norm * max slots
        cert = norm * (max(x[:, 2]) / (1 << e)) / (1 - norm) if norm < 1 else math.inf
        means = [Fraction(t) / (1 << e) for t in start @ x]
        if cert <= CERTIFIED * min(means):
            return (*means, cert)
        res = res / scale
    raise ArithmeticError(f"solve not certified in {ROUNDS} corrections")


_exact = np.frompyfunc(Fraction, 1, 1)


def _dyadic(v):
    """Integers and an exponent e with v = integers / 2**e exactly, for a float array v."""
    mant, exp = np.frexp(v)  # 53-bit mantissas
    shift = 53 - exp
    e = max(int(shift.max()), 0)
    return np.left_shift((mant * 2.0**53).astype(np.int64).astype(object), (e - shift).astype(object)), e


def _half(r, eps_G, eps_B, eps):
    q = r * (eps - eps_G) / (eps_B - eps)
    P = np.array([[1 - q, q], [r, 1 - r]], dtype=object)
    return SimpleNamespace(eps_G=eps_G, eps_B=eps_B, P=P, pi=np.array([r, q], dtype=object) / (q + r))


def exact_link(fwd, rev=None):
    """A link from rational (r, eps_G, eps_B, eps) for each half, the reverse
    the forward's unless given, with q = r (eps - eps_G) / (eps_B - eps):
    the fields _channel reads, in Fractions."""
    f, v = (_half(*map(Fraction, h)) for h in (fwd, rev or fwd))
    # pi_I: the stationary chain, then a step with the forward bit delivered
    pi_I = np.kron(f.pi, v.pi) @ np.kron(f.P * [1 - f.eps_G, 1 - f.eps_B], v.P)
    return SimpleNamespace(Pc=np.kron(f.P, v.P), fwd=f, rev=v, pi_I=pi_I)


def _channel(ch):
    """The composite chain, both links' erasure rates by state and the start
    states' weights, in Fractions: a float link converts exactly."""
    pi_I = _exact(ch.pi_I)
    eps_f, eps_r = (_exact([h.eps_G, h.eps_B]) for h in (ch.fwd, ch.rev))
    return _exact(ch.Pc), eps_f, eps_r, pi_I / pi_I.sum()


def _arq(ch, p, rates):
    """(mass, E[tau], E[delay], certificate) of a single-packet scheme.

    `rates[i]` is the reverse link's (eps_G, eps_B) at the (i+1)-th
    cumulative feedback after a lost acknowledgment; the last holds from
    there on, so the state keeps the index up to len(rates) - 1.
    """
    k, T, d = p.k, p.T, p.d
    Pc, eps_f, eps_r, pi0 = _channel(ch)
    rates, cap = [_exact(pair) for pair in rates], len(rates) - 1
    WAIT, RECOV = 0, 1

    # state: (chain, mode, cd, m); cd slots to the own observation (WAIT) or
    # to the timer expiry (RECOV), m recovery slots so far.  The end of an
    # episode counts its first transmission.
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
                    (pc * (1 - ef) * (1 - er), None, 1),
                    (pc * (1 - ef) * er, (c2, RECOV, d if d > 0 else T, 0), 0 if d > 0 else 1),
                    (pc * ef * (1 - er), (c2, WAIT, k, 0), 1),
                    (pc * ef * er, (c2, WAIT, T, 0), 1),
                ]
            else:  # recovery slot: the (m+1)-th cumulative feedback since the loss
                er = rates[m][c2 % 2]
                wait = (c2, RECOV, cd - 1 if cd > 1 else T, min(m + 1, cap))
                out += [(pc * (1 - er), None, 1), (pc * er, wait, 0 if cd > 1 else 1)]
        return out

    return solve([(pi0[c], (c, WAIT, k, 0)) for c in range(4) if pi0[c] > 0], moves)


def uncoded(ch, p):
    """(mass, E[tau], E[delay], certificate) of uncoded ARQ: recovery at the nominal rates."""
    return _arq(ch, p, [(ch.rev.eps_G, ch.rev.eps_B)])


def harq(ch, p, rates, gate):
    """(low, high, J): the (mass, E[tau], E[delay], certificate) of the
    chains with `rates(m)` (the reverse (eps_G, eps_B) at combining index
    m) frozen past J at 0 and at rates(J), a bracket of the exact values.
    J doubles from 20 until the bracket is at most `gate` wide (width)."""
    for J in JS:
        head = [rates(m) for m in range(1, J + 1)]
        low, high = (_arq(ch, p, head + [_exact(head[-1]) * scale]) for scale in (0, 1))
        if width(low, high) <= gate:
            return low, high, J
    raise ArithmeticError(f"harq bracket wider than {gate} at J = {J}")


def width(low, high):
    """The wider of harq's tau and delay brackets, certificates included,
    relative to its low end."""
    return max(float((hi - lo + Fraction(low[3] + high[3])) / lo) for lo, hi in zip(low[1:3], high[1:3]))


def errors(got, *solved):
    """Bounds on the relative errors of the floats `got`, (mass, tau, delay),
    against the exact means of a solve, (mass, tau, delay, certificate): the
    larger of two for the ends of harq's bracket."""
    return [
        max(float((abs(Fraction(g) - s[i]) + Fraction(s[3])) / s[i]) for s in solved) for i, g in enumerate(got)
    ]


def coded(ch, p):
    """(mass, E[tau], E[delay], certificate) of the coded scheme, tau per frame."""
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

    return solve([(pi0[c], (c, 0, 0, 0, k, M, FAR, k + T)) for c in range(4) if pi0[c] > 0], moves)
