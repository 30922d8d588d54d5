"""Flow-graph reduction rules and equality with the closed-form MGFs."""
import itertools

import numpy as np
import pytest

from gearq.channel import symmetric_composite
from gearq.flowgraph import FlowGraph, GraphError, build_uncoded_graph, eliminate_node, graph_gain
from gearq.genfunc import DualMatrix, dual_term
from gearq.protocols import ProtocolParams, attempt_model_for, build_arq_mgf

TOL = 1e-12


def rand_gain(rng, scale=0.35):
    return DualMatrix(scale * rng.random((3, 3)), rng.random((3, 3)))


def test_series_rule():
    rng = np.random.default_rng(0)
    A, B = rand_gain(rng), rand_gain(rng)
    g = FlowGraph("I", "O")
    g.add_branch("I", "n", A)
    g.add_branch("n", "O", B)
    out = eliminate_node(g, "n")
    gain = out.branches[("I", "O")]
    assert np.allclose(gain.val, A.val @ B.val, atol=TOL)
    assert np.allclose(gain.der, A.der @ B.val + A.val @ B.der, atol=TOL)


def test_parallel_rule():
    rng = np.random.default_rng(1)
    A, B = rand_gain(rng), rand_gain(rng)
    g = FlowGraph("I", "O")
    g.add_branch("I", "O", A)
    g.add_branch("I", "O", B)
    gain = g.branches[("I", "O")]
    assert np.allclose(gain.val, A.val + B.val, atol=TOL)


def test_self_loop_rule():
    rng = np.random.default_rng(2)
    A, L, B = rand_gain(rng), rand_gain(rng, 0.25), rand_gain(rng)
    g = FlowGraph("I", "O")
    g.add_branch("I", "n", A)
    g.add_branch("n", "n", L)
    g.add_branch("n", "O", B)
    gain = graph_gain(g)
    closure = np.linalg.inv(np.eye(3) - L.val)
    assert np.allclose(gain.val, A.val @ closure @ B.val, atol=TOL)


def test_single_branch_passthrough():
    rng = np.random.default_rng(3)
    A = rand_gain(rng)
    g = FlowGraph("I", "O")
    g.add_branch("I", "O", A)
    gain = graph_gain(g)
    assert np.allclose(gain.val, A.val, atol=TOL)


def test_illegal_edits_and_eliminations():
    g = FlowGraph("I", "O")
    g.add_branch("I", "O", dual_term(np.eye(2), 0))
    with pytest.raises(GraphError):
        g.add_branch("O", "I", dual_term(np.eye(2), 0))
    with pytest.raises(GraphError):
        eliminate_node(g, "I")
    empty = FlowGraph("I", "O")
    empty.add_branch("I", "a", dual_term(np.eye(2), 0))
    with pytest.raises(GraphError):
        graph_gain(empty)


def test_elimination_order_independent_random_graphs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = FlowGraph("I", "O")
        nodes = ["a", "b"]
        g.add_branch("I", "a", rand_gain(rng))
        g.add_branch("a", "b", rand_gain(rng))
        g.add_branch("I", "b", rand_gain(rng))
        g.add_branch("a", "a", rand_gain(rng, 0.2))
        g.add_branch("b", "a", rand_gain(rng, 0.2))
        g.add_branch("a", "O", rand_gain(rng))
        g.add_branch("b", "O", rand_gain(rng))
        ref = None
        for order in itertools.permutations(nodes):
            r = g
            for n in order:
                r = eliminate_node(r, n)
            gain = r.branches[("I", "O")]
            if ref is None:
                ref = gain
            else:
                assert np.allclose(gain.val, ref.val, atol=TOL)
                assert np.allclose(gain.der, ref.der, atol=TOL)


@pytest.mark.parametrize("kind", ["tau", "delay"])
def test_graph_equals_closed_form_on_grid(kind):
    # the graph reads the channel's own matrices, so the eps_G > 0 case
    # checks the attempt model's constant sequence independently
    der = ("tau", "delay").index(kind)  # closed form: der[0] counts packets, der[1] slots
    channels = [(0.0, 1.0, eps) for eps in (0.05, 0.2, 0.35, 0.5, 0.6)] + [(0.1, 0.9, 0.4)]
    cases = [(0.3, link, 5, T) for link in channels for T in (5, 10, 20)]
    # the edges k = 1 and T = k (d = 0, entry at C; at (1, 1) the ring is C
    # alone, looping on itself), a 40-node ring, and slow mixing
    cases += [(r, link, k, T) for r in (0.01, 0.3) for link in (channels[2], channels[-1])
              for k, T in ((1, 1), (1, 7), (3, 40))]
    for r, (eps_G, eps_B, eps), k, T in cases:
        ch = symmetric_composite(r, eps_G, eps_B, eps)
        p = ProtocolParams(k=k, T=T)
        closed = build_arq_mgf(ch, p, attempt_model_for(ch, p))
        gg = graph_gain(build_uncoded_graph(ch, p, kind))
        assert np.max(np.abs(closed.val - gg.val)) <= TOL
        assert np.max(np.abs(closed.der[der] - gg.der)) <= TOL


def test_graph_gain_is_proper_mgf():
    ch = symmetric_composite(0.3, 0.0, 1.0, 0.3)
    p = ProtocolParams(k=5, T=10)
    gg = graph_gain(build_uncoded_graph(ch, p, "tau"))
    phi = float(ch.pi_I @ gg.val @ np.ones(4)) / ch.pi_I.sum()
    assert phi == pytest.approx(1.0, abs=1e-9)


def test_dot_dump():
    ch = symmetric_composite(0.3, 0.0, 1.0, 0.3)
    g = build_uncoded_graph(ch, ProtocolParams(k=5, T=10), "delay")
    dot = g.to_dot()
    assert dot.startswith("digraph")
    for node in "IABCO":
        assert f'"{node}"' in dot
    assert '"A" -> "B"' in dot
