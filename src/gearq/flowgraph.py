"""Matrix signal-flow graphs reduced by node elimination.

Nodes hold row-vector signals; branch gains are dual matrices that
multiply on the right along a path.  Eliminating an interior node n
rewires every predecessor-successor pair through gain(p->n) *
(I - selfloop(n))^-1 * gain(n->s), merging parallel branches by
addition.  Repeated elimination reduces the graph to the single
input -> output gain, an independent construction of the protocol MGFs.
Each branch gain states the packets it transmits and the slots it takes;
the MGF's kind picks which of the two z counts (protocols.Accounting).
A builder sums no gain by hand: waits are rings of one-slot nodes, and
elimination adds the paths and closes each ring exactly.
"""
from __future__ import annotations

import numpy as np

from .channel import CompositeChannel
from .genfunc import DualMatrix, dual_add, dual_geo, dual_mul
from .protocols import Accounting, ProtocolParams


class GraphError(ValueError):
    """Malformed graph or illegal elimination."""


class FlowGraph:
    """Directed graph with dual-matrix branch gains and one input/output.

    Parallel branches merge on insertion, so there is at most one branch
    per ordered node pair.  The input accepts no incoming branches and
    the output no outgoing ones; interior self-loops are allowed.
    """

    def __init__(self, input_node: str, output_node: str):
        if input_node == output_node:
            raise GraphError("input and output must differ")
        self.input = input_node
        self.output = output_node
        self.nodes: set[str] = {input_node, output_node}
        self.branches: dict[tuple[str, str], DualMatrix] = {}
        self.labels: dict[tuple[str, str], str] = {}

    def add_branch(self, src: str, dst: str, gain: DualMatrix, label: str = "") -> None:
        if dst == self.input:
            raise GraphError("input node cannot receive branches")
        if src == self.output:
            raise GraphError("output node cannot emit branches")
        if src == dst and src in (self.input, self.output):
            raise GraphError("no self-loops on input or output")
        self.nodes.update((src, dst))
        key = (src, dst)
        if key in self.branches:
            self.branches[key] = dual_add(self.branches[key], gain)
            if label:
                self.labels[key] = f"{self.labels.get(key, '')} + {label}".strip(" +")
        else:
            self.branches[key] = gain
            if label:
                self.labels[key] = label

    def copy(self) -> "FlowGraph":
        g = FlowGraph(self.input, self.output)
        g.nodes = set(self.nodes)
        g.branches = dict(self.branches)
        g.labels = dict(self.labels)
        return g

    def interior_nodes(self) -> list[str]:
        return sorted(self.nodes - {self.input, self.output})

    def to_dot(self) -> str:
        """DOT-format dump for documentation; gains shown by label only."""
        lines = ["digraph msfg {", "  rankdir=LR;"]
        for node in sorted(self.nodes):
            shape = "doublecircle" if node in (self.input, self.output) else "circle"
            lines.append(f'  "{node}" [shape={shape}];')
        for (src, dst), gain in sorted(self.branches.items()):
            label = self.labels.get((src, dst), f"{gain.val.shape[0]}x{gain.val.shape[1]}")
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def eliminate_node(g: FlowGraph, n: str) -> FlowGraph:
    """Remove interior node n, rewiring paths through its self-loop closure."""
    if n not in g.nodes:
        raise GraphError(f"no node {n!r}")
    if n in (g.input, g.output):
        raise GraphError("cannot eliminate the input or output node")
    out = g.copy()
    loop = out.branches.pop((n, n), None)
    preds = [(src, out.branches.pop((src, dst))) for src, dst in list(out.branches) if dst == n]
    succs = [(dst, out.branches.pop((src, dst))) for src, dst in list(out.branches) if src == n]
    out.nodes.discard(n)
    out.labels = {key: label for key, label in out.labels.items() if n not in key}
    for src, g_in in preds:
        through = g_in if loop is None else dual_mul(g_in, dual_geo(loop))
        for dst, g_out in succs:
            out.add_branch(src, dst, dual_mul(through, g_out))
    return out


def graph_gain(g: FlowGraph) -> DualMatrix:
    """Input-to-output dual gain after eliminating all interior nodes.

    Interior nodes are removed in ascending label order for
    reproducibility; the result is elimination-order independent.
    """
    reduced = g
    for n in g.interior_nodes():
        reduced = eliminate_node(reduced, n)
    gain = reduced.branches.get((g.input, g.output))
    if gain is None:
        raise GraphError("output not reachable from input")
    return gain


def build_uncoded_graph(ch: CompositeChannel, p: ProtocolParams, kind: str) -> FlowGraph:
    """Selective-repeat ARQ state machine as a flow graph.

    I: start of transmission.  A: the packet's own feedback arrives.
    B: retransmission of a lost packet (delivered NACK after k slots, or
    erased NACK after the T-slot timer).  O: ACK received.  After an
    erased ACK the packet waits for a delivered cumulative feedback on a
    ring of T one-slot nodes, keyed by the offset from the timer expiry:
    C (offset 0, a pointless retransmission) and C1 .. C{T-1}.  Each has
    a Px0 branch to O and a Px1 branch to the next offset; A enters at
    offset -d mod T.

    Every branch takes (packets, slots): the first transmission and its
    wait (1, k-1), a NACK (0, k-1) or timeout (0, T-1) and the
    retransmission (1, 1), an ACK (0, 1), and a branch into or out of a
    ring node (0, 1), except that every branch into C, A's when d = 0
    among them, carries the expiry's packet (1, 1).  kind "tau" counts
    the packets, "delay" the slots; node elimination sums every path,
    closes the ring, and must reduce to the closed-form MGFs.
    """
    acc = Accounting(kind)
    k, T, d = p.k, p.T, p.d
    Pk = np.linalg.matrix_power(ch.Pc, k - 1)
    PT = np.linalg.matrix_power(ch.Pc, T - 1)

    g = FlowGraph("I", "O")
    g.add_branch("I", "A", acc.term(Pk, 1, k - 1), "P^{k-1}")
    g.add_branch("A", "B", acc.term(ch.P10 @ Pk, 0, k - 1), "P10 P^{k-1}")
    g.add_branch("A", "B", acc.term(ch.P11 @ PT, 0, T - 1), "P11 P^{T-1}")
    g.add_branch("B", "A", acc.term(np.eye(4), 1, 1), "retx")
    g.add_branch("A", "O", acc.term(ch.P00, 0, 1), "ACK")

    ring = ["C"] + [f"C{o}" for o in range(1, T)]
    g.add_branch("A", ring[-d % T], acc.term(ch.P01, int(d == 0), 1), "P01")
    for o, node in enumerate(ring):
        g.add_branch(node, "O", acc.term(ch.Px0, 0, 1), "Px0")
        g.add_branch(node, ring[(o + 1) % T], acc.term(ch.Px1, int(o == T - 1), 1), "Px1")
    return g
