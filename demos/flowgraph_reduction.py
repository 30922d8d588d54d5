"""Reduce the retransmission state machine as a matrix signal-flow graph.

The selective-repeat machine has nodes I (start), A (own feedback), B
(lost-packet retransmission) and O (acknowledged).  A packet delivered
but unacknowledged waits for a delivered cumulative feedback on a ring
of T one-slot nodes, keyed by the offset from its timer expiry: C
(offset 0, where the expiry retransmits the packet) and C1 .. C{T-1}.
Each ring node leaves to O when the feedback gets through (Px0) and
steps to the next offset when it is erased (Px1).  The builder sums no
gain by hand: eliminating C1 .. C{T-1} leaves the self-loop Px1^T on C,
and eliminating the rest gives the input-output matrix gain, which must
coincide with the closed-form MGF entry for entry.
"""
import numpy as np

from gearq import ProtocolParams, symmetric_composite
from gearq.flowgraph import build_uncoded_graph, eliminate_node, graph_gain
from gearq.protocols import attempt_model_for, build_arq_mgf

ch = symmetric_composite(0.3, 0.0, 1.0, 0.3)
p = ProtocolParams(k=5, T=10)

g = build_uncoded_graph(ch, p, kind="delay")
print("graph in DOT form:\n")
print(g.to_dot())


def close_ring(graph):
    for o in range(1, p.T):
        graph = eliminate_node(graph, f"C{o}")
    return graph


print(f"\neliminating the ring C1 .. C{p.T - 1} ->", end=" ")
g1 = close_ring(g)
print("branches:", sorted(f"{a}->{b}" for a, b in g1.branches))
# elimination closes the ring into one self-loop on C: T erased feedbacks
# in a row, Px1^T, with one expiry's packet and T slots per lap
lap = np.linalg.matrix_power(ch.Px1, p.T)
for kind, count in (("tau", 1), ("delay", p.T)):
    loop = close_ring(build_uncoded_graph(ch, p, kind)).branches[("C", "C")]
    err = max(np.max(np.abs(loop.val - lap)), np.max(np.abs(loop.der - count * lap)))
    print(f"max |C self-loop - Px1^T z^{count}| ({kind}):", err)
    assert err <= 1e-15, "the closed ring is not the old C self-loop"

for n in ("B", "C", "A"):
    print(f"eliminating {n} ->", end=" ")
    g1 = eliminate_node(g1, n)
    print("branches:", sorted(f"{a}->{b}" for a, b in g1.branches))

gain = graph_gain(g)
# the closed form counts both: der[0] packets, der[1] slots (the delay)
closed = build_arq_mgf(ch, p, attempt_model_for(ch, p))
val_err = np.max(np.abs(gain.val - closed.val))
der_err = np.max(np.abs(gain.der - closed.der[1]))
print("\nmax |graph - closed form| on the value:", val_err)
print("max |graph - closed form| on the derivative:", der_err)
assert val_err <= 1e-12 and der_err <= 1e-12, "the graph and the closed form disagree"
mean = ch.pi_I @ gain.der @ np.ones(4) / ch.pi_I.sum()
print("mean delay from the reduced graph:", mean)
