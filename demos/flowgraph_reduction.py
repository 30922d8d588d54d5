"""Reduce the retransmission state machine as a matrix signal-flow graph.

The selective-repeat machine has nodes I (start), A (own feedback), B
(lost-packet retransmission), C (delivered but unacknowledged, timer
ran out) and O (acknowledged).  Eliminating the interior nodes one at a
time gives the input-output matrix gain, which must coincide with the
closed-form MGF entry for entry.
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

print("\neliminating B ->", end=" ")
g1 = eliminate_node(g, "B")
print("branches:", sorted(f"{a}->{b}" for a, b in g1.branches))
print("eliminating C ->", end=" ")
g2 = eliminate_node(g1, "C")
print("branches:", sorted(f"{a}->{b}" for a, b in g2.branches))
print("eliminating A ->", end=" ")
g3 = eliminate_node(g2, "A")
print("branches:", sorted(f"{a}->{b}" for a, b in g3.branches))

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
