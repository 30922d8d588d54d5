"""How the mean comes out of a generating function without symbolics.

Branch gains are matrices times z-powers; carrying (value, d/dz) pairs
through products and geometric closures gives the MGF and its mean in
one pass.  A central finite difference over the scalarized MGF confirms
the derivative.
"""
import numpy as np

from gearq import DualMatrix, ProtocolParams, dual_geo, dual_mul, dual_term, scalarize
from gearq import symmetric_composite
from gearq.protocols import attempt_model_for, build_arq_mgf

# dual arithmetic in miniature: a two-state success/retry loop
A = np.array([[0.6, 0.1], [0.2, 0.5]])
loop = dual_term(A, 1)                     # retry costs one z
closure = dual_geo(loop)                   # sum over any number of retries
print("closure value (I - A)^-1:\n", closure.val)
print("closure derivative (I-A)^-1 A (I-A)^-1:\n", closure.der)

# the same machinery on a full protocol MGF
ch = symmetric_composite(0.3, 0.0, 1.0, 0.3)
p = ProtocolParams(k=5, T=10)
att = attempt_model_for(ch, p)


def delay_mgf(z_slots, check=True):
    """(phi_D, its derivative) at z_slots: the MGF counts packets in
    z_packets (der[0]) and slots in z_slots (der[1]), and the delay is the
    slot count."""
    phi = build_arq_mgf(ch, p, att, z=(1.0, z_slots))
    return scalarize(ch.pi_I, DualMatrix(phi.val, phi.der[1]), check=check)


value, mean = delay_mgf(1.0)
print("\nphi_D(1) =", value, " (total probability)")
print("mean delay from the dual derivative:", mean)

h = 1e-5
fd = (delay_mgf(1 + h, check=False)[0] - delay_mgf(1 - h, check=False)[0]) / (2 * h)
print("central finite difference:", fd)
print("relative error:", abs(mean - fd) / mean)
assert abs(mean - fd) <= 1e-6 * mean, "the dual mean and the finite difference disagree"
