"""Cross-validate the analytic means against the slot-level simulator.

Runs a handful of seeded Monte Carlo replicates per configuration and
reports the z-score of the analytic value inside the pooled sampling
distribution.  |z| below 3 is the acceptance bar; values near 1 are
typical.
"""
from gearq import ProtocolParams, SimConfig, simulate
from gearq import symmetric_composite, uncoded_metrics, harq_metrics
from gearq.coded import coded_metrics
from gearq.sim import pooled_estimate

SEEDS = range(8)
HORIZON = 30_000

print("scheme   eps  T   analytic tau  sim tau (stderr)    z")
for scheme, eps, T in [
    ("uncoded", 0.3, 10),
    ("uncoded", 0.5, 5),
    ("harq", 0.3, 10),
    ("coded", 0.3, 10),
]:
    ch = symmetric_composite(0.3, 0.0, 1.0, eps)
    if scheme == "uncoded":
        p = ProtocolParams(k=5, T=T)
        ana = uncoded_metrics(ch, p).tau_mean
    elif scheme == "harq":
        p = ProtocolParams(k=5, T=T, scheme="harq", gamma_over_rho=10 * eps)
        ana = harq_metrics(ch, p).tau_mean
    else:
        p = ProtocolParams(k=5, T=T, scheme="coded", M=5, N=4)
        ana = coded_metrics(ch, p).frame_tau_mean
    stats = [simulate(SimConfig(params=p, ch=ch, seed=s, horizon=HORIZON)) for s in SEEDS]
    tau, tau_se, _, _ = pooled_estimate(stats)
    z = (ana - tau) / tau_se
    print(f"{scheme:8s} {eps:.1f} {T:3d}   {ana:10.5f}   {tau:8.5f} ({tau_se:.5f})  {z:+.2f}")

print()
print("The simulator shares two things with the analytic path: the composite")
print("channel, and the scheme's recovery rates (attempt_model_for), which it")
print("reads for the feedback drawn while a packet waits unacknowledged.")
print("Beyond those it draws the joint chain's states where the protocol")
print("observes them, draws per-state erasures, runs timers and cumulative")
print("feedback, and simply counts transmissions.")
