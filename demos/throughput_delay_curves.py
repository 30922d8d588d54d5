"""Headline trend study: throughput and delay versus block-error rate.

Sweeps the block-error rate for the three retransmission schemes at
k = 5, r = 0.3, T = 10 (soft combining uses gamma/rho = 10*eps) and
prints per-packet throughput and mean delays in slots.  The coded frame
uses M = 5 packets with N = 4 needed to decode.  Its delay is a frame's,
D, from the first transmission to the ACK that completes it; D / M
spreads it over the frame's packets, and D - (M - 1)/2 is the mean
delay counted from each packet's own first transmission.
"""
from gearq import ProtocolParams, harq_metrics, symmetric_composite, uncoded_metrics
from gearq.coded import coded_metrics

K, T, M, N = 5, 10, 5, 4

print(f"k={K} T={T} r=0.3 coded frame M={M} N={N}")
print("throughput per packet; delays in slots (D: the coded frame's delay)")
print()
print("eps    eta_unc  eta_harq eta_coded |  D_unc   D_harq       D     D/M  D-(M-1)/2")
ratios, below_k = [], []
for i in range(1, 13):
    eps = round(0.05 * i, 2)
    ch = symmetric_composite(0.3, 0.0, 1.0, eps)
    unc = uncoded_metrics(ch, ProtocolParams(k=K, T=T))
    hrq = harq_metrics(
        ch, ProtocolParams(k=K, T=T, scheme="harq", gamma_over_rho=10 * eps)
    )
    cod = coded_metrics(ch, ProtocolParams(k=K, T=T, scheme="coded", M=M, N=N))
    own = cod.delay_mean - (M - 1) / 2
    ratios.append(own / unc.delay_mean)
    if cod.delay_mean_per_packet < K:
        below_k.append(eps)
    print(
        f"{eps:4.2f}   {unc.throughput:.4f}  {hrq.throughput:.4f}   {cod.throughput:.4f}  "
        f"| {unc.delay_mean:6.3f}  {hrq.delay_mean:6.3f}  {cod.delay_mean:6.3f}  "
        f"{cod.delay_mean_per_packet:6.3f}  {own:9.3f}"
    )

print()
print("Reading the table: throughput falls with eps for every scheme, and the")
print("coded frame decays slowest.  D/M is the frame delay per packet, not any")
print(f"packet's delay: up to eps = {max(below_k):.2f} it is below the error-free round")
print(f"trip k = {K}, which no packet can beat.  Counted from its own first")
print(f"transmission, a coded packet waits {min(ratios):.1f}-{max(ratios):.1f}x as long as an")
print("uncoded one; neither counts a resequencing wait, which this isolated-frame")
print("model leaves out.  Soft combining trims the uncoded delay and raises")
print("throughput slightly.")
