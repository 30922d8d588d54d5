#!/usr/bin/env python3
"""gearq benchmark: sweep work rate, point latency and set-up time, checked.

Run from the repository root:

    python3 perfbench/run.py --workload analytic-grid --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --compare OLD NEW      # result files or directories
    python3 perfbench/run.py --write-reference      # refresh reference_seed0.json

The package is imported from ``src/`` of the checkout the script sits in
and driven only through ``gearq.cli.run_sweep``, one single-point
``SweepConfig`` per call, ``jobs=1``, in this process.  That is the call
``gearq sweep`` makes, so a point's wall time is what a sweep user pays
per grid point.

Workloads (seed 0 reproduces the grids below exactly; other seeds jitter
eps, and r on slow-mixing, keeping every point admissible):

* analytic-grid: the shipped sweep.cfg grid in analytic mode (72 points).
  Everyday traffic; the closure guard genfunc.spectral_radius dominates.
* slow-mixing: analytic mode, r in {0.01, 0.03}, eps in {0.5, 0.8, 0.97},
  T in {5, 20} (36 points).  The truncated series get long, so dual_mul
  and genfunc.series dominate, the opposite mix to analytic-grid.
* sim-grid: the sweep.cfg grid in sim mode, horizon 20000, one simulator
  seed per point and pass.  The simulator does nearly all the work; the
  control for every analytic change.

A run measures whole passes over its grid until the next pass would end
after --seconds (at least 100 points, so that p90 has 10 samples beyond
it).  With --trace 0 it prints the end-to-end metrics; with --trace 1
it times an untraced and then a traced set of passes and prints the
per-layer metrics of spans.py plus the tracing overhead.  Either way it
checks the outputs, writes a result file under perfbench/out/ and ends
with one JSON line {correct, attempted, failed, metrics}.  Exit status:
0 when every check passes, 1 when a check fails, 2 when the run cannot
start (for example, no gearq package under src/).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference_seed0.json"

EPS_SWEEP = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6)
SCHEMES = ("coded", "harq", "uncoded")  # run_sweep's own (sorted) order
K, M, N, HORIZON = 5, 5, 4, 20_000
EPS_G, EPS_B = 0.0, 1.0

MIN_SAMPLES = 100  # p90 needs 10 samples beyond it
SETUP_REPEATS = 7
MGF_TOL = 1e-9  # acceptance criterion 1
GRAPH_RTOL = 1e-9  # acceptance criterion 4
REFERENCE_RTOL = 1e-8
DRIFT_RTOL = 1e-12
SIM_FAMILY_ALPHA = 1e-3  # false-alarm rate of the whole |z| family
REF_FIELDS = ("tau_mean", "throughput", "delay_mean", "delay_mean_per_packet", "frame_tau_mean")
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("point_ms_p50", "ms"),
    ("point_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing package, failed set-up)."""


@dataclass(frozen=True)
class Workload:
    mode: str
    eps: tuple[float, ...]
    T: tuple[int, ...]
    r: tuple[float, ...]
    reference: str  # grid whose seed-0 analytic values this one must match
    jitter_r: bool = False


WORKLOADS = {
    "analytic-grid": Workload("analytic", EPS_SWEEP, (5, 10), (0.3,), "analytic-grid"),
    "slow-mixing": Workload("analytic", (0.5, 0.8, 0.97), (5, 20), (0.01, 0.03), "slow-mixing", True),
    "sim-grid": Workload("sim", EPS_SWEEP, (5, 10), (0.3,), "analytic-grid"),
}


class Point(NamedTuple):
    scheme: str
    eps: float
    T: int
    r: float

    def key(self) -> str:
        return f"{self.scheme}/eps={self.eps!r}/r={self.r!r}/T={self.T}"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def admissible(eps: float, r: float) -> bool:
    """eps below eps_B and the implied G->B rate q = r(eps-eps_G)/(eps_B-eps) <= 1."""
    return EPS_G <= eps < EPS_B and r * (eps - EPS_G) / (EPS_B - eps) <= 1.0


def make_grid(name: str, seed: int) -> list[Point]:
    """The workload's points in run_sweep order; seed 0 is the listed grid."""
    wl = WORKLOADS[name]
    eps, rs = list(wl.eps), list(wl.r)
    if seed != 0:
        rng = random.Random(f"{name}/{seed}")
        for _ in range(1000):
            # small jitter: keeps the eps order and the per-point work
            eps = [round(e + rng.uniform(-1, 1) * 0.1 * min(0.05, EPS_B - e), 6) for e in wl.eps]
            if wl.jitter_r:
                rs = [round(r * (1 + 0.02 * rng.uniform(-1, 1)), 6) for r in wl.r]
            if all(admissible(e, r) for e in eps for r in rs):
                break
        else:
            raise BenchError(f"no admissible jitter for seed {seed}")
    return [Point(s, e, T, r) for r in rs for s in SCHEMES for e in eps for T in wl.T]


def sim_seed(seed: int, pass_index: int) -> int:
    return seed * 1000 + pass_index


def import_gearq():
    """Import gearq from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import gearq
    except ImportError as exc:
        raise BenchError(f"cannot import gearq from {SRC}: {exc}") from exc
    if Path(gearq.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"gearq imported from {gearq.__file__}, not from {SRC}")
    # One simulator seed per point leaves the CSV's between-seed stderr
    # undefined (NaN, with a numpy warning); the benchmark's own check
    # uses per-episode standard errors instead.
    warnings.filterwarnings("ignore", "Degrees of freedom", RuntimeWarning)
    warnings.filterwarnings("ignore", "invalid value encountered", RuntimeWarning)
    return gearq


def point_config(gearq, mode: str, pt: Point, seed: int):
    return gearq.cli.SweepConfig(
        eps=(pt.eps,), T=(pt.T,), schemes=(pt.scheme,), k=K, r=pt.r,
        eps_G=EPS_G, eps_B=EPS_B, M=M, N=N, mode=mode, seeds=(seed,),
        horizon=HORIZON, out=os.devnull,
    )


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Capture:
    """Return values at cli's import sites: Metrics and (SimConfig, SimStats, s).

    One extra Python call per point (microseconds against milliseconds),
    so it stays on in the timed passes.
    """

    def __init__(self):
        self.metrics: list = []
        self.sims: list = []

    @contextlib.contextmanager
    def installed(self, cli):
        saved = {}

        def keep(fn):
            def captured(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.metrics.append(out)
                return out
            return captured

        def timed(fn):
            def captured(cfg):
                t0 = time.perf_counter()
                out = fn(cfg)
                self.sims.append((cfg, out, time.perf_counter() - t0))
                return out
            return captured

        for name in ("uncoded_metrics", "harq_metrics", "coded_metrics"):
            saved[name] = getattr(cli, name)
            setattr(cli, name, keep(saved[name]))
        saved["simulate"] = cli.simulate
        cli.simulate = timed(cli.simulate)
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def take(self):
        out = (self.metrics, self.sims)
        self.metrics, self.sims = [], []
        return out


@dataclass
class PointResult:
    point: Point
    pass_index: int
    seconds: float
    row: dict
    metrics: object  # gearq Metrics (analytic mode) or None
    sims: list  # [(SimConfig, SimStats, seconds)] (sim mode)


def evaluate(gearq, capture: Capture, mode: str, pt: Point, seed: int, pass_index: int) -> PointResult:
    cfg = point_config(gearq, mode, pt, sim_seed(seed, pass_index))
    t0 = time.perf_counter()
    text, _ = gearq.cli.run_sweep(cfg)
    seconds = time.perf_counter() - t0
    (row,) = csv.DictReader(io.StringIO(text))
    metrics, sims = capture.take()
    return PointResult(pt, pass_index, seconds, row, metrics[0] if metrics else None, sims)


def run_passes(gearq, capture, mode, grid, seed, seconds=0.0, min_samples=1, first_pass=0, passes=None):
    """Whole passes: `passes` of them, or until the next would end after `seconds`."""
    results, walls = [], []
    t_start = time.perf_counter()
    while True:
        pass_index = first_pass + len(walls)
        # Shuffled, so that each scheme's points sample the whole pass and
        # not one stretch of it: the host's speed drifts within seconds.
        order = random.Random(f"{seed}/{pass_index}").sample(grid, len(grid))
        t_pass = time.perf_counter()
        results += [evaluate(gearq, capture, mode, pt, seed, pass_index) for pt in order]
        walls.append(time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - t_start
        if passes is not None:
            if len(walls) == passes:
                return results, walls
        elif len(results) >= min_samples and elapsed + statistics.fmean(walls) > seconds:
            return results, walls


def setup_probe(args) -> int:
    """Child process: import, build inputs, one warm-up point; print seconds since t0."""
    gearq = import_gearq()
    grid = make_grid(args.workload, args.seed)
    warm = next(pt for pt in grid if pt.scheme == "uncoded")
    with Capture().installed(gearq.cli) as capture:
        evaluate(gearq, capture, WORKLOADS[args.workload].mode, warm, args.seed, 0)
    print(time.monotonic() - args.t0)
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time from process start to ready, once per fresh process."""
    out = []
    for _ in range(SETUP_REPEATS):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed), "--t0", repr(time.monotonic()),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_analytic(gearq, results: list[PointResult], reference: dict | None) -> list[dict]:
    """mgf_check, flow-graph oracle and seed-0 reference on one analytic pass."""
    checks = []
    mgf = [float(r.row["mgf_check"]) for r in results]
    checks.append(dict(
        name="mgf_check", bound=MGF_TOL, worst=max(mgf), count=len(mgf),
        ok=max(mgf) <= MGF_TOL,
    ))

    channel, flowgraph, genfunc = gearq.channel, gearq.flowgraph, gearq.genfunc
    worst, count = 0.0, 0
    for r in results:
        pt = r.point
        if pt.scheme != "uncoded":
            continue
        half = channel.build_half_channel(pt.r, EPS_G, EPS_B, pt.eps)
        ch = channel.build_composite(half, half)
        p = gearq.ProtocolParams(k=K, T=pt.T)
        for kind, value in (("tau", r.metrics.tau_mean), ("delay", r.metrics.delay_mean)):
            gain = flowgraph.graph_gain(flowgraph.build_uncoded_graph(ch, p, kind))
            _, mean = genfunc.scalarize(ch.pi_I, gain)
            worst = max(worst, rel(mean, value))
            count += 1
    checks.append(dict(name="flowgraph_oracle", bound=GRAPH_RTOL, worst=worst, count=count,
                       ok=count > 0 and worst <= GRAPH_RTOL))

    if reference is not None:
        worst, count, missing = 0.0, 0, 0
        for r in results:
            ref = reference.get(r.point.key())
            if ref is None:
                missing += 1
                continue
            for f in REF_FIELDS:
                worst = max(worst, rel(getattr(r.metrics, f), ref[f]))
                count += 1
        checks.append(dict(name="seed0_reference", bound=REFERENCE_RTOL, worst=worst,
                           count=count, missing=missing,
                           ok=missing == 0 and worst <= REFERENCE_RTOL))
    return checks


def z_bound(n: int) -> float:
    """Bonferroni |z| bound: all n normal z-scores pass with prob. 1 - alpha."""
    return statistics.NormalDist().inv_cdf(1 - SIM_FAMILY_ALPHA / (2 * n))


def check_sim(sim_results: list[PointResult], analytic: dict) -> dict:
    """Simulator vs analysis with per-episode pooled standard errors.

    Every episode starts fresh and lanes are independent, so episodes are
    i.i.d.: pooling m equal-size seeds gives mean = average of the seed
    means and se = sqrt(sum se_i^2) / m, with ~10^4 degrees of freedom
    per point.  (pooled_estimate and agree_3sigma use the spread of a few
    seed means instead.)  Frame-level quantities are compared, since
    SimStats counts frames for the coded scheme.
    """
    pooled: dict[Point, list] = {}
    for r in sim_results:
        pooled.setdefault(r.point, []).extend(st for _, st, _ in r.sims)
    zs = []
    for pt, stats in pooled.items():
        m = len(stats)
        ana = analytic[pt]
        for hat, se, exact in (
            (statistics.fmean(s.tau_mean_hat for s in stats),
             math.sqrt(sum(s.tau_stderr ** 2 for s in stats)) / m, ana.frame_tau_mean),
            (statistics.fmean(s.delay_mean_hat for s in stats),
             math.sqrt(sum(s.delay_stderr ** 2 for s in stats)) / m, ana.delay_mean),
        ):
            zs.append(abs(hat - exact) / se if se > 0 else (0.0 if hat == exact else math.inf))
    bound = z_bound(len(zs))
    worst = max(zs)
    return dict(name="sim_vs_analytic_z", bound=bound, worst=worst, count=len(zs),
                above_3=sum(z > 3 for z in zs),
                episodes_per_point=HORIZON * min(map(len, pooled.values())),
                ok=worst <= bound)


def load_reference(name: str) -> dict:
    if not REFERENCE.exists():
        raise BenchError(f"missing {REFERENCE}")
    return json.loads(REFERENCE.read_text())[WORKLOADS[name].reference]


def run_checks(gearq, capture, wl, grid, seed, timed, reference):
    """All correctness checks; returns (checks, analytic point results).

    Analytic workloads are checked on their first timed pass; the sim
    grid gets one untimed analytic pass for the checks and the z-scores.
    """
    if wl.mode == "analytic":
        analytic = timed[: len(grid)]
    else:
        with capture.installed(gearq.cli):
            analytic = [evaluate(gearq, capture, "analytic", pt, seed, 0) for pt in grid]
    errors = [f"{r.point.key()}: {r.row['error']}" for r in analytic if r.row["error"]]
    if errors:
        return [dict(name="analytic_points_evaluate", ok=False, errors=errors)], []
    checks = check_analytic(gearq, analytic, reference)
    if wl.mode == "sim":
        checks.append(check_sim(timed, {r.point: r.metrics for r in analytic}))
    return checks, analytic


# ---------------------------------------------------------------------------
# layer metrics (traced run)
# ---------------------------------------------------------------------------

# name -> (unit, better).  Calls, counts and seconds are per traced pass;
# flowgraph.* are per run (only the correctness check calls it); sim rates
# and cli.point_ms_p50.* come from the untraced passes of the same run.
PER_LAYER = {
    "genfunc.spectral_radius.calls": ("count", "lower"),
    "genfunc.spectral_radius.self_s": ("s", "lower"),
    "genfunc.dual_mul.calls": ("count", "lower"),
    "genfunc.dual_mul.self_s": ("s", "lower"),
    "genfunc.dual_mul.flops": ("flop", "lower"),
    "genfunc.series.calls": ("count", "lower"),
    "genfunc.series.terms": ("count", "lower"),
    "genfunc.series.self_s": ("s", "lower"),
    "genfunc.dual_term.calls": ("count", "lower"),
    "genfunc.dual_term.self_s": ("s", "lower"),
    "genfunc.dual_geo.calls": ("count", "lower"),
    "genfunc.dual_geo.self_s": ("s", "lower"),
    "genfunc.self_s": ("s", "lower"),
    "protocols.build_arq_mgf.calls": ("count", "lower"),
    "protocols.build_arq_mgf.total_s": ("s", "lower"),
    "protocols.self_s": ("s", "lower"),
    "coded.build_coded_mgf.calls": ("count", "lower"),
    "coded.build_coded_mgf.total_s": ("s", "lower"),
    "coded.default_coded_kernel.calls": ("count", "lower"),
    "coded.default_coded_kernel.self_s": ("s", "lower"),
    "coded.self_s": ("s", "lower"),
    "channel.build.calls": ("count", "lower"),
    "channel.build.self_s": ("s", "lower"),
    "flowgraph.graph_gain.calls": ("count", "lower"),
    "flowgraph.graph_gain.total_s": ("s", "lower"),
    "sim.simulate.calls": ("count", "lower"),
    "sim.simulate.total_s": ("s", "lower"),
    "sim_episodes_per_s": ("1/s", "higher"),
    "sim_slots_per_s": ("1/s", "higher"),
    **{
        f"sim.{s}.{m}": (u, b)
        for s in SCHEMES
        for m, u, b in (
            ("episodes_per_s", "1/s", "higher"),
            ("slots_per_s", "1/s", "higher"),
            ("slots_per_episode", "slots", "lower"),
        )
    },
    "cli.run_sweep.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"cli.point_ms_p50.{s}": ("ms", "lower") for s in SCHEMES},
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def sim_rates(results: list[PointResult], scheme: str | None = None) -> tuple[float, float, float]:
    """(episodes/s, slots/s, slots/episode) over simulate time at the cli boundary."""
    sims = [s for r in results for s in r.sims if scheme in (None, r.point.scheme)]
    secs = sum(t for _, _, t in sims)
    episodes = sum(st.delivered for _, st, _ in sims)
    slots = sum(st.slots_elapsed for _, st, _ in sims)
    if not episodes:
        return 0.0, 0.0, 0.0
    return episodes / secs, slots / secs, slots / episodes


def layer_metrics(tracer, untraced, traced_walls, untraced_walls) -> dict[str, float]:
    """Per-pass layer figures from the traced passes.

    flowgraph figures come from the correctness check (the only caller
    of the flow-graph engine), once per run.  Simulator rates and
    per-scheme point medians come from the untraced passes of the same
    run, at the cli boundary.
    """
    from spans import Aggregate

    passes = len(traced_walls)
    agg = tracer.agg["pass"]
    check = tracer.agg["check"]
    none = Aggregate()

    def a(name, table=agg):
        return table.get(name, none)

    def layer_self(layer):
        return sum(v.self for k, v in agg.items() if k.startswith(layer + ".")) / passes

    m: dict[str, float] = {}
    for name in ("spectral_radius", "dual_mul", "series", "dual_term", "dual_geo"):
        m[f"genfunc.{name}.calls"] = a(f"genfunc.{name}").calls / passes
        m[f"genfunc.{name}.self_s"] = a(f"genfunc.{name}").self / passes
    m["genfunc.dual_mul.flops"] = a("genfunc.dual_mul").flops / passes
    m["genfunc.series.terms"] = a("genfunc.series").terms / passes
    m["genfunc.self_s"] = layer_self("genfunc")
    m["protocols.build_arq_mgf.calls"] = a("protocols.build_arq_mgf").calls / passes
    m["protocols.build_arq_mgf.total_s"] = a("protocols.build_arq_mgf").total / passes
    m["protocols.self_s"] = layer_self("protocols")
    m["coded.build_coded_mgf.calls"] = a("coded.build_coded_mgf").calls / passes
    m["coded.build_coded_mgf.total_s"] = a("coded.build_coded_mgf").total / passes
    m["coded.default_coded_kernel.calls"] = a("coded.default_coded_kernel").calls / passes
    m["coded.default_coded_kernel.self_s"] = a("coded.default_coded_kernel").self / passes
    m["coded.self_s"] = layer_self("coded")
    m["channel.build.calls"] = a("channel.build").calls / passes
    m["channel.build.self_s"] = a("channel.build").self / passes
    m["flowgraph.graph_gain.calls"] = a("flowgraph.graph_gain", check).calls
    m["flowgraph.graph_gain.total_s"] = a("flowgraph.graph_gain", check).total
    m["sim.simulate.calls"] = a("sim.simulate").calls / passes
    m["sim.simulate.total_s"] = a("sim.simulate").total / passes
    m["sim_episodes_per_s"], m["sim_slots_per_s"], _ = sim_rates(untraced)
    for s in SCHEMES:
        (m[f"sim.{s}.episodes_per_s"], m[f"sim.{s}.slots_per_s"],
         m[f"sim.{s}.slots_per_episode"]) = sim_rates(untraced, s)
        m[f"cli.point_ms_p50.{s}"] = 1e3 * statistics.median(
            r.seconds for r in untraced if r.point.scheme == s)
    m["cli.run_sweep.calls"] = a("cli.run_sweep").calls / passes
    m["cli.self_s"] = layer_self("cli")
    m["trace.spans"] = sum(v.calls for v in agg.values()) / passes
    m["trace.overhead_s"] = (sum(traced_walls) - sum(untraced_walls[:passes])) / passes
    m["trace.overhead_pct"] = 100 * m["trace.overhead_s"] / statistics.fmean(untraced_walls[:passes])
    return m


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD from .git files of this checkout, if it is a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(gearq, name: str, seed: int, grid: list[Point]) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "gearq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gearq": gearq.__version__,
        "os": f"{platform.system()} {platform.release()} {platform.machine()}",
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": name,
        "seed": seed,
        "grid_points": len(grid),
        "horizon": HORIZON if WORKLOADS[name].mode == "sim" else None,
    }


def run(args) -> dict:
    name, seed = args.workload, args.seed
    wl = WORKLOADS[name]
    setup = [] if args.trace else measure_setup(name, seed)

    gearq = import_gearq()
    grid = make_grid(name, seed)
    reference = load_reference(name) if seed == 0 else None
    capture = Capture()
    with capture.installed(gearq.cli):
        evaluate(gearq, capture, wl.mode, next(p for p in grid if p.scheme == "uncoded"), seed, 0)
        untraced, walls = run_passes(
            gearq, capture, wl.mode, grid, seed,
            seconds=args.seconds / 2 if args.trace else args.seconds,
            min_samples=1 if args.trace else MIN_SAMPLES,
        )
    timed, tracer, traced_walls = untraced, None, []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(gearq)
        with capture.installed(gearq.cli):
            traced, traced_walls = run_passes(
                gearq, capture, wl.mode, grid, seed, first_pass=len(walls), passes=len(walls))
        timed = untraced + traced
        tracer.phase = "check"
    try:
        checks, analytic = run_checks(gearq, capture, wl, grid, seed, timed, reference)
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = sum(1 for r in timed if r.row["error"])
    samples = [r.seconds for r in untraced]
    e2e = {
        "setup_s": statistics.median(setup) if setup else None,
        "points_per_s": len(samples) / sum(samples),
        "point_ms_p50": 1e3 * statistics.median(samples),
        "point_ms_p90": 1e3 * percentile(samples, 90),
        "sim_episodes_per_s": None,
        "sim_slots_per_s": None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if wl.mode == "sim":
        e2e["sim_episodes_per_s"], e2e["sim_slots_per_s"], _ = sim_rates(untraced)

    n_spans = 0
    if args.trace:
        values = layer_metrics(tracer, untraced, traced_walls, walls)
        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
        OUT.mkdir(exist_ok=True)
        n_spans = tracer.save(OUT / f"trace-{name}.npz")
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END}

    return {
        "workload": name, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "env": environment(gearq, name, seed, grid),
        "correct": failed == 0 and all(c["ok"] for c in checks),
        "attempted": len(timed), "failed": failed,
        "metrics": metrics,
        "detail": {
            "passes": len(walls), "pass_s": walls, "traced_pass_s": traced_walls,
            "samples": len(samples), "setup_s_samples": setup, "spans_written": n_spans,
            "point_s": [[r.point.key(), r.pass_index, r.seconds] for r in untraced],
            "end_to_end": e2e,
        },
        "checks": checks,
        "analytic_values": [
            {"point": r.point.key(), **{f: getattr(r.metrics, f) for f in REF_FIELDS}}
            for r in analytic if r.metrics is not None
        ],
    }


def report(res: dict) -> None:
    """Human-readable lines: every end-to-end metric with unit, checks, env."""
    d, e2e = res["detail"], res["detail"]["end_to_end"]
    n = d["samples"]
    print(f"workload {res['workload']}  seed {res['seed']}  grid {res['env']['grid_points']} points"
          f"  passes {d['passes']}  trace {res['trace']}")
    sim_note = "" if e2e["sim_episodes_per_s"] is not None else "  (n/a: no simulator work)"
    rows = [
        ("setup_s", e2e["setup_s"], "s",
         f"median of {len(d['setup_s_samples'])} fresh processes" if d["setup_s_samples"]
         else "not measured with --trace 1"),
        ("points_per_s", e2e["points_per_s"], "points/s", f"over {d['passes']} passes"),
        ("point_ms_p50", e2e["point_ms_p50"], "ms", f"n={n}"),
        ("point_ms_p90", e2e["point_ms_p90"], "ms", f"n={n}"),
        ("sim_episodes_per_s", e2e["sim_episodes_per_s"], "episodes/s", sim_note),
        ("sim_slots_per_s", e2e["sim_slots_per_s"], "slots/s", sim_note),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "ru_maxrss"),
        ("failed_points", res["failed"], "count", f"of {res['attempted']} attempted"),
    ]
    for key, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<20} {shown:>12} {unit:<11} {note}")
    if res["trace"]:
        for key, m in res["metrics"].items():
            print(f"  {key:<34} {m['value']:>14.6g} {m['unit']}")
        print("  (genfunc.series.self_s includes the generator bodies of protocols and"
              " coded, e.g. coded._recovery_walk, which run inside dual_sum_truncated)")
    for c in res["checks"]:
        extra = {k: v for k, v in c.items() if k not in ("name", "ok")}
        print(f"check {c['name']}: {'pass' if c['ok'] else 'FAIL'} {json.dumps(extra)}")
    print("env " + json.dumps(res["env"], sort_keys=True))


# ---------------------------------------------------------------------------
# compare and reference modes
# ---------------------------------------------------------------------------

def load_results(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def compare(old_path: str, new_path: str) -> int:
    """Per-workload median ratios (new/old) and analytic Metrics drift."""
    old, new = load_results(old_path), load_results(new_path)
    by = {}
    for side, results in (("old", old), ("new", new)):
        for res in results:
            for k, m in res["metrics"].items():
                by.setdefault((res["workload"], k), {}).setdefault(side, []).append(m["value"])
                by[(res["workload"], k)]["unit"] = m["unit"]
    print(f"{'workload':<14} {'metric':<34} {'old':>12} {'new':>12} {'new/old':>8}  runs")
    for (wl, k), v in sorted(by.items()):
        if "old" not in v or "new" not in v:
            continue
        o, n = statistics.median(v["old"]), statistics.median(v["new"])
        ratio = f"{n / o:8.4f}" if o else "     n/a"
        print(f"{wl:<14} {k:<34} {o:12.6g} {n:12.6g} {ratio}  {len(v['old'])}/{len(v['new'])} {v['unit']}")

    def values(results):
        return {
            (res["workload"], row["point"], f): row[f]
            for res in results for row in res["analytic_values"] for f in REF_FIELDS
        }

    vo, vn = values(old), values(new)
    common = sorted(set(vo) & set(vn))
    moved = [(key, vo[key], vn[key]) for key in common if rel(vo[key], vn[key]) > DRIFT_RTOL]
    print(f"analytic Metrics drift > {DRIFT_RTOL:g} relative: {len(moved)} of {len(common)} values")
    for (wl, point, f), a, b in moved:
        print(f"  {wl} {point} {f}: {a!r} -> {b!r} (rel {rel(a, b):.3g})")
    return 0


def write_reference() -> int:
    gearq = import_gearq()
    capture = Capture()
    out = {}
    with capture.installed(gearq.cli):
        for name in sorted({wl.reference for wl in WORKLOADS.values()}):
            out[name] = {}
            for pt in make_grid(name, 0):
                r = evaluate(gearq, capture, "analytic", pt, 0, 0)
                if r.row["error"]:
                    raise BenchError(f"{name} {pt.key()}: {r.row['error']}")
                out[name][pt.key()] = {f: getattr(r.metrics, f) for f in REF_FIELDS}
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            return setup_probe(args)
        res = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")
    report(res)
    print(f"result {path.relative_to(ROOT)}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
