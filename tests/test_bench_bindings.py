"""The benchmark's bindings into the package resolve.

perfbench/spans.py wraps the functions named in TRACED, and
perfbench/run.py's Capture wraps four names on gearq.cli.  Both look
them up by name at run time, so an API deletion would break the
benchmark (and its --trace 1 mode) without any import error here.
perfbench/run.py also reads SimStats fields in its simulator rates and
its sim-vs-analytic check, and its analytic check calls the flow graph,
scalarize and Metrics fields.  These tests read perfbench/ and patch
nothing.
"""
import csv
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import gearq
from gearq import ProtocolParams, SimConfig, build_half_channel, simulate, symmetric_composite
from gearq.channel import build_composite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class Recorder:
    """Stands in for gearq.cli: reads pass through, writes are dropped."""

    def __init__(self, target):
        self.__dict__.update(target=target, names=set())

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.target, name)

    def __setattr__(self, name, value):
        self.names.add(name)


def test_traced_functions_resolve():
    spans = load("spans")
    missing = [
        f"{mod}.{fname}"
        for mod, funcs in spans.TRACED.items()
        for fname in funcs
        if not callable(getattr(getattr(gearq, mod, None), fname, None))
    ]
    assert not missing, f"perfbench/spans.py traces names gearq lacks: {missing}"


def test_capture_names_resolve_on_cli():
    run = load("run")
    cli = Recorder(gearq.cli)
    with run.Capture().installed(cli):
        pass
    assert {"uncoded_metrics", "harq_metrics", "coded_metrics", "simulate"} <= cli.names
    assert all(callable(getattr(gearq.cli, name)) for name in cli.names)


SIM_FIELDS = (
    "delivered", "slots_elapsed", "tau_mean_hat", "tau_stderr", "delay_mean_hat", "delay_stderr",
)


def test_sim_stats_fields_read_by_benchmark():
    run = load("run")
    source = (PERFBENCH / "run.py").read_text()
    assert all(re.search(rf"\.{field}\b", source) for field in SIM_FIELDS)

    k, horizon = 5, 2_000
    ch = symmetric_composite(0.3, 0.0, 1.0, 0.0)
    p = ProtocolParams(k=k, T=10)
    st = simulate(SimConfig(params=p, ch=ch, seed=0, horizon=horizon))
    assert st.delivered == horizon
    # model slots, not engine iterations: an error-free packet takes k slots
    assert st.slots_elapsed == k * horizon

    pt = run.Point("uncoded", 0.0, 10, 0.3)
    result = run.PointResult(pt, 0, 1.0, {}, None, [(None, st, 0.5)])
    assert run.sim_rates([result]) == (2 * horizon, 2 * k * horizon, k)
    ana = gearq.uncoded_metrics(ch, p)
    check = run.check_sim([result], {pt: ana})
    assert check["ok"] and check["worst"] == 0.0


def check_points(schemes):
    """perfbench's analytic checks on the r = 0.3, eps = 0.3, T = 10 point of each scheme."""
    run = load("run")
    reference = json.loads((PERFBENCH / "reference_seed0.json").read_text())["analytic-grid"]
    results = []
    for scheme in schemes:
        pt = run.Point(scheme, 0.3, 10, 0.3)
        cfg = run.point_config(gearq, "analytic", pt, 0)
        text, n_err = gearq.cli.run_sweep(cfg)
        assert n_err == 0
        (row,) = csv.DictReader(io.StringIO(text))
        half = build_half_channel(pt.r, run.EPS_G, run.EPS_B, pt.eps)
        kw = {"M": run.M, "N": run.N} if scheme == "coded" else {}
        if scheme == "harq":
            kw["gamma_over_rho"] = cfg.gamma_over_rho(pt.eps)
        p = ProtocolParams(k=run.K, T=pt.T, scheme=scheme, **kw)
        metrics = getattr(gearq, f"{scheme}_metrics")
        ana = metrics(build_composite(half, half), p)
        # what perfbench writes to its result JSON must be built-in floats:
        # a numpy scalar there fails json.dumps and with it the whole run
        for f in run.REF_FIELDS + ("mgf_err_tau", "mgf_err_delay"):
            assert type(getattr(ana, f)) is float, (scheme, f, type(getattr(ana, f)))
        results.append(run.PointResult(pt, 0, 1.0, row, ana, []))
    checks = run.check_analytic(
        gearq, results, {r.point.key(): reference[r.point.key()] for r in results})
    json.dumps(checks)
    assert [c["name"] for c in checks] == ["mgf_check", "flowgraph_oracle", "seed0_reference"]
    assert all(c["ok"] and c["count"] > 0 for c in checks), checks
    return checks


def test_check_analytic_runs_on_one_uncoded_point():
    # mgf_check, the flow-graph oracle (build_uncoded_graph(ch, p, kind),
    # graph_gain, scalarize) and the seed-0 reference, on one real point
    check_points(["uncoded"])


def test_check_analytic_runs_on_one_harq_point():
    # the flow-graph oracle needs the uncoded point; the seed-0 reference
    # (1e-8) then also holds the HARQ series' values
    checks = check_points(["uncoded", "harq"])
    run = load("run")
    assert checks[0]["count"] == 2 and checks[2]["count"] == 2 * len(run.REF_FIELDS)


def test_check_analytic_runs_on_one_coded_point():
    # the coded frame (M = 5, N = 4) against its seed-0 reference entry;
    # the flow-graph oracle, uncoded only, needs the uncoded point
    checks = check_points(["uncoded", "coded"])
    run = load("run")
    assert checks[0]["count"] == 2 and checks[2]["count"] == 2 * len(run.REF_FIELDS)
