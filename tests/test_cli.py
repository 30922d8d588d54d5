"""Sweep front-end: config parsing, CSV contract, reproducibility."""
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from gearq.cli import COLUMNS, SweepConfig, main, parse_sweep_config, run_sweep

BASIC = """
# comment line
eps = 0.1, 0.3
T = 10
k = 5
r = 0.3
schemes = uncoded
mode = analytic
out = out.csv
"""


def test_parse_basic():
    cfg = parse_sweep_config(BASIC)
    assert cfg.eps == (0.1, 0.3)
    assert cfg.T == (10,)
    assert cfg.schemes == ("uncoded",)
    assert cfg.mode == "analytic"
    assert cfg.seeds == (0,)


def test_parse_rejects_unknown_and_missing():
    with pytest.raises(ValueError):
        parse_sweep_config("eps = 0.1\nT = 5\nschemes = uncoded\nbogus = 1")
    with pytest.raises(ValueError):
        parse_sweep_config("eps = 0.1\nT = 5")
    with pytest.raises(ValueError):
        parse_sweep_config("eps 0.1")


def test_sim_sweep_needs_a_seed():
    cfg = parse_sweep_config(BASIC + "seeds =\n")
    assert cfg.seeds == ()  # an analytic sweep draws no seeds
    with pytest.raises(ValueError, match="at least one seed"):
        parse_sweep_config(BASIC.replace("mode = analytic", "mode = sim") + "seeds =\n")
    with pytest.raises(ValueError, match="at least one seed"):
        replace(cfg, mode="both")


def test_gamma_rule():
    cfg = parse_sweep_config(BASIC + "gamma_over_rho = 10*eps\n")
    assert cfg.gamma_over_rho(0.3) == pytest.approx(3.0)
    cfg2 = parse_sweep_config(BASIC + "gamma_over_rho = 2.5\n")
    assert cfg2.gamma_over_rho(0.3) == pytest.approx(2.5)


def test_error_free_row():
    cfg = SweepConfig(eps=(0.0,), T=(5,), schemes=("uncoded",))
    text, n_err = run_sweep(cfg)
    assert n_err == 0
    header, row = text.strip().splitlines()
    assert header == ",".join(COLUMNS)
    fields = dict(zip(COLUMNS, row.split(",")))
    assert float(fields["throughput"]) == pytest.approx(1.0, abs=1e-12)
    assert float(fields["delay_mean"]) == pytest.approx(5.0, abs=1e-12)


def test_rows_in_lexicographic_order_and_both_mode():
    cfg = SweepConfig(
        eps=(0.3, 0.1), T=(10, 5), schemes=("uncoded",),
        mode="both", seeds=(0, 1), horizon=2000,
    )
    text, n_err = run_sweep(cfg)
    assert n_err == 0
    rows = [dict(zip(COLUMNS, line.split(","))) for line in text.strip().splitlines()[1:]]
    keys = [(r["scheme"], float(r["eps"]), int(r["T"]), r["mode"]) for r in rows]
    assert keys == sorted(keys)
    sim_rows = [r for r in rows if r["mode"] == "sim"]
    assert sim_rows and all(r["agree_3sigma"] in ("True", "False") for r in sim_rows)


def test_single_seed_sim_rows_have_finite_stderr():
    cfg = SweepConfig(
        eps=(0.3,), T=(10,), schemes=("uncoded", "coded"), M=5, N=4,
        mode="both", seeds=(0,), horizon=2000,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text, n_err = run_sweep(cfg)
    assert n_err == 0
    rows = [dict(zip(COLUMNS, line.split(","))) for line in text.strip().splitlines()[1:]]
    sim_rows = [r for r in rows if r["mode"] == "sim"]
    assert len(sim_rows) == 2
    for r in sim_rows:
        assert math.isfinite(float(r["stderr_throughput"])) and float(r["stderr_throughput"]) > 0
        assert math.isfinite(float(r["stderr_delay"])) and float(r["stderr_delay"]) > 0
        assert r["agree_3sigma"] in ("True", "False")


def test_reproducible_byte_identical():
    cfg = SweepConfig(
        eps=(0.2,), T=(10,), schemes=("uncoded", "coded"), M=5, N=4,
        mode="both", seeds=(3, 4), horizon=2000,
    )
    t1, _ = run_sweep(cfg)
    t2, _ = run_sweep(cfg)
    assert t1 == t2


def test_point_failure_recorded_not_fatal():
    # eps beyond the representable range: q > 1 at that grid point
    cfg = SweepConfig(eps=(0.3, 0.95), T=(10,), schemes=("uncoded",))
    text, n_err = run_sweep(cfg)
    assert n_err == 1
    rows = [dict(zip(COLUMNS, line.split(","))) for line in text.strip().splitlines()[1:]]
    good = [r for r in rows if not r["error"]]
    bad = [r for r in rows if r["error"]]
    assert len(good) == 1 and len(bad) == 1
    assert "ParameterError" in bad[0]["error"]


def test_main_exit_codes(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    out = tmp_path / "res.csv"
    cfgfile.write_text(BASIC)
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith(",".join(COLUMNS))

    cfgfile.write_text(BASIC.replace("0.1, 0.3", "0.1, 0.97"))
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 2


def test_cross_validation_sweep_agrees():
    # deterministic cross-validation grid: every sim row flags agreement
    cfg = SweepConfig(
        eps=(0.1, 0.3, 0.5), T=(5, 10), schemes=("uncoded", "harq"),
        mode="both", seeds=tuple(range(8)), horizon=25_000,
    )
    text, n_err = run_sweep(cfg)
    assert n_err == 0
    rows = [dict(zip(COLUMNS, line.split(","))) for line in text.strip().splitlines()[1:]]
    sim_rows = [r for r in rows if r["mode"] == "sim"]
    assert len(sim_rows) == 12
    assert all(r["agree_3sigma"] == "True" for r in sim_rows)


def test_worker_pool_matches_sequential():
    cfg = SweepConfig(
        eps=(0.1, 0.3), T=(5,), schemes=("uncoded", "harq"),
        mode="analytic",
    )
    seq, _ = run_sweep(cfg, jobs=1)
    par, _ = run_sweep(cfg, jobs=2)
    assert seq == par


def test_import_does_not_load_process_pool():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys, gearq; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_main_seed_and_tol_overrides(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfgfile.write_text(BASIC.replace("mode = analytic", "mode = sim\nhorizon = 2000"))
    args = ["sweep", "--config", str(cfgfile), "--seeds", "5,6", "--tol", "1e-13"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize(
    "config,extra,message",
    [
        (BASIC + "bogus = 1\n", [], "unknown config key 'bogus'"),
        (BASIC.replace("mode = analytic", "mode = fast"), [], "mode must be"),
        (BASIC.replace("mode = analytic", "mode = sim") + "seeds =\n", [], "at least one seed"),
        (BASIC + "k = five\n", [], "config key 'k'"),
        (BASIC, ["--seeds", "a"], "--seeds"),
        (BASIC + "seeds =\n", ["--mode", "sim"], "at least one seed"),
        (None, [], "No such file"),
    ],
    ids=["unknown-key", "bad-mode", "sim-without-seeds", "bad-value", "bad-seeds",
         "sim-override-without-seeds", "missing-file"],
)
def test_main_config_errors_are_one_line(tmp_path, capsys, config, extra, message):
    cfgfile = tmp_path / "sweep.cfg"
    out = tmp_path / "res.csv"
    if config is not None:
        cfgfile.write_text(config)
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(out), *extra])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("gearq: error: ")
    assert message in err[0]
    assert not out.exists()
