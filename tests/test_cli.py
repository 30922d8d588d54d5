"""Sweep front-end: config parsing, CSV contract, reproducibility."""
import hashlib
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from gearq import cli
from gearq.channel import CompositeChannel, symmetric_composite
from gearq.cli import COLUMNS, SweepConfig, main, parse_sweep_config, run_sweep
from gearq.genfunc import NonConvergenceError

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
    assert parse_sweep_config(BASIC + "gamma_over_rho = 0 * eps\n").gamma_over_rho(0.3) == 0.0
    for rule in ("ten*eps", "-1*eps", "-2", "eps", "nan", "inf*eps", ""):
        with pytest.raises(ValueError, match="gamma_over_rho"):
            parse_sweep_config(BASIC + f"gamma_over_rho = {rule}\n")


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


# sweep.cfg's grid, seed 0, horizon 2,000, as the full-width engine wrote it; "both"
# re-pinned when the ARQ MGF moved to DualMatrix products, which moved mgf_check
# (|phi(1) - 1|, a rounding residual) on 17 analytic rows and no other column
SWEEP_CFG_SHA256 = {
    "sim": "acd51c35df3bc001eeb11bbb5ca9fdc7fc8f3f995b20ccd670ad01e088d706c1",
    "both": "064064c96538221c62f0b737f7aa492fe75ae145d0dde9a7f5b48296f99edd00",
}


@pytest.mark.parametrize("mode", SWEEP_CFG_SHA256)
def test_short_sweep_writes_pinned_bytes(mode):
    # across versions, not only within one tree: an engine or rule change
    # that claims to keep every estimate must keep these files
    text = (Path(__file__).resolve().parent.parent / "sweep.cfg").read_text()
    cfg = parse_sweep_config(text, {"mode": mode, "seeds": "0", "horizon": "2000"})
    csv_text, n_err = run_sweep(cfg)
    assert n_err == 0
    assert hashlib.sha256(csv_text.encode()).hexdigest() == SWEEP_CFG_SHA256[mode]


def test_point_failure_recorded_not_fatal(monkeypatch):
    # every link is admissible (the config checks that), so a point fails
    # only in its evaluation: here the one at eps = 0.5
    real = cli.uncoded_metrics

    def uncoded_metrics(ch, p):
        if ch.fwd.eps == 0.5:
            raise NonConvergenceError("loop gain too close to 1")
        return real(ch, p)

    monkeypatch.setattr(cli, "uncoded_metrics", uncoded_metrics)
    cfg = SweepConfig(eps=(0.3, 0.5), T=(10,), schemes=("uncoded",))
    text, n_err = run_sweep(cfg)
    assert n_err == 1
    rows = [dict(zip(COLUMNS, line.split(","))) for line in text.strip().splitlines()[1:]]
    good = [r for r in rows if not r["error"]]
    bad = [r for r in rows if r["error"]]
    assert len(good) == 1 and len(bad) == 1
    assert bad[0]["eps"] == "0.5"
    assert bad[0]["error"] == "NonConvergenceError: loop gain too close to 1"


def test_both_sweep_builds_one_composite_per_link(monkeypatch):
    # the config check, the analysis and the simulator of every seed
    # share the one cached composite of each link
    built = []
    init = CompositeChannel.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["fwd"].eps)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CompositeChannel, "__init__", counted)
    symmetric_composite.cache_clear()
    cfg = SweepConfig(
        eps=(0.1, 0.2, 0.3), T=(5, 10), schemes=("uncoded", "harq", "coded"), M=2, N=2,
        mode="both", seeds=(0, 1), horizon=1000,
    )
    text, n_err = run_sweep(cfg)
    assert n_err == 0 and text.count("\n") == 1 + 2 * 3 * 2 * 3
    assert sorted(built) == [0.1, 0.2, 0.3]


def test_unknown_scheme_is_a_config_error():
    # named when the config is built, before any grid point runs
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        SweepConfig(eps=(0.3,), T=(10,), schemes=("uncoded", "bogus"))
    with pytest.raises(ValueError, match="unknown scheme 'Coded'"):
        parse_sweep_config(BASIC.replace("schemes = uncoded", "schemes = uncoded, Coded"))


def test_duplicate_config_key_is_named():
    with pytest.raises(ValueError, match="config line 10: duplicate key 'eps'"):
        parse_sweep_config(BASIC + "eps = 0.2\n")


def test_jobs_must_be_positive():
    cfg = SweepConfig(eps=(0.3,), T=(10,), schemes=("uncoded",))
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_sweep(cfg, jobs=jobs)


def test_worker_pool_is_capped_at_the_grid_size(monkeypatch):
    # a fake pool records its size and maps in this process: no worker starts
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = SweepConfig(eps=(0.1, 0.3), T=(5,), schemes=("uncoded", "harq"))
    seq, _ = run_sweep(cfg, jobs=1)
    assert run_sweep(cfg, jobs=5000) == (seq, 0)
    assert run_sweep(cfg, jobs=3) == (seq, 0)
    one = replace(cfg, eps=(0.3,), schemes=("uncoded",))
    run_sweep(one, jobs=8)  # one point: no pool
    assert sizes == [4, 3]


def test_main_exit_codes(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    out = tmp_path / "res.csv"
    cfgfile.write_text(BASIC)
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith(",".join(COLUMNS))

    # an errored grid point: the CSV is written, and the status is not
    # argparse's usage-error status 2.  A link that erases every packet
    # is admissible, but its retransmission loop never drains
    cfgfile.write_text(BASIC.replace("0.1, 0.3", "1.0") + "eps_G = 1\n")
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 3
    assert "NonConvergenceError" in out.read_text()
    with pytest.raises(SystemExit) as usage:
        main(["sweep"])
    assert usage.value.code == 2
    with pytest.raises(SystemExit) as usage:
        main(["sweep", "--config", str(cfgfile), "--jobs", "0"])
    assert usage.value.code == 2


@pytest.mark.parametrize("mode", ["sim", "both"])
def test_sim_sweep_on_a_link_that_erases_every_packet_exits_3(tmp_path, mode):
    # the simulator names the link, as the analysis does, rather than
    # running forever: an error row per point, and status 3
    cfgfile, out = tmp_path / "sweep.cfg", tmp_path / "res.csv"
    cfgfile.write_text(BASIC.replace("0.1, 0.3", "1.0") + "eps_G = 1\n")
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out), "--mode", mode]) == 3
    rows = out.read_text().splitlines()[1:]
    sim_rows = [r for r in rows if ",sim," in r]
    assert len(rows) == (2 if mode == "both" else 1) and len(sim_rows) == 1
    assert "ValueError: the forward link erases every packet" in sim_rows[0]


def test_main_unwritable_out_fails_before_the_grid(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(BASIC)
    out = tmp_path / "missing" / "res.csv"

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid ran before --out was checked")

    monkeypatch.setattr("gearq.cli.run_sweep", no_grid)
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("gearq: error: ")
    assert str(out) in err[0]
    assert not out.parent.exists()


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


def test_python_dash_m_gearq_runs_without_warnings(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cfgfile, out = tmp_path / "sweep.cfg", tmp_path / "out.csv"
    cfgfile.write_text(BASIC)
    # gearq.cli too: the package must not import it before runpy runs it
    for module in ("gearq", "gearq.cli"):
        out.unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", module, "sweep", "--config", str(cfgfile),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, (module, done.stderr)
        assert out.read_text().startswith(",".join(COLUMNS))


def test_main_seed_override(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfgfile.write_text(BASIC.replace("mode = analytic", "mode = sim\nhorizon = 2000"))
    args = ["sweep", "--config", str(cfgfile), "--seeds", "5,6"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


SIM = BASIC.replace("mode = analytic", "mode = sim\nhorizon = 2000")


@pytest.mark.parametrize(
    "config,flags,written",
    [
        (SIM + "seeds =\n", ["--seeds", "3"], SIM + "seeds = 3\n"),
        (SIM.replace("2000", "10"), ["--mode", "analytic"], BASIC + "horizon = 10\n"),
        (SIM, ["--seeds", "0,1,"], SIM + "seeds = 0, 1,\n"),
    ],
    ids=["seeds-fill-an-empty-key", "analytic-ignores-the-horizon", "trailing-comma"],
)
def test_a_flag_writes_what_its_key_writes(tmp_path, config, flags, written):
    # a flag replaces its key's text, and the config is validated once, after it
    (tmp_path / "flag.cfg").write_text(config)
    (tmp_path / "key.cfg").write_text(written)
    for name, extra in (("flag", flags), ("key", [])):
        args = ["--config", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / f"{name}.csv")]
        assert main(["sweep", *args, *extra]) == 0, name
    assert (tmp_path / "flag.csv").read_text() == (tmp_path / "key.csv").read_text()


@pytest.mark.parametrize(
    "config,extra,message",
    [
        (BASIC + "bogus = 1\n", [], "unknown config key 'bogus'"),
        (BASIC.replace("mode = analytic", "mode = fast"), [], "mode must be"),
        (BASIC.replace("mode = analytic", "mode = sim") + "seeds =\n", [], "at least one seed"),
        (BASIC.replace("k = 5", "k = five"), [], "config key 'k'"),
        (BASIC, ["--seeds", "a"], "--seeds"),
        (BASIC + "seeds =\n", ["--mode", "sim"], "at least one seed"),
        (SIM, ["--seeds", ""], "at least one seed"),
        (None, [], "No such file"),
        (BASIC + "gamma_over_rho = ten*eps\n", [], "gamma_over_rho"),
        (BASIC.replace("schemes = uncoded", "schemes = bogus"), [], "unknown scheme 'bogus'"),
        (BASIC + "T = 5\n", [], "config line 10: duplicate key 'T'"),
        (BASIC + "tol = 1e-12\n", [], "unknown config key 'tol'"),
        (BASIC.replace("eps = 0.1, 0.3", "eps ="), [], "'eps' needs at least one value"),
        (BASIC.replace("T = 10", "T ="), [], "'T' needs at least one value"),
        (BASIC.replace("schemes = uncoded", "schemes ="), [], "'schemes' needs at least one value"),
        (BASIC.replace("schemes = uncoded", "schemes = coded, uncoded") + "M = 6\nN = 4\n", [],
         "coded at T = 10: need T >= k >= M >= N >= 1"),
        (BASIC.replace("T = 10", "T = 10, 3"), [], "uncoded at T = 3: need T >= k"),
        (BASIC.replace("mode = analytic", "mode = sim") + "horizon = 10\n", [],
         "horizon must be >= 1000"),
        (BASIC.replace("mode = analytic", "mode = both") + "seeds = 0, -1\n", [], "seed must be >= 0"),
        (BASIC, ["--mode", "sim", "--seeds", "-1"], "seed must be >= 0"),
        (BASIC.replace("eps = 0.1, 0.3", "eps = 0.1, 0.10"), [], "'eps' repeats the value 0.1"),
        (BASIC.replace("T = 10", "T = 5, 5"), [], "'T' repeats the value 5"),
        (BASIC.replace("schemes = uncoded", "schemes = uncoded, uncoded"), [],
         "'schemes' repeats the value uncoded"),
        (BASIC + "seeds = 0, 1, 0\n", [], "'seeds' repeats the value 0"),
        (BASIC, ["--mode", "sim", "--seeds", "0,0"], "'seeds' repeats the value 0"),
        (BASIC.replace("r = 0.3", "r = 1.5"), [], "link at eps = 0.1: r=1.5 is not a probability"),
        (BASIC + "eps_G = 0.5\n", [], "link at eps = 0.1: need eps_G <= eps <= eps_B"),
        (BASIC.replace("eps = 0.1, 0.3", "eps = 0.1, 0.95"), [],
         "link at eps = 0.95: implied q=5.69"),
    ],
    ids=["unknown-key", "bad-mode", "sim-without-seeds", "bad-value", "bad-seeds",
         "sim-override-without-seeds", "empty-seeds-override", "missing-file", "bad-gamma-rule",
         "unknown-scheme", "duplicate-key", "tol-key", "empty-eps", "empty-T", "empty-schemes",
         "bad-frame-shape", "timer-below-rtt", "short-horizon", "negative-seed",
         "negative-seed-override", "repeated-eps", "repeated-T", "repeated-scheme", "repeated-seed",
         "repeated-seed-override", "r-not-a-probability", "eps-below-eps_G", "q-above-one"],
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


def test_readme_config_table_matches_the_parser():
    # the README's key table lists the keys the parser accepts (named by
    # its unknown-key error), each with SweepConfig's default
    import dataclasses
    import re

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    documented = {}
    for row in re.findall(r"^\| `.*\|$", readme, re.M):
        keys_cell, _, default_cell = (c.strip() for c in row.strip("|").split("|"))
        keys, defaults = re.findall(r"`([^`]+)`", keys_cell), re.findall(r"`([^`]+)`", default_cell)
        assert default_cell == "required" or len(defaults) == len(keys), row
        documented.update(zip(keys, defaults or [None] * len(keys)))
    with pytest.raises(ValueError, match="unknown config key 'bogus': keys are ") as err:
        parse_sweep_config(BASIC + "bogus = 1\n")
    assert set(documented) == set(str(err.value).split("keys are ")[1].split(", "))
    minimal = "eps = 0.3\nT = 10\nschemes = uncoded\n"
    fields = {f.name: f for f in dataclasses.fields(SweepConfig)}
    for key, default in documented.items():
        field = fields["gamma_over_rho_rule" if key == "gamma_over_rho" else key]
        if default is None:
            assert field.default is dataclasses.MISSING, key
        else:
            cfg = parse_sweep_config(minimal + f"{key} = {default}\n")
            assert getattr(cfg, field.name) == field.default, key
