"""Batch sweep front-end: grids over channel/protocol parameters to CSV.

The sweep config is a flat ``key = value`` text file (lists are
comma-separated); command-line flags override individual keys.  Each
grid point yields one CSV row per evaluation mode with per-packet
throughput figures, and re-running the same config reproduces the file
byte for byte (fixed seeds, 12-significant-digit formatting).
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, replace

from .channel import build_composite, build_half_channel
from .coded import coded_metrics
from .protocols import Metrics, ProtocolParams, harq_metrics, uncoded_metrics
from .sim import SimConfig, pooled_estimate, simulate

COLUMNS = [
    "scheme", "eps", "k", "T", "M", "N", "mode",
    "throughput", "tau_mean", "delay_mean",
    "stderr_throughput", "stderr_delay", "mgf_check", "agree_3sigma", "error",
]


@dataclass(frozen=True)
class SweepConfig:
    """Declarative sweep description (see README for the file schema)."""

    eps: tuple[float, ...]
    T: tuple[int, ...]
    schemes: tuple[str, ...]
    k: int = 5
    r: float = 0.3
    eps_G: float = 0.0
    eps_B: float = 1.0
    M: int = 1
    N: int = 1
    gamma_over_rho_rule: str = "10*eps"
    mode: str = "analytic"
    seeds: tuple[int, ...] = (0,)
    horizon: int = 100_000
    out: str = "sweep.csv"
    tol: float = 1e-12

    def __post_init__(self):
        if self.mode not in ("analytic", "sim", "both"):
            raise ValueError(f"mode must be analytic, sim or both, not {self.mode!r}")
        if self.mode != "analytic" and not self.seeds:
            raise ValueError(f"a {self.mode} sweep needs at least one seed")

    def gamma_over_rho(self, eps: float) -> float:
        rule = self.gamma_over_rho_rule.replace(" ", "")
        if rule.endswith("*eps"):
            return float(rule[:-4]) * eps
        return float(rule)


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the key = value config format; '#' starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = value

    def split(value: str) -> list[str]:
        return [v.strip() for v in value.split(",") if v.strip()]

    known = {
        "eps": lambda v: tuple(float(x) for x in split(v)),
        "T": lambda v: tuple(int(x) for x in split(v)),
        "schemes": lambda v: tuple(split(v)),
        "k": int,
        "r": float,
        "eps_G": float,
        "eps_B": float,
        "M": int,
        "N": int,
        "gamma_over_rho": str,
        "mode": str,
        "seeds": lambda v: tuple(int(x) for x in split(v)),
        "horizon": int,
        "out": str,
        "tol": float,
    }
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        name = "gamma_over_rho_rule" if key == "gamma_over_rho" else key
        try:
            kwargs[name] = known[key](value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    for req in ("eps", "T", "schemes"):
        if req not in kwargs:
            raise ValueError(f"config is missing required key {req!r}")
    return SweepConfig(**kwargs)


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".12g")


def _analytic_point(cfg: SweepConfig, scheme: str, eps: float, T: int) -> Metrics:
    half = build_half_channel(cfg.r, cfg.eps_G, cfg.eps_B, eps)
    ch = build_composite(half, half)
    if scheme == "uncoded":
        return uncoded_metrics(ch, ProtocolParams(k=cfg.k, T=T, scheme="uncoded", series_tol=cfg.tol))
    if scheme == "harq":
        p = ProtocolParams(
            k=cfg.k, T=T, scheme="harq",
            gamma_over_rho=cfg.gamma_over_rho(eps), series_tol=cfg.tol,
        )
        return harq_metrics(ch, p)
    p = ProtocolParams(k=cfg.k, T=T, scheme="coded", M=cfg.M, N=cfg.N, series_tol=cfg.tol)
    return coded_metrics(ch, p)


def _sim_point(cfg: SweepConfig, scheme: str, eps: float, T: int):
    """Pooled per-packet estimates over the configured seeds."""
    half = build_half_channel(cfg.r, cfg.eps_G, cfg.eps_B, eps)
    if scheme == "coded":
        p = ProtocolParams(k=cfg.k, T=T, scheme="coded", M=cfg.M, N=cfg.N, series_tol=cfg.tol)
    elif scheme == "harq":
        p = ProtocolParams(
            k=cfg.k, T=T, scheme="harq",
            gamma_over_rho=cfg.gamma_over_rho(eps), series_tol=cfg.tol,
        )
    else:
        p = ProtocolParams(k=cfg.k, T=T, scheme="uncoded", series_tol=cfg.tol)
    stats = [
        simulate(SimConfig(params=p, fwd=half, rev=half, seed=s, horizon=cfg.horizon))
        for s in cfg.seeds
    ]
    tau_f, tau_se, d_f, d_se = pooled_estimate(stats)
    M = p.M
    tau_pp, tau_pp_se = tau_f / M, tau_se / M
    return {
        "tau_mean": tau_pp,
        "throughput": 1.0 / tau_pp,
        "delay_mean": d_f / M,
        "stderr_tau": tau_pp_se,
        "stderr_throughput": tau_pp_se / tau_pp**2,
        "stderr_delay": d_se / M,
    }


def _evaluate_point(args) -> list[dict]:
    """One grid point -> one or two CSV row dicts (module-level: picklable)."""
    cfg, scheme, eps, T = args
    base = {
        "scheme": scheme, "eps": eps, "k": cfg.k, "T": T,
        "M": cfg.M if scheme == "coded" else 1,
        "N": cfg.N if scheme == "coded" else 1,
    }
    rows = []
    ana = sim = None
    if cfg.mode in ("analytic", "both"):
        row = dict(base, mode="analytic")
        try:
            ana = _analytic_point(cfg, scheme, eps, T)
            row.update(
                throughput=ana.throughput,
                tau_mean=ana.tau_mean,
                delay_mean=ana.delay_mean_per_packet,
                mgf_check=max(ana.mgf_err_tau, ana.mgf_err_delay),
            )
        except Exception as exc:  # per-point failures recorded, sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    if cfg.mode in ("sim", "both"):
        row = dict(base, mode="sim")
        try:
            sim = _sim_point(cfg, scheme, eps, T)
            row.update(
                throughput=sim["throughput"],
                tau_mean=sim["tau_mean"],
                delay_mean=sim["delay_mean"],
                stderr_throughput=sim["stderr_throughput"],
                stderr_delay=sim["stderr_delay"],
            )
            if ana is not None:
                agree = (
                    abs(ana.tau_mean - sim["tau_mean"]) <= 3 * sim["stderr_tau"]
                    and abs(ana.delay_mean_per_packet - sim["delay_mean"])
                    <= 3 * sim["stderr_delay"]
                )
                row["agree_3sigma"] = str(agree)
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> tuple[str, int]:
    """Evaluate the whole grid; returns (csv_text, n_errors).

    Grid points are dispatched to a process pool when jobs > 1; rows are
    emitted in lexicographic grid order either way.
    """
    points = [
        (cfg, scheme, eps, T)
        for scheme in sorted(cfg.schemes)
        for eps in sorted(cfg.eps)
        for T in sorted(cfg.T)
    ]
    if jobs > 1:
        # imported here so that `import gearq` does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_evaluate_point, points))
    else:
        results = [_evaluate_point(pt) for pt in points]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    n_err = 0
    for rows in results:
        for row in rows:
            if row.get("error"):
                n_err += 1
            writer.writerow([_fmt(row.get(col, "")) for col in COLUMNS])
    return buf.getvalue(), n_err


def _load_config(args) -> SweepConfig:
    """The config file's SweepConfig with the command-line overrides applied."""
    with open(args.config, encoding="utf-8") as fh:
        cfg = parse_sweep_config(fh.read())
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.out:
        overrides["out"] = args.out
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.seeds:
        try:
            overrides["seeds"] = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            msg = f"--seeds takes comma-separated integers, not {args.seeds!r}"
            raise ValueError(msg) from None
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gearq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    sweep.add_argument("--config", required=True, help="sweep config file")
    sweep.add_argument("--mode", choices=["analytic", "sim", "both"])
    sweep.add_argument("--out", help="output CSV path (overrides config)")
    sweep.add_argument("--tol", type=float, help="series truncation tolerance")
    sweep.add_argument("--seeds", help="comma-separated seed list")
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)

    # a config error is one line on stderr and status 1; status 2 is
    # kept for grid points that errored
    try:
        cfg = _load_config(args)
    except (OSError, ValueError) as exc:
        print(f"gearq: error: {exc}", file=sys.stderr)
        return 1

    text, n_err = run_sweep(cfg, jobs=args.jobs)
    with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {cfg.out} ({text.count(chr(10)) - 1} rows, {n_err} errors)")
    return 2 if n_err else 0


if __name__ == "__main__":
    sys.exit(main())
