"""Batch sweep front-end: grids over channel/protocol parameters to CSV.

The sweep config is a flat ``key = value`` text file (lists are
comma-separated); the --mode, --out and --seeds flags replace their keys'
text before it is parsed and validated once.  Each grid point yields one
CSV row per evaluation mode with per-packet throughput figures, and
re-running the same config reproduces the file byte for byte (fixed
seeds, 12-significant-digit formatting).
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass

from .channel import symmetric_composite
from .coded import coded_metrics
from .protocols import SCHEMES, ProtocolParams, harq_metrics, uncoded_metrics
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

    def __post_init__(self):
        for name in ("eps", "T", "schemes"):
            if not getattr(self, name):
                raise ValueError(f"{name!r} needs at least one value")
        for name in ("eps", "T", "schemes", "seeds"):
            values = getattr(self, name)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name!r} repeats the value {value}")
        unknown = [s for s in self.schemes if s not in SCHEMES]
        if unknown:
            raise ValueError(f"unknown scheme {unknown[0]!r}: schemes are {', '.join(SCHEMES)}")
        if self.mode not in ("analytic", "sim", "both"):
            raise ValueError(f"mode must be analytic, sim or both, not {self.mode!r}")
        if self.mode != "analytic":
            if not self.seeds:
                raise ValueError(f"a {self.mode} sweep needs at least one seed")
            for seed in self.seeds:
                SimConfig.check(seed, self.horizon)
        try:
            ok = 0.0 <= self.gamma_over_rho(1.0) < math.inf
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(
                "gamma_over_rho must be a number or '<c>*eps' with c >= 0, "
                f"not {self.gamma_over_rho_rule!r}"
            )
        for eps in self.eps:  # every grid link, built once: the sweep reads the cache
            try:
                symmetric_composite(self.r, self.eps_G, self.eps_B, eps)
            except ValueError as exc:
                raise ValueError(f"link at eps = {eps}: {exc}") from None
        for scheme in self.schemes:  # every grid point's timer and frame shape
            for T in self.T:
                try:
                    _params(self, scheme, 0.0, T)
                except ValueError as exc:
                    raise ValueError(f"{scheme} at T = {T}: {exc}") from None

    def gamma_over_rho(self, eps: float) -> float:
        rule = self.gamma_over_rho_rule.replace(" ", "")
        if rule.endswith("*eps"):
            return float(rule[:-4]) * eps
        return float(rule)


def parse_sweep_config(text: str, flags: dict[str, str] | None = None) -> SweepConfig:
    """Parse the key = value config format; '#' starts a comment.  flags
    (key -> text) replace the file's keys, and their errors name --key."""
    flags = flags or {}
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value
    raw.update(flags)

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
    }
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}: keys are {', '.join(known)}")
        name = "gamma_over_rho_rule" if key == "gamma_over_rho" else key
        try:
            kwargs[name] = known[key](value)
        except ValueError as exc:
            source = f"--{key}" if key in flags else f"config key {key!r}"
            raise ValueError(f"{source}: {exc}") from None
    for req in ("eps", "T", "schemes"):
        if req not in kwargs:
            raise ValueError(f"config is missing required key {req!r}")
    return SweepConfig(**kwargs)


def _fmt(x) -> str:
    return x if isinstance(x, str) else format(float(x), ".12g")


def _params(cfg: SweepConfig, scheme: str, eps: float, T: int) -> ProtocolParams:
    """The grid point's protocol: harq combines at gamma/rho(eps), coded
    frames are M packets of which N decode."""
    if scheme == "coded":
        return ProtocolParams(k=cfg.k, T=T, scheme=scheme, M=cfg.M, N=cfg.N)
    g = cfg.gamma_over_rho(eps) if scheme == "harq" else 0.0
    return ProtocolParams(k=cfg.k, T=T, scheme=scheme, gamma_over_rho=g)


def _evaluate_point(args) -> list[dict]:
    """One grid point -> one or two CSV row dicts (module-level: picklable).

    Analytic rows call the scheme's *_metrics function, looked up in this
    module's namespace at call time; sim rows pool the per-packet
    estimates of the configured seeds.
    """
    cfg, scheme, eps, T = args
    ch = symmetric_composite(cfg.r, cfg.eps_G, cfg.eps_B, eps)
    p = _params(cfg, scheme, eps, T)
    base = {"scheme": scheme, "eps": eps, "k": p.k, "T": T, "M": p.M, "N": p.N}
    rows = []
    ana = None
    if cfg.mode in ("analytic", "both"):
        row = dict(base, mode="analytic")
        try:
            ana = globals()[f"{scheme}_metrics"](ch, p)  # uncoded_, harq_ or coded_metrics
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
            runs = [SimConfig(params=p, ch=ch, seed=s, horizon=cfg.horizon) for s in cfg.seeds]
            pooled = pooled_estimate([simulate(run) for run in runs])
            tau, tau_se, delay, delay_se = (x / p.M for x in pooled)
            row.update(
                throughput=1.0 / tau,
                tau_mean=tau,
                delay_mean=delay,
                stderr_throughput=tau_se / tau**2,
                stderr_delay=delay_se,
            )
            if ana is not None:
                agree = (
                    abs(ana.tau_mean - tau) <= 3 * tau_se
                    and abs(ana.delay_mean_per_packet - delay) <= 3 * delay_se
                )
                row["agree_3sigma"] = str(agree)
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> tuple[str, int]:
    """Evaluate the whole grid; returns (csv_text, n_errors).

    Grid points are dispatched to a process pool of min(jobs, points)
    workers when that is more than one; rows are emitted in lexicographic
    grid order either way.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    points = [
        (cfg, scheme, eps, T)
        for scheme in sorted(cfg.schemes)
        for eps in sorted(cfg.eps)
        for T in sorted(cfg.T)
    ]
    workers = min(jobs, len(points))
    if workers > 1:
        # imported here so that `import gearq` does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gearq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    sweep.add_argument("--config", required=True, help="sweep config file")
    sweep.add_argument("--mode", choices=["analytic", "sim", "both"])
    sweep.add_argument("--out", help="output CSV path (overrides config)")
    sweep.add_argument("--seeds", help="seed list (overrides config)")
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        sweep.error("--jobs must be >= 1")

    # a config error or an unwritable output is one line on stderr and
    # status 1, before any grid point runs; status 3 means some grid
    # points errored (argparse's usage errors are status 2)
    flags = {key: v for key in ("mode", "out", "seeds") if (v := getattr(args, key)) is not None}
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_sweep_config(fh.read(), flags)
        fh = open(cfg.out, "w", encoding="utf-8", newline="")
    except (OSError, ValueError) as exc:
        print(f"gearq: error: {exc}", file=sys.stderr)
        return 1

    with fh:
        text, n_err = run_sweep(cfg, jobs=args.jobs)
        fh.write(text)
    print(f"wrote {cfg.out} ({text.count(chr(10)) - 1} rows, {n_err} errors)")
    return 3 if n_err else 0


if __name__ == "__main__":
    sys.exit(main())
