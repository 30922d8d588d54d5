"""The benchmark's bindings into the package resolve.

perfbench/spans.py wraps the functions named in TRACED, and
perfbench/run.py's Capture wraps four names on gearq.cli.  Both look
them up by name at run time, so an API deletion would break the
benchmark (and its --trace 1 mode) without any import error here.
These tests read perfbench/ and patch nothing.
"""
import importlib.util
import sys
from pathlib import Path

import gearq

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
