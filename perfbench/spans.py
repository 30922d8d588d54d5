"""Outside-in layer timing for gearq: spans recorded around public functions.

The tracer never edits the package.  It replaces each traced public
function with a timing wrapper in every gearq module namespace that
holds it: the defining module, for calls made inside that module, and
each import site (``from .genfunc import dual_mul`` binds ``dual_mul``
in ``protocols`` too).  Calls made through private helpers therefore
land in the self time of the nearest traced caller, and the generator
bodies that feed ``dual_sum_truncated`` (for example
``coded._recovery_walk``) land in ``genfunc.series`` self time.

Spans are kept in memory as columns (name, start, end, parent) and can
be written out with :meth:`Tracer.save`.  Aggregates per span name
(calls, total and self seconds) are kept alongside, per phase, so that
the timed passes and the correctness check can be reported apart.
"""
from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict

# (defining module, function) -> span name.  Layers are the gearq modules.
TRACED = {
    "channel": {
        "build_half_channel": "channel.build",
        "build_composite": "channel.build",
    },
    "genfunc": {
        "dual_term": "genfunc.dual_term",
        "dual_mul": "genfunc.dual_mul",
        "dual_add": "genfunc.dual_add",
        "dual_identity": "genfunc.dual_identity",
        "dual_geo": "genfunc.dual_geo",
        "spectral_radius": "genfunc.spectral_radius",
        "dual_sum_truncated": "genfunc.series",
        "scalarize": "genfunc.scalarize",
    },
    "protocols": {
        "uncoded_metrics": "protocols.uncoded_metrics",
        "harq_metrics": "protocols.harq_metrics",
        "build_arq_mgf": "protocols.build_arq_mgf",
    },
    "coded": {
        "coded_metrics": "coded.coded_metrics",
        "build_coded_mgf": "coded.build_coded_mgf",
        "default_coded_kernel": "coded.default_coded_kernel",
    },
    "flowgraph": {
        "build_uncoded_graph": "flowgraph.build_uncoded_graph",
        "graph_gain": "flowgraph.graph_gain",
        "eliminate_node": "flowgraph.eliminate_node",
    },
    "sim": {
        "simulate": "sim.simulate",
        "pooled_estimate": "sim.pooled_estimate",
    },
    "cli": {
        "run_sweep": "cli.run_sweep",
    },
}
LAYERS = tuple(TRACED)


class Aggregate:
    __slots__ = ("calls", "total", "self", "flops", "terms")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.flops = 0
        self.terms = 0


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.phase = "pass"
        self.agg: dict[str, dict[str, Aggregate]] = defaultdict(lambda: defaultdict(Aggregate))
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches = contextlib.ExitStack()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_call=None):
        """Return fn timed as span `name`; on_call(aggregate, args) counts work."""
        nid = self._id(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            self.start.append(t0)
            self.end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self.end[idx] = t1
                if stack:
                    stack[-1][1] += dur
                a = self.agg[self.phase][name]
                a.calls += 1
                a.total += dur
                a.self += dur - frame[1]
                if on_call is not None:
                    on_call(a, args)

        return traced

    def install(self, package) -> None:
        """Wrap every TRACED function at every gearq module that binds it."""
        modules = [getattr(package, m) for m in LAYERS]
        for mod_name, funcs in TRACED.items():
            home = getattr(package, mod_name)
            for fname, span in funcs.items():
                original = getattr(home, fname)
                wrapper = self._wrapper_for(original, fname, span)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.enter_context(_patched(mod, attr, wrapper))

    def _wrapper_for(self, original, fname: str, span: str):
        if fname == "dual_mul":
            return self.wrap(original, span, on_call=_count_dual_mul_flops)
        if fname == "dual_sum_truncated":
            traced = self.wrap(original, span)

            def series(terms, *args, **kwargs):
                counter = self.agg[self.phase][span]

                def counted():
                    for term in terms:
                        counter.terms += 1
                        yield term

                return traced(counted(), *args, **kwargs)

            return series
        return self.wrap(original, span)

    def uninstall(self) -> None:
        self._patches.close()
        self._patches = contextlib.ExitStack()

    def save(self, path: str) -> int:
        """Write all spans as columns of an .npz file; returns the span count."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        return len(self.start)


def _count_dual_mul_flops(agg: Aggregate, args) -> None:
    # 3 matmuls per dual product (a.val@b.val, a.der@b.val, a.val@b.der),
    # 2*n*m*p flops each; computed from the shapes, not measured.
    n, m = args[0].val.shape
    agg.flops += 6 * n * m * args[1].val.shape[1]


@contextlib.contextmanager
def _patched(module, attr: str, value):
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, original)
