"""Throughput and delay of selective-repeat ARQ over Gilbert-Elliott links.

Analytic matrix-MGF evaluation, a matrix signal-flow-graph engine, and a
slot-level Monte Carlo simulator for three retransmission schemes
(uncoded, feedback soft combining, MDS-coded frames) over two-state
Markov erasure channels with unreliable cumulative feedback.
"""
import importlib

from .channel import (
    CompositeChannel,
    DegenerateChainError,
    HalfChannel,
    ParameterError,
    build_composite,
    build_half_channel,
    symmetric_composite,
)
from .genfunc import (
    DualMatrix,
    ImproperMGFError,
    NonConvergenceError,
    dual_add,
    dual_geo,
    dual_identity,
    dual_mul,
    dual_sum_truncated,
    dual_term,
    scalarize,
    spectral_radius,
)
from .protocols import (
    AttemptModel,
    Metrics,
    ProtocolParams,
    attempt_model_for,
    build_arq_mgf,
    harq_metrics,
    uncoded_metrics,
)
from .coded import (
    CodedKernel,
    build_coded_mgf,
    coded_metrics,
    default_coded_kernel,
)
from .flowgraph import (
    FlowGraph,
    GraphError,
    build_uncoded_graph,
    eliminate_node,
    graph_gain,
)
from .sim import SimConfig, SimStats, pooled_estimate, simulate

__version__ = "0.1.0"


def __getattr__(name):  # cli loads on first use: ``python -m gearq.cli`` runs it fresh
    if name in ("cli", "SweepConfig", "parse_sweep_config", "run_sweep"):
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
