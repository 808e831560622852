"""Metric definitions and the BENCHMARK.json they produce."""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

RUN_SECONDS = 25

#: Every method name ``analysis.trace_populations`` accepts.
TRACE_METHODS = ("exact-ae", "exact-new", "ode", "ae", "delta0", "m0eff",
                 "ls-R", "ls-L", "ls-S", "ls-M")

#: name -> (unit, better, bound).  The bound is the share of the parent's
#: median by which the metric may worsen; set-up time gets the largest.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "rows_per_s": ("rows/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    # The complement of the failed share: a metric that is 0 at the parent
    # has no relative bound.
    "ok_ratio": ("1", "higher", 0.01),
    "max_err": ("1", "lower", 0.05),
}

_COUNT, _S = "count", "s"
PER_LAYER = {
    "lippmann_schwinger.iterate.calls": _COUNT,
    "lippmann_schwinger.iterate.s": _S,
    "lippmann_schwinger.iterate.self_s": _S,
    "lippmann_schwinger.iterate.node_orders": _COUNT,
    "lippmann_schwinger.iterate.us_per_node_order": "us",
    "lippmann_schwinger.iterate.scaling_exponent": "1",
    "lippmann_schwinger.iterate.peak_mb": "MB",
    "lippmann_schwinger.apply_normalized.calls": _COUNT,
    "lippmann_schwinger.apply_normalized.s": _S,
    "lippmann_schwinger.grid.calls": _COUNT,
    "cli.main.calls": _COUNT,
    "cli.main.s": _S,
    "cli.self.s": _S,
    "cli.rows": "rows",
    "cli.bytes": "bytes",
    "cli.us_per_row": "us",
    "analysis.trace_populations.calls": _COUNT,
    "analysis.trace_populations.self_s": _S,
    **{f"analysis.trace.{m}.s": _S for m in TRACE_METHODS},
    "analysis.scalars.calls": _COUNT,
    "analysis.scalars.s": _S,
    "propagators.state_table.calls": _COUNT,
    "propagators.state_table.s": _S,
    "propagators.state_table.rows": "rows",
    "propagators.ae_model.calls": _COUNT,
    "propagators.ae_model.s": _S,
    "model.spectral_m0sq.calls": _COUNT,
    "model.spectral_m0sq.s": _S,
    "model.spectral_m0sq.distinct_ratio": "1",
    "model.split_square.calls": _COUNT,
    "model.split_square.s": _S,
    "model.hamiltonian.calls": _COUNT,
    "numerics.sinc_sqrt.calls": _COUNT,
    "numerics.sinc_sqrt.s": _S,
    "numerics.eig_h3.calls": _COUNT,
    "numerics.eig_h3.s": _S,
    "trace.overhead_s": _S,
}


def write_benchmark_json(path: Path) -> None:
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)}
                      for n, u in PER_LAYER.items()],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _better(name: str) -> str:
    """Work counts and the useful-work ratio read higher-is-better; calls,
    times and memory lower."""
    work = ("distinct_ratio", "node_orders", "rows", "bytes")
    return "higher" if name.endswith(work) else "lower"
