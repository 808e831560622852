"""Per-layer spans, recorded from outside the package.

Each traced function is replaced, in every package module that binds its
name, by a wrapper that records a span (name, tag, start, end, parent).
Wrapping the bindings rather than the defining module matters because
``from .model import spectral_m0sq`` binds the name again in each
consumer, and calls resolve through the consumer's globals; the same
wrapper also catches calls inside the defining module (``iterate`` calling
itself for the M variant, ``spectral_m0sq`` calling ``split_square``).
Spans of one CLI operation are kept in memory and folded into totals when
the operation ends.
"""

from __future__ import annotations

import functools
import math
import statistics
import tracemalloc
from collections import defaultdict
from time import perf_counter

from spec import PER_LAYER

#: Package modules whose bindings are wrapped.
MODULES = ("cli", "analysis", "lippmann_schwinger", "propagators", "model", "numerics")


def _variant(v) -> str:
    return getattr(v, "value", v)


#: (module, function) -> (span name, tag taken from the call's arguments).
TARGETS = {
    ("cli", "main"): ("cli.main", None),
    ("cli", "run"): ("cli.run", None),
    ("analysis", "trace_populations"): ("analysis.trace_populations", lambda a: a[0]),
    **{("analysis", f): ("analysis.scalars", None)
       for f in ("rabi_general", "rabi_ae", "amplitude_p", "delta_resonant_ae",
                 "delta_resonant_lightshift")},
    ("lippmann_schwinger", "iterate"): ("lippmann_schwinger.iterate",
                                        lambda a: (_variant(a[0]), a[2].n, a[3])),
    ("lippmann_schwinger", "apply_normalized"): ("lippmann_schwinger.apply_normalized", None),
    **{("lippmann_schwinger", f): ("lippmann_schwinger.grid", None)
       for f in ("required_intervals", "validate_grid", "auto_grid")},
    ("propagators", "state_table"): ("propagators.state_table", lambda a: len(a[1])),
    ("propagators", "ae_model"): ("propagators.ae_model", None),
    ("model", "spectral_m0sq"): ("model.spectral_m0sq", lambda a: a[0]),
    ("model", "split_square"): ("model.split_square", None),
    ("model", "h_new"): ("model.hamiltonian", None),
    ("model", "h_ae"): ("model.hamiltonian", None),
    ("numerics", "sinc_sqrt"): ("numerics.sinc_sqrt", None),
    ("numerics", "eig_h3"): ("numerics.eig_h3", None),
}


class Tracer:
    """Install with ``install(package)``; ``fold()`` after every operation."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []
        self._restore: list = []
        self.totals: defaultdict[str, float] = defaultdict(float)

    def _wrap(self, name, fn, tag):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[idx] = (name, tag(args) if tag else None, start, end, parent)
        return traced

    def install(self, package) -> None:
        modules = [package] + [getattr(package, m) for m in MODULES]
        wrappers = {}
        for (mod, fname), (name, tag) in TARGETS.items():
            fn = getattr(getattr(package, mod), fname)
            wrappers[id(fn)] = self._wrap(name, fn, tag)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def fold(self) -> None:
        """Add the spans of the operation just finished to the totals."""
        t = self.totals
        child = [0.0] * len(self.spans)
        for name, tag, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        distinct = set()
        for i, (name, tag, start, end, parent) in enumerate(self.spans):
            dur = end - start
            t[f"{name}.calls"] += 1
            t[f"{name}.self_s"] += dur - child[i]
            outer = parent
            while outer >= 0 and self.spans[outer][0] != name:
                outer = self.spans[outer][4]
            if outer < 0:   # not nested in a span of the same name
                t[f"{name}.s"] += dur
            if name == "analysis.trace_populations":
                t[f"analysis.trace.{tag}.s"] += dur
            elif name == "lippmann_schwinger.iterate" and tag[0] != "M":
                t["lippmann_schwinger.iterate.node_orders"] += (tag[1] + 1) * tag[2]
            elif name == "propagators.state_table":
                t["propagators.state_table.rows"] += tag
            elif name == "model.spectral_m0sq":
                distinct.add(tag)
        t["model.spectral_m0sq.distinct"] += len(distinct)
        self.spans.clear()

    def layer_metrics(self, passes: int, rows: int, nbytes: int) -> dict[str, float]:
        """Per-pass value of every per-layer metric; the probe's and the
        overhead read 0 until the caller fills them in."""
        t = {k: v / passes for k, v in self.totals.items()}
        g = lambda k: t.get(k, 0.0)  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        derived = {
            "lippmann_schwinger.iterate.us_per_node_order":
                ratio(1e6 * g("lippmann_schwinger.iterate.s"),
                      g("lippmann_schwinger.iterate.node_orders")),
            "cli.self.s": g("cli.run.self_s"),
            "cli.rows": rows,
            "cli.bytes": nbytes,
            "cli.us_per_row": ratio(1e6 * g("cli.run.self_s"), rows),
            "model.spectral_m0sq.distinct_ratio":
                ratio(g("model.spectral_m0sq.distinct"), g("model.spectral_m0sq.calls")),
        }
        return {name: derived.get(name, g(name)) for name in PER_LAYER}


#: Timed calls per grid size of the scaling probe; the fastest is kept.
PROBE_REPEATS = 3
#: The probe's smallest grid, in figure-4 windows.  Below about four
#: windows the fixed per-call cost flattens the log-log slope.
PROBE_WINDOWS = 4


def scaling_probe(package) -> dict[str, float]:
    """Time ``iterate("R", order 1)`` at the figure-4 point on n, 2n and 4n
    nodes of the figure-4 grid spacing, n being the grid of four
    figure-4 windows (1480 nodes).

    Returns the log-log slope of the fastest time against n, and the
    tracemalloc peak (MB) of an n-node call, measured in a separate call
    so that allocation tracing does not slow the timed ones.
    """
    params = package.RamanParams(400.0, -16.0, 200.0 + 0j, 120.0 + 0j)
    window = 0.25 * PROBE_WINDOWS
    base = package.required_intervals(params, window)
    grids = [package.TimeGrid(t_end=window * m, n=base * m) for m in (1, 2, 4)]
    sizes, times = [], []
    for grid in grids:
        samples = []
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            package.iterate("R", params, grid, 1)
            samples.append(perf_counter() - start)
        sizes.append(math.log(grid.n))
        times.append(math.log(min(samples)))
    slope = statistics.linear_regression(sizes, times).slope
    tracemalloc.start()
    try:
        package.iterate("R", params, grids[0], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"lippmann_schwinger.iterate.scaling_exponent": slope,
            "lippmann_schwinger.iterate.peak_mb": peak / 2**20}
