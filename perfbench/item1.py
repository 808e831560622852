"""Reproduce the baseline table of ROADMAP item 1 on this machine.

    python3 perfbench/item1.py [--out perfbench/baselines/item1.json]

Scenarios: ``import ramanls`` in a fresh interpreter, the figure presets
2-6 and an 801-point sweep each as a CLI subprocess (interpreter start
included), and ``iterate("S")`` in-process at the figure-4 point on
n = 1336 nodes for orders 1 and 2, with the tracemalloc peak of one
further call.  Each record holds the median and min of the repeats.
The ``evolve --dt-end 4000`` row (n = 14740, minutes per call) is left
out; the benchmark's scaling probe stands in for it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy

from run import HERE, ROOT, SRC, git_sha, import_package, require_checkout, setup_once

#: Timed repeats of each scenario, and of each in-process ``iterate`` call.
REPEATS = 5
ITERATE_REPEATS = 3


def timed(fn, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return samples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=HERE / "baselines" / "item1.json")
    args = parser.parse_args()
    require_checkout()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    records = []

    def record(scenario, samples, **extra):
        records.append({"scenario": scenario, **extra, "repeats": len(samples),
                        "median_s": statistics.median(samples), "min_s": min(samples)})
        print(f"{scenario:<28} median {records[-1]['median_s']:.3f} s", flush=True)

    def cli(*argv):   # no timeout, for the reason given in run.setup_once
        subprocess.run([sys.executable, "-m", "ramanls", *argv], check=True,
                       env=env, cwd=ROOT)

    setup_once()    # untimed: writes the bytecode cache
    record("import ramanls", [setup_once() for _ in range(REPEATS)])
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        for fid in ("2", "3", "4", "5", "6"):
            record(f"figure --id {fid}",
                   timed(lambda: cli("figure", f"--id={fid}", f"--out={tmp}"), REPEATS))
        record("sweep, 801 points", timed(lambda: cli(
            "sweep", "--delta-avg=400", "--omega0=200", "--omega1=120", "--axis=delta",
            "--from=-40", "--to=40", "--points=801", "--observable=rabi,amplitude",
            f"--out={tmp}/sweep.csv"), REPEATS), n=801)

    ramanls = import_package()
    params = ramanls.RamanParams(400.0, -16.0, 200.0 + 0j, 120.0 + 0j)
    n = 1336
    mu_max = ramanls.spectral_m0sq(params).mu_max
    grid = ramanls.TimeGrid(t_end=n * ramanls.lippmann_schwinger.GRID_PHASE_LIMIT / mu_max, n=n)
    for order in (1, 2):
        samples = timed(lambda: ramanls.iterate("S", params, grid, order), ITERATE_REPEATS)
        tracemalloc.start()
        ramanls.iterate("S", params, grid, order)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        record(f'iterate("S"), k = {order}', samples, n=n, order=order, variant="S",
               peak_python_mb=peak / 2**20)

    doc = {"sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "machine": platform.machine(), "records": records}
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
