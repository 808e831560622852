"""ramanls benchmark: drives the public CLI entry point ``ramanls.cli.main``
in-process, in a closed loop with one client (each operation starts after
the previous one returns), after one untimed warm-up operation.

    python3 perfbench/run.py --workload ls_born --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1     # every workload, as a table;
                                                # rewrites BENCHMARK.json

Run from anywhere inside a checkout: the package is imported from the
checkout's own ``src/``, and the run refuses to start if it resolves
anywhere else.  A run repeats the workload's pass (its fixed list of
operations for the seed) for ``--seconds`` seconds and checks every
output.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes, and prints the
per-layer metrics.  The last stdout line is the result JSON;
the line before it is the run's record (versions, paths, samples).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy

import checks
import tracing
from spec import END_TO_END, PER_LAYER, RUN_SECONDS, write_benchmark_json
from workloads import WORKLOADS, load_pool, out_path, pass_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_CMD = [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import ramanls", str(SRC)]


def git_sha() -> str | None:
    """HEAD of the checkout itself, never of a repository around it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def setup_once() -> float:
    """Seconds from a fresh interpreter's start to ``import ramanls`` done."""
    start = perf_counter()
    # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which rounds every sample up to the next poll.
    subprocess.run(SETUP_CMD, check=True, cwd=ROOT)
    return perf_counter() - start


def require_checkout() -> None:
    if not (SRC / "ramanls" / "__init__.py").is_file():
        sys.exit(f"no ramanls package under {SRC}; run inside a checkout")


def import_package():
    sys.path.insert(0, str(SRC))
    import ramanls
    import ramanls.cli  # noqa: F401  (not imported by the package itself)
    resolved = Path(ramanls.__file__).resolve()
    if SRC not in resolved.parents:
        sys.exit(f"ramanls resolved to {resolved}, outside {SRC}")
    return ramanls


class Runner:
    """Runs operations one at a time and checks each output."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.outdir = workdir / "out"
        self.outdir.mkdir()
        self.tracer = None  # a tracing.Tracer while the traced passes run
        self.latencies: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.max_err = 0.0

    def op(self, entry: dict) -> tuple[float, int, int]:
        """One operation: (latency, data rows, bytes written)."""
        shutil.rmtree(self.outdir)
        self.outdir.mkdir()
        argv = entry["argv"] + [f"--out={out_path(entry, self.outdir)}"]
        start = perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            rc = repr(exc)
        latency = perf_counter() - start
        if self.tracer:
            self.tracer.fold()
        self.attempted += 1
        problems, err, rows, nbytes = (([f"exit {rc}"], float("inf"), 0, 0) if rc != 0
                                       else checks.check_op(entry, self.outdir))
        if math.isfinite(err):  # a missing or unreadable file has no deviation
            self.max_err = max(self.max_err, err)
        if problems:
            self.failed += 1
            self.problems += [f"{entry['argv'][:2]}: {p}" for p in problems]
        return latency, rows, nbytes

    def one_pass(self, ops: list[dict]) -> tuple[float, int, int]:
        """Run the pass once: the sum of its operation latencies, and the
        rows and bytes it wrote."""
        wall = rows = nbytes = 0
        for entry in ops:
            latency, r, b = self.op(entry)
            self.latencies.append(latency)
            wall += latency
            rows += r
            nbytes += b
        return wall, rows, nbytes


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten operations
    beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_workload(args) -> int:
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}")
    require_checkout()
    ramanls = import_package()
    refs = load_pool(args.workload)
    ops = pass_ops(refs, args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sha": git_sha(), "refs_sha": refs["sha"], "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "ramanls": str(Path(ramanls.__file__).resolve()),
        "ops_per_pass": len(ops),
    }
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        runner = Runner(ramanls.cli, Path(tmp))
        runner.op(ops[0])   # warm-up: untimed, but checked and counted
        begin = perf_counter()
        if args.trace:
            # Untraced and traced passes alternate, so that both see the
            # same host states and the overhead is a paired difference.
            tracer = tracing.Tracer()
            plain, traced = [], []
            while not traced or perf_counter() - begin < args.seconds:
                plain.append(runner.one_pass(ops)[0])
                runner.tracer = tracer
                tracer.install(ramanls)
                try:
                    wall, rows, nbytes = runner.one_pass(ops)
                finally:
                    tracer.uninstall()
                    runner.tracer = None
                traced.append(wall)
            metrics = tracer.layer_metrics(len(traced), rows, nbytes)
            metrics |= tracing.scaling_probe(ramanls)
            metrics["trace.overhead_s"] = statistics.median(
                t - p for p, t in zip(plain, traced))
            record |= {"untraced_walls": plain, "traced_walls": traced}
        else:
            # One fresh-interpreter import after every pass, so that the
            # set-up samples span the same stretch of time as the passes.
            setup_once()    # untimed: warms the bytecode and file caches
            walls, setup = [], []
            while not walls or perf_counter() - begin < args.seconds:
                wall, rows, nbytes = runner.one_pass(ops)
                walls.append(wall)
                setup.append(setup_once())
            wall = statistics.median(walls)
            op_tail, pct = tail(runner.latencies)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                "rows_per_s": rows / wall,
                "op_p50_ms": 1e3 * statistics.median(runner.latencies),
                "op_tail_ms": 1e3 * op_tail,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ratio": 1.0 - runner.failed / runner.attempted,
                "max_err": runner.max_err,
            }
            record |= {"walls": walls, "setup_samples": setup,
                       "latencies": runner.latencies,
                       "rows_per_pass": rows, "bytes_per_pass": nbytes,
                       "operations": len(runner.latencies), "tail_percentile": pct}
    units = PER_LAYER if args.trace else {k: v[0] for k, v in END_TO_END.items()}
    record |= {"attempted": runner.attempted, "failed": runner.failed,
               "problems": runner.problems[:20]}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one table, then BENCHMARK.json."""
    status = 0
    print(f"{'workload':<14} {'metric':<12} {'value':>14}  unit")
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", name, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", "0"],
                             capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(f"{name}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        for metric in END_TO_END:
            m = result["metrics"][metric]
            print(f"{name:<14} {metric:<12} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<14} {'correct':<12} {str(result['correct']):>14}  "
              f"({result['failed']}/{result['attempted']} failed)")
    write_benchmark_json(ROOT / "BENCHMARK.json")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
