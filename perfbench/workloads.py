"""Workload definitions: why each exists, and how a seed turns its
reference pool into the fixed list of CLI operations one pass runs.

Each workload's pool lives in ``refs/<name>.json`` (written by
``make_refs.py``): a list of operations, each with its argv, the slot
(operation template) it fills, and the stored references its outputs are
checked against.  A pass takes ``slots[slot]`` operations of every slot,
drawn by the seed, plus the pool's anchor -- the operation with the
largest reference deviation at the reference commit -- so that
``max_err`` is the maximum over the same worst case on every seed.  The
seed also shuffles the pass.  A fixed workload runs its pool in order.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

#: name -> why (reason, layers loaded, load model); one line each, as
#: copied into BENCHMARK.json.
WORKLOADS = {
    "ls_born": "Seeded evolve/compare with ls-R/L/S/M, orders 0-2; the O(k n^2) "
               "Born loop dominates. Loads lippmann_schwinger. Closed loop, 1 "
               "client, 1 warm-up op.",
    "paper_figures": "Figure presets 2-6 as a user reproduces the paper; fixed, "
                     "seed-independent. Loads all six modules, LS about half. "
                     "Closed loop, 1 client, 1 warm-up op.",
    "scan": "Seeded sweeps on all four axes and fidelity studies: thousands of "
            "tiny calls, no LS. Loads model, analysis, propagators. Closed loop, "
            "1 client, 1 warm-up op.",
    "long_trace": "Seeded delta=0 traces with the non-LS methods, 1e4-row CSVs; "
                  "the only RK4 path. Loads cli, analysis. Closed loop, 1 client, "
                  "1 warm-up op.",
}


def load_pool(workload: str) -> dict:
    return json.loads((REFS / f"{workload}.json").read_text())


def pass_ops(refs: dict, seed: int) -> list[dict]:
    """The operations of one pass, in order, for this seed."""
    pool = refs["pool"]
    if refs.get("fixed"):
        return list(pool)
    rng = random.Random(seed)
    ops = []
    for slot, count in refs["slots"].items():
        ops += rng.sample([e for e in pool if e["slot"] == slot], count)
    ops.append(max(pool, key=lambda e: e["err"]))
    rng.shuffle(ops)
    return ops


def out_path(entry: dict, outdir: Path) -> Path:
    """Where an operation's ``--out`` points: the directory itself for a
    figure preset, one CSV inside it otherwise."""
    return outdir if entry.get("dir") else outdir / "out.csv"
