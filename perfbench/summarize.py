"""Summarise saved benchmark runs: per workload and metric, the median,
the quartiles and the spread (interquartile distance over the median,
as the acceptance rule computes it).

    python3 perfbench/summarize.py RUN.out ... [--json summary.json]

Each file holds the stdout of one ``run.py`` call (record line, then
result line).
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def summarize(paths: list[Path]) -> dict:
    runs: dict[str, list] = {}
    for path in paths:
        record_line, result_line = path.read_text().splitlines()[-2:]
        record = json.loads(record_line)["record"]
        runs.setdefault(record["workload"], []).append((record, json.loads(result_line)))
    out = {}
    for workload, pairs in sorted(runs.items()):
        metrics = {}
        for name in pairs[0][1]["metrics"]:
            values = [result["metrics"][name]["value"] for _, result in pairs]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else values * 3)
            metrics[name] = {"unit": pairs[0][1]["metrics"][name]["unit"],
                             "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
        out[workload] = {
            "runs": len(pairs),
            "seeds": [record["seed"] for record, _ in pairs],
            "all_correct": all(result["correct"] for _, result in pairs),
            "sha": sorted({str(record["sha"]) for record, _ in pairs}),
            "metrics": metrics,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", type=Path)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    summary = summarize(args.runs)
    for workload, s in summary.items():
        print(f"{workload}: {s['runs']} runs, all correct: {s['all_correct']}")
        for name, m in s["metrics"].items():
            print(f"  {name:<46} {m['median']:>12.6g} {m['unit']:<7} "
                  f"q1 {m['q1']:<11.6g} q3 {m['q3']:<11.6g} spread {m['spread']:.4f}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
