"""Measure a trajectory point: every end-to-end metric on every workload over
seeds 1-10, plus one traced run per workload.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json --label "<commit>"

Each run measures for BENCHMARK.json's ``run_seconds``. Runs go one at a
time, seed-major (every workload for seed 1, then seed 2, ...), so drift in
the machine hits all workloads alike. For each metric it
records the median, the quartiles and the spread (quartile distance as a
share of the median) over the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk", "chain", "fanout", "interleave")
SEEDS = list(range(1, 11))
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", default="", help="what was measured, e.g. the commit")
    args = parser.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            result = run(workload, seed, SECONDS, 0)
            results[workload].append(result)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    doc = {
        "label": args.label,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.python_implementation()} {platform.python_version()}",
        "seeds": SEEDS,
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload, rows in results.items():
        metrics = rows[0]["metrics"]
        traced = run(workload, SEEDS[0], SECONDS, 1)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in rows) and traced["correct"],
            "attempted": sum(r["attempted"] for r in rows),
            "failed": sum(r["failed"] for r in rows),
            "end_to_end": {
                name: {"unit": metrics[name]["unit"], **summary([r["metrics"][name]["value"] for r in rows])}
                for name in metrics
            },
            "per_layer": {name: v for name, v in traced["metrics"].items()},
        }
        for name, s in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload:10s} {name:14s} median {s['median']:12.4f}  spread {s['spread']:.4f}")
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
