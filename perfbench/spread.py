"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Run from the repository root:

    python3 perfbench/spread.py --seeds 0..9
    python3 perfbench/spread.py --seeds 0..9 --baseline

Runs ``run.py`` once per (workload, seed) with tracing off, as separate
processes, for ``run_seconds`` of ``BENCHMARK.json`` each, on every
workload.  Prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  With ``--baseline`` it also runs one traced run per workload and writes
``perfbench/baseline.json``: the environment, the medians and quartiles
of every end-to-end metric, the traced per-layer metrics, and the table
of which end-to-end metric each layer metric should move on which
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run
import workloads
from record import git_sha

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline.json")

# Layer metric -> (end-to-end metrics it should move, workloads where it should).
ALL = list(workloads.WORKLOADS)
PREDICTIONS = [
    ("lattice.enumerate.self_s", ["wall_s"], ["ensemble"]),
    ("lattice.edge_label.self_s", ["wall_s"], ["ensemble", "sampler"]),
    ("lattice.label_array.self_s", ["wall_s"], ["free-energy"]),
    ("measures.Measure.self_s", ["wall_s"], ["ensemble"]),
    ("prokhorov.distance.self_s", ["wall_s"], ["ensemble"]),
    ("prokhorov.flow_probes", ["wall_s"], ["ensemble"]),
    ("estimators.profiles_built", ["wall_s", "peak_rss_mib"], ["ensemble"]),
    ("estimators.self_s", ["wall_s"], ["ensemble"]),
    ("polymer.partition.self_s", ["wall_s"], ["free-energy"]),
    ("polymer.ns_per_cell", ["wall_s"], ["free-energy"]),
    ("polymer.table.self_s", ["wall_s"], ["sampler"]),
    ("polymer.us_per_draw", ["wall_s"], ["sampler"]),
    ("polymer.last_passage.self_s", ["wall_s"], ["sampler"]),
    ("variational.gibbs_evaluations", ["wall_s"], ["free-energy"]),
    ("variational.conjugate.self_s", ["wall_s"], ["free-energy"]),
    ("variational.bernoulli.self_s", ["wall_s", "peak_rss_mib"], ["free-energy"]),
    ("cli.emit.self_s", ["wall_s"], ALL),
    ("cli.import_s", ["setup_s", "cpu_s"], ALL),
]


def _parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(run.RUN_SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect outputs:\n{done.stdout}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="0..9")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in run._SPEC["end_to_end"]}
    seeds = _parse_seeds(args.seeds)
    summary: dict = {}
    worst = 0.0
    for workload in workloads.WORKLOADS:
        runs = [run_once(workload, seed, 0)["metrics"] for seed in seeds]
        summary[workload] = {}
        for name, bound in bounds.items():
            stats = summarize([r[name]["value"] for r in runs])
            summary[workload][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            worst = max(worst, stats["spread"] / bound)
            print(f"{workload:12s} {name:14s} median {stats['median']:10.4f} "
                  f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}", flush=True)
    print(f"largest spread/bound: {worst:.3f}")

    if args.baseline:
        traced = {w: {name: m["value"] for name, m in
                      run_once(w, seeds[0], 1)["metrics"].items()}
                  for w in summary}
        baseline = {
            "environment": environment(),
            "seconds": run.RUN_SECONDS,
            "seeds": seeds,
            "end_to_end": summary,
            "per_layer": {"seed": seeds[0], "metrics": traced},
            "predictions": [
                {"layer_metric": layer, "moves": e2e, "workloads": names}
                for layer, e2e, names in PREDICTIONS
            ],
        }
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
