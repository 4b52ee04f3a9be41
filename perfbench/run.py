"""gridentropy benchmark: cold-process CLI workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each measurement is a fresh child interpreter (``child.py``) that imports
``gridentropy.cli`` from ``src/`` and runs one pass of the workload's CLI
steps.  Fresh processes matter: the estimator profiles and the free
energies are module-level ``lru_cache`` stores, so a second pass in one
process would time cache hits.  Children run one at a time until
``--seconds`` have passed (at least ``MIN_CHILDREN``), and every metric is
the median over the children of the run.

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
``--trace 0`` reports its ``end_to_end`` metrics.  ``--trace 1``
alternates untraced and traced children and reports its ``per_layer``
metrics from the traced ones; layer counts must repeat exactly between
traced children.  Every step's output digest is checked against
``reference.json``; a step fails when it raises, exits non-zero, or its
digest differs.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in both modes and prints each
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from child import TAG

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
BUILD_DIR = ".bench_build"

MIN_CHILDREN = 3
MIN_TRACED = 2
# Every run ends (or gives up) within this many seconds of its start.
HARD_LIMIT_S = 170.0

# Metric names, units and run length are the ones BENCHMARK.json declares.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
RUN_SECONDS = _SPEC["run_seconds"]

# Tracer counters (units "count" and "bytes") must repeat exactly between
# traced children; "<layer>.self_s" is the self time of the layer's spans.
_COUNTED = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))
_SELF_TIMED = tuple(name[:-len(".self_s")] for name in PER_LAYER if name.endswith(".self_s"))


class BenchmarkError(Exception):
    """The benchmark could not measure: no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GRID_ENTROPY_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join("src", "gridentropy", "cli.py")):
        raise BenchmarkError("run from a gridentropy checkout: src/gridentropy/cli.py is missing")


def _warm_up(deadline: float) -> None:
    """Compile the package's bytecode once, so no child times compilation."""
    code = "import sys; sys.path.insert(0, 'src'); import gridentropy.cli"
    try:
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("importing gridentropy.cli timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"importing gridentropy.cli failed with exit code {done.returncode}")


def run_child(workload: str, seed: int, trace: int, deadline: float) -> dict:
    """One child pass: the child's set-up time, rusage, step and layer report."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="child-", dir=BUILD_DIR)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", workdir,
           "--spawned-at", repr(time.monotonic())]
    try:
        # A fixed hash seed per input variant keeps set and dict orders, and so
        # the work a child does, the same in every child of a run.
        env = {**_child_env(), "PYTHONHASHSEED": str(workloads.variant(seed))}
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} child did not finish before the run limit") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith(TAG)]
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} child exited with code {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    report = json.loads(lines[-1][len(TAG):])
    report["wall_s"] = sum(step["wall_s"] for step in report["steps"])
    return report


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def failed_steps(child: dict, expected: dict | None) -> list[str]:
    """Names of the child's steps that raised, exited non-zero or mismatched."""
    expected = expected or {}
    bad = []
    for step in child["steps"]:
        if step["code"] != 0 or step["error"] or expected.get(step["name"]) != step["digest"]:
            bad.append(step["name"])
    return bad


def layer_metrics(layers: dict) -> dict:
    """Per-layer metric values of one traced child (trace overhead excluded)."""
    counts, self_s, total_s = layers["counts"], layers["self_s"], layers["total_s"]
    out: dict = {key: int(counts.get(key, 0)) for key in _COUNTED}
    out.update({f"{layer}.self_s": float(self_s.get(layer, 0.0)) for layer in _SELF_TIMED})
    distances = out["prokhorov.distance.calls"]
    out["prokhorov.probes_per_distance"] = out["prokhorov.flow_probes"] / distances if distances else 0.0
    calls = out["estimators.calls"]
    out["estimators.profile_hit_ratio"] = 1.0 - out["estimators.profiles_built"] / calls if calls else 0.0
    cells = out["polymer.partition.cells"]
    out["polymer.ns_per_cell"] = total_s.get("polymer.partition", 0.0) * 1e9 / cells if cells else 0.0
    draws = out["polymer.sample.draws"]
    out["polymer.us_per_draw"] = total_s.get("polymer.sample", 0.0) * 1e6 / draws if draws else 0.0
    return out


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one benchmark run and return its result object (plus a summary)."""
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    _check_checkout()
    reference = load_reference()
    expected = reference["digests"].get(workload, {}).get(str(workloads.variant(seed)))
    _warm_up(deadline)
    measure_start = time.perf_counter()

    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while True:
        # Stop before a child that would run past the measuring window.
        elapsed = time.perf_counter() - measure_start
        out_of_time = durations and elapsed + statistics.median(durations) > seconds
        if trace:
            if out_of_time and len(traced) >= MIN_TRACED and plain:
                break
            want_traced = len(traced) < len(plain)
        else:
            if out_of_time and len(plain) >= MIN_CHILDREN:
                break
            want_traced = False
        child_start = time.perf_counter()
        child = run_child(workload, seed, int(want_traced), deadline)
        durations.append(time.perf_counter() - child_start)
        (traced if want_traced else plain).append(child)

    children = plain + traced
    attempted = sum(len(child["steps"]) for child in children)
    bad = [name for child in children for name in failed_steps(child, expected)]
    failed = len(bad)
    notes = []
    if expected is None:
        notes.append(f"no reference digests for {workload} variant {workloads.variant(seed)}")
    if bad:
        notes.append("failed steps: " + ", ".join(sorted(set(bad))))

    if not trace:
        metrics = {name: statistics.median(child[name] for child in plain) for name in END_TO_END}
        units = END_TO_END
        consistent = True
    else:
        per_child = [layer_metrics(child["layers"]) for child in traced]
        consistent = all(
            all(values[key] == per_child[0][key] for key in _COUNTED) for values in per_child
        )
        if not consistent:
            notes.append("layer counts differ between traced children")
        metrics = {}
        for name in PER_LAYER:
            if name in _COUNTED:
                metrics[name] = per_child[0][name]
            elif name == "cli.import_s":
                metrics[name] = statistics.median(child["import_s"] for child in traced)
            elif name == "trace.overhead_s":
                metrics[name] = (statistics.median(child["wall_s"] for child in traced)
                                 - statistics.median(child["wall_s"] for child in plain))
            else:
                metrics[name] = statistics.median(values[name] for values in per_child)
        units = PER_LAYER
        absent = traced[0]["layers"]["absent"]
        if absent:
            notes.append("absent (counted as 0): " + ", ".join(absent))

    return {
        "correct": failed == 0 and expected is not None and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "children": {"plain": len(plain), "traced": len(traced)},
        "notes": notes,
    }


def _print_summary(workload: str, seed: int, trace: int, result: dict) -> None:
    mode = "traced" if trace else "untraced"
    kids = result["children"]
    print(f"# {workload} seed={seed} variant={workloads.variant(seed)} {mode}: "
          f"{kids['plain']} untraced + {kids['traced']} traced children, "
          f"failed {result['failed']}/{result['attempted']} steps")
    for note in result["notes"]:
        print(f"#   {note}")
    for name, metric in result["metrics"].items():
        print(f"#   {name:34s} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    try:
        results = []
        for name in names:
            for trace in modes:
                result = measure(name, args.seed, args.seconds, trace)
                _print_summary(name, args.seed, trace, result)
                results.append(result)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        ok = all(result["correct"] for result in results)
        print(f"# all workloads: failed {sum(r['failed'] for r in results)}/"
              f"{sum(r['attempted'] for r in results)} steps, correct={ok}")
        return 0 if ok else 1
    result = results[0]
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
