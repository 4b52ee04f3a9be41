"""Record the reference output digests of every workload variant.

Run from the repository root, on the commit whose outputs are the
reference (the benchmark then checks every later run against them):

    python3 perfbench/record.py

Runs one untraced child per (workload, variant), refuses to record a step
that failed, runs each workload's variant 0 a second time to confirm the
outputs repeat, and writes ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import run
import workloads


def git_sha() -> str | None:
    """HEAD of the repository the benchmark runs in, when it is a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def record() -> dict:
    digests: dict = {}
    for workload in workloads.WORKLOADS:
        digests[workload] = {}
        for v in range(workloads.VARIANTS):
            child = run.run_child(workload, v, 0, time.perf_counter() + run.HARD_LIMIT_S)
            for step in child["steps"]:
                if step["code"] != 0 or step["error"]:
                    raise SystemExit(f"{workload} variant {v} step {step['name']} failed: "
                                     f"code={step['code']} error={step['error']}")
            digests[workload][str(v)] = {step["name"]: step["digest"] for step in child["steps"]}
            print(f"{workload} variant {v}: {child['wall_s']:.2f} s", flush=True)
        again = run.run_child(workload, 0, 0, time.perf_counter() + run.HARD_LIMIT_S)
        if run.failed_steps(again, digests[workload]["0"]):
            raise SystemExit(f"{workload}: outputs differ between two identical passes")
    return {"variants": workloads.VARIANTS, "commit": git_sha(), "digests": digests}


if __name__ == "__main__":
    run._check_checkout()
    reference = record()
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
