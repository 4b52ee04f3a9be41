"""One workload pass in a fresh interpreter.

Usage (started by run.py, cwd = the repository root):

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --workdir DIR \
        --spawned-at T

Imports ``gridentropy.cli`` from ``src/`` once, then calls
``cli.main(argv)`` for each step of the workload inside DIR with stdout
captured.  Each step's digest is the SHA-256 over its captured stdout
and the bytes of every artifact it wrote.  T is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux), so set-up time runs from spawn to the end of the
import.  The report is one line on the real stdout, prefixed with
``PERFBENCH``: set-up time, CPU time (reaped workers included) and peak
RSS from ``getrusage``, per-step results, and the layer counters when
traced.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import workloads

TAG = "PERFBENCH "


def _digest(stdout: str, artifacts) -> str:
    h = hashlib.sha256()
    h.update(b"stdout\0" + stdout.encode("utf-8") + b"\0")
    for name in artifacts:
        h.update(name.encode("utf-8") + b"\0")
        try:
            with open(name, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def _run_step(cli, step: workloads.Step) -> dict:
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(list(step.argv))
    except SystemExit as exc:  # argparse rejects an argv by exiting
        code = exc.code if isinstance(exc.code, int) else 1
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a failed step is counted, not fatal
        code = None
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return {
        "name": step.name,
        "code": code,
        "error": error,
        "wall_s": wall,
        "digest": _digest(captured.getvalue(), step.artifacts),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import gridentropy.cli as cli

    import_s = time.perf_counter() - start
    setup_s = time.monotonic() - args.spawned_at
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
        print(f"gridentropy imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()

    os.chdir(args.workdir)
    results = [_run_step(cli, step) for step in workloads.steps(args.workload, args.seed)]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # Worker processes a step started and reaped count towards CPU time too.
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    payload = {
        "setup_s": setup_s,
        "import_s": import_s,
        "cpu_s": usage.ru_utime + usage.ru_stime + reaped.ru_utime + reaped.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "steps": results,
    }
    if tracer is not None:
        payload["layers"] = {
            "counts": dict(tracer.counts),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "absent": tracer.absent,
        }
    sys.__stdout__.write(TAG + json.dumps(payload) + "\n")
    sys.__stdout__.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
