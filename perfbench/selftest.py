"""The benchmark's own tests.

Run from the repository root (about a minute; not part of the package's
test suite):

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

_traced: dict = {}


def _traced_pair(workload: str) -> list[dict]:
    """Two traced children of one workload at seed 0, run once per session."""
    if workload not in _traced:
        deadline = time.perf_counter() + run.HARD_LIMIT_S
        _traced[workload] = [run.run_child(workload, 0, 1, deadline) for _ in range(2)]
    return _traced[workload]


def test_argv_is_a_function_of_the_seed_alone():
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); import workloads; "
            "print(json.dumps({w: [list(s.argv) for s in workloads.steps(w, 7)] "
            "for w in workloads.WORKLOADS}))")
    fresh = json.loads(subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "123"}).stdout)
    for workload in workloads.WORKLOADS:
        here = [list(step.argv) for step in workloads.steps(workload, 7)]
        assert here == fresh[workload]
        assert here == [list(s.argv) for s in workloads.steps(workload, 7 + workloads.VARIANTS)]
        assert here != [list(s.argv) for s in workloads.steps(workload, 8)]


def test_reference_covers_every_variant():
    reference = run.load_reference()
    assert reference["variants"] == workloads.VARIANTS
    for workload in workloads.WORKLOADS:
        for v in range(workloads.VARIANTS):
            names = [step.name for step in workloads.steps(workload, v)]
            assert sorted(reference["digests"][workload][str(v)]) == sorted(names)


def test_traced_counts_repeat_exactly():
    for workload in workloads.WORKLOADS:
        first, second = (run.layer_metrics(c["layers"]) for c in _traced_pair(workload))
        for key in run._COUNTED:
            assert first[key] == second[key], (workload, key)


def test_traced_outputs_match_the_reference():
    reference = run.load_reference()["digests"]
    for workload in workloads.WORKLOADS:
        for child in _traced_pair(workload):
            assert run.failed_steps(child, reference[workload]["0"]) == []


def test_prokhorov_runs_only_in_the_ensemble_workload():
    counts = {w: run.layer_metrics(_traced_pair(w)[0]["layers"]) for w in workloads.WORKLOADS}
    assert counts["ensemble"]["prokhorov.distance.calls"] > 0
    assert counts["ensemble"]["estimators.profiles_built"] > 0
    assert counts["free-energy"]["prokhorov.distance.calls"] == 0
    assert counts["sampler"]["prokhorov.distance.calls"] == 0
    assert counts["free-energy"]["variational.gibbs_evaluations"] > 0
    assert counts["sampler"]["polymer.sample.draws"] > 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.2)

    def outer():
        time.sleep(0.01)
        tracer.call("inner", inner, (), {})

    tracer.call("outer", outer, (), {})
    # The gap is wide so that scheduler delay on the short sleep cannot close it.
    assert tracer.self_s["inner"] >= 0.2
    assert 0.01 <= tracer.self_s["outer"] < 0.2
    total = tracer.self_s["outer"] + tracer.self_s["inner"]
    assert abs(tracer.total_s["outer"] - total) < 1e-9


def test_missing_callable_is_reported_absent():
    tracer = tracing.Tracer()
    stub = types.ModuleType("gridentropy.stub")
    tracing._wrap_function(tracer, stub, "gone", "layer")
    tracing._wrap_method(tracer, stub, "Gone", "method", "layer")
    assert tracer.absent == ["stub.gone", "stub.Gone.method"]


def test_fails_without_the_program():
    os.makedirs(run.BUILD_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.BUILD_DIR)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sampler", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, then exit non-zero
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    sys.exit(1 if failures else 0)
