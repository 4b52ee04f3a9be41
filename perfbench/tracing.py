"""Per-layer spans and counters, installed into gridentropy from outside.

``install()`` wraps the public callables of each layer (``lattice``,
``measures``, ``prokhorov``, ``estimators``, ``polymer``,
``variational``, ``cli``).  A module-level function is replaced in every
``gridentropy`` module namespace that holds it, so a name imported with
``from .prokhorov import prokhorov_distance`` is traced where the caller
looks it up.  Methods are replaced on their class.

Each wrapped call is a span charged to a layer.  A layer's self time is
the span's duration minus the time of the spans it encloses; its
inclusive time counts only outermost spans of that layer.  A callable
that no longer exists is listed in ``Tracer.absent`` and its counters
stay at zero.

Only the traced child process calls ``install()``; untraced runs never
import this module.
"""

from __future__ import annotations

import math
import os
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Span stack plus deterministic counters for one process."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []  # [layer, seconds spent in child spans]
        self.absent: list[str] = []

    def call(self, layer: str, fn, args, kwargs):
        frame = [layer, 0.0]
        self.stack.append(frame)
        self.depth[layer] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.stack.pop()
            self.depth[layer] -= 1
            self.self_s[layer] += elapsed - frame[1]
            if self.depth[layer] == 0:
                self.total_s[layer] += elapsed
            if self.stack:
                self.stack[-1][1] += elapsed

    def caller_layer(self) -> str:
        """Layer of the span that called the innermost open span."""
        return self.stack[-2][0] if len(self.stack) > 1 else "caller"


def _rebind(original, replacement) -> None:
    """Point every gridentropy module global bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gridentropy" or name.startswith("gridentropy.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(tracer: Tracer, module, name: str, layer: str, before=None, after=None):
    original = getattr(module, name, None)
    if original is None:
        tracer.absent.append(f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
        return

    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        result = tracer.call(layer, original, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = original
    _rebind(original, wrapper)


def _wrap_method(tracer: Tracer, module, owner: str, name: str, layer: str | None,
                 before=None, after=None):
    cls = getattr(module, owner, None)
    raw = vars(cls).get(name) if cls is not None else None
    if raw is None:
        tracer.absent.append(f"{module.__name__.rsplit('.', 1)[-1]}.{owner}.{name}")
        return
    is_classmethod = isinstance(raw, classmethod)
    original = raw.__func__ if is_classmethod else raw

    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        if layer is None:
            result = original(*args, **kwargs)
        else:
            result = tracer.call(layer, original, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = original
    setattr(cls, name, classmethod(wrapper) if is_classmethod else wrapper)


def install() -> Tracer:
    """Wrap every traced callable of the imported gridentropy package."""
    import gridentropy.cli as cli
    from gridentropy import estimators, lattice, measures, polymer, prokhorov, variational

    tracer = Tracer()
    counts = tracer.counts

    def counter(key: str, amount=lambda args, kwargs, result: 1):
        def after(args, kwargs, result):
            counts[key] += amount(args, kwargs, result)
        return after

    # lattice: scalar hashing, vectorized hashing, path DFS.
    _wrap_method(tracer, lattice, "Environment", "edge_label", "lattice.edge_label",
                 after=counter("lattice.edge_label.calls"))
    _wrap_method(tracer, lattice, "Environment", "label_array", "lattice.label_array",
                 after=counter("lattice.label_array.labels",
                               lambda args, kwargs, result: len(result)))

    def enumerate_before(args, kwargs):
        # The visitor belongs to the caller of the enumeration, so its
        # time is charged there and the DFS keeps only its own.
        if tracer.depth["estimators"]:
            counts["estimators.profiles_built"] += 1
        visitor = args[2] if len(args) > 2 else kwargs.pop("visitor")

        def traced_visitor(path, labels):
            return tracer.call(tracer.caller_layer(), visitor, (path, labels), {})

        return (*args[:2], traced_visitor, *args[3:]), kwargs

    for name in ("enumerate_paths", "enumerate_level_paths"):
        _wrap_function(tracer, lattice, name, "lattice.enumerate", before=enumerate_before,
                       after=counter("lattice.enumerate.paths",
                                     lambda args, kwargs, result: int(result)))

    # measures: every Measure construction.
    _wrap_method(tracer, measures, "Measure", "__init__", "measures.Measure",
                 after=counter("measures.Measure.calls"))

    # prokhorov: distances, and the flow feasibility probes inside them.
    _wrap_function(tracer, prokhorov, "prokhorov_distance", "prokhorov.distance",
                   after=counter("prokhorov.distance.calls"))
    _wrap_method(tracer, prokhorov, "FlowProblem", "max_flow", None,
                 after=counter("prokhorov.flow_probes"))

    # estimators: ladder-point estimator calls and the estimates built on them.
    for name in ("eps_sum", "eps_sum_level", "order_stat_series"):
        _wrap_function(tracer, estimators, name, "estimators",
                       after=counter("estimators.calls"))
    for name in ("estimate_entropy_eps", "estimate_entropy_orderstats",
                 "estimate_entropy_level", "warm_cache", "cost_sum"):
        _wrap_function(tracer, estimators, name, "estimators")

    # polymer: rolling partition sweeps, stored tables, draws, last passage.
    def partition_counter(cells):
        def after(args, kwargs, result):
            counts["polymer.partition.calls"] += 1
            counts["polymer.partition.cells"] += cells(args[0], args[1])
        return after

    def point_cells(env, endpoint):
        return math.prod(int(c) + 1 for c in endpoint)

    def level_cells(env, length):
        return math.comb(int(length) + env.dimension, env.dimension)

    _wrap_function(tracer, polymer, "log_partition_point", "polymer.partition",
                   after=partition_counter(point_cells))
    _wrap_function(tracer, polymer, "log_partition_level", "polymer.partition",
                   after=partition_counter(level_cells))

    def table_after(args, kwargs, table):
        counts["polymer.table.builds"] += 1
        counts["polymer.table.cells"] += sum(len(level) for level in table.levels)

    for name in ("point", "level"):
        _wrap_method(tracer, polymer, "DpTable", name, "polymer.table", after=table_after)
    _wrap_function(tracer, polymer, "sample_polymer_path", "polymer.sample",
                   after=counter("polymer.sample.draws"))
    _wrap_function(tracer, polymer, "last_passage", "polymer.last_passage")

    def gibbs_after(args, kwargs, result):
        if tracer.depth["variational.conjugate"]:
            counts["variational.gibbs_evaluations"] += 1

    _wrap_function(tracer, polymer, "gibbs_estimate", "polymer.gibbs", after=gibbs_after)

    # variational: the conjugate search and the exact Bernoulli counts.
    _wrap_function(tracer, variational, "conjugate_entropy", "variational.conjugate")
    _wrap_function(tracer, variational, "bernoulli_exponent_check", "variational.bernoulli")

    # cli: artifact emission and the CSV read-back behind SVG plots.
    for name in ("write_csv", "write_json"):
        _wrap_function(tracer, cli, name, "cli.emit",
                       after=counter("cli.emit.bytes",
                                     lambda args, kwargs, result: os.path.getsize(args[0])))
    _wrap_function(tracer, cli, "render_svg", "cli.emit",
                   after=counter("cli.emit.bytes",
                                 lambda args, kwargs, result: len(result.encode("utf-8"))))
    _wrap_function(tracer, cli, "read_csv", "cli.emit")
    return tracer
