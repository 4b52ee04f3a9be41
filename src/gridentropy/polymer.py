"""Directed polymer layer: partition functions, Gibbs free energy,
last-passage times, and polymer-measure path sampling.

A potential tau turns each edge label into a weight; a path's weight is
the sum over its edges.  The beta-partition function sums exp(beta *
weight) over an ensemble (paths to a fixed endpoint, or all paths of a
fixed length), computed by a level-by-level transfer recursion in log
space.  One recursion serves every dimension: level k is a float64
array over the level-k points of a box (the endpoint's, or the cube of
side n for length-n paths) in lexicographic order, and each point
folds in its predecessors with numpy, axes in ascending order.
``DpTable`` keeps every level; its ``log_value()`` is the partition
function.  ``beta=None`` replaces log-sum-exp with max and drops beta,
giving last-passage times; backward softmax sampling draws paths with
probability exactly proportional to their weight factor.

The free-energy ladder runs one recursion per seed, to the box of its
largest scale, and reads every scale as the recursion passes it: a
point's value depends only on its predecessors, so the reads equal one
recursion per scale bit for bit.  The labels of those levels depend on
the seed and the box alone; ``ladder_levels`` materializes them once so
that a search over many potentials (the conjugate entropy) pays only
for each potential's folds.

A table keeps, beside each level's values, the one walk of the lattice
that computed them: per level, each point's predecessor rows and the
labels of the edges from them.  Last passage backtracks by row through
those arrays.  The sampler reads them once per call into the
cumulative thresholds of each point's backward step; all draws then
step back one level at a time in lockstep, each a threshold comparison
and a row gather in numpy, so many draws cost little more than one.

Sampling randomness is a dedicated counter-based stream per draw,
independent of the environment hash: the polymer measure is a
distribution over paths for a fixed environment, so the two sources
must not mix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import _ladder_scales, EntropyEstimate, LadderRow, extrapolate_ladder
from .lattice import (
    _GOLDEN, _MASK, _level_edges, _mix_array, Direction, Environment, Path, TauFn,
)

__all__ = [
    "DpTable",
    "gibbs_estimate",
    "ladder_levels",
    "last_passage",
    "sample_polymer_paths",
]

_STREAM_TAG = 0x1D872B41A9C3F6E5


def _endpoint(env: Environment, endpoint: Sequence[int]) -> tuple[int, ...]:
    endpoint = tuple(int(c) for c in endpoint)
    if len(endpoint) != env.dimension:
        raise ValueError(f"endpoint {endpoint} has {len(endpoint)} coordinates, "
                         f"need D={env.dimension}")
    if any(c < 0 for c in endpoint):
        raise ValueError(f"endpoint coordinates must be >= 0, got {endpoint}")
    return endpoint


def _edge_terms(prev: np.ndarray, pred: np.ndarray, label: np.ndarray,
                beta: float | None, tau: TauFn) -> np.ndarray:
    """prev[pred] + beta * tau(label) per (row, axis); beta None reads as 1.

    A missing edge (pred -1) gathers the -inf padded onto prev: its NaN
    label maps to a finite cell value, so the label cannot mark it.
    """
    w = tau.apply(label)
    return np.append(prev, -np.inf)[pred] + (w if beta is None else beta * w)


def _transfer(env: Environment, levels, beta: float | None, tau: TauFn):
    """Yield (points, values) for level 0 and each level of ``levels``.

    ``levels`` is ``_level_edges(env, box, depth)`` or a list of its
    items.  values[i] is the log partition of the paths from the origin
    to points[i], or their maximal weight when beta is None.  Each point
    folds in its predecessors' ``_edge_terms`` in ascending axis order
    with logaddexp (max when beta is None); a missing edge's -inf leaves
    the fold unchanged.
    """
    fold = np.maximum if beta is None else np.logaddexp
    values = np.zeros(1)
    yield np.zeros((1, env.dimension), dtype=np.uint64), values
    for points, pred, label in levels:
        values = functools.reduce(fold, _edge_terms(values, pred, label, beta, tau).T)
        yield points, values


@dataclass
class DpTable:
    """Level-indexed log-partition (or max-plus) table.

    levels[k] is a float64 array over the level-k points of the box, in
    the lexicographic order of ``_level_edges``: the log partition
    value of the length-k paths from the origin ending there, or their
    maximal weight when beta is None (max-plus).  The origin entry is
    0.  steps[k - 1] = (pred, label), for k = 1..depth, holds the two
    (rows, D) arrays of ``_level_edges`` that built level k: pred[r,
    axis] is the row in level k-1 of point r minus the unit vector
    along axis (-1 when that leaves the box) and label[r, axis] the
    label of the edge from it (NaN there).  Built in one level walk;
    reproducible bit-for-bit given (environment, tau, beta).
    """

    env: Environment
    tau: TauFn
    beta: float | None
    kind: str
    levels: list[np.ndarray]
    steps: list[tuple[np.ndarray, np.ndarray]]
    endpoint: tuple[int, ...] | None

    @classmethod
    def point(cls, env: Environment, endpoint: Sequence[int], beta: float | None,
              tau: TauFn) -> "DpTable":
        endpoint = _endpoint(env, endpoint)
        return cls._build(env, tau, beta, "point", endpoint, sum(endpoint), endpoint)

    @classmethod
    def level(cls, env: Environment, length: int, beta: float | None, tau: TauFn) -> "DpTable":
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        return cls._build(env, tau, beta, "level", (length,) * env.dimension, length, None)

    @classmethod
    def _build(cls, env, tau, beta, kind, box, depth, endpoint) -> "DpTable":
        steps = []

        def walk():
            for points, pred, label in _level_edges(env, box, depth):
                steps.append((pred, label))
                yield points, pred, label

        levels = [values for _, values in _transfer(env, walk(), beta, tau)]
        return cls(env, tau, beta, kind, levels, steps, endpoint)

    def log_value(self) -> float:
        """Log partition (or, with beta None, maximal weight) of the ensemble."""
        return _total(self.levels[-1], self.beta)


def _total(last: np.ndarray, beta: float | None) -> float:
    """Fold the last level in row order: logaddexp from -inf, or max when beta is None."""
    if beta is None:
        return float(last.max())
    return float(np.logaddexp.reduce(last))


def _ladder_box(n_ladder: Sequence[int], q: Direction | None,
                dimension: int) -> tuple[tuple[int, ...], int]:
    """Box and depth of the one DP that passes every ladder point.

    floor(n q) is coordinatewise nondecreasing in n, so the largest
    scale's endpoint (or cube, for length-n paths) contains them all.
    """
    n_max = max(n_ladder)
    if q is not None:
        box = q.floor_scale(n_max)
        return box, sum(box)
    return (n_max,) * dimension, n_max


def ladder_levels(seeds: Sequence[int], n_ladder: Sequence[int], *,
                  q: Direction | None = None, dimension: int = 2) -> list[list]:
    """Each seed's DP levels for a ladder, materialized once.

    One list of ``_level_edges`` items per seed, to the box of the
    largest scale: the label hashing of ``gibbs_estimate``, which
    depends on (seed, box) and not on the potential.  Pass it as
    ``gibbs_estimate(..., levels=...)`` with the same seeds, ladder and
    q to evaluate many potentials for the price of their folds.
    """
    if q is not None:
        dimension = q.dimension
    box, depth = _ladder_box(_ladder_scales(n_ladder), q, dimension)
    return [list(_level_edges(Environment(seed, dimension), box, depth)) for seed in seeds]


def _ladder_raws(env: Environment, levels, beta: float, tau: TauFn,
                 n_ladder: list[int], q: Direction | None) -> list[float]:
    """(1/n) log Z at every ladder scale, read from one DP as it passes.

    With q, the value at floor(n q); without, the fold of level n.  A
    point's value depends only on its predecessors, which every box
    containing the point holds alike, so each read equals the
    ``log_value()`` of that scale's ``DpTable.point`` / ``DpTable.level``
    bit for bit.
    """
    reads: dict[int, list[int]] = {}
    for n in n_ladder:
        reads.setdefault(sum(q.floor_scale(n)) if q is not None else n, []).append(n)
    raws = {}
    for k, (points, values) in enumerate(_transfer(env, levels, beta, tau)):
        for n in reads.get(k, ()):
            if q is None:
                raws[n] = _total(values, beta) / n
            else:
                end = np.array(q.floor_scale(n), dtype=np.uint64)
                row = np.flatnonzero((points == end).all(axis=1))[0]
                raws[n] = float(values[row]) / n
    return [raws[n] for n in n_ladder]


def gibbs_estimate(
    seeds: Sequence[int],
    beta: float,
    tau: TauFn,
    n_ladder: Sequence[int],
    *,
    q: Direction | None = None,
    dimension: int = 2,
    levels: Sequence[list] | None = None,
) -> EntropyEstimate:
    """Free-energy estimate: per-seed 1/n extrapolation of (1/n) log Z.

    With q given, endpoints are floor(n q) (point-to-point free
    energy); without, all length-n paths (point-to-level).  Each seed
    runs one DP, to the box of the largest scale, and reads every
    ladder point as it passes, bit-identical to a DP per scale.  The
    levels are streamed, unless ``levels`` gives each seed's, as built
    by ``ladder_levels`` for these seeds, ladder and q.  Value is the
    mean of per-seed extrapolations; the band is their half-spread plus
    the mean fit residual.
    """
    n_ladder = _ladder_scales(n_ladder)
    if q is not None:
        dimension = q.dimension
    box, depth = _ladder_box(n_ladder, q, dimension)
    if levels is not None and (len(levels) != len(seeds)
                               or any(len(plan) != depth for plan in levels)):
        raise ValueError(f"levels must hold {depth} levels for each of {len(seeds)} seeds")

    rows = []
    for i, seed in enumerate(seeds):
        env = Environment(seed, dimension)
        plan = _level_edges(env, box, depth) if levels is None else levels[i]
        raws = _ladder_raws(env, plan, beta, tau, n_ladder, q)
        rows.extend(LadderRow(seed, n, beta, raw) for n, raw in zip(n_ladder, raws))

    fits, value, band = _ladder_fit(rows)
    return EntropyEstimate(
        method="gibbs",
        value=value,
        ladder=tuple(rows),
        extrapolated=value,
        band=band,
        diagnostics={"per_seed_fits": dict(zip(seeds, fits))},
    )


def _ladder_fit(rows: Sequence[LadderRow]) -> tuple[tuple[float, ...], float, float]:
    """Per-seed a + b/n fits of a free-energy ladder, their mean and band.

    ``rows`` list each seed's ladder in ascending n, seed after seed, as
    ``gibbs_estimate`` builds them, so a seed's rows end where n falls.
    The value is the mean of the fits; the band is their half-spread
    plus the mean fit residual.
    """
    blocks: list[list[LadderRow]] = []
    for row in rows:
        if not blocks or row.n < blocks[-1][-1].n:
            blocks.append([])
        blocks[-1].append(row)
    fits, resids = zip(*(extrapolate_ladder([row.n for row in block], [row.raw for row in block])
                         for block in blocks))
    value = float(np.mean(fits))
    band = (max(fits) - min(fits)) / 2.0 + float(np.mean(resids))
    return fits, value, band


def last_passage(env: Environment, endpoint: Sequence[int], tau: TauFn) -> tuple[float, Path]:
    """Maximal path weight to the endpoint and one maximizing path.

    Max-plus table plus exact backward reconstruction: the argmax
    predecessor reproduces the stored value bit-for-bit, so no
    tolerance enters.  Ties break toward the lower axis.
    """
    table = DpTable.point(env, endpoint, None, tau)
    levels = table.levels
    steps_rev = []
    row = 0  # the endpoint is the one point of the last level
    for k in range(len(levels) - 1, 0, -1):
        pred, label = table.steps[k - 1]
        target = levels[k].item(row)
        for axis in range(env.dimension):
            src = pred.item(row, axis)
            if src >= 0 and levels[k - 1].item(src) + tau(label.item(row, axis)) == target:
                steps_rev.append(axis)
                row = src
                break
        else:
            raise AssertionError("max-plus backtrack found no predecessor")
    path = Path((0,) * env.dimension, tuple(reversed(steps_rev)))
    return table.log_value(), path


def _stream_bases(rng_seeds: Sequence[int]) -> np.ndarray:
    """The stream base of each draw seed, as a uint64 array.

    The environment's mixer under a distinct domain tag, so no (seed,
    counter) pair can collide with an edge-label chain.
    """
    seeds = np.array([int(seed) & _MASK for seed in rng_seeds], dtype=np.uint64)
    return _mix_array((seeds ^ np.uint64(_STREAM_TAG)) + np.uint64(_GOLDEN))


def _stream_uniforms(bases: np.ndarray, counter: int) -> np.ndarray:
    """The counter-th uniform (counters start at 1) of every stream."""
    state = _mix_array(bases ^ np.uint64((counter * _GOLDEN) & _MASK))
    return (state >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _exp(exponents: np.ndarray) -> np.ndarray:
    """math.exp elementwise: np.exp may differ from it in the last ulp."""
    flat = np.fromiter(map(math.exp, exponents.ravel().tolist()), np.float64, exponents.size)
    return flat.reshape(exponents.shape)


def _step_thresholds(table: DpTable) -> list[np.ndarray]:
    """Per level k = 1..depth: the cumulative step thresholds of each point.

    Read from the table's ``steps``: cum[r, axis] is the running sum,
    over the predecessors u along axes <= axis in ascending order, of
    exp(logZ(u) + beta * tau(label) - logZ(v)): math.exp of the table
    build's own ``_edge_terms``, added one axis at a time.  A missing
    predecessor adds exp(-inf) = 0, so it carries the running sum and is
    never the first threshold a draw falls below.  The last
    predecessor's axis is +inf, which takes every draw that passes the
    earlier ones.
    """
    out = []
    for k, (pred, label) in enumerate(table.steps, 1):
        prev, values = table.levels[k - 1], table.levels[k]
        terms = _edge_terms(prev, pred, label, table.beta, table.tau)
        # cumsum adds left to right, one axis after the other.
        cum = np.cumsum(_exp(terms - values[:, None]), axis=1)
        rows, d = pred.shape
        last = d - 1 - (pred[:, ::-1] >= 0).argmax(axis=1)
        cum[np.arange(rows), last] = np.inf
        out.append(cum)
    return out


def sample_polymer_paths(table: DpTable, rng_seeds: Sequence[int]) -> list[Path]:
    """Draw one path per rng seed with probability exp(beta * weight) / Z.

    Backward sampling on a softmax table, with the table's environment,
    potential and beta: from the endpoint (drawn from the level
    marginal in level mode), each predecessor u of v is chosen with
    probability exp(logZ(u) + beta * tau(label) - logZ(v)), axes in
    ascending order.  The transition thresholds are computed once per
    call; then all draws step back one level at a time together, each
    reading its uniforms from its own counter-based stream.  The paths are
    bit-identical to drawing each seed on its own.
    """
    if table.beta is None:
        raise ValueError("sampling needs a softmax table, built with a beta")
    bases = _stream_bases(rng_seeds)
    depth = len(table.levels) - 1
    counter = 0
    if table.kind == "point":
        rows = np.zeros(len(bases), dtype=np.intp)
    else:
        # cumsum adds left to right (no pairwise summation), one row at a time.
        ends = np.cumsum(_exp(table.levels[-1] - table.log_value()))
        ends[-1] = np.inf
        counter += 1
        # side="right" finds the first end threshold above u.
        rows = np.searchsorted(ends, _stream_uniforms(bases, counter), side="right")
    thresholds = _step_thresholds(table)
    steps = np.empty((len(bases), depth), dtype=np.intp)
    for k in range(depth, 0, -1):
        pred, cum = table.steps[k - 1][0], thresholds[k - 1]
        counter += 1
        u01 = _stream_uniforms(bases, counter)
        axes = (u01[:, None] < cum[rows]).argmax(axis=1)
        steps[:, k - 1] = axes
        rows = pred[rows, axes]
    origin = (0,) * table.env.dimension
    # Zipping the columns builds the step tuples without a list per row,
    # which keeps the peak memory of a large batch down.
    step_tuples = zip(*steps.T.tolist()) if depth else [()] * len(bases)
    return [Path(origin, row) for row in step_tuples]

