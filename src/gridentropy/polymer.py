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

The levels come from ``lattice._level_blocks``, which builds a block
of consecutive levels at a time: their points, predecessor rows and the
labels of every seed in a few array passes, under a byte cap.  Every
DP here reads it, and each block's labels get their tau cells in one
call; the fold itself runs level by level.

The free-energy ladder runs one recursion to the box of its largest
scale and reads every scale as the recursion passes it: a point's value
depends only on its predecessors, so the reads equal one recursion per
scale bit for bit.  A level's geometry (its points and predecessor
rows) is the same for every seed and only its labels are not, so one
recursion carries every seed and every potential at once, over
(potentials, seeds, rows) arrays.  Potentials that share breakpoints
share each edge's cell index, computed once per block.
``gibbs_estimate`` streams the blocks of one potential; a
``LadderPlan`` holds them, so that a search over many potentials (the
conjugate entropy) hashes the labels once and pays only for the folds.

Every DP refuses, with ValueError, a beta and potential whose log
weights could overflow float64 (``_dp_reach``).

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
    _GOLDEN, _MASK, _chain_heads, _level_blocks, _mix_array, _split,
    Direction, Environment, Path, TauFn,
)

__all__ = [
    "DpTable",
    "LadderPlan",
    "gibbs_estimate",
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


def _weights(beta: float | None, cells: np.ndarray) -> np.ndarray:
    """beta times each cell value of a potential (the values when beta is None)."""
    return cells if beta is None else beta * cells


def _edge_terms(prev: np.ndarray, pred: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """prev[..., pred] + weights per (row, axis), over any leading axes.

    ``weights`` is each edge's beta * tau(label).  A missing edge (pred
    -1) gathers the -inf padded onto prev: its NaN label falls in the
    last cell, a finite weight, so the weight cannot mark it.
    """
    pad = np.full(prev.shape[:-1] + (1,), -np.inf)
    return np.concatenate([prev, pad], axis=-1)[..., pred] + weights


def _transfer(dimension: int, levels, beta: float | None, weights: np.ndarray):
    """Yield (points, values) for level 0 and each level of ``levels``.

    ``levels`` yields (points, pred, cell) for levels 1, 2, ... of a
    ``_level_blocks`` plan, one level at a time: cell[..., r, axis] is
    the tau cell of the label of the edge into row r along axis, with
    any leading seed axes.
    weights[..., c] is ``_weights`` of cell c, with any leading member
    axes.  values[..., i], of shape weights.shape[:-1] +
    cell.shape[:-2] + (rows,), is the log partition of the paths from
    the origin to points[i], or their maximal weight when beta is None.
    Each point folds in its predecessors' ``_edge_terms`` in ascending
    axis order with logaddexp (max when beta is None); a missing edge's
    -inf leaves the fold unchanged.  Every operation is elementwise, so
    a member and seed of a batch gets the bits of a DP run on its own.
    """
    fold = np.maximum if beta is None else np.logaddexp
    values = np.zeros(1)
    yield np.zeros((1, dimension), dtype=np.intp), values
    for points, pred, cell in levels:
        terms = _edge_terms(values, pred, weights[..., cell])
        values = functools.reduce(fold, (terms[..., axis] for axis in range(dimension)))
        yield points, values


@dataclass
class DpTable:
    """Level-indexed log-partition (or max-plus) table.

    levels[k] is a float64 array over the level-k points of the box, in
    the lexicographic order of ``_level_blocks``: the log partition
    value of the length-k paths from the origin ending there, or their
    maximal weight when beta is None (max-plus).  The origin entry is
    0.  steps[k - 1] = (pred, label), for k = 1..depth, holds the two
    (rows, D) arrays that built level k, views into the plan's blocks:
    pred[r, axis] is the row in level k-1 of point r minus the unit
    vector along axis (-1 when that leaves the box) and label[r, axis]
    the label of the edge from it (NaN there).  Built in one walk of
    the plan; reproducible bit-for-bit given (environment, tau, beta).
    A beta and tau whose log weights could overflow float64 raise
    ValueError (``_dp_reach``).
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
        _dp_reach(1.0 if beta is None else abs(beta), tau.bound, depth, env.dimension)
        heads = _chain_heads([env.seed], env.dimension)
        steps = []

        def walk():
            for bounds, points, pred, label in _level_blocks(box, depth, heads):
                levels = _split(bounds, points, pred, label[0], tau.cell(label[0]))
                for level_points, level_pred, level_label, cell in levels:
                    steps.append((level_pred, level_label))
                    yield level_points, level_pred, cell

        weights = _weights(beta, tau._cells)
        levels = [values for _, values in _transfer(env.dimension, walk(), beta, weights)]
        return cls(env, tau, beta, kind, levels, steps, endpoint)

    def log_value(self) -> float:
        """Log partition (or, with beta None, maximal weight) of the ensemble."""
        return _total(self.levels[-1], self.beta)


# float64 overflows near 1.8e308.  Every log value and edge term of a
# transfer DP lies within depth * (|beta| * max|tau| + log D) of 0 (beta
# None weighs tau by 1), and the sampler subtracts two of them; a reach
# below 1e300 keeps all of these finite with room to spare.
_DP_REACH_LIMIT = 1e300


def _dp_reach(scale: float, bound: float, depth: int, dimension: int) -> None:
    """Raise ValueError when a DP's log weights could overflow float64.

    ``scale`` is |beta| (1 for max-plus) and ``bound`` the largest
    |tau| the DP weighs.
    """
    reach = depth * (scale * bound + math.log(dimension))
    if not reach < _DP_REACH_LIMIT:
        raise ValueError(f"DP log weights reach {reach:.3g} over {depth} steps, "
                         f"past the float64 range (limit {_DP_REACH_LIMIT:g})")


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


def _ladder_raws(dimension: int, levels, beta: float, weights: np.ndarray,
                 n_ladder: list[int], q: Direction | None, seeds: int) -> np.ndarray:
    """(1/n) log Z at every ladder scale, read from one DP as it passes.

    Returns a (members, seeds, scales) array for the members of
    ``weights`` and the seeds of ``levels``' cells.  With q, the value
    at floor(n q); without, the fold of level n, one (member, seed) row
    at a time.  A point's value depends only on its predecessors, which
    every box containing the point holds alike, so each read equals the
    ``log_value()`` of that scale's ``DpTable.point`` / ``DpTable.level``
    bit for bit.
    """
    reads: dict[int, list[int]] = {}
    for j, n in enumerate(n_ladder):
        reads.setdefault(sum(q.floor_scale(n)) if q is not None else n, []).append(j)
    raws = np.empty((len(weights), seeds, len(n_ladder)))
    for k, (points, values) in enumerate(_transfer(dimension, levels, beta, weights)):
        for j in reads.get(k, ()):
            n = n_ladder[j]
            if q is None:
                for index in np.ndindex(values.shape[:-1]):
                    raws[index + (j,)] = _total(values[index], beta) / n
            else:
                end = np.array(q.floor_scale(n), dtype=np.intp)
                row = np.flatnonzero((points == end).all(axis=1))[0]
                raws[..., j] = values[..., row] / n
    return raws


def _gibbs_batch(seeds: tuple, beta: float, taus: Sequence[TauFn], n_ladder: list[int],
                 q: Direction | None, dimension: int, levels) -> list[EntropyEstimate]:
    """``gibbs_estimate`` of every potential, the seeds and potentials in one DP.

    ``levels(tau)`` yields the (points, pred, cell) levels of the
    ladder's box with tau's cells, for all seeds.  Potentials that share
    breakpoints share cells, so each breakpoint set runs one DP over
    (members, seeds, rows) arrays.
    """
    groups: dict[tuple[float, ...], list[int]] = {}
    for m, tau in enumerate(taus):
        groups.setdefault(tau.breakpoints, []).append(m)
    raws = np.empty((len(taus), len(seeds), len(n_ladder)))
    for members in groups.values():
        weights = _weights(beta, np.array([taus[m]._cells for m in members]))
        raws[members] = _ladder_raws(dimension, levels(taus[members[0]]), beta, weights,
                                     n_ladder, q, len(seeds))
    estimates = []
    for member in raws.tolist():
        rows = [LadderRow(seed, n, beta, raw)
                for seed, seed_raws in zip(seeds, member) for n, raw in zip(n_ladder, seed_raws)]
        fits, value, band = _ladder_fit(rows)
        estimates.append(EntropyEstimate(
            method="gibbs",
            value=value,
            ladder=tuple(rows),
            extrapolated=value,
            band=band,
            diagnostics={"per_seed_fits": dict(zip(seeds, fits))},
        ))
    return estimates


def gibbs_estimate(
    seeds: Sequence[int],
    beta: float,
    tau: TauFn,
    n_ladder: Sequence[int],
    *,
    q: Direction | None = None,
    dimension: int = 2,
) -> EntropyEstimate:
    """Free-energy estimate: per-seed 1/n extrapolation of (1/n) log Z.

    With q given, endpoints are floor(n q) (point-to-point free
    energy); without, all length-n paths (point-to-level).  One DP runs
    every seed at once, to the box of the largest scale, and reads
    every ladder point as it passes, bit-identical to a DP per seed and
    scale.  The levels are streamed a block at a time: each block is
    built and hashed for all seeds, given its cells in one call, folded
    level by level and dropped.  Value is the mean of per-seed
    extrapolations; the band is their half-spread plus the mean fit
    residual.  A beta and tau whose log weights could overflow float64
    raise ValueError (``_dp_reach``).
    """
    seeds = tuple(seeds)
    n_ladder = _ladder_scales(n_ladder)
    if q is not None:
        dimension = q.dimension
    box, depth = _ladder_box(n_ladder, q, dimension)
    _dp_reach(abs(beta), tau.bound, depth, dimension)
    heads = _chain_heads(seeds, dimension)

    def levels(tau: TauFn):
        for bounds, points, pred, label in _level_blocks(box, depth, heads):
            yield from _split(bounds, points, pred, tau.cell(label))

    return _gibbs_batch(seeds, beta, [tau], n_ladder, q, dimension, levels)[0]


class LadderPlan:
    """One free-energy ladder's levels for a set of seeds, held to evaluate many potentials.

    The level blocks of ``_level_blocks`` (geometry and the labels of
    every seed) depend on the seeds, the ladder and q, not on the
    potential; the plan builds them once, and the cells of each
    breakpoint set, one call per block, the first time a potential with
    it is evaluated.  It lives as long as its owner holds it:
    ``conjugate_entropy`` keeps one per call.
    """

    def __init__(self, seeds: Sequence[int], n_ladder: Sequence[int], *,
                 q: Direction | None = None, dimension: int = 2):
        self.seeds = tuple(seeds)
        self.n_ladder = _ladder_scales(n_ladder)
        self.q = q
        self.dimension = q.dimension if q is not None else dimension
        box, self._depth = _ladder_box(self.n_ladder, q, self.dimension)
        heads = _chain_heads(self.seeds, self.dimension)
        self._blocks = list(_level_blocks(box, self._depth, heads))
        self._cells: dict[tuple[float, ...], list[np.ndarray]] = {}

    def _indexed(self, tau: TauFn):
        cells = self._cells.get(tau.breakpoints)
        if cells is None:
            cells = self._cells[tau.breakpoints] = [tau.cell(label) for *_, label in self._blocks]
        for (bounds, points, pred, _), cell in zip(self._blocks, cells):
            yield from _split(bounds, points, pred, cell)

    def estimates(self, beta: float, taus: Sequence[TauFn]) -> list[EntropyEstimate]:
        """``gibbs_estimate`` of each potential, bit for bit, in one batch.

        Raises ValueError when the DP log weights of beta and the
        potentials could overflow float64 (``_dp_reach``).
        """
        _dp_reach(abs(beta), max((tau.bound for tau in taus), default=0.0), self._depth,
                  self.dimension)
        return _gibbs_batch(self.seeds, beta, taus, self.n_ladder, self.q, self.dimension,
                            self._indexed)


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
    weights = _weights(table.beta, table.tau._cells)
    for k, (pred, label) in enumerate(table.steps, 1):
        prev, values = table.levels[k - 1], table.levels[k]
        terms = _edge_terms(prev, pred, weights[table.tau.cell(label)])
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

