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
labels of every seed (as the hash's 53-bit integers) in a few array
passes, under a byte cap.  Every DP here reads it, one level at a time,
and passes it the cell function that reads each block's labels in one
exact integer pass; no DP sees the labels themselves.  For a potential
that is ``TauFn.cell``: a shift to the label's top j bits when the
cells are the 2^j equal cells of width 2^-j (identity:16, the default
conjugate family, constant potentials), a binary search over the cell
floors otherwise.

The free-energy ladder runs one recursion to the box of its largest
scale and reads every scale as the recursion passes it: a point's value
depends only on its predecessors, so the reads equal one recursion per
scale bit for bit.  A level's geometry (its points and predecessor
rows) is the same for every seed and only its labels are not, so one
recursion carries every seed and every potential at once, over
(potentials, seeds, rows) arrays.  Potentials that share breakpoints
share each edge's cell index, computed once per block.
``gibbs_estimate`` streams the levels of one potential;
``variational.conjugate_entropy`` holds the levels of each breakpoint
set it meets, so that a search over many potentials hashes the labels
once and pays only for the folds.

Every DP passes one gate, ``_dp_box``, before any level is built: it
refuses, with ValueError, an ensemble that is not one, a box whose
level points int64 cannot index, and a beta and potential whose log
weights could overflow float64.

A table keeps, beside each level's values, what its one walk of the
lattice folded: per level, each point's predecessor rows and edge terms
(predecessor value plus edge weight).  Last passage backtracks by row
along the first axis whose term is the point's value.  The sampler
reads them once per call into the cumulative thresholds of each
point's backward step; all draws then step back one level at a time
in lockstep, each a threshold comparison and a row gather in numpy, so
many draws cost little more than one.  The draws stay one (draws,
depth) array of step axes, with no path object per draw; the CLI
formats its rows a chunk at a time, as copies of one byte template
when every step axis is a digit (D <= 10).

Sampling randomness is a dedicated counter-based stream per draw,
independent of the environment hash: the polymer measure is a
distribution over paths for a fixed environment, so the two sources
must not mix.  A range of draw seeds, as the CLI passes, gets its
stream bases in uint64 array arithmetic, with no Python int per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import (
    _check_seeds, _ladder_scales, EntropyEstimate, LadderRow, extrapolate_ladder,
)
from .lattice import (
    _GOLDEN, _MASK, _ensemble_ends, _level_blocks, _mix_array, _point,
    Direction, Environment, Path, TauFn,
)

__all__ = [
    "DpTable",
    "gibbs_estimate",
    "last_passage",
    "sample_polymer_paths",
]

_STREAM_TAG = 0x1D872B41A9C3F6E5


def _transfer(dimension: int, levels, beta: float | None, weights: np.ndarray):
    """Yield (points, values, step) for level 0 and each level of ``levels``.

    ``levels`` yields (points, pred, cell) for levels 1, 2, ... as
    ``_level_blocks`` does: cell[..., r, axis] is the tau cell of the
    label of the edge into row r along axis, with at most one leading
    seed axis.  weights[..., c] is beta times the value of cell c (the
    value when beta is None), with at most one leading member axis.
    values[..., i], of shape weights.shape[:-1] + cell.shape[:-2] +
    (rows,), is the log partition of the paths from the origin to
    points[i], or their maximal weight when beta is None.  step is
    (pred, terms), the level's predecessor rows and the edge terms it
    folded (None at level 0): terms[..., r, axis] is the value of row
    pred[r, axis] of the level before plus the edge's weight.

    The fold runs on the transposes (axis-major, rows first): each
    level's values fill a fresh buffer with one trailing -inf row,
    which a missing edge (pred -1) gathers, so its term is -inf
    whatever weight its unhashed bits give it.  Each point folds its
    terms, one contiguous slice per axis in ascending order, with
    logaddexp (max when beta is None); a missing edge's -inf leaves the
    fold unchanged.  Every operation is elementwise, so a member and
    seed of a batch gets the bits of a DP run on its own.
    """
    fold = np.maximum if beta is None else np.logaddexp
    weights = weights.T
    buffer = np.array([0.0, -np.inf])
    yield np.zeros((1, dimension), dtype=np.intp), buffer[:-1], None
    for points, pred, cell in levels:
        terms = weights[cell.T]
        prev = np.take(buffer, pred.T, axis=0)
        # Level 0 has no seed or member axes; broadcast it over the terms'.
        terms += prev.reshape(prev.shape + (1,) * (terms.ndim - prev.ndim))
        buffer = np.empty((len(pred) + 1,) + terms.shape[2:])
        buffer[-1] = -np.inf
        values = buffer[:-1]
        if dimension == 1:
            values[...] = terms[0]
        else:
            fold(terms[0], terms[1], out=values)
            for axis in range(2, dimension):
                fold(values, terms[axis], out=values)
        yield points, values.T, (pred, terms.T)


@dataclass
class DpTable:
    """Level-indexed log-partition (or max-plus) table.

    levels[k] is a float64 array over the level-k points of the box, in
    the lexicographic order of ``_level_blocks``: the log partition
    value of the length-k paths from the origin ending there, or their
    maximal weight when beta is None (max-plus).  The origin entry is
    0.  steps[k - 1] = (pred, terms), for k = 1..depth, holds the two
    (rows, D) arrays that built level k: pred[r, axis] is the row in
    level k-1 of point r minus the unit vector along axis (-1 when that
    leaves the box), and terms[r, axis] the edge term the fold of
    point r read along axis: levels[k - 1][pred] plus the edge's
    weight, or -inf where pred is -1.  Built in one walk of the plan;
    reproducible bit-for-bit given (environment, tau, beta).
    ``_dp_box`` refuses the ensemble, box and log weights with
    ValueError before any level is built.
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
        return cls._build(env, tau, beta, endpoint=endpoint)

    @classmethod
    def level(cls, env: Environment, length: int, beta: float | None, tau: TauFn) -> "DpTable":
        return cls._build(env, tau, beta, length=length)

    @classmethod
    def _build(cls, env, tau, beta, **ensemble) -> "DpTable":
        box, depth = _dp_box(env.dimension, 1.0 if beta is None else abs(beta), tau.bound,
                             **ensemble)
        walk = _level_blocks(box, depth, [env.seed], lambda bits: tau.cell(bits[0]))
        weights = tau._cells if beta is None else beta * tau._cells
        _, levels, steps = zip(*_transfer(env.dimension, walk, beta, weights))
        kind, endpoint = ("level", None) if "length" in ensemble else ("point", box)
        return cls(env, tau, beta, kind, list(levels), list(steps[1:]), endpoint)

    def log_value(self) -> float:
        """Log partition (or, with beta None, maximal weight) of the ensemble:
        the last level folded in row order, logaddexp from -inf or max."""
        last = self.levels[-1]
        return float(last.max() if self.beta is None else np.logaddexp.reduce(last))


# float64 overflows near 1.8e308.  Every log value and edge term of a
# transfer DP lies within depth * (|beta| * max|tau| + log D) of 0 (beta
# None weighs tau by 1), and the sampler subtracts two of them; a reach
# below 1e300 keeps all of these finite with room to spare.
_DP_REACH_LIMIT = 1e300


def _dp_box(dimension: int, scale: float, bound: float, *,
            endpoint: Sequence[int] | None = None,
            length: int | None = None) -> tuple[tuple[int, ...], int]:
    """The one gate of every transfer DP: its box and depth, or ValueError.

    The DP runs from the origin over the box of the endpoint, or the cube
    of side length for length-n paths, up to level depth.  Refuses, in
    this order: an ensemble that is not one (``lattice._ensemble_ends``),
    a box whose points up to level depth int64 cannot index, and log
    weights that could overflow float64 (``_dp_reach``).
    """
    _, end, depth = _ensemble_ends(dimension, endpoint=endpoint, length=length)
    box = end if end is not None else (depth,) * dimension
    if math.prod(min(c, depth) + 1 for c in box) > 2**63 - 1:
        raise ValueError(f"box {_point(box)} is too large to index level points")
    _dp_reach(scale, bound, depth, dimension)
    return box, depth


def _dp_reach(scale: float, bound: float, depth: int, dimension: int) -> None:
    """Raise ValueError when a DP's log weights could overflow float64.

    ``scale`` is |beta| (1 for max-plus) and ``bound`` the largest
    |tau| the DP weighs.  ``depth`` is one ``_dp_box`` let through, so it
    converts to a float.
    """
    reach = depth * (scale * bound + math.log(dimension))
    if not reach < _DP_REACH_LIMIT:
        raise ValueError(f"DP log weights reach {reach:.3g} over {depth} steps, "
                         f"past the float64 range (limit {_DP_REACH_LIMIT:g})")


def _ladder_box(n_ladder: Sequence[int], q: Direction | None, dimension: int,
                scale: float = 0.0, bound: float = 0.0) -> tuple[tuple[int, ...], int]:
    """``_dp_box`` of the one DP that passes every ladder point.

    floor(n q) is coordinatewise nondecreasing in n, so the largest
    scale's endpoint (or cube, for length-n paths) contains them all.
    ``scale`` and ``bound`` are ``_dp_reach``'s; their default weighs
    nothing, for exact counts.
    """
    n_max = max(n_ladder)
    if q is None:
        return _dp_box(dimension, scale, bound, length=n_max)
    return _dp_box(dimension, scale, bound, endpoint=q.floor_scale(n_max))


def _ladder_raws(dimension: int, levels, beta: float, weights: np.ndarray,
                 n_ladder: list[int], q: Direction | None, seeds: int) -> np.ndarray:
    """(1/n) log Z at every ladder scale, read from one DP as it passes.

    Returns a (members, seeds, scales) array for the members of
    ``weights`` and the seeds of ``levels``' cells.  With q, the value
    at floor(n q); without, the fold of level n, one reduce that folds
    each (member, seed) row left to right, as ``log_value()`` folds
    one.  A point's value depends only on its predecessors, which every
    box containing the point holds alike, so each read equals the
    ``log_value()`` of that scale's ``DpTable.point`` / ``DpTable.level``
    bit for bit.
    """
    reads: dict[int, list[int]] = {}
    for j, n in enumerate(n_ladder):
        reads.setdefault(sum(q.floor_scale(n)) if q is not None else n, []).append(j)
    raws = np.empty((len(weights), seeds, len(n_ladder)))
    for k, (points, values, _) in enumerate(_transfer(dimension, levels, beta, weights)):
        for j in reads.get(k, ()):
            n = n_ladder[j]
            if q is None:
                raws[..., j] = np.logaddexp.reduce(values, axis=-1) / n
            else:
                end = np.array(q.floor_scale(n), dtype=np.intp)
                row = np.flatnonzero((points == end).all(axis=1))[0]
                raws[..., j] = values[..., row] / n
    return raws


def _gibbs_batch(seeds: tuple, beta: float, taus: Sequence[TauFn], n_ladder: list[int],
                 q: Direction | None, dimension: int, levels) -> list[EntropyEstimate]:
    """``gibbs_estimate`` of every potential, the seeds and potentials in one DP.

    ``levels(tau)`` yields the (points, pred, cell) levels of the
    ladder's box with tau's cells, for all seeds, as ``_level_blocks``
    does with ``tau.cell``; the caller streams them or holds them.
    Potentials that share breakpoints share cells, so each breakpoint
    set runs one DP over (members, seeds, rows) arrays.  The caller's
    gate has checked the box and the reach of every potential.
    """
    groups: dict[tuple[float, ...], list[int]] = {}
    for m, tau in enumerate(taus):
        groups.setdefault(tau.breakpoints, []).append(m)
    raws = np.empty((len(taus), len(seeds), len(n_ladder)))
    for members in groups.values():
        weights = beta * np.array([taus[m]._cells for m in members])
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
    residual.  ``_dp_box`` refuses the ladder's box and the log weights
    of beta and tau, and empty seeds are refused, with ValueError before
    any level is built.
    """
    seeds = _check_seeds(seeds)
    n_ladder = _ladder_scales(n_ladder)
    if q is not None:
        dimension = q.dimension
    box, depth = _ladder_box(n_ladder, q, dimension, abs(beta), tau.bound)
    return _gibbs_batch(seeds, beta, [tau], n_ladder, q, dimension,
                        lambda tau: _level_blocks(box, depth, seeds, tau.cell))[0]


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
    steps_rev = []
    row = 0  # the endpoint is the one point of the last level
    for (pred, terms), values in zip(table.steps[::-1], table.levels[:0:-1]):
        # The max fold returns one of its terms, bit for bit; a missing
        # edge's term is -inf, never a value.
        axis = terms[row].tolist().index(values.item(row))
        steps_rev.append(axis)
        row = pred.item(row, axis)
    path = Path((0,) * env.dimension, tuple(reversed(steps_rev)))
    return table.log_value(), path


def _stream_bases(rng_seeds: Sequence[int]) -> np.ndarray:
    """The stream base of each draw seed, as a uint64 array.

    The environment's mixer under a distinct domain tag, so no (seed,
    counter) pair can collide with an edge-label chain.  A range of
    seeds is its start plus multiples of its step in uint64 arrays,
    which wrap mod 2^64 as ``int(seed) & _MASK`` does.
    """
    if isinstance(rng_seeds, range):
        seeds = (np.uint64(rng_seeds.start & _MASK)
                 + np.arange(len(rng_seeds), dtype=np.uint64) * np.uint64(rng_seeds.step & _MASK))
    else:
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
    exp(logZ(u) + beta * tau(label) - logZ(v)): math.exp of the edge
    terms the table's fold computed, added one axis at a time.  A
    missing predecessor adds exp(-inf) = 0, so it carries the running
    sum and is never the first threshold a draw falls below.  The last
    predecessor's axis is +inf, which takes every draw that passes the
    earlier ones.
    """
    out = []
    for (pred, terms), values in zip(table.steps, table.levels[1:]):
        # cumsum adds left to right, one axis after the other.
        cum = np.cumsum(_exp(terms - values[:, None]), axis=1)
        rows, d = pred.shape
        last = d - 1 - (pred[:, ::-1] >= 0).argmax(axis=1)
        cum[np.arange(rows), last] = np.inf
        out.append(cum)
    return out


def sample_polymer_paths(table: DpTable, rng_seeds: Sequence[int]) -> np.ndarray:
    """Draw one path per rng seed with probability exp(beta * weight) / Z.

    Backward sampling on a softmax table, with the table's environment,
    potential and beta: from the endpoint (drawn from the level
    marginal in level mode), each predecessor u of v is chosen with
    probability exp(logZ(u) + beta * tau(label) - logZ(v)), axes in
    ascending order.  The transition thresholds are computed once per
    call; then all draws step back one level at a time together, each
    reading its uniforms from its own counter-based stream.  The paths are
    bit-identical to drawing each seed on its own.

    Returns one (draws, depth) integer array: row i holds the step axes,
    in step order, of the path from the origin drawn for rng_seeds[i].
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
    return steps

