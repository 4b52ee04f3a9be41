"""NE-path combinatorics on Z^D and the deterministic random environment.

A north-east path takes unit steps along coordinate axes (step indices
are 0-based here).  Edges are identified by (anchor vertex, axis); the
environment assigns each edge an i.i.d.-looking Unif[0,1) label through
a splitmix-style avalanche hash of (seed, anchor, axis), so environments
are never stored, queries are pure, and two runs agree bit for bit.

Directions are rational vectors, which keeps floor(n*q) exact in
integer arithmetic for every scale n.

The transfer DP's levels inside a box come from ``_level_blocks``, a
block of consecutive levels at a time under a byte cap: points are
unranked from the level counts of the box's suffixes, predecessor rows
ranked the same way, and each edge's label finishes, with one mix, a
hash chain shared by every edge from the same anchor prefix.  The DP
reads labels only through a cell function its caller passes, once per
block, so they stay 53-bit integers and no caller holds them.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BudgetError",
    "Direction",
    "Environment",
    "TauFn",
    "Path",
    "DEFAULT_PATH_BUDGET",
    "path_count",
    "level_path_count",
    "shannon_entropy",
    "label_rows",
]

DEFAULT_PATH_BUDGET = 10**8

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


class BudgetError(RuntimeError):
    """Raised by ``_ensemble`` for a path ensemble too big to walk; ``count``
    is the exact count, or a text where the refusal did not count exactly."""

    def __init__(self, count: int | str, budget: int):
        super().__init__(f"enumeration of {_decimal(count)} paths exceeds budget {budget}")
        self.count = count
        self.budget = budget


def _decimal(value: int | str) -> str:
    """value in decimal, or as 10^log10(value) past Python's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    big = isinstance(value, int) and limit and value >= 10**limit
    return f"10^{math.log10(value):.2f}" if big else str(value)


def _point(coords: Sequence[int]) -> str:
    """A point's coordinates through ``_decimal``, in parentheses."""
    return f"({', '.join(map(_decimal, coords))})"


def _mix_array(z: np.ndarray) -> np.ndarray:
    """64-bit avalanche finalizer (splitmix64 style) on uint64 arrays, wrapping mod 2^64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class Direction:
    """Rational direction q in Q^D_{>=0}, gcd-reduced.

    q_i = numerators[i] / denominator; floor(n*q) is exact integer
    arithmetic, so every downstream endpoint is unambiguous.
    """

    numerators: tuple[int, ...]
    denominator: int = 1

    def __post_init__(self):
        nums = tuple(int(v) for v in self.numerators)
        den = int(self.denominator)
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        if not nums:
            raise ValueError("direction needs at least one coordinate")
        if any(v < 0 for v in nums):
            raise ValueError(f"direction coordinates must be >= 0, got {nums}")
        g = math.gcd(den, *nums)
        object.__setattr__(self, "numerators", tuple(v // g for v in nums))
        object.__setattr__(self, "denominator", den // g)

    @classmethod
    def from_fractions(cls, coords: Iterable[Fraction]) -> "Direction":
        coords = [Fraction(c) for c in coords]
        den = math.lcm(*(c.denominator for c in coords)) if coords else 1
        return cls(tuple(int(c * den) for c in coords), den)

    @classmethod
    def parse(cls, text: str) -> "Direction":
        """Parse comma-separated rationals, e.g. '1/2,1/2' or '2,1'."""
        return cls.from_fractions(Fraction(part.strip()) for part in text.split(","))

    @property
    def dimension(self) -> int:
        return len(self.numerators)

    def floor_scale(self, n: int) -> tuple[int, ...]:
        """floor(n * q), coordinatewise, exactly."""
        return tuple((n * v) // self.denominator for v in self.numerators)

    def __str__(self) -> str:
        return ",".join(str(Fraction(v, self.denominator)) for v in self.numerators)


@dataclass(frozen=True)
class Environment:
    """Deterministic seeded field of Unif[0,1) edge labels on Z^D."""

    seed: int
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK)
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")


def _chain_heads(seeds: Sequence[int], dimension: int) -> np.ndarray:
    """The seed and axis links of every label's hash chain, the same for every
    anchor: mix(mix(s + golden) ^ (a + 1) * golden) mod 2^64 for each seed s
    and axis a, as a (D, seeds) uint64 array."""
    golden = np.uint64(_GOLDEN)
    seeds = np.array([int(seed) & _MASK for seed in seeds], dtype=np.uint64)
    axes = np.arange(1, dimension + 1, dtype=np.uint64)[:, None] * golden
    return _mix_array(_mix_array(seeds + golden) ^ axes)


def _chain_labels(heads: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Labels of the (k, D) anchors, read along the rest of the chain.

    ``heads`` holds the head link of each label and broadcasts against
    the k anchors: one head for one seed and axis gives (k,) labels, a
    (seeds, k) array of each seed's head for each edge's axis gives
    (seeds, k).  The anchor links are shared by every seed, so all
    seeds mix through them together.
    """
    golden = np.uint64(_GOLDEN)
    state = heads
    for col in range(anchors.shape[1]):
        state = _mix_array(state ^ (anchors[:, col] + golden))
    return (state >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class TauFn:
    """Bounded right-continuous step function on [0, 1].

    ``breakpoints`` are the left cell edges (the first must be 0.0);
    ``values`` has one entry per cell.  tau(x) is the value of the cell
    containing x, with the last cell closed at 1.  At most 64 cells:
    step functions with exact <tau, nu> on atomic nu are all the
    conjugate search needs.  ``cell`` reads a label as the hash's 53-bit
    integer, with no float: the transfer DP's labels stay integers.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    bound: float = field(init=False, compare=False)
    # Read-only arrays, built once: each breakpoint's ``cell`` floor and
    # each cell's value; and the shift that reads a cell off its label's
    # bits when the breakpoints are i / 2^j (None for any others).
    _floors: np.ndarray = field(init=False, compare=False, repr=False)
    _cells: np.ndarray = field(init=False, compare=False, repr=False)
    _shift: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        breakpoints = tuple(float(b) for b in self.breakpoints)
        values = tuple(float(v) for v in self.values)
        if len(breakpoints) != len(values):
            raise ValueError("need exactly one value per cell")
        if not breakpoints or breakpoints[0] != 0.0:
            raise ValueError("first breakpoint must be 0.0")
        if len(values) > 64:
            raise ValueError(f"at most 64 cells, got {len(values)}")
        if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if breakpoints[-1] >= 1.0 and len(breakpoints) > 1:
            raise ValueError("breakpoints must lie in [0, 1)")
        if any(not math.isfinite(v) for v in values):
            raise ValueError("cell values must be finite")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bound", max(abs(v) for v in values))
        floors = [math.ceil(b * 2**53) for b in breakpoints]  # b * 2^53 is exact
        # k cells of width 2^-j have floors i << (53 - j); no other k
        # passes, as every floor is below 2^53.
        shift = 53 - (len(floors).bit_length() - 1)
        object.__setattr__(self, "_shift", shift if floors == [i << shift for i in range(len(floors))]
                           else None)
        for name, array in (("_floors", np.array(floors, dtype=np.uint64)),
                            ("_cells", np.array(values, dtype=np.float64))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def constant(cls, value: float) -> "TauFn":
        return cls((0.0,), (value,))

    @classmethod
    def indicator(cls, lo: float) -> "TauFn":
        """Indicator of [lo, 1]."""
        if lo <= 0.0:
            return cls.constant(1.0)
        return cls((0.0, lo), (0.0, 1.0))

    @classmethod
    def identity_ladder(cls, cells: int) -> "TauFn":
        """Step approximation of the identity: cell i maps to its midpoint."""
        return cls(
            tuple(i / cells for i in range(cells)),
            tuple((2 * i + 1) / (2 * cells) for i in range(cells)),
        )

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "TauFn":
        """Equal-width cells with the given values."""
        cells = len(values)
        return cls(tuple(i / cells for i in range(cells)), tuple(values))

    def __call__(self, x: float) -> float:
        return self.values[bisect_right(self.breakpoints, x) - 1]

    def cell(self, bits: np.ndarray) -> np.ndarray:
        """Cell index of each label m * 2^-53, given as its uint64 integer m.

        The i with breakpoints[i] <= m * 2^-53 < breakpoints[i + 1], exactly:
        x >= b holds just when m >= ceil(b * 2^53), the floor of b.  When
        the breakpoints are i / 2^j, floor i is i << (53 - j), so the cell
        is m's top j bits, one shift; other breakpoints take a binary
        search over the floors.
        """
        if self._shift is None:
            return np.searchsorted(self._floors, bits, side="right") - 1
        return (bits >> self._shift).view(np.int64)

    @classmethod
    def from_json(cls, text: str) -> "TauFn":
        obj = json.loads(text)
        return cls(tuple(obj["breakpoints"]), tuple(obj["values"]))


@dataclass(frozen=True)
class Path:
    """NE path: a start vertex and a sequence of 0-based step axes."""

    start: tuple[int, ...]
    steps: tuple[int, ...]

    @property
    def end(self) -> tuple[int, ...]:
        coords = list(self.start)
        for axis in self.steps:
            coords[axis] += 1
        return tuple(coords)


def path_count(endpoint: Sequence[int]) -> int:
    """Number of NE paths from the origin: the exact multinomial coefficient."""
    coords = [int(c) for c in endpoint]
    if any(c < 0 for c in coords):
        raise ValueError(f"endpoint coordinates must be >= 0, got {coords}")
    total = 0
    count = 1
    for c in coords:
        total += c
        count *= math.comb(total, c)
    return count


def level_path_count(dimension: int, length: int) -> int:
    """Number of length-n NE paths from the origin: D^n."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    return dimension**length


def _ensemble_ends(dimension: int, *, endpoint: Sequence[int] | None = None,
                   length: int | None = None, start: Sequence[int] = ()):
    """Check a path ensemble: every NE path start -> endpoint, or all D^length
    from start (the origin by default).  Returns (origin, end, depth), with
    end None for a length; raises ValueError for anything else."""
    if (endpoint is None) == (length is None):
        raise ValueError("exactly one of endpoint/length must be given")
    origin = tuple(map(int, start)) if start else (0,) * dimension
    if len(origin) != dimension:
        raise ValueError(f"start {_point(origin)} is not a point of Z^{dimension}")
    if endpoint is None:
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        return origin, None, length
    end = tuple(map(int, endpoint))
    if len(end) != dimension or any(a > b for a, b in zip(origin, end)):
        raise ValueError(f"endpoint {_point(end)} is not NE of start {_point(origin)} "
                         f"in Z^D, D={dimension}")
    return origin, end, sum(end) - sum(origin)


def _ensemble(dimension: int, budget: int, *, endpoint: Sequence[int] | None = None,
              length: int | None = None, start: Sequence[int] = ()):
    """Check a path ensemble (``_ensemble_ends``) and size it against a budget,
    before any walk.

    Returns (origin, end, depth, count), with end None for a length.
    Refuses with BudgetError from a lower bound on ln(count) past
    ln(budget) and 2^16 bits, before any exact count; then on the exact
    count, or on paths longer than the budget.
    """
    origin, end, depth = _ensemble_ends(dimension, endpoint=endpoint, length=length, start=start)
    if end is not None:
        sides = [b - a for a, b in zip(origin, end)]
        # The count is at least C(depth, rest) >= (depth / rest)^rest, rest the
        # steps off the longest side.  Sides cut to 2^64 keep the bound a float.
        rest = depth - max(sides)
        bound = min(rest, 1 << 64) * (math.log(depth) - math.log(rest)) if rest else 0.0
    else:
        bound = min(length, 1 << 64) * math.log(dimension)
    if bound > (1 << 16) * math.log(2) and bound > math.log(max(budget, 1)):
        raise BudgetError(f"{dimension}^{_decimal(length)}" if endpoint is None
                          else f"at least 10^{int(bound / math.log(10))}", budget)
    count = path_count(sides) if endpoint is not None else level_path_count(dimension, length)
    if count > budget:
        raise BudgetError(count, budget)
    if depth > budget:  # fewer paths than steps: D = 1, or one nonzero side
        raise BudgetError(f"{count} length-{_decimal(depth)}", budget)
    return origin, end, depth, count


def shannon_entropy(q: Direction) -> float:
    """Exponential growth rate of the path count in direction q.

    Sum of -q_i log(q_i / |q|_1), with 0 log 0 = 0; positively
    homogeneous, maximal (|q|_1 log D) at the balanced direction.
    """
    total = sum(q.numerators)
    if total == 0:
        return 0.0
    return -math.fsum(
        (num / q.denominator) * math.log(num / total) for num in q.numerators if num
    )


def label_rows(
    env: Environment,
    block_rows: int,
    *,
    endpoint: Sequence[int] | None = None,
    length: int | None = None,
    start: Sequence[int] = (),
    budget: int = DEFAULT_PATH_BUDGET,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every path of an ensemble in DFS order, as label rows and step axes.

    The ensemble is every NE path start -> endpoint, or every one of the
    D^length paths from start; exactly one of endpoint and length is
    given, and start defaults to the origin.  Each block is a pair of
    (paths, path length) arrays of at most max(1, block_rows) rows:
    row i of the first holds a path's edge labels and row i of the
    second its step axes, both in step order.  Taken block after block,
    the rows run in DFS order, which is the lexicographic order of the
    step sequences.  ``_ensemble`` checks the ensemble and refuses it
    past the budget before any label is hashed.

    A block is the subtree of one path prefix, built by level
    expansion: each level steps every prefix along every axis it may
    take, parent-major, with one hash call for the whole level.  A
    prefix with more paths than a block holds is stepped one level, and
    its children are tried in order.
    """
    d = env.dimension
    origin, end, depth, _ = _ensemble(d, budget, endpoint=endpoint, length=length, start=start)
    origin = np.array(origin, dtype=np.int64)
    end = np.full(d, np.iinfo(np.int64).max) if end is None else np.array(end, dtype=np.int64)

    def paths_from(point, done: int) -> int:
        return path_count(end - point) if endpoint is not None else d ** (depth - done)
    block_rows = max(1, block_rows)
    heads = _chain_heads([env.seed], d)[:, 0]

    def step(points):
        """One level, parent-major: (parent row, axis, label, point) of each child."""
        parents, axes = (points < end).nonzero()
        stepped = points[parents]
        labels = _chain_labels(heads[axes], stepped.astype(np.uint64))
        stepped[np.arange(len(axes)), axes] += 1
        return parents, axes, labels, stepped

    # Pending prefixes, one row each: (labels, steps, end point).  The
    # last one is the next in DFS order.
    pending = [(np.empty((1, 0)), np.empty((1, 0), dtype=np.intp), origin[None, :])]
    while pending:
        labels, steps, points = pending.pop()
        done = labels.shape[1]
        if paths_from(points[0], done) > block_rows:
            # Too many paths for one block: step the prefix one level.
            parents, axes, level, points = step(points)
            labels = np.concatenate([labels[parents], level[:, None]], axis=1)
            steps = np.concatenate([steps[parents], axes[:, None]], axis=1)
            pending.extend((labels[i:i + 1], steps[i:i + 1], points[i:i + 1])
                           for i in range(len(points) - 1, -1, -1))
            continue
        # The block fits: expand it to full length, keeping only parent
        # links, then read the labels and axes back along them.
        levels = []
        for _ in range(done, depth):
            parents, axes, level, points = step(points)
            levels.append((parents, axes, level))
        block = np.empty((len(points), depth))
        moves = np.empty((len(points), depth), dtype=np.intp)
        index = np.arange(len(points))
        for col in range(depth - 1, done - 1, -1):
            parents, axes, level = levels[col - done]
            block[:, col] = level[index]
            moves[:, col] = axes[index]
            index = parents[index]
        block[:, :done] = labels
        moves[:, :done] = steps
        yield block, moves


# Byte cap of one block of DP levels while a plan builds it, counting
# every array the block allocates; a level bigger than that is a block
# of its own.  Blocks of this size spread numpy's per-call cost over
# 4 to 70 levels of a 512-scale level ladder without raising peak memory.
_PLAN_BLOCK_BYTES = 1 << 19


def _box_counts(box: Sequence[int], size: int) -> list[np.ndarray]:
    """Cumulative level counts of every suffix of a box.

    tables[i][t], for t < size, is the number of points w with 0 <= w
    <= box[i:] and sum(w) < t; tables[len(box)] is the empty box's,
    whose one point has sum 0.
    """
    cum = (np.arange(size) > 0).astype(np.int64)
    tables = [cum]
    for side in reversed(box):
        # (x, w) has sum m for the w of sum m - side .. m.
        lagged = np.zeros(size - 1, dtype=np.int64)
        lagged[side:] = cum[:max(0, size - 1 - side)]
        cum = np.concatenate([[0], np.cumsum(cum[1:] - lagged)])
        tables.append(cum)
    return tables[::-1]


def _box_levels(tables: list[np.ndarray], lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of levels lo..hi-1 of the box of ``_box_counts`` tables.

    Returns each point's level (coordinate sum) and the (rows, D)
    points, level after level and each level in lexicographic order.
    Each point is read off its rank in its level one coordinate at a
    time: the points of the level with a lower value there come first,
    and the tables count them.
    """
    first = tables[0]
    level = np.repeat(np.arange(lo, hi), np.diff(first[lo:hi + 1]))
    rank = np.arange(len(level)) - (first[level] - first[lo])
    points = np.empty((len(level), len(tables) - 1), dtype=np.intp)
    room = level + 1  # one more than the sum left for the coordinates not yet read
    for axis, table in enumerate(tables[1:-1]):
        target = table[room] - rank
        rest = np.searchsorted(table, target)
        points[:, axis] = room - rest
        rank = table[rest] - target
        room = rest
    if points.shape[1]:
        points[:, -1] = room - 1
    return level, points


def _rank(tables: list[np.ndarray], level, prefix):
    """The row of each point in its level: ``_box_levels`` inverted.

    ``prefix`` lists the points' first D-1 coordinates as columns; the
    level fixes the last.
    """
    rank = 0
    room = level + 1
    for table, column in zip(tables[1:-1], prefix):
        rest = room - column
        rank = table[room] - table[rest] + rank
        room = rest
    return rank


def _plan_block(box: tuple[int, ...], tables, prefix_tables, heads: np.ndarray,
                first: int, stop: int, cell):
    """Levels first..stop-1 of ``_level_blocks``' plan, as one block: its
    level bounds, points, pred, and the ``cell`` of its label bits."""
    d = len(box)
    level, points = _box_levels(tables, first, stop)
    bounds = (tables[0][first:stop + 1] - tables[0][first]).tolist()
    # An edge's anchor u = v - e_axis is a point of the level before v's;
    # its hash chain runs through the seed and axis, u's first D-1
    # coordinates (its prefix) and u's last coordinate.  The prefixes of
    # the block's anchors are the points of the box of the first D-1
    # sides whose sums lie in [lo, stop - 1).
    lo = max(0, first - 1 - box[-1])
    golden = np.uint64(_GOLDEN)
    _, prefixes = _box_levels(prefix_tables, lo, stop - 1)
    chains = heads.T[:, :, None]
    for column in prefixes.T:
        chains = _mix_array(chains ^ (column.astype(np.uint64) + golden))
    # chains[s, axis * prefixes + i]: seed s's chain along axis through prefix i.
    chains = chains.reshape(len(heads.T), -1)
    pred = np.empty(points.shape, dtype=np.intp)
    link = np.empty(points.shape, dtype=np.intp)
    below = level - 1
    prefix_sum = level - points[:, -1]
    for axis in range(d):
        prefix = list(points.T[:-1])
        if axis < d - 1:
            prefix[axis] = prefix[axis] - 1
            anchor_sum = prefix_sum - 1
        else:
            anchor_sum = prefix_sum
        pred[:, axis] = _rank(tables, below, prefix)
        link[:, axis] = (prefix_tables[0][anchor_sum] + _rank(prefix_tables, anchor_sum, prefix)
                         + (axis * len(prefixes) - prefix_tables[0][lo]))
    missing = points == 0
    pred[missing] = -1
    link[missing] = 0
    last = points[:, -1:] - (np.arange(d) == d - 1)
    bits = _mix_array(np.take(chains, link, axis=1) ^ (last.astype(np.uint64) + golden))
    bits >>= np.uint64(11)
    return bounds, points, pred, cell(bits)


def _level_blocks(box: Sequence[int], depth: int, seeds: Sequence[int], cell):
    """The transfer DP's levels inside a box, built a block of levels at a time.

    Level k holds the points v with 0 <= v <= box and sum(v) == k, in
    lexicographic order; level 0 is the origin.  For k = 1..depth this
    yields (points, pred, cells), one level at a time: points is level
    k as a (rows, D) array; pred[r, axis] is the row, within the level
    before, of points[r] minus the unit vector along axis, or -1 where
    that step leaves the box; cells is ``cell`` of the label bits,
    sliced to the level's rows (axis -2).  ``cell`` is called once per
    block, on a (seeds, rows, D) uint64 array: bits[s, r, axis] is the
    53-bit integer m of that edge's label m * 2^-53 in the environment
    of seed seeds[s] (``TauFn.cell`` reads it), and means nothing where
    pred is -1.  The bits are dropped once ``cell`` returns, so no
    caller holds them.  It makes no size check: every caller passes
    through the DP gate, ``polymer._dp_box``, first.

    Every array a block allocates is counted against
    _PLAN_BLOCK_BYTES, and its geometry costs O(points), not O(levels
    x prefixes): ranks come from the level counts of the box's
    suffixes, and each prefix chain is hashed once per block.
    """
    box = tuple(int(c) for c in box)
    d = len(box)
    tables = _box_counts(box, depth + 2)
    prefix_tables = _box_counts(box[:-1], depth + 2)
    # Per row: level, rank and unranking temporaries, points, pred and
    # link (D each), and per seed and axis the gathered chains, two mix
    # temporaries and the labels; ``cell``'s result and temporary take
    # the room of the mix temporaries, dropped before it runs.  Per
    # prefix: its coordinates and the chains of every seed and axis with
    # a mix temporary.
    row_bytes = 8 * (8 + 4 * d + 4 * len(seeds) * d)
    prefix_bytes = 8 * (2 + d + 2 * len(seeds) * d)
    # The bytes of levels first..stop-1 are reach[stop - 1] less those
    # of the levels and prefixes before them; the tables and reach
    # itself come off the cap.
    reach = (row_bytes * tables[0][1:].astype(np.float64)
             + prefix_bytes * prefix_tables[0][:-1].astype(np.float64))
    cap = _PLAN_BLOCK_BYTES - sum(table.nbytes for table in tables + prefix_tables) - reach.nbytes
    heads = _chain_heads(seeds, d)
    first = 1
    while first <= depth:
        lo = max(0, first - 1 - box[-1])
        spent = row_bytes * float(tables[0][first]) + prefix_bytes * float(prefix_tables[0][lo])
        stop = min(depth + 1, max(first + 1, int(np.searchsorted(reach, spent + cap, "right"))))
        bounds, points, pred, cells = _plan_block(box, tables, prefix_tables, heads,
                                                  first, stop, cell)
        for start, end in zip(bounds, bounds[1:]):
            yield points[start:end], pred[start:end], cells[..., start:end, :]
        first = stop

