"""NE-path combinatorics on Z^D and the deterministic random environment.

A north-east path takes unit steps along coordinate axes (step indices
are 0-based here).  Edges are identified by (anchor vertex, axis); the
environment assigns each edge an i.i.d.-looking Unif[0,1) label through
a splitmix-style avalanche hash of (seed, anchor, axis), so environments
are never stored, queries are pure, and two runs agree bit for bit.

Directions are rational vectors, which keeps floor(n*q) exact in
integer arithmetic for every scale n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

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
    "enumerate_paths",
    "enumerate_level_paths",
    "label_rows",
]

DEFAULT_PATH_BUDGET = 10**8

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


class BudgetError(RuntimeError):
    """Raised when an enumeration would visit more paths than allowed."""

    def __init__(self, count: int, budget: int):
        super().__init__(f"enumeration of {count} paths exceeds budget {budget}")
        self.count = count
        self.budget = budget


def _mix(z: int) -> int:
    """64-bit avalanche finalizer (splitmix64 style)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
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

    def edge_label(self, anchor: Sequence[int], axis: int) -> float:
        """Label of the edge from anchor one step along the given axis.

        Pure function of (seed, anchor, axis): a chained avalanche mix,
        folded to [0, 1) with full 53-bit mantissa resolution.
        """
        if not 0 <= axis < self.dimension:
            raise ValueError(f"axis {axis} out of range for D={self.dimension}")
        state = _mix((self.seed + _GOLDEN) & _MASK)
        state = _mix(state ^ (((axis + 1) * _GOLDEN) & _MASK))
        for c in anchor:
            state = _mix(state ^ ((c + _GOLDEN) & _MASK))
        return (state >> 11) * 2.0**-53

    def label_array(self, anchors: np.ndarray, axis: int) -> np.ndarray:
        """Vectorized edge_label for an (k, D) integer array of anchors.

        Bit-identical to the scalar version (same mixing chain on
        uint64 arrays).
        """
        if not 0 <= axis < self.dimension:
            raise ValueError(f"axis {axis} out of range for D={self.dimension}")
        anchors = np.asarray(anchors, dtype=np.uint64)
        if anchors.ndim != 2 or anchors.shape[1] != self.dimension:
            raise ValueError(f"anchors must be (k, {self.dimension}), got {anchors.shape}")
        golden = np.uint64(_GOLDEN)
        # The seed and axis links of the chain are the same for every anchor.
        head = _mix(_mix((self.seed + _GOLDEN) & _MASK) ^ (((axis + 1) * _GOLDEN) & _MASK))
        state = np.full(len(anchors), head, dtype=np.uint64)
        for col in range(self.dimension):
            state = _mix_array(state ^ (anchors[:, col] + golden))
        return (state >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class TauFn:
    """Bounded right-continuous step function on [0, 1].

    ``breakpoints`` are the left cell edges (the first must be 0.0);
    ``values`` has one entry per cell.  tau(x) is the value of the cell
    containing x, with the last cell closed at 1.  At most 64 cells:
    step functions with exact <tau, nu> on atomic nu are all the
    conjugate search needs.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    bound: float = field(init=False, compare=False)
    # float64 copies for ``apply``, built once.
    _edges: np.ndarray = field(init=False, compare=False, repr=False)
    _cells: np.ndarray = field(init=False, compare=False, repr=False)

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
        for name, cells in (("_edges", breakpoints), ("_cells", values)):
            array = np.array(cells, dtype=np.float64)
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

    def apply(self, labels: np.ndarray) -> np.ndarray:
        """Vectorized evaluation."""
        return self._cells[np.searchsorted(self._edges, labels, side="right") - 1]

    def to_json(self) -> str:
        import json

        return json.dumps({"breakpoints": list(self.breakpoints), "values": list(self.values)})

    @classmethod
    def from_json(cls, text: str) -> "TauFn":
        import json

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

    def __len__(self) -> int:
        return len(self.steps)


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


def _dfs_paths(
    env: Environment,
    start: tuple[int, ...],
    visitor: Callable[[Path, Sequence[float]], None],
    remaining: list[int] | None,
    depth: int,
) -> None:
    """Shared DFS core; remaining=None means free (level) steps.

    Iterative with an explicit axis-counter stack, so path length is
    not capped by the interpreter recursion limit.  The label list is
    in step order: appended on descend, popped on backtrack.  The list
    passed to the visitor is live; callers copy what they keep.
    """
    coords = list(start)
    steps: list[int] = []
    labels: list[float] = []
    dimension = env.dimension
    stack = [0]

    def undo() -> None:
        axis = steps.pop()
        coords[axis] -= 1
        if remaining is not None:
            remaining[axis] += 1
        labels.pop()

    # Invariant at the top of each turn: len(steps) == len(stack) - 1.
    while stack:
        if len(stack) - 1 == depth:
            visitor(Path(start, tuple(steps)), labels)
            stack.pop()
            if steps:
                undo()
            continue
        axis = stack[-1]
        if axis == dimension:
            stack.pop()
            if steps:
                undo()
            continue
        stack[-1] = axis + 1
        if remaining is not None:
            if remaining[axis] == 0:
                continue
            remaining[axis] -= 1
        labels.append(env.edge_label(coords, axis))
        coords[axis] += 1
        steps.append(axis)
        stack.append(0)


def enumerate_paths(
    env: Environment,
    endpoint: Sequence[int],
    visitor: Callable[[Path, Sequence[float]], None],
    *,
    start: Sequence[int] = (),
    budget: int = DEFAULT_PATH_BUDGET,
) -> int:
    """Visit every NE path start -> endpoint once, depth first.

    The visitor receives the Path and its edge labels in step order
    (live storage, valid for the duration of the call).  Returns the
    number of paths visited.  Refuses with BudgetError when the exact
    path count exceeds the budget.
    """
    start = tuple(int(c) for c in start) if start else (0,) * env.dimension
    endpoint = tuple(int(c) for c in endpoint)
    if len(endpoint) != env.dimension or len(start) != env.dimension:
        raise ValueError("start/endpoint dimension mismatch")
    delta = [e - s for s, e in zip(start, endpoint)]
    if any(d < 0 for d in delta):
        raise ValueError(f"endpoint {endpoint} not NE of start {start}")
    count = path_count(delta)
    if count > budget:
        raise BudgetError(count, budget)
    _dfs_paths(env, start, visitor, delta, sum(delta))
    return count


def enumerate_level_paths(
    env: Environment,
    length: int,
    visitor: Callable[[Path, Sequence[float]], None],
    *,
    budget: int = DEFAULT_PATH_BUDGET,
) -> int:
    """Visit all D^length NE paths of the given length from the origin.

    The visitor receives what ``enumerate_paths`` passes it: the Path
    and its live list of edge labels in step order.
    """
    count = level_path_count(env.dimension, length)
    if count > budget:
        raise BudgetError(count, budget)
    _dfs_paths(env, (0,) * env.dimension, visitor, None, length)
    return count


def label_rows(
    env: Environment,
    block_rows: int,
    *,
    endpoint: Sequence[int] | None = None,
    length: int | None = None,
) -> Iterator[np.ndarray]:
    """The sorted label lists of an ensemble's paths, in blocks of rows.

    The ensemble is every NE path origin -> endpoint or every one of the
    D^length paths from the origin; exactly one of the two is given.
    Each block is a (paths, path length) float array of at most
    max(1, block_rows) rows, and row i is one path's labels in
    ascending order: the list ``enumerate_paths`` passes its visitor,
    sorted.  Every path appears in exactly one row; the order of the
    rows is not part of the contract.

    A block is the subtree of one path prefix, built by level
    expansion: each level takes one ``label_array`` call per axis for
    the prefixes that step along it.  A prefix with more paths than a
    block holds is stepped one level, and each child is tried in turn.
    """
    if (endpoint is None) == (length is None):
        raise ValueError("exactly one of endpoint/length must be given")
    d = env.dimension
    if endpoint is not None:
        box = tuple(int(c) for c in endpoint)
        if len(box) != d or any(c < 0 for c in box):
            raise ValueError(f"endpoint {box} is not a point of N^{d}")
        depth = sum(box)

        def paths_from(point) -> int:
            return path_count([b - int(c) for b, c in zip(box, point)])
    else:
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        box = None
        depth = length

        def paths_from(point) -> int:
            return d ** (depth - int(sum(point)))
    block_rows = max(1, block_rows)

    def step(points):
        """One level: (parent row, label, point) of each child, as arrays."""
        parents, labels, stepped = [], [], []
        for axis in range(d):
            if box is None:
                src = np.arange(len(points))
            else:
                src = (points[:, axis] < box[axis]).nonzero()[0]
                if not len(src):
                    continue
            anchors = points[src]
            labels.append(env.label_array(anchors, axis))
            anchors[:, axis] += 1
            parents.append(src)
            stepped.append(anchors)
        return np.concatenate(parents), np.concatenate(labels), np.concatenate(stepped)

    # Pending prefixes, one row each: (labels so far, end point).
    pending = [(np.empty((1, 0)), np.zeros((1, d), dtype=np.uint64))]
    while pending:
        prefix, points = pending.pop()
        done = prefix.shape[1]
        if paths_from(points[0]) > block_rows:
            # Too many paths for one block: step the prefix one level.
            parents, labels, points = step(points)
            prefix = np.concatenate([prefix[parents], labels[:, None]], axis=1)
            pending.extend((prefix[i:i + 1], points[i:i + 1]) for i in range(len(points)))
            continue
        # The block fits: expand it to full length, keeping only parent
        # links, then read the labels back along them.
        levels = []
        for _ in range(done, depth):
            parents, labels, points = step(points)
            levels.append((parents, labels))
        block = np.empty((len(points), depth))
        index = np.arange(len(points))
        for col in range(depth - 1, done - 1, -1):
            parents, labels = levels[col - done]
            block[:, col] = labels[index]
            index = parents[index]
        block[:, :done] = prefix
        block.sort(axis=1)
        yield block


def _level_edges(env: Environment, box: Sequence[int], depth: int):
    """Edges of the transfer DP from each level to the next, inside a box.

    Level k holds the points v with 0 <= v <= box and sum(v) == k, in
    lexicographic order; level 0 is the origin.  For k = 1..depth this
    yields (points, pred, label): points is level k as a (rows, D)
    integer array; pred[r, axis] is the row in level k-1 of points[r]
    minus the unit vector along axis, and label[r, axis] the label of
    the edge from it, or -1 and NaN where that step leaves the box.
    """
    d = env.dimension
    # A point's row key is its mixed-radix index over the first D-1
    # coordinates (the level fixes the last), so keys sort like points.
    if math.prod(c + 1 for c in box[:-1]) > 2**63:
        raise ValueError(f"box {tuple(box)} is too large to index level points")
    strides = [math.prod(c + 1 for c in box[axis + 1 : d - 1]) for axis in range(d - 1)] + [0]
    points = np.zeros((1, d), dtype=np.uint64)
    keys = np.zeros(1, dtype=np.int64)
    for _ in range(depth):
        moves = []
        for axis in range(d):
            src = (points[:, axis] < box[axis]).nonzero()[0]
            if len(src):
                moves.append((axis, src))
        keys, first, inverse = np.unique(
            np.concatenate([keys[src] + strides[axis] for axis, src in moves]),
            return_index=True, return_inverse=True,
        )
        pred = np.full((len(keys), d), -1, dtype=np.intp)
        label = np.full((len(keys), d), np.nan)
        stepped = []
        offset = 0
        for axis, src in moves:
            anchors = points[src]
            dst = inverse[offset:offset + len(src)]
            pred[dst, axis] = src
            label[dst, axis] = env.label_array(anchors, axis)
            offset += len(src)
            anchors[:, axis] += 1
            stepped.append(anchors)
        points = np.concatenate(stepped)[first]
        yield points, pred, label
