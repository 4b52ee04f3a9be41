"""Scalar path oracles: one edge label, a path-at-a-time DFS, and a path's labels and weight.

``edge_label`` hashes one label with Python ints, one avalanche mix per
link of the chain (seed, axis, then each anchor coordinate), under its
own copy of the hash constants.  It is the library's former scalar
label API, kept as the oracle of ``lattice._chain_heads`` and
``_chain_labels``, and so of the label rows and the DP levels built on
them.  The other oracles call it once per step.  The DFS trio
(``_dfs_paths``, ``enumerate_paths``, ``enumerate_level_paths``) is the
library's former path walker, kept unchanged as the oracle of
``label_rows``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from gridentropy import (
    DEFAULT_PATH_BUDGET,
    BudgetError,
    Environment,
    Path,
    TauFn,
    level_path_count,
    path_count,
)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix(z: int) -> int:
    """64-bit avalanche finalizer (splitmix64 style)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def _chain_head(seed: int, axis: int) -> int:
    """The seed and axis links of ``edge_label``'s chain, the same for every anchor."""
    return _mix(_mix((seed + _GOLDEN) & _MASK) ^ (((axis + 1) * _GOLDEN) & _MASK))


def edge_label(env: Environment, anchor: Sequence[int], axis: int) -> float:
    """Label of the edge from anchor one step along the given axis.

    A pure function of (seed, anchor, axis): the chained mix, folded to
    [0, 1) with full 53-bit mantissa resolution.
    """
    if not 0 <= axis < env.dimension:
        raise ValueError(f"axis {axis} out of range for D={env.dimension}")
    state = _chain_head(env.seed, axis)
    for c in anchor:
        state = _mix(state ^ ((c + _GOLDEN) & _MASK))
    return (state >> 11) * 2.0**-53


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
        labels.append(edge_label(env, coords, axis))
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


def path_labels(env: Environment, path: Path) -> list[float]:
    """The path's edge labels in step order."""
    coords = list(path.start)
    out = []
    for axis in path.steps:
        out.append(edge_label(env, coords, axis))
        coords[axis] += 1
    return out


def path_weight(env: Environment, tau: TauFn, path: Path) -> float:
    """Sum of tau over the path's edge labels: the linear functional <tau, mu_path>."""
    return math.fsum(tau(u) for u in path_labels(env, path))
