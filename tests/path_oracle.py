"""Scalar path oracles: a path-at-a-time DFS, and a path's labels and weight.

All of them call ``Environment.edge_label`` once per step, so they know
nothing of the label rows or the DP levels that the tests check against
them.  The DFS trio (``_dfs_paths``, ``enumerate_paths``,
``enumerate_level_paths``) is the library's former path walker, kept
unchanged as the oracle of ``label_rows``.
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


def path_labels(env: Environment, path: Path) -> list[float]:
    """The path's edge labels in step order."""
    coords = list(path.start)
    out = []
    for axis in path.steps:
        out.append(env.edge_label(coords, axis))
        coords[axis] += 1
    return out


def path_weight(env: Environment, tau: TauFn, path: Path) -> float:
    """Sum of tau over the path's edge labels: the linear functional <tau, mu_path>."""
    return math.fsum(tau(u) for u in path_labels(env, path))
