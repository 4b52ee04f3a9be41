"""Scalar path oracles: a path's labels and weight, one edge hash per step.

They walk the path and call ``Environment.edge_label`` at each step, so
they know nothing of the DFS label list, the label rows or the DP
levels that the tests check against them.
"""

from __future__ import annotations

import math

from gridentropy import Environment, Path, TauFn


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
