"""Per-axis scatter oracle for the dense transfer fold and the sampler thresholds.

The oracle walks a table's box with the level-by-level oracle plan
(``plan_oracle``), not with the table's own steps, and splits each
level's dense (rows, D) predecessor and label arrays into one edge list
per axis (the rows with an edge along it, their predecessor rows and
labels).  It folds each axis into a level that starts at -inf by
scattering into those rows only, and adds each axis's exp(...) into a
running threshold sum the same way.  It never gathers a padded -inf or
adds a missing edge's zero, so it checks that the dense fold's missing
edges change no bit, and it shares no geometry with the table.
"""

from __future__ import annotations

import math

import numpy as np

from plan_oracle import level_edges


def oracle_steps(table) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (pred, label) of each level of the table's box, from the oracle plan."""
    depth = len(table.levels) - 1
    box = table.endpoint if table.kind == "point" else (depth,) * table.env.dimension
    return [(pred, label) for _, pred, label in level_edges(table.env, box, depth)]


def axis_edges(pred: np.ndarray, label: np.ndarray) -> dict:
    """axis -> (dst, src, labels) for each axis with an edge into the level."""
    edges = {}
    for axis in range(pred.shape[1]):
        dst = (pred[:, axis] >= 0).nonzero()[0]
        if len(dst):
            edges[axis] = (dst, pred[dst, axis], label[dst, axis])
    return edges


def levels(table) -> list[np.ndarray]:
    """The table's levels, refolded from its steps one axis at a time."""
    out = [np.zeros(1)]
    for pred, label in oracle_steps(table):
        prev, values = out[-1], np.full(len(pred), -np.inf)
        for dst, src, labels in axis_edges(pred, label).values():
            w = table.tau.apply(labels)
            if table.beta is None:
                values[dst] = np.maximum(values[dst], prev[src] + w)
            else:
                values[dst] = np.logaddexp(values[dst], prev[src] + table.beta * w)
        out.append(values)
    return out


def step_thresholds(table) -> list[np.ndarray]:
    """Each level's cumulative step thresholds, accumulated one axis at a time."""
    out = []
    for k, (pred, label) in enumerate(oracle_steps(table), 1):
        prev, values = table.levels[k - 1], table.levels[k]
        rows, d = pred.shape
        edges = axis_edges(pred, label)
        cum = np.empty((rows, d))
        acc = np.zeros(rows)
        for axis in range(d):
            if axis in edges:
                dst, src, labels = edges[axis]
                exponents = prev[src] + table.beta * table.tau.apply(labels) - values[dst]
                acc[dst] += [math.exp(x) for x in exponents.tolist()]
            # Axes without a predecessor carry the running sum.
            cum[:, axis] = acc
        last = d - 1 - (pred[:, ::-1] >= 0).argmax(axis=1)
        cum[np.arange(rows), last] = np.inf
        out.append(cum)
    return out
