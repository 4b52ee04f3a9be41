"""Level-by-level oracle for the transfer DP's block plan.

``_level_plan`` and ``_level_labels`` build one level at a time: a
level's edges come from the level before with one ``nonzero``, and its
points from one ``np.unique`` of their mixed-radix keys; each edge's
label is hashed along its whole chain.  They share no geometry with
``lattice._level_blocks``, which unranks whole blocks of levels from
level counts and hashes each prefix chain once per block, so the two
agree only if both lay out every level alike.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from gridentropy.lattice import _chain_labels
from path_oracle import _chain_head


def _level_plan(box: Sequence[int], depth: int):
    """The seed-free geometry of the transfer DP inside a box, level by level.

    Level k holds the points v with 0 <= v <= box and sum(v) == k, in
    lexicographic order; level 0 is the origin.  For k = 1..depth this
    yields (points, pred, edges): points is level k as a (rows, D)
    integer array; pred[r, axis] is the row in level k-1 of points[r]
    minus the unit vector along axis, or -1 where that step leaves the
    box; edges = (dst, axis, anchors) lists every edge into the level,
    in no particular order: the row it enters, its axis, and the level
    k-1 point it leaves (an (edges, D) array).  ``_level_labels`` reads
    the edge labels of any seeds off the anchors.
    """
    d = len(box)
    # A point's row key is its mixed-radix index over the first D-1
    # coordinates (the level fixes the last), so keys sort like points.
    if math.prod(c + 1 for c in box[:-1]) > 2**63:
        raise ValueError(f"box {tuple(box)} is too large to index level points")
    strides = np.array([math.prod(c + 1 for c in box[axis + 1 : d - 1])
                        for axis in range(d - 1)] + [0], dtype=np.int64)
    limits = np.array(box, dtype=np.uint64)
    units = np.eye(d, dtype=np.uint64)
    points = np.zeros((1, d), dtype=np.uint64)
    keys = np.zeros(1, dtype=np.int64)
    for _ in range(depth):
        src, axis = (points < limits).nonzero()
        keys, first, dst = np.unique(keys[src] + strides[axis],
                                     return_index=True, return_inverse=True)
        pred = np.full((len(keys), d), -1, dtype=np.intp)
        pred[dst, axis] = src
        anchors = points[src]
        points = anchors[first] + units[axis[first]]
        yield points, pred, (dst, axis, anchors)


def _level_labels(seeds: Sequence[int], pred: np.ndarray, edges) -> np.ndarray:
    """The (seeds, rows, D) edge labels of one ``_level_plan`` level.

    label[s, r, axis] is the label, in the environment of seeds[s], of
    the edge into row r along axis, or NaN where pred is -1.  The heads
    of the chains are the scalar oracle's, hashed with Python ints.
    """
    dst, axis, anchors = edges
    heads = np.array([[_chain_head(seed, a) for a in range(pred.shape[1])] for seed in seeds],
                     dtype=np.uint64)
    label = np.full((len(seeds),) + pred.shape, np.nan)
    label[:, dst, axis] = _chain_labels(heads[:, axis], anchors)
    return label


def level_edges(env, box: Sequence[int], depth: int):
    """``_level_plan``'s levels as (points, pred, label) in one environment.

    label[r, axis] is the label of the edge into points[r] along axis,
    or NaN where pred[r, axis] is -1.
    """
    for points, pred, anchors in _level_plan(box, depth):
        yield points, pred, _level_labels([env.seed], pred, anchors)[0]
