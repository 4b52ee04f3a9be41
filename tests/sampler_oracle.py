"""Scalar oracle for the lockstep polymer sampler.

One draw at a time: a fresh ``SampleStream`` per seed, each label hashed
with ``path_oracle.edge_label``, each point's row found by bisection in
a lexicographic point list built here from the box, and the
predecessors of a point tried in ascending axis order with a running
``acc += math.exp(...)``.  It knows nothing of the table's predecessor
or threshold arrays, so it checks that the batch sampler draws the same
paths bit for bit.  ``SampleStream`` runs ``path_oracle``'s scalar
``_mix`` under its own copy of the stream tag, so it shares nothing
with the library's vectorized stream but the constants.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left

from gridentropy import DpTable, Path
from path_oracle import _GOLDEN, _MASK, _mix, edge_label

_STREAM_TAG = 0x1D872B41A9C3F6E5


class SampleStream:
    """Counter-based uniform stream for path sampling, one draw at a time.

    Same mixer as the environment labels but under a distinct domain
    tag, so no (seed, counter) pair can collide with an edge-label
    chain.
    """

    def __init__(self, seed: int):
        self._base = _mix(((seed & _MASK) ^ _STREAM_TAG) + _GOLDEN)
        self._counter = 0

    def uniform(self) -> float:
        self._counter += 1
        state = _mix(self._base ^ ((self._counter * _GOLDEN) & _MASK))
        return (state >> 11) * 2.0**-53


def box_points(box: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """Per level k = 0..sum(box): the points 0 <= v <= box with sum(v) == k, sorted."""
    box_pts = sorted(itertools.product(*(range(c + 1) for c in box)))
    return [[p for p in box_pts if sum(p) == k] for k in range(sum(box) + 1)]


def sample_path(table: DpTable, rng_seed: int) -> Path:
    """One backward draw from a softmax table, with the table's env, tau and beta."""
    env, tau, beta = table.env, table.tau, table.beta
    levels = table.levels
    depth = len(levels) - 1
    box = table.endpoint if table.kind == "point" else (depth,) * env.dimension
    # The cube of a level table holds more points than its levels reach.
    points = box_points(box)[:depth + 1]
    stream = SampleStream(rng_seed)

    if table.kind == "point":
        v = table.endpoint
    else:
        total = table.log_value()
        u01 = stream.uniform()
        acc = 0.0
        v = points[-1][-1]
        for p, value in zip(points[-1], levels[-1].tolist()):
            acc += math.exp(value - total)
            if u01 < acc:
                v = p
                break

    steps_rev = []
    for k in range(len(levels) - 1, 0, -1):
        target = levels[k].item(bisect_left(points[k], v))
        u01 = stream.uniform()
        acc = 0.0
        chosen = None
        fallback = None
        for axis in range(env.dimension):
            if v[axis] == 0:
                continue
            u = v[:axis] + (v[axis] - 1,) + v[axis + 1:]
            fallback = (axis, u)
            acc += math.exp(
                levels[k - 1].item(bisect_left(points[k - 1], u))
                + beta * tau(edge_label(env, u, axis)) - target
            )
            if u01 < acc:
                chosen = (axis, u)
                break
        if chosen is None:
            chosen = fallback
        steps_rev.append(chosen[0])
        v = chosen[1]
    return Path((0,) * env.dimension, tuple(reversed(steps_rev)))
