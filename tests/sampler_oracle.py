"""Scalar oracle for the lockstep polymer sampler.

One draw at a time: a fresh ``SampleStream`` per seed, each label hashed
with ``Environment.edge_label``, each point's row found by bisection,
and the predecessors of a point tried in ascending axis order with a
running ``acc += math.exp(...)``.  It knows nothing of threshold arrays,
so it checks that the batch sampler draws the same paths bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from gridentropy import DpTable, Path, SampleStream


def sample_path(table: DpTable, rng_seed: int) -> Path:
    """One backward draw from a softmax table, with the table's env, tau and beta."""
    env, tau, beta = table.env, table.tau, table.beta
    levels, points = table.levels, table.points
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
                + beta * tau(env.edge_label(u, axis)) - target
            )
            if u01 < acc:
                chosen = (axis, u)
                break
        if chosen is None:
            chosen = fallback
        steps_rev.append(chosen[0])
        v = chosen[1]
    return Path((0,) * env.dimension, tuple(reversed(steps_rev)))
