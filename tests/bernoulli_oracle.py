"""List-of-lists oracle for the packed Bernoulli count DP.

Each level point keeps a Python list whose entry c counts the paths to
that point with exactly c unit labels, and each edge adds its source
list into the target term by term, shifted by the edge's 0/1 unit bit.
It knows nothing of packed integer fields or their width, so it checks
that ``bernoulli_exponent_check`` counts the same paths exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from gridentropy import Environment
from plan_oracle import level_edges as _level_edges


def bernoulli_exponents(
    p: float,
    s: float,
    n_ladder: Sequence[int],
    seeds: Sequence[int],
    dimension: int = 2,
) -> dict[int, dict[int, float]]:
    """Per seed and scale n: log(#length-n paths with >= ceil(n s) unit labels) / n."""
    n_ladder = sorted(int(n) for n in n_ladder)
    lo = 1.0 - p
    s_exact = s if isinstance(s, Fraction) else Fraction(s)
    n_max = n_ladder[-1]
    exponents = {}
    for seed in seeds:
        env = Environment(seed, dimension)
        # rows[i][c] counts the length-k paths to level point i with
        # exactly c unit labels; each edge shifts its source row by its
        # 0/1 unit bit.  Only the current level is kept.
        rows = [[1]]
        per_n = {}
        for k, (points, pred, label) in enumerate(_level_edges(env, (n_max,) * dimension, n_max), 1):
            new = [[0] * (k + 1) for _ in range(len(points))]
            for target, preds, bits in zip(new, pred.tolist(), (label >= lo).tolist()):
                for j, bit in zip(preds, bits):
                    if j >= 0:
                        target[bit : bit + k] = [a + b for a, b in zip(target[bit : bit + k], rows[j])]
            rows = new
            if k in n_ladder:
                total = sum(sum(row[math.ceil(k * s_exact):]) for row in rows)
                per_n[k] = math.log(total) / k if total > 0 else -math.inf
        exponents[seed] = per_n
    return exponents
