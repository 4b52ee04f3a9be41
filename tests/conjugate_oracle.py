"""Sequential oracle for the batched conjugate search.

One ``gibbs_estimate`` per distinct potential, memoized for the call,
asked for in the order the search walks: the family, then each start
and its coordinate ascent.  It knows nothing of level plans, batches or
speculative evaluations, so it checks that ``conjugate_entropy`` picks
the same winner, reports the same floats and counts the same
evaluations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from gridentropy import Direction, EntropyEstimate, Measure, TauFn, gibbs_estimate
from gridentropy.variational import _ASCENT_DELTAS, default_tau_family, integral


def conjugate_entropy(
    seeds: Sequence[int],
    q: Direction,
    nu: Measure,
    beta: float,
    *,
    tau_family: Sequence[TauFn] | None = None,
    n_ladder: Sequence[int] = (64, 128, 256, 512),
    restarts: int = 3,
    ascent_passes: int = 2,
    rng_seed: int = 9,
) -> EntropyEstimate:
    """``variational.conjugate_entropy``, one potential at a time."""
    if tau_family is None:
        tau_family = default_tau_family()
    if not tau_family:
        raise ValueError("tau family must be nonempty")
    seeds = tuple(seeds)
    n_ladder = tuple(n_ladder)
    memo: dict[TauFn, EntropyEstimate] = {}

    def free_energy(tau: TauFn) -> EntropyEstimate:
        if tau not in memo:
            memo[tau] = gibbs_estimate(seeds, beta, tau, n_ladder, q=q)
        return memo[tau]

    def objective(tau: TauFn) -> float:
        return beta * integral(tau, nu) - free_energy(tau).value

    best_tau = max(tau_family, key=objective)
    best_obj = objective(best_tau)
    family_best_obj = best_obj

    rng = np.random.default_rng(rng_seed)
    starts = [best_tau]
    width = len(best_tau.values)
    for _ in range(max(0, restarts - 1)):
        starts.append(TauFn.from_values(tuple(rng.uniform(-1.0, 1.0, size=width))))
    for start in starts:
        values = list(start.values)
        current = objective(TauFn.from_values(values))
        for _ in range(ascent_passes):
            improved = False
            for i in range(width):
                pivot = values[i]
                for delta in _ASCENT_DELTAS:
                    values[i] = pivot + delta
                    trial = objective(TauFn.from_values(values))
                    if trial > current:
                        current = trial
                        pivot = values[i]
                        improved = True
                values[i] = pivot
            if not improved:
                break
        if current > best_obj:
            best_obj = current
            best_tau = TauFn.from_values(values)

    winner = free_energy(best_tau)
    return EntropyEstimate(
        method="conjugate",
        value=-best_obj,
        ladder=winner.ladder,
        extrapolated=-best_obj,
        band=winner.band,
        diagnostics={
            "beta": beta,
            "family_size": len(tau_family),
            "evaluations": len(memo),
            "family_best_objective": family_best_obj,
            "refined_gain": best_obj - family_best_obj,
            "best_tau": {
                "breakpoints": list(best_tau.breakpoints),
                "values": list(best_tau.values),
            },
        },
    )
