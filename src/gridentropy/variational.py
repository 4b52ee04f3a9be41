"""Convex duality between entropy, free energy, and passage times.

The free energy of the polymer ensemble and the entropy of an empirical
target are convex conjugates of each other.  This module exploits that
in both directions: ``variational_sup`` rebuilds the free energy from a
family of candidate targets (each carrying its own entropy estimate),
and ``conjugate_entropy`` rebuilds the entropy of one target from free
energies over a family of step potentials.  Both searches run over
finite families, so equalities degrade to one-sided inequalities that
tighten as the families grow; the invariant tests check exactly those
directions.

Two budget checks round the module out.  ``kl_budget_check`` audits the
bound "relative entropy to Lebesgue plus path entropy is at most the
log path-count rate", which pins atomic targets at -inf.  The
Bernoulli check counts, exactly, paths whose unit-label fraction beats
a threshold, and compares the growth exponent against the closed-form
large-deviation budget.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .estimators import _ladder_scales, EntropyEstimate
from .lattice import _level_edges, Direction, Environment, TauFn, shannon_entropy
from .measures import Histogram, Measure, kl_divergence
from .polymer import _dp_reach, _ladder_box, LadderPlan

__all__ = [
    "BernoulliReport",
    "CandidateFamily",
    "KlBudgetReport",
    "SupResult",
    "bernoulli_exponent_check",
    "bernoulli_kl",
    "conjugate_entropy",
    "default_tau_family",
    "integral",
    "kl_budget_check",
    "variational_sup",
]


@dataclass(frozen=True)
class CandidateFamily:
    """Finite family of target measures with their entropy estimates.

    ``recipe`` records how the family was generated (for reports);
    members share a total mass, matching a single path ensemble.
    """

    recipe: str
    members: tuple[tuple[Measure, EntropyEstimate], ...]

    def __post_init__(self):
        masses = [nu.total_mass for nu, _ in self.members]
        if masses and max(masses) - min(masses) > 1e-9:
            raise ValueError(f"family mixes total masses {min(masses)}..{max(masses)}")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SupResult:
    """Value and winner of a sup over a candidate family."""

    value: float
    argmax: Measure
    band: float


def integral(tau: TauFn, nu: Measure) -> float:
    """<tau, nu>: exact atom-by-atom integral of a step function."""
    return math.fsum(mass * tau(pos) for pos, mass in nu.atoms)


def variational_sup(beta: float, tau: TauFn, family: CandidateFamily) -> SupResult:
    """Free-energy lower bound: max of beta*<tau, nu> + entropy over the family.

    A finite family under-reaches the true sup, so the value sits below
    the matching ``gibbs_estimate`` up to bands.  The reported band is
    the largest member band, which covers any member that could
    overtake the winner within its own uncertainty.
    """
    if not family.members:
        raise ValueError("family must be nonempty")
    best_value = -math.inf
    best_nu = family.members[0][0]
    for nu, estimate in family.members:
        score = beta * integral(tau, nu) + estimate.value
        if score > best_value:
            best_value = score
            best_nu = nu
    band = max(estimate.band for _, estimate in family.members)
    return SupResult(best_value, best_nu, band)


# Most cells of a default family: it holds 3^k sign ladders.
MAX_CELLS = 8


def default_tau_family(
    k: int = 4, *, random_count: int = 8, rng_seed: int = 2026
) -> tuple[TauFn, ...]:
    """Step potentials on k equal cells: every -1/0/+1 ladder plus random ones.

    The sign ladders (3^k of them, zero included) probe which cells the
    target loads; the random ladders break the +-1 quantization.
    """
    if not 1 <= k <= MAX_CELLS:
        raise ValueError(f"cell count must be in 1..{MAX_CELLS}, got {k}")
    ladders = [
        TauFn.from_values(values)
        for values in itertools.product((-1.0, 0.0, 1.0), repeat=k)
    ]
    rng = np.random.default_rng(rng_seed)
    for _ in range(random_count):
        ladders.append(TauFn.from_values(tuple(rng.uniform(-1.0, 1.0, size=k))))
    return tuple(ladders)


_ASCENT_DELTAS = (-0.8, -0.4, -0.2, -0.1, 0.1, 0.2, 0.4, 0.8)


def _search_bound(tau_family: Sequence[TauFn], restarts: int, ascent_passes: int) -> float:
    """The largest |tau| that ``conjugate_entropy`` can evaluate.

    Random starts lie in (-1, 1).  The ascent deltas are symmetric, and
    the steps a pass accepts on one side sum to at most their positive
    half (0.8 + 0.4 + 0.2 + 0.1), speculative evaluations included.
    """
    start = max(tau.bound for tau in tau_family)
    if restarts > 1:
        start = max(start, 1.0)
    return start + ascent_passes * sum(d for d in _ASCENT_DELTAS if d > 0)


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
    """Entropy of nu as the negative conjugate of the free energy.

    Maximizes beta*<tau, nu> - G(beta, tau) over the tau family, then
    refines the winner by coordinate ascent on its cell values from
    ``restarts`` starting points (the objective is concave in tau, so
    local ascent is meaningful).  Returns -max as the estimate; since a
    finite family under-reaches the true sup, the value upper-bounds
    the entropy up to the free-energy bands.

    One ``LadderPlan`` holds the seeds' levels for the call, and the
    free energies come from it in batches: the whole family, then every
    start, then, whenever the ascent asks for a potential not yet
    evaluated, that one with the rest of its coordinate's deltas around
    the current pivot.  The walk itself is sequential and reads the
    batches, so an accepted step re-batches the deltas after it.  Each
    free energy equals its ``gibbs_estimate`` bit for bit; the winner,
    the value and ``evaluations``, which counts only the potentials the
    walk asks for, are those of evaluating one potential at a time.

    Raises ValueError when the DP log weights of beta and the largest
    |tau| the search can evaluate (``_search_bound``) could overflow
    float64.
    """
    if tau_family is None:
        tau_family = default_tau_family()
    if not tau_family:
        raise ValueError("tau family must be nonempty")
    _dp_reach(abs(beta), _search_bound(tau_family, restarts, ascent_passes),
              _ladder_box(_ladder_scales(n_ladder), q, q.dimension)[1], q.dimension)
    plan = LadderPlan(seeds, n_ladder, q=q)
    energies: dict[TauFn, EntropyEstimate] = {}
    asked: set[TauFn] = set()

    def evaluate(taus) -> None:
        fresh = list(dict.fromkeys(tau for tau in taus if tau not in energies))
        energies.update(zip(fresh, plan.estimates(beta, fresh)))

    def free_energy(tau: TauFn) -> EntropyEstimate:
        asked.add(tau)
        if tau not in energies:
            evaluate([tau])
        return energies[tau]

    def objective(tau: TauFn) -> float:
        return beta * integral(tau, nu) - free_energy(tau).value

    evaluate(tau_family)
    best_tau = max(tau_family, key=objective)
    best_obj = objective(best_tau)
    family_best_obj = best_obj

    rng = np.random.default_rng(rng_seed)
    starts = [best_tau]
    width = len(best_tau.values)
    for _ in range(max(0, restarts - 1)):
        starts.append(TauFn.from_values(tuple(rng.uniform(-1.0, 1.0, size=width))))
    evaluate(TauFn.from_values(start.values) for start in starts)
    for start in starts:
        values = list(start.values)
        current = objective(TauFn.from_values(values))
        for _ in range(ascent_passes):
            improved = False
            for i in range(width):
                pivot = values[i]
                for j, delta in enumerate(_ASCENT_DELTAS):
                    values[i] = pivot + delta
                    trial_tau = TauFn.from_values(values)
                    if trial_tau not in energies:
                        evaluate(TauFn.from_values(values[:i] + [pivot + rest] + values[i + 1:])
                                 for rest in _ASCENT_DELTAS[j:])
                    trial = objective(trial_tau)
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
            "evaluations": len(asked),
            "family_best_objective": family_best_obj,
            "refined_gain": best_obj - family_best_obj,
            "best_tau": {
                "breakpoints": list(best_tau.breakpoints),
                "values": list(best_tau.values),
            },
        },
    )


@dataclass(frozen=True)
class KlBudgetReport:
    """Audit of: relative entropy to Lebesgue + path entropy <= log-count rate."""

    shannon: float
    kl: float
    estimate: float
    band: float
    slack: float
    violation: bool
    method: str


def kl_budget_check(
    q: Direction, target: Histogram | Measure, estimate: EntropyEstimate
) -> KlBudgetReport:
    """Slack of the entropy budget H(q) - KL(target) - estimate.

    Atomic targets have infinite KL, so the budget demands a -inf
    entropy estimate there: slack is +inf when the estimate agrees and
    -inf (a violation) when a finite estimate sneaks through.
    """
    shannon = shannon_entropy(q)
    kl = kl_divergence(target)
    value = estimate.value
    if math.isinf(kl) and math.isinf(value):
        slack = math.inf if value < 0 else -math.inf
    else:
        slack = shannon - kl - value
    return KlBudgetReport(
        shannon=shannon,
        kl=kl,
        estimate=value,
        band=estimate.band,
        slack=slack,
        violation=slack < -estimate.band,
        method=estimate.method,
    )


def bernoulli_kl(s: float, p: float) -> float:
    """Relative entropy of Bernoulli(s) against Bernoulli(p)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0, 1], got {s}")
    terms = []
    if s > 0.0:
        terms.append(s * math.log(s / p))
    if s < 1.0:
        terms.append((1.0 - s) * math.log((1.0 - s) / (1.0 - p)))
    return math.fsum(terms)


@dataclass(frozen=True)
class BernoulliReport:
    """Growth exponents of threshold-beating path counts vs the budget."""

    p: float
    s: float
    dimension: int
    budget: float
    margin: float
    exponents: dict = field(default_factory=dict)
    final_exponents: dict = field(default_factory=dict)
    max_exponent: float = -math.inf
    within_budget: bool = True


def bernoulli_exponent_check(
    p: float,
    s: float,
    n_ladder: Sequence[int],
    seeds: Sequence[int],
    *,
    dimension: int = 2,
) -> BernoulliReport:
    """Exponent of #(length-n paths with at least n*s unit labels).

    Labels are unit with probability p (a label is "unit" when it falls
    in [1 - p, 1]).  The count is exact and enumerates no path: a DP on
    the level recursion of the partition functions, holding one level
    at a time, keeps per level point one Python integer of fixed-width
    fields, field c counting the paths to the point with exactly c unit
    labels.  An edge adds its source integer, shifted one field up when
    its label is a unit.  The width, one bit more than D^n_max needs,
    bounds every field and every field of a level's sum, so no carry
    crosses fields.  For s > p the exponent
    must fall below log(D) - KL(Bernoulli(s) || Bernoulli(p)) plus a
    finite-size margin; for s <= p typical paths qualify and the budget
    is just log(D).
    """
    if not 0.0 < p < 1.0 or not 0.0 < s <= 1.0:
        raise ValueError(f"need 0 < p < 1 and 0 < s <= 1, got p={p}, s={s}")
    n_ladder = sorted(int(n) for n in n_ladder)
    if not n_ladder or n_ladder[0] < 1:
        raise ValueError("ladder scales must be positive")
    lo = 1.0 - p
    s_exact = s if isinstance(s, Fraction) else Fraction(s)
    log_d = math.log(dimension)
    budget = log_d - bernoulli_kl(float(s_exact), p) if s_exact > Fraction(p) else log_d
    margin = 0.05

    exponents: dict = {}
    final: dict = {}
    n_max = n_ladder[-1]
    # Kronecker substitution: a level point's counts are one integer of
    # width-bit fields, field c counting the length-k paths to the point
    # with exactly c unit labels.  A field counts at most the D^k <=
    # D^n_max paths of length k, and so does each field of a level's
    # sum; D^n_max < 2^(width - 1), so no field carries into the next.
    width = (dimension**n_max).bit_length() + 1
    mask = (1 << width) - 1
    for seed in seeds:
        env = Environment(seed, dimension)
        rows = [1]
        per_n = {}
        for k, (_, pred, label) in enumerate(_level_edges(env, (n_max,) * dimension, n_max), 1):
            # A point adds the integers of its edges (pred -1: no edge) with no
            # 0 to start from, which would copy the first one.
            rows = [functools.reduce(operator.add, [(rows[j] << width) if unit else rows[j]
                                                    for j, unit in zip(preds, units) if j >= 0])
                    for preds, units in zip(pred.tolist(), (label >= lo).tolist())]
            if k in n_ladder:
                packed = sum(rows) >> (width * math.ceil(k * s_exact))
                total = 0
                while packed:
                    total += packed & mask
                    packed >>= width
                per_n[k] = math.log(total) / k if total > 0 else -math.inf
        exponents[seed] = per_n
        final[seed] = per_n[n_max]

    max_exponent = max(final.values())
    return BernoulliReport(
        p=p,
        s=float(s_exact),
        dimension=dimension,
        budget=budget,
        margin=margin,
        exponents=exponents,
        final_exponents=final,
        max_exponent=max_exponent,
        within_budget=max_exponent <= budget + margin,
    )
