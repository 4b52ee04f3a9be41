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

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .estimators import _check_seeds, _ladder_scales, EntropyEstimate
from .lattice import _level_blocks, Direction, TauFn, shannon_entropy
from .measures import Histogram, Measure, kl_divergence
from .polymer import _gibbs_batch, _ladder_box

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
    if random_count < 0:
        raise ValueError(f"random count must be >= 0, got {random_count}")
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
    The ascent adds in floating point, a few ulps past the exact sum at
    most, so the bound has a relative margin of 2^-40.  Raises
    ValueError for a negative count, and for ascent passes with no
    start to climb from (restarts 0).
    """
    if restarts < 0 or ascent_passes < 0:
        raise ValueError(f"restarts and ascent passes must be >= 0, "
                         f"got {restarts} and {ascent_passes}")
    if ascent_passes and not restarts:
        raise ValueError(f"{ascent_passes} ascent passes need restarts >= 1, got 0")
    start = max(tau.bound for tau in tau_family)
    if restarts > 1:
        start = max(start, 1.0)
    return (start + ascent_passes * sum(d for d in _ASCENT_DELTAS if d > 0)) * (1.0 + 2.0**-40)


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
    ``restarts`` starting points, the winner and then random ones (the
    objective is concave in tau, so local ascent is meaningful); with
    none, the family maximum stands.  Returns -max as the estimate; since a
    finite family under-reaches the true sup, the value upper-bounds
    the entropy up to the free-energy bands.

    The ladder's levels, with every seed's cells, are built once per
    breakpoint set and held for the call; the default family and every
    potential its search reaches share one set, so the labels are hashed
    once.  The free energies come from ``polymer._gibbs_batch`` in
    batches: the whole family, then every start, then, whenever the
    ascent asks for a potential not yet evaluated, that one with the
    rest of its coordinate's deltas around the current pivot.  The walk
    itself is sequential and reads the batches, so an accepted step
    re-batches the deltas after it.  Each free energy equals its
    ``gibbs_estimate`` bit for bit; the winner, the value and
    ``evaluations``, which counts only the potentials the walk asks
    for, are those of evaluating one potential at a time.

    ``_dp_box`` refuses, with ValueError, the ladder's box and the DP
    log weights of beta and the largest |tau| the search can evaluate
    (``_search_bound``, which also refuses a negative count, and ascent
    passes with no restart) before any level is built, and so does
    numpy an ``rng_seed`` it cannot seed from.  That one gate covers
    every potential the search evaluates, so no batch checks again.
    """
    seeds = _check_seeds(seeds)
    if tau_family is None:
        tau_family = default_tau_family()
    if not tau_family:
        raise ValueError("tau family must be nonempty")
    n_ladder = _ladder_scales(n_ladder)
    box, depth = _ladder_box(n_ladder, q, q.dimension, abs(beta),
                             _search_bound(tau_family, restarts, ascent_passes))
    rng = np.random.default_rng(rng_seed)  # drawn from only after the family
    held: dict[tuple[float, ...], list] = {}
    energies: dict[TauFn, EntropyEstimate] = {}
    asked: set[TauFn] = set()

    def levels(tau: TauFn) -> list:
        if tau.breakpoints not in held:
            held[tau.breakpoints] = list(_level_blocks(box, depth, seeds, tau.cell))
        return held[tau.breakpoints]

    def evaluate(taus) -> None:
        fresh = list(dict.fromkeys(tau for tau in taus if tau not in energies))
        energies.update(zip(fresh, _gibbs_batch(seeds, beta, fresh, n_ladder, q, q.dimension,
                                                levels)))

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

    starts = [best_tau][:restarts]
    width = len(best_tau.values)
    for _ in range(restarts - 1):
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


def _check_bernoulli(p: float, s: float) -> None:
    """Refuse, with ValueError, a unit probability p outside (0, 1) or a
    threshold fraction s outside (0, 1]."""
    if not 0.0 < p < 1.0 or not 0.0 < s <= 1.0:
        raise ValueError(f"need 0 < p < 1 and 0 < s <= 1, got p={p}, s={s}")


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
    its label is a unit.  For s > p the exponent must fall below
    log(D) - KL(Bernoulli(s) || Bernoulli(p)) plus a finite-size margin;
    for s <= p typical paths qualify and the budget is just log(D).  The
    box of length-n_max paths passes ``_dp_box`` before any width or
    level is computed.

    No carry: the width, one bit more than D^n_max needs, bounds every
    field and every field of a sum of a level's integers, since a field
    counts at most the D^k paths of length k.  No dead field: a path
    with c unit labels at level k has at most c + (n - k) at a ladder
    scale n >= k, so it can count at some scale only if c >= low(k) =
    max(0, min over n >= k of ceil(n s) - n + k).  For s <= 1, ceil(n s)
    - n never increases with n, so the minimum is at n_max and low(k) =
    max(0, k - slack), slack = n_max - ceil(n_max s) being the non-unit
    labels a counted length-n_max path may have.  Field 0 of a level's
    integers is field low(k), the fields below shifted out: low rises by
    one field a level past slack and never falls, and low(k) <= ceil(k
    s), so no read at a ladder scale needs a pruned field.  The counts
    keep their bits with integers up to ceil(n_max s) fields shorter.

    A level is a numpy object array of those integers, with a trailing
    0 that ``pred`` -1 (no edge) reads.  It is read at the next level's
    offset through two arrays, one for a unit edge and one for any
    other: one is the level itself and the other one shift of it, taken
    once per level.  Each point adds its edges' gathers; Python integer
    sums are exact in any order.
    """
    _check_bernoulli(p, s)
    seeds = _check_seeds(seeds)
    n_ladder = sorted(int(n) for n in n_ladder)
    if not n_ladder or n_ladder[0] < 1:
        raise ValueError("ladder scales must be positive")
    box, n_max = _ladder_box(n_ladder, None, dimension)
    # A label m * 2^-53 is unit (m * 2^-53 >= 1 - p) exactly when m
    # reaches this integer floor.
    unit_floor = math.ceil((1.0 - p) * 2**53)
    s_exact = s if isinstance(s, Fraction) else Fraction(s)
    log_d = math.log(dimension)
    budget = log_d - bernoulli_kl(float(s_exact), p) if s_exact > Fraction(p) else log_d
    margin = 0.05

    exponents: dict = {}
    final: dict = {}
    width = (dimension**n_max).bit_length() + 1
    mask = (1 << width) - 1
    threshold = {n: math.ceil(n * s_exact) for n in n_ladder}
    slack = n_max - threshold[n_max]
    for seed in seeds:
        level = np.array([1, 0], dtype=object)
        per_n = {}
        steps = _level_blocks(box, n_max, [seed], lambda bits: bits[0] >= unit_floor)
        for k, (_, pred, unit) in enumerate(steps, 1):
            # Up to slack no field dies and a unit edge moves a count one
            # field up; past it field 0 dies and a unit edge keeps it in place.
            up, same = (level << width, level) if k <= slack else (level, level >> width)
            level = np.append(np.where(unit, up[pred], same[pred]).sum(axis=1), 0)
            if k in threshold:
                packed = level.sum() >> width * (threshold[k] - max(0, k - slack))
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
