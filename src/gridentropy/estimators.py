"""Finite-scale grid entropy estimators from path ensembles.

Two of the three entropy definitions live here.  For a direction q and
a target measure nu:

* order statistics -- the j-th smallest Prokhorov distance
  rho((1/n) mu_path, nu) over all paths to floor(n q); the entropy is
  the critical exponent alpha where j = floor(e^{alpha n}) switches
  from vanishing to bounded away from zero.
* exponential cost sums -- (1/n) log sum over paths of
  exp(-(n/eps) rho((1/n) mu_path, nu)), extrapolated in n and then
  minimized over an eps ladder.

Direction-free (point-to-level) variants sum over all length-floor(n t)
paths instead.  A third definition (convex conjugate of the free
energy) lives in the variational module.

The exact structural identities (termwise bounds, superadditivity under
concatenation, perturbation inequalities) hold for the *unnormalized*
cost sums log sum exp(-(1/eps) rho(mu_path, target)); ``cost_sum``
exposes those for the structure checks, while the normalized form above
is the public estimator.

Everything is deterministic given (seed list, config).  Every path
distance here comes one way: ``lattice.label_rows`` walks the ensemble
in DFS order, in blocks capped in bytes, each row is sorted, and the
prokhorov row kernel turns each block into distances.  Both forms
are functions of one object per ladder point: the profile, the sorted
array of all path distances, built once per (environment, target, n,
ensemble).  Each estimator reads a profile once for its whole eps
ladder or rank grid, the level estimate's cross-check included, and
one LRU store capped in bytes keeps profiles for later calls.  Order
statistics index into a profile and each cost sum is one max-shifted
log-sum-exp over it.  ``cost_sum`` keeps its distances in
the walker's order instead, so its sum adds them in DFS order.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .lattice import (
    DEFAULT_PATH_BUDGET,
    Direction,
    Environment,
    _ensemble,
    label_rows,
)
from .measures import Measure
from .prokhorov import prokhorov_rows

__all__ = [
    "OrderStatSeries",
    "LadderRow",
    "EntropyEstimate",
    "order_stat_series",
    "eps_sum",
    "eps_sum_level",
    "cost_sum",
    "estimate_entropy_orderstats",
    "estimate_entropy_eps",
    "estimate_entropy_level",
    "vanish_threshold",
    "extrapolate_ladder",
]

# Byte cap of the profile store; a bigger profile is used once, not kept.
_PROFILE_STORE_BYTES = 256 << 20
# Byte cap of one block of paths while a profile is built, counting the
# walker's and the row kernel's arrays (see _distances), so the build's
# memory does not grow with --budget.
_PROFILE_BLOCK_BYTES = 1 << 20
_profiles: OrderedDict[tuple, np.ndarray] = OrderedDict()

# Tolerated per-step rise when deciding whether an order-statistic
# sequence is "decreasing" (finite-n noise allowance).
_MONOTONE_SLACK = 0.01


@dataclass(frozen=True)
class OrderStatSeries:
    """Order statistics of path distances at one scale n.

    values[i] is the ranks[i]-th smallest rho((1/n) mu_path, nu); the
    +inf sentinel marks ranks beyond the ensemble size.
    """

    n: int
    target: Measure
    ranks: tuple[int, ...]
    values: tuple[float, ...]
    ensemble: str

    def __post_init__(self):
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks are 1-based and must be >= 1")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("order statistics must be nondecreasing in the rank")


@dataclass(frozen=True)
class LadderRow:
    """One raw estimator evaluation: seed, scale, eps or alpha, value."""

    seed: int
    n: int
    param: float
    raw: float


@dataclass
class EntropyEstimate:
    """Reported entropy value with its ladder data and uncertainty band.

    ``value`` is the headline estimate (-inf when the target is not
    attainable); ``band`` a half-width combining fit residuals and
    ladder gaps.  Raw estimates are never clamped into [0, H(q)]: the
    bound is asymptotic, and ``diagnostics`` records violations instead.
    """

    method: str
    value: float
    ladder: tuple[LadderRow, ...]
    band: float
    diagnostics: dict = field(default_factory=dict)


def _profile(
    env: Environment,
    nu: Measure,
    n_scale: int,
    *,
    endpoint: Sequence[int] | None = None,
    length: int | None = None,
    budget: int = DEFAULT_PATH_BUDGET,
) -> np.ndarray:
    """Sorted, read-only rho((1/n) mu_path, nu) over one ladder point's paths.

    The ensemble is either every path origin -> endpoint or every one
    of the D^length paths from the origin, refused past the budget by
    ``lattice._ensemble`` before the store is read.  The paths' sorted
    label rows arrive in blocks of about _PROFILE_BLOCK_BYTES, each row
    an empirical measure with mass 1/n per label, and one row kernel
    gives each block's distances.  Profiles live in one LRU store of at
    most _PROFILE_STORE_BYTES; a bigger profile is not stored.
    """
    _, end, depth, count = _ensemble(env.dimension, budget, endpoint=endpoint, length=length)
    # end is None for a length ensemble, so (end, depth) names the ensemble.
    key = (env, nu, n_scale, end, depth)
    profile = _profiles.get(key)
    if profile is not None:
        _profiles.move_to_end(key)
        return profile

    profile = np.empty(count)
    filled = 0
    for distances in _distances(env, nu, 1.0 / n_scale, depth,
                                endpoint=endpoint, length=length, budget=budget):
        profile[filled:filled + len(distances)] = distances
        filled += len(distances)
    profile.sort()
    profile.setflags(write=False)
    if profile.nbytes <= _PROFILE_STORE_BYTES:
        _profiles[key] = profile
        stored = sum(p.nbytes for p in _profiles.values())
        while stored > _PROFILE_STORE_BYTES:
            stored -= _profiles.popitem(last=False)[1].nbytes
    return profile


def _distances(env: Environment, nu: Measure, mass: float, depth: int, **ensemble):
    """rho(mass * mu_path, nu) of every path of a ``label_rows`` ensemble.

    Yields one array per block, in the walker's DFS order.  A block
    holds about _PROFILE_BLOCK_BYTES, at 5 * depth + 3 * (depth * m + 1)
    floats per path against the target's m atoms: the walker's labels
    and step axes, the parent links, axes and labels of every level it
    expands (at most one node per path and level), and the row kernel's
    breakpoints with their temporaries.  Each row is sorted before the
    row kernel reads it.  The walker checks the ensemble first, so a
    start past the endpoint raises its ValueError here.
    """
    row_bytes = 8 * max(1, 5 * depth + 3 * (depth * len(nu.atoms) + 1))
    for labels, _ in label_rows(env, _PROFILE_BLOCK_BYTES // row_bytes, **ensemble):
        labels.sort(axis=1)
        yield prokhorov_rows(labels, mass, nu)


_LOG_SUM_EXP_CHUNK = 1 << 16  # terms made Python floats at a time, not the whole array


def _log_sum_exp(xs: np.ndarray) -> float:
    """log sum exp(x) of a float array, shifted by its max so that no term overflows.

    The exponentials are added one at a time in array order with
    ``math.exp``, so a fixed input order gives fixed bits.  Empty or all
    -inf input gives -inf.
    """
    shift = float(np.max(xs, initial=-math.inf))
    if shift == -math.inf:
        return -math.inf
    total = 0.0
    for start in range(0, len(xs), _LOG_SUM_EXP_CHUNK):
        for x in xs[start:start + _LOG_SUM_EXP_CHUNK].tolist():
            total += math.exp(x - shift)
    return shift + math.log(total)


def order_stat_series(
    env: Environment,
    q: Direction,
    nu: Measure,
    n: int,
    ranks: Sequence[int],
    *,
    budget: int = DEFAULT_PATH_BUDGET,
) -> OrderStatSeries:
    """Exact order statistics of rho((1/n) mu_path, nu) over paths to floor(n q).

    Ranks past the ensemble size get the +inf sentinel.
    """
    ranks = tuple(int(j) for j in ranks)
    if not ranks or any(j < 1 for j in ranks):
        raise ValueError("ranks are 1-based and must be >= 1")
    endpoint = q.floor_scale(n)
    profile = _profile(env, nu, n, endpoint=endpoint, budget=budget)
    values = tuple(float(profile[j - 1]) if j <= len(profile) else math.inf for j in ranks)
    return OrderStatSeries(n, nu, ranks, values, ensemble=f"point:{endpoint}")


def eps_sum(
    env: Environment,
    q: Direction,
    nu: Measure,
    n: int,
    eps: float,
    *,
    budget: int = DEFAULT_PATH_BUDGET,
) -> float:
    """Normalized cost sum (1/n) log sum_path exp(-(n/eps) rho((1/n) mu_path, nu))."""
    _cost_scale(n, eps)  # refuses a bad eps before the walk
    return _cost_sums(_profile(env, nu, n, endpoint=q.floor_scale(n), budget=budget), n, [eps])[0]


def eps_sum_level(
    env: Environment,
    t: Fraction | int,
    nu: Measure,
    n: int,
    eps: float,
    *,
    budget: int = DEFAULT_PATH_BUDGET,
) -> float:
    """Direction-free cost sum over all length-floor(n t) paths from the origin."""
    _cost_scale(n, eps)  # refuses a bad eps before the walk
    t = Fraction(t)
    length = (n * t.numerator) // t.denominator
    return _cost_sums(_profile(env, nu, n, length=length, budget=budget), n, [eps])[0]


def _cost_sums(profile: np.ndarray, n: int, eps_ladder: Sequence[float]) -> list[float]:
    """The normalized cost sum (1/n) log sum exp(-(n/eps) rho) of one profile, at each eps."""
    return [_log_sum_exp(-_cost_scale(n, eps) * profile) / n for eps in eps_ladder]


def _cost_scale(n: int, eps: float) -> float:
    """The exponent scale n / eps of a cost sum, checked to be finite.

    An eps so small that n / eps overflows would turn a zero distance
    into -inf * 0 = nan and make the sum silently wrong.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    scale = n / eps
    if not math.isfinite(scale):
        raise ValueError(f"eps={eps} is too small for n={n}: the cost scale n/eps overflows")
    return scale


def cost_sum(
    env: Environment,
    start: Sequence[int],
    endpoint: Sequence[int],
    target: Measure,
    eps: float,
    *,
    budget: int = DEFAULT_PATH_BUDGET,
) -> float:
    """Unnormalized cost sum log sum_path exp(-(1/eps) rho(mu_path, target)).

    The paths run start -> endpoint; an empty start is the origin.
    mu_path is the raw (unnormalized) empirical measure and the target
    carries its full mass.  This is the quantity that is exactly
    superadditive under path concatenation; the structure checks run on
    it.  The terms are summed in the walker's DFS order, one path at a
    time, so the bits do not depend on the block size.
    """
    _cost_scale(1, eps)
    blocks = _distances(env, target, 1.0, sum(endpoint) - sum(start),
                        endpoint=endpoint, start=start, budget=budget)
    with np.errstate(over="ignore"):  # a term past the float range is -inf and drops out
        return _log_sum_exp(-np.concatenate(list(blocks)) / eps)


def vanish_threshold(nu: Measure, n_max: int) -> float:
    """Default decision threshold for "the order statistic vanishes".

    Twice the sum of the target's discretization radius (half the
    largest spacing between adjacent atoms; a target with gaps in its
    support is still resolvable there, so boundary gaps do not count)
    and the 1/n resolution at the largest ladder scale.  A finite-n
    heuristic, not a theorem: almost-sure limits cannot be observed
    directly.
    """
    positions = nu.positions
    if len(positions) > 1:
        radius = max(b - a for a, b in zip(positions, positions[1:])) / 2.0
    else:
        radius = 0.0
    return 2.0 * (radius + 1.0 / n_max)


def _rank_for(alpha: float, n: int, cap: int) -> int:
    """floor(e^{alpha n}), clipped into [1, cap + 1]."""
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    raw = alpha * n
    if raw > math.log(cap + 1):
        return cap + 1
    return max(1, int(math.exp(raw)))


def estimate_entropy_orderstats(
    seeds: Sequence[int],
    q: Direction,
    nu: Measure,
    n_ladder: Sequence[int],
    alpha_grid: Sequence[float],
    *,
    threshold: float | None = None,
    budget: int = DEFAULT_PATH_BUDGET,
) -> EntropyEstimate:
    """Critical-exponent estimate: sup of the alphas whose order statistic vanishes.

    alpha is classified "vanishing" when, for every seed, the sequence
    n -> min^{floor(e^{alpha n})} over the ladder is nonincreasing (up
    to a small noise slack) and its final value is below the threshold.
    The decision rule is a documented heuristic; diagnostics carry the
    ambiguous cases.  Returns -inf when not even alpha = 0 (the single
    smallest distance) vanishes.  Empty seeds raise ValueError.
    """
    seeds = _check_seeds(seeds)
    n_ladder = _ladder_scales(n_ladder)
    if threshold is None:
        threshold = vanish_threshold(nu, n_ladder[-1])

    # One profile read per (seed, n) gives every alpha's order statistic.
    grid = sorted(alpha_grid)
    stats = {}
    for seed, n in itertools.product(dict.fromkeys(seeds), dict.fromkeys(n_ladder)):
        if grid:
            ranks = [_rank_for(alpha, n, budget) for alpha in grid]
            stat = order_stat_series(Environment(seed, q.dimension), q, nu, n, ranks, budget=budget)
            stats[seed, n] = dict(zip(grid, stat.values))

    rows = []
    vanishing: list[float] = []
    ambiguous: list[float] = []
    for alpha in alpha_grid:
        alpha_ok = True
        alpha_close = False
        for seed in seeds:
            series = [stats[seed, n][alpha] for n in n_ladder]
            rows.extend(LadderRow(seed, n, alpha, value) for n, value in zip(n_ladder, series))
            decreasing = all(
                b <= a + _MONOTONE_SLACK for a, b in zip(series, series[1:])
            )
            final_small = series[-1] < threshold
            if not (decreasing and final_small):
                alpha_ok = False
                if math.isfinite(series[-1]) and series[-1] < 2 * threshold:
                    alpha_close = True
        if alpha_ok:
            vanishing.append(alpha)
        elif alpha_close:
            ambiguous.append(alpha)

    value = max(vanishing) if vanishing else -math.inf
    spacing = max(b - a for a, b in zip(grid, grid[1:])) if len(grid) > 1 else 0.0
    return EntropyEstimate(
        method="orderstats",
        value=value,
        ladder=tuple(rows),
        band=spacing,
        diagnostics={
            "threshold": threshold,
            "vanishing": vanishing,
            "ambiguous": ambiguous,
        },
    )


def extrapolate_ladder(ns: Sequence[int], raws: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit raw(n) = a + b/n; returns (a, max abs residual).

    The subadditive structure guarantees the limit exists and is
    approached from one side; 1/n is a pragmatic model for the gap, not
    a claimed rate.
    """
    ns = np.asarray(ns, dtype=np.float64)
    raws = np.asarray(raws, dtype=np.float64)
    design = np.stack([np.ones_like(ns), 1.0 / ns], axis=1)
    coef, *_ = np.linalg.lstsq(design, raws, rcond=None)
    fitted = design @ coef
    return float(coef[0]), float(np.max(np.abs(fitted - raws)))


def _ladder_scales(n_ladder: Sequence[int]) -> list[int]:
    """The ladder scales, sorted; all positive, at least two of them distinct.

    A fit of a + b/n to fewer than two distinct scales is singular, and
    least squares would return a meaningless minimum-norm solution.
    """
    n_ladder = sorted(int(n) for n in n_ladder)
    if len(set(n_ladder)) < 2:
        raise ValueError(f"need at least two ladder scales that differ, got {n_ladder}")
    if n_ladder[0] < 1:
        raise ValueError(f"ladder scales must be positive, got {n_ladder[0]}")
    return n_ladder


def _check_eps_ladder(n_ladder: Sequence[int], eps_ladder: Sequence[float]) -> list[float]:
    """The eps ladder as given: nonempty, positive, strictly decreasing, and
    with a finite cost scale n/eps at the largest n and the smallest eps."""
    eps_ladder = list(eps_ladder)
    if not eps_ladder or not all(eps > 0.0 for eps in eps_ladder):
        raise ValueError(f"eps ladder must be nonempty and positive, got {eps_ladder}")
    if any(e2 >= e1 for e1, e2 in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError(f"eps ladder must be strictly decreasing, got {eps_ladder}")
    _cost_scale(max(n_ladder), min(eps_ladder))
    return eps_ladder


def _check_seeds(seeds: Sequence[int]) -> tuple[int, ...]:
    """The seeds as a tuple, refused when there are none: an estimate over no
    environment has no value."""
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    return seeds


def _check_level_ladder(t: Fraction, n_ladder: Sequence[int]) -> None:
    """Refuse a ladder scale n whose level length floor(n t) is below 1: at
    length 0 every ensemble is the single empty path, which no target
    matches."""
    n = min(n_ladder)
    if n * t.numerator < t.denominator:
        raise ValueError(f"the level length floor(n t) is below 1 at n={n} for t={t}; "
                         f"need n t >= 1 at every ladder scale")


def _fit_eps_ladder(
    seeds: Sequence[int],
    n_ladder: list[int],
    eps_ladder: list[float],
    raws: Callable[[int, int], list[float]],
) -> tuple[list[LadderRow], list[float], int, float]:
    """Extrapolate n -> infinity per eps; return (rows, fits, argmin, band).

    ``raws(seed, n)`` lists every eps's raw cost sum, once per distinct
    (seed, n); each eps fits a + b/n to the seed means over the ladder.
    The band is the largest fit residual plus the gap between the last two fits.
    """
    table = {(seed, n): raws(seed, n) for n in dict.fromkeys(n_ladder)
             for seed in dict.fromkeys(seeds)}
    rows = []
    fits = []
    residuals = []
    for i, eps in enumerate(eps_ladder):
        means = []
        for n in n_ladder:
            values = [table[seed, n][i] for seed in seeds]
            rows.extend(LadderRow(seed, n, eps, value) for seed, value in zip(seeds, values))
            means.append(float(np.mean(values)))
        a, resid = extrapolate_ladder(n_ladder, means)
        fits.append(a)
        residuals.append(resid)
    gap = abs(fits[-1] - fits[-2]) if len(fits) > 1 else 0.0
    return rows, fits, int(np.argmin(fits)), max(residuals) + gap


def estimate_entropy_eps(
    seeds: Sequence[int],
    q: Direction,
    nu: Measure,
    n_ladder: Sequence[int],
    eps_ladder: Sequence[float],
    *,
    budget: int = DEFAULT_PATH_BUDGET,
) -> EntropyEstimate:
    """Cost-sum estimate: extrapolate n -> infinity per eps, then take the min.

    Per-environment raw values are exactly nonincreasing as eps
    decreases (termwise domination); the fitted limits should inherit
    that within the band, and the diagnostic flags violations.  Empty
    seeds and a bad eps ladder (``_check_eps_ladder``) raise ValueError
    before any profile is read.
    """
    seeds = _check_seeds(seeds)
    n_ladder = _ladder_scales(n_ladder)
    eps_ladder = _check_eps_ladder(n_ladder, eps_ladder)

    def raws(seed: int, n: int) -> list[float]:
        env = Environment(seed, q.dimension)
        return _cost_sums(_profile(env, nu, n, endpoint=q.floor_scale(n), budget=budget),
                          n, eps_ladder)

    rows, fits, best, band = _fit_eps_ladder(seeds, n_ladder, eps_ladder, raws)
    value = fits[best]
    monotone = all(b <= a + band for a, b in zip(fits, fits[1:]))
    return EntropyEstimate(
        method="eps_sum",
        value=value,
        ladder=tuple(rows),
        band=band,
        diagnostics={
            "fits_by_eps": dict(zip(eps_ladder, fits)),
            "monotone_in_eps": monotone,
            "argmin_eps": eps_ladder[best],
        },
    )


def estimate_entropy_level(
    seeds: Sequence[int],
    dimension: int,
    nu: Measure,
    n_ladder: Sequence[int],
    eps_ladder: Sequence[float],
    *,
    t: Fraction | None = None,
    budget: int = DEFAULT_PATH_BUDGET,
) -> EntropyEstimate:
    """Direction-free estimate via level sums, with the balanced-direction cross-check.

    The level scale t defaults to the target's total mass (the only
    scale at which the estimate can be finite), as the nearest fraction
    with denominator at most 10**9.  Either way t must be > 0, and
    floor(n t) >= 1 at every ladder scale, since at length 0 every
    ensemble is the single empty path; a mass below 5e-10 rounds to
    t = 0 and is refused with it.  Where
    the ladder allows exact comparison (n t divisible by D), the
    diagnostics carry the per-environment slack of the domination level
    sum >= endpoint sum, and, where two distinct scales allow it, the
    balanced-direction endpoint estimate.  Empty seeds and a bad eps
    ladder raise ValueError before any profile is read.
    """
    if t is None:
        t = Fraction(nu.total_mass).limit_denominator(10**9)
        if t <= 0:
            raise ValueError(
                f"level scale t defaults to the target's total mass {nu.total_mass!r},"
                " which rounds to t = 0; pass t > 0"
            )
    elif t <= 0:
        raise ValueError(f"level scale t must be > 0, got {t}")
    t = Fraction(t)
    seeds = _check_seeds(seeds)
    n_ladder = _ladder_scales(n_ladder)
    _check_level_ladder(t, n_ladder)
    eps_ladder = _check_eps_ladder(n_ladder, eps_ladder)
    balanced = Direction.from_fractions([t / dimension] * dimension)
    exact_ns = [n for n in n_ladder if (n * t.numerator) % (t.denominator * dimension) == 0]
    level_raws, balanced_raws = {}, {}

    def raws(seed: int, n: int) -> list[float]:
        env = Environment(seed, dimension)
        length = (n * t.numerator) // t.denominator
        level_raws[seed, n] = _cost_sums(_profile(env, nu, n, length=length, budget=budget),
                                         n, eps_ladder)
        if n in exact_ns:
            balanced_raws[seed, n] = _cost_sums(
                _profile(env, nu, n, endpoint=balanced.floor_scale(n), budget=budget),
                n, eps_ladder)
        return level_raws[seed, n]

    rows, fits, best, band = _fit_eps_ladder(seeds, n_ladder, eps_ladder, raws)
    value = fits[best]
    # In the ladder rows' order, on which the min of a list holding NaN depends.
    slacks = [level_raws[seed, n][i] - balanced_raws[seed, n][i]
              for i in range(len(eps_ladder)) for n in exact_ns for seed in seeds]

    direction_estimate = None
    difference = None
    if len(set(exact_ns)) >= 2:
        # estimate_entropy_eps(seeds, balanced, nu, exact_ns, eps_ladder), from the same sums.
        _, point_fits, point_best, _ = _fit_eps_ladder(
            seeds, exact_ns, eps_ladder, lambda seed, n: balanced_raws[seed, n])
        direction_estimate = point_fits[point_best]
        difference = value - direction_estimate

    return EntropyEstimate(
        method="eps_sum_level",
        value=value,
        ladder=tuple(rows),
        band=band,
        diagnostics={
            "t": t,
            "fits_by_eps": dict(zip(eps_ladder, fits)),
            "balanced_direction_estimate": direction_estimate,
            "difference_to_direction": difference,
            "min_level_minus_direction_raw": min(slacks, default=math.inf),
        },
    )
