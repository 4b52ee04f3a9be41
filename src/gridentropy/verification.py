"""Bundled verification suite: every shipped claim at its published scale.

Each criterion function runs one verification at the scale and
tolerance we publish in the README and returns check rows; ``run``
wraps them with wall-clock budgets.  The suite is deterministic given
``base_seed``: environments use ``base_seed + 1 ..``, random measure
draws use dedicated numpy generators, and estimator defaults are the
package defaults.  The suite keeps no cache of its own: each criterion
calls its estimator, and the estimators' profile store shares the
Lebesgue-target profiles across criteria 5, 6, 10 and 12.  The suite
runs on numpy and the standard library alone.
"""

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .estimators import (
    EntropyEstimate,
    cost_sum,
    eps_sum,
    eps_sum_level,
    estimate_entropy_eps,
    estimate_entropy_level,
    estimate_entropy_orderstats,
)
from .lattice import (
    Direction,
    Environment,
    TauFn,
    label_rows,
    path_count,
)
from .measures import (
    Histogram,
    Measure,
    add,
    discretize_lebesgue,
    scale,
    tv_distance,
)
from .polymer import (
    DpTable,
    gibbs_estimate,
    last_passage,
    sample_polymer_paths,
)
from .prokhorov import prokhorov_brute, prokhorov_distance
from .variational import bernoulli_exponent_check, conjugate_entropy, kl_budget_check

__all__ = [
    "CheckRow",
    "CriterionReport",
    "VerificationSuite",
    "format_table",
]

_Q2 = Direction.parse("1/2,1/2")
_N_LADDER = (6, 8, 10, 12)
_EPS_LADDER = (8.0, 4.0, 2.0)
_ALPHA_GRID = tuple(round(0.05 * k, 2) for k in range(21))
_TAU16 = TauFn.identity_ladder(16)
_ZERO = TauFn.constant(0.0)

TITLES = {
    1: "metric solver equals the definitional oracle",
    2: "metric dominated by TV and subadditive over sums",
    3: "partition DP equals path enumeration",
    4: "exact per-environment cost-sum structure",
    5: "Lebesgue target: eps and order-stat estimates",
    6: "three estimators agree on the Lebesgue target",
    7: "free energy at zero potential matches log 2",
    8: "zero-temperature sandwich around the passage time",
    9: "sampler frequencies match polymer weights",
    10: "entropy stays inside the KL budget",
    11: "threshold-count exponent under the closed-form budget",
    12: "length-conditioned and direction estimates agree",
}

BUDGET_SECONDS = {
    1: 10.0,
    2: 30.0,
    3: 10.0,
    4: 60.0,
    5: 900.0,
    6: 1200.0,
    7: 60.0,
    8: 5.0,
    9: 30.0,
    10: 1200.0,
    11: 5.0,
    12: 900.0,
}


@dataclass(frozen=True)
class CheckRow:
    """One measured quantity against its published bound."""

    criterion: int
    check: str
    measured: float
    bound: float
    passed: bool


@dataclass
class CriterionReport:
    """All rows of one criterion plus its wall-clock budget."""

    criterion: int
    title: str
    rows: list[CheckRow]
    seconds: float
    budget_seconds: float

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows) and self.seconds <= self.budget_seconds


def _random_measure(rng: np.random.Generator, max_atoms: int) -> Measure:
    count = int(rng.integers(1, max_atoms + 1))
    return Measure(
        (float(rng.uniform()), float(rng.uniform(0.1, 2.0))) for _ in range(count)
    )


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with an integer dof >= 1, in closed form.

    Abramowitz & Stegun 26.4.4 (even dof): exp(-x/2) times the series
    sum_k (x/2)^k / k! over k < dof/2.  26.4.5 (odd dof): erfc(sqrt(x/2))
    plus sqrt(2x/pi) exp(-x/2) times sum_r x^(r-1) / (1*3*...*(2r-1))
    over 1 <= r <= (dof-1)/2.  Both series start at 1 and grow each
    term by x/k for k = 2, 4, .. or 3, 5, .. below dof - 1.
    """
    term = total = 0.0 if dof == 1 else 1.0
    for k in range(2 + dof % 2, dof - 1, 2):
        term *= x / k
        total += term
    if dof % 2 == 0:
        return math.exp(-x / 2) * total
    return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2) * total


def _enum_weights(env: Environment, endpoint, beta: float,
                  tau: TauFn) -> tuple[list[tuple[int, ...]], list[float], float]:
    """Every path to the endpoint by enumeration: the paths' steps, their
    beta-weights, and the log of the partition function they sum to."""
    labels, steps = next(label_rows(env, path_count(endpoint), endpoint=endpoint))
    paths = [tuple(axes) for axes in steps.tolist()]
    weights = [beta * math.fsum(tau(u) for u in row) for row in labels.tolist()]
    top = max(weights)
    return paths, weights, top + math.log(math.fsum(math.exp(w - top) for w in weights))


class VerificationSuite:
    """Deterministic acceptance checks."""

    def __init__(self, base_seed: int = 0):
        self.base_seed = base_seed
        self._lam64 = discretize_lebesgue(64)
        self._half = Histogram([1.0 / 32 if i < 32 else 0.0 for i in range(64)])
        self._triangular = Histogram([(2 * i + 1) / 64**2 for i in range(64)])

    def _seeds(self, count: int) -> tuple[int, ...]:
        return tuple(self.base_seed + i for i in range(1, count + 1))

    # -- estimates read by more than one criterion ---------------------

    def _eps_lam(self) -> EntropyEstimate:
        return estimate_entropy_eps(self._seeds(5), _Q2, self._lam64, _N_LADDER, _EPS_LADDER)

    def _orderstats(self, nu: Measure) -> EntropyEstimate:
        return estimate_entropy_orderstats(self._seeds(5), _Q2, nu, _N_LADDER, _ALPHA_GRID)

    # -- criteria --------------------------------------------------------

    def criterion_1(self) -> list[CheckRow]:
        rng = np.random.default_rng(self.base_seed + 101)
        worst = 0.0
        for _ in range(200):
            mu = _random_measure(rng, 8)
            nu = _random_measure(rng, 8)
            worst = max(worst, abs(prokhorov_distance(mu, nu) - prokhorov_brute(mu, nu)))
        return [CheckRow(1, "max |flow - brute|", worst, 1e-12, worst <= 1e-12)]

    def criterion_2(self) -> list[CheckRow]:
        rng = np.random.default_rng(self.base_seed + 102)
        worst_tv = -math.inf
        worst_sub = -math.inf
        for _ in range(500):
            mu1, nu1 = _random_measure(rng, 6), _random_measure(rng, 6)
            mu2, nu2 = _random_measure(rng, 6), _random_measure(rng, 6)
            worst_tv = max(
                worst_tv, prokhorov_distance(mu1, nu1) - tv_distance(mu1, nu1))
            combined = prokhorov_distance(add(mu1, mu2), add(nu1, nu2))
            worst_sub = max(
                combined - prokhorov_distance(mu1, nu1) - prokhorov_distance(mu2, nu2),
                worst_sub)
        return [
            CheckRow(2, "max rho - TV", worst_tv, 1e-9, worst_tv <= 1e-9),
            CheckRow(2, "max subadditivity slack", worst_sub, 1e-9, worst_sub <= 1e-9),
        ]

    def criterion_3(self) -> list[CheckRow]:
        worst = 0.0
        for seed in self._seeds(5):
            env = Environment(seed, 2)
            for endpoint in ((6, 6), (5, 3), (2, 6)):
                for beta in (0.5, 1.0, 2.0):
                    dp = DpTable.point(env, endpoint, beta, _TAU16).log_value()
                    _, _, brute = _enum_weights(env, endpoint, beta, _TAU16)
                    worst = max(worst, abs(dp - brute) / abs(brute))
        return [CheckRow(3, "max relative DP error", worst, 1e-10, worst <= 1e-10)]

    def criterion_4(self) -> list[CheckRow]:
        seeds = self._seeds(20)
        slop = 1e-9
        lam8 = discretize_lebesgue(8)
        half_measure = self._half.to_measure()

        interval_bad = 0
        for seed in seeds:
            env = Environment(seed, 2)
            for nu in (lam8, half_measure):
                for n in (4, 6):
                    for eps in (1.0, 0.5):
                        value = eps_sum(env, _Q2, nu, n, eps)
                        scaled = sum(_Q2.floor_scale(n)) / n
                        lower = -(1.0 / eps) * (scaled + nu.total_mass)
                        upper = scaled * math.log(2)
                        if not (lower - slop <= value <= upper + slop):
                            interval_bad += 1

        superadd_bad = 0
        for seed in seeds:
            env = Environment(seed, 2)
            point = Measure([(0.5, 1.0)])
            # whole[m] for m <= 4 doubles as the head of the split at m.
            whole = {s: cost_sum(env, (0, 0), (s, s), scale(point, 2.0 * s), 1.0)
                     for s in range(1, 9)}
            for m in range(1, 5):
                for n in range(1, 5):
                    tail = cost_sum(
                        env, (m, m), (m + n, m + n), scale(point, 2.0 * n), 1.0)
                    if whole[m + n] < whole[m] + tail - slop:
                        superadd_bad += 1
            lam4 = discretize_lebesgue(4)
            rich_whole = {s: cost_sum(env, (0, 0), (s, s), scale(lam4, 2.0 * s), 1.0)
                          for s in range(1, 6)}
            for m in range(1, 5):
                for n in range(1, 5):
                    if m + n > 5:
                        continue
                    tail = cost_sum(
                        env, (m, m), (m + n, m + n), scale(lam4, 2.0 * n), 1.0)
                    if rich_whole[m + n] < rich_whole[m] + tail - slop:
                        superadd_bad += 1

        perturb_bad = 0
        p_low = Direction.parse("1/4,1/4")
        p_mid = Direction.parse("1/2,1/4")
        for seed in seeds:
            env = Environment(seed, 2)
            for p in (p_low, p_mid):
                for nu, xi in ((lam8, lam8), (lam8, half_measure)):
                    for n in (4, 8):
                        eps = 1.0
                        drift = sum(
                            abs(a - b) for a, b in
                            zip(_Q2.floor_scale(n), p.floor_scale(n))) / n
                        lhs = eps_sum(env, p, xi, n, eps) - (1.0 / eps) * (
                            drift + prokhorov_distance(nu, xi))
                        if lhs > eps_sum(env, _Q2, nu, n, eps) + slop:
                            perturb_bad += 1

        decomp_worst = 0.0
        for seed in seeds:
            env = Environment(seed, 2)
            n = 5
            level_value = eps_sum_level(env, Fraction(1), lam8, n, 1.0)
            pieces = []
            for i in range(n + 1):
                pieces.append(math.exp(
                    n * eps_sum(env, Direction.from_fractions(
                        (Fraction(i, n), Fraction(n - i, n))), lam8, n, 1.0)))
            total = math.fsum(pieces)
            decomp_worst = max(
                decomp_worst,
                abs(math.exp(n * level_value) - total) / total)

        return [
            CheckRow(4, "interval bound violations", interval_bad, 0, interval_bad == 0),
            CheckRow(4, "superadditivity violations", superadd_bad, 0, superadd_bad == 0),
            CheckRow(4, "perturbation violations", perturb_bad, 0, perturb_bad == 0),
            CheckRow(4, "level decomposition max rel err", decomp_worst, 1e-10,
                     decomp_worst <= 1e-10),
        ]

    def criterion_5(self) -> list[CheckRow]:
        eps_est = self._eps_lam()
        order_est = self._orderstats(self._lam64)
        eps_err = abs(eps_est.value - math.log(2))
        vanishing = order_est.diagnostics["vanishing"]
        top = max(vanishing) if vanishing else -math.inf
        return [
            CheckRow(5, "|eps estimate - log 2|", eps_err, 0.10, eps_err <= 0.10),
            CheckRow(5, "largest vanishing alpha >=", top, 0.45, top >= 0.45),
            CheckRow(5, "largest vanishing alpha <", top, 0.80, top < 0.80),
        ]

    def criterion_6(self) -> list[CheckRow]:
        values = (
            self._eps_lam().value,
            self._orderstats(self._lam64).value,
            conjugate_entropy(self._seeds(5), _Q2, self._lam64, 1.0).value,
        )
        gap = max(abs(a - b) for a in values for b in values)
        return [CheckRow(6, "max pairwise estimator gap", gap, 0.15, gap <= 0.15)]

    def criterion_7(self) -> list[CheckRow]:
        est = gibbs_estimate(
            self._seeds(5), 1.0, _ZERO, (256, 512, 1024, 2048), q=_Q2)
        err = abs(est.value - math.log(2))
        return [CheckRow(7, "|free energy - log 2|", err, 0.02, err <= 0.02)]

    def criterion_8(self) -> list[CheckRow]:
        beta = 100.0
        bad = 0
        for seed in (self.base_seed + 7, self.base_seed + 9):
            env = Environment(seed, 2)
            for endpoint in ((8, 8), (5, 8), (8, 3)):
                passage, _ = last_passage(env, endpoint, _TAU16)
                log_z = DpTable.point(env, endpoint, beta, _TAU16).log_value()
                gap = log_z / beta - passage
                ceiling = math.log(path_count(endpoint)) / beta
                if not (-1e-9 <= gap <= ceiling + 1e-12):
                    bad += 1
        return [CheckRow(8, "sandwich violations", bad, 0, bad == 0)]

    def criterion_9(self) -> list[CheckRow]:
        env = Environment(self.base_seed + 1, 2)
        rows = []
        for check, endpoint, beta, draws in (
            ("chi-square p at weighted choice", (3, 3), 1.0, 200_000),
            ("chi-square p at zero temperature", (2, 2), 0.0, 30_000),
        ):
            table = DpTable.point(env, endpoint, beta, _TAU16)
            paths, weights, total = _enum_weights(env, endpoint, beta, _TAU16)
            expected = [draws * math.exp(w - total) for w in weights]
            first = self.base_seed * 1_000_000
            steps = sample_polymer_paths(table, range(first, first + draws))
            counts = Counter(zip(*steps.T.tolist()))  # one step-axes tuple per row
            statistic = math.fsum(
                (counts[p] - e) ** 2 / e for p, e in zip(paths, expected))
            p_value = _chi2_sf(statistic, len(paths) - 1)
            rows.append(CheckRow(9, check, p_value, 0.01, p_value > 0.01))
        return rows

    def criterion_10(self) -> list[CheckRow]:
        rows = []
        for key, hist, nu in (
            ("lebesgue", Histogram([1.0 / 64] * 64), self._lam64),
            ("uniform-half", self._half, self._half.to_measure()),
            ("triangular", self._triangular, self._triangular.to_measure()),
        ):
            report = kl_budget_check(_Q2, hist, self._orderstats(nu))
            rows.append(CheckRow(
                10, f"budget slack at {key}", report.slack, -0.10,
                report.slack >= -0.10))
        return rows

    def criterion_11(self) -> list[CheckRow]:
        report = bernoulli_exponent_check(
            0.5, 0.75, (50, 100, 200), self._seeds(2))
        bound = report.budget + report.margin
        return [CheckRow(
            11, "max count exponent", report.max_exponent, bound,
            report.max_exponent <= bound)]

    def criterion_12(self) -> list[CheckRow]:
        level_est = estimate_entropy_level(
            self._seeds(5), 2, self._lam64, _N_LADDER, _EPS_LADDER)
        diff = abs(level_est.diagnostics["difference_to_direction"])
        floor = level_est.diagnostics["min_level_minus_direction_raw"]
        return [
            CheckRow(12, "|level - direction estimate|", diff, 0.10, diff <= 0.10),
            CheckRow(12, "min per-env level - direction", floor, 0,
                     floor >= -1e-9),
        ]

    def run(self, criteria: Sequence[int] | None = None) -> list[CriterionReport]:
        chosen = sorted(criteria) if criteria else sorted(TITLES)
        reports = []
        for number in chosen:
            fn: Callable[[], list[CheckRow]] = getattr(self, f"criterion_{number}")
            start = time.perf_counter()
            rows = fn()
            elapsed = time.perf_counter() - start
            reports.append(CriterionReport(
                number, TITLES[number], rows, elapsed, BUDGET_SECONDS[number]))
        return reports


def format_table(reports: Sequence[CriterionReport]) -> str:
    """Fixed-width pass/fail table, one row per check plus runtimes."""
    lines = [f"{'crit':>4}  {'check':<38} {'measured':>14} {'bound':>12}  result"]
    for report in reports:
        for row in report.rows:
            lines.append(
                f"{row.criterion:>4}  {row.check:<38} {row.measured:>14.6g} "
                f"{row.bound:>12.6g}  {'pass' if row.passed else 'FAIL'}")
        within = report.seconds <= report.budget_seconds
        lines.append(
            f"{report.criterion:>4}  {'runtime (s)':<38} {report.seconds:>14.2f} "
            f"{report.budget_seconds:>12.0f}  {'pass' if within else 'FAIL'}")
    return "\n".join(lines)
