"""Duality layer: sup/conjugate searches, KL budget, Bernoulli counts."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gridentropy import (
    CandidateFamily,
    Direction,
    DpTable,
    Environment,
    EntropyEstimate,
    Histogram,
    Measure,
    TauFn,
    bernoulli_exponent_check,
    bernoulli_kl,
    conjugate_entropy,
    default_tau_family,
    discretize_lebesgue,
    estimate_entropy_eps,
    gibbs_estimate,
    integral,
    kl_budget_check,
    last_passage,
    shannon_entropy,
    variational_sup,
)
import conjugate_oracle
from path_oracle import enumerate_level_paths
from bernoulli_oracle import bernoulli_exponents

Q2 = Direction.parse("1/2,1/2")
LAM64 = discretize_lebesgue(64)
ZERO = TauFn.constant(0.0)
ID16 = TauFn.identity_ladder(16)


def _half_measure():
    return Histogram([1.0 / 16] * 16 + [0.0] * 16).to_measure()


def _stub(value: float, band: float = 0.01) -> EntropyEstimate:
    return EntropyEstimate("stub", value, (), band)


def test_integral_constant_and_zero():
    """A constant potential integrates to value times total mass."""
    assert integral(TauFn.constant(1.0), LAM64) == pytest.approx(1.0, abs=1e-15)
    assert integral(ZERO, LAM64) == 0.0
    two = Measure([(0.25, 1.5), (0.75, 0.5)])
    assert integral(TauFn.constant(3.0), two) == pytest.approx(6.0, abs=1e-15)


def test_integral_half_indicator_lambda():
    """Indicator of the upper half picks up exactly half of Lambda_64."""
    assert integral(TauFn.indicator(0.5), LAM64) == 0.5


def test_integral_matches_hand_fsum():
    """Atom-by-atom integral agrees with an explicit fsum."""
    hand = math.fsum(m * ID16(p) for p, m in LAM64.atoms)
    assert integral(ID16, LAM64) == hand


def test_family_mass_mismatch_raises():
    """Members of one family must share a total mass."""
    with pytest.raises(ValueError):
        CandidateFamily("bad", ((LAM64, _stub(0.5)), (Measure([(0.5, 2.0)]), _stub(0.1))))


def test_sup_single_member_exact():
    """A one-member family degenerates to beta*<tau,nu> + estimate."""
    fam = CandidateFamily("single", ((LAM64, _stub(0.6, 0.02)),))
    res = variational_sup(1.5, ID16, fam)
    assert res.value == pytest.approx(1.5 * integral(ID16, LAM64) + 0.6, abs=1e-12)
    assert res.argmax is LAM64
    assert res.band == 0.02


def test_sup_picks_max_and_band():
    """The sup selects the best member and reports the largest band."""
    hi = Measure([(0.9, 1.0)])
    fam = CandidateFamily("pair", ((LAM64, _stub(0.6, 0.02)), (hi, _stub(0.1, 0.05))))
    res = variational_sup(1.0, ID16, fam)
    want = max(integral(ID16, LAM64) + 0.6, integral(ID16, hi) + 0.1)
    assert res.value == pytest.approx(want, abs=1e-12)
    assert res.band == 0.05


def test_sup_empty_family_raises():
    """An empty family has no sup."""
    with pytest.raises(ValueError):
        variational_sup(1.0, ZERO, CandidateFamily("empty", ()))


def test_sup_zero_potential_is_max_entropy():
    """With tau = 0 the sup reduces to the largest entropy in the family."""
    hi = Measure([(0.9, 1.0)])
    fam = CandidateFamily("pair", ((LAM64, _stub(0.69, 0.01)), (hi, _stub(0.2, 0.01))))
    res = variational_sup(1.0, ZERO, fam)
    assert res.value == 0.69
    assert res.argmax is LAM64


def test_sup_large_beta_recovers_time_constant_formula():
    """At large beta the scaled sup approaches the best mean potential."""
    hi = Measure([(0.9, 1.0)])
    fam = CandidateFamily("pair", ((LAM64, _stub(0.69, 0.01)), (hi, _stub(0.0, 0.01))))
    beta = 200.0
    res = variational_sup(beta, ID16, fam)
    best_mean = max(integral(ID16, LAM64), integral(ID16, hi))
    assert abs(res.value / beta - best_mean) <= 0.69 / beta + 1e-12
    assert res.argmax is hi


def test_sup_stays_below_free_energy():
    """A finite-family sup under-reaches the matching free energy."""
    est_lam = estimate_entropy_eps((1, 2), Q2, LAM64, (6, 8), (8.0, 4.0, 2.0))
    half = _half_measure()
    est_half = estimate_entropy_eps((1, 2), Q2, half, (6, 8), (8.0, 4.0, 2.0))
    fam = CandidateFamily("pair", ((LAM64, est_lam), (half, est_half)))
    for beta in (0.5, 1.0):
        res = variational_sup(beta, ID16, fam)
        free = gibbs_estimate((1, 2), beta, ID16, (32, 64, 128), q=Q2)
        assert res.value <= free.value + res.band + free.band


def test_conjugate_zero_family_equals_free_energy():
    """With tau family {0} the conjugate is exactly the free energy."""
    conj = conjugate_entropy(
        (1, 2), Q2, LAM64, 1.0, tau_family=[ZERO], n_ladder=(32, 64, 128),
        restarts=0, ascent_passes=0,
    )
    free = gibbs_estimate((1, 2), 1.0, ZERO, (32, 64, 128), q=Q2)
    assert conj.value == free.value
    assert conj.band == free.band
    assert conj.method == "conjugate"


def test_conjugate_lambda_agrees_with_other_estimates():
    """On the Lebesgue target the conjugate sits near log 2, above eps."""
    fam = default_tau_family(3, random_count=2)
    conj = conjugate_entropy(
        (1, 2), Q2, LAM64, 1.0, tau_family=fam, n_ladder=(32, 64),
        restarts=1, ascent_passes=1,
    )
    assert abs(conj.value - math.log(2)) < 0.15
    eps = estimate_entropy_eps((1, 2, 3), Q2, LAM64, (6, 8, 10), (8.0, 4.0, 2.0))
    assert conj.value >= eps.value - conj.band - eps.band


def test_conjugate_upper_bounds_entropy_on_half_intervals():
    """Conjugate <= eps estimate + bands across ten random half intervals."""
    fam = default_tau_family(3, random_count=2)
    offsets = np.random.default_rng(41).choice(32, size=10, replace=False)
    for lo_bin in offsets:
        masses = [0.0] * 64
        for i in range(lo_bin, lo_bin + 32):
            masses[i] = 1.0 / 32
        nu = Histogram(masses).to_measure()
        conj = conjugate_entropy(
            (1, 2), Q2, nu, 1.0, tau_family=fam, n_ladder=(32, 64),
            restarts=1, ascent_passes=1,
        )
        eps = estimate_entropy_eps((1, 2), Q2, nu, (6, 8), (8.0, 4.0, 2.0))
        assert conj.value <= eps.value + conj.band + eps.band


def _count_level_walks(monkeypatch):
    """The ``_level_blocks`` calls the conjugate search makes, as a list."""
    from gridentropy import variational

    walks = []
    level_blocks = variational._level_blocks
    monkeypatch.setattr(variational, "_level_blocks",
                        lambda *args: walks.append(args) or level_blocks(*args))
    return walks


def test_conjugate_shared_levels_change_nothing(monkeypatch):
    """Levels held once for the search give the search of streaming each
    evaluation: the sequential oracle, one ``gibbs_estimate`` per potential
    it asks for."""
    kwargs = dict(
        tau_family=default_tau_family(2, random_count=1), n_ladder=(8, 16, 32),
        restarts=2, ascent_passes=1,
    )
    walks = _count_level_walks(monkeypatch)
    shared = conjugate_entropy((1, 2), Q2, LAM64, 1.0, **kwargs)
    calls = []

    def streamed(*args, **rest):
        calls.append(args)
        return gibbs_estimate(*args, **rest)

    monkeypatch.setattr(conjugate_oracle, "gibbs_estimate", streamed)
    alone = conjugate_oracle.conjugate_entropy((1, 2), Q2, LAM64, 1.0, **kwargs)
    assert len(calls) == alone.diagnostics["evaluations"]
    assert len(walks) == 1
    assert alone.value == shared.value
    assert alone.diagnostics == shared.diagnostics
    assert alone.ladder == shared.ladder


def test_a_default_family_search_walks_the_levels_once(monkeypatch):
    """The default family, its random starts and every ascent step share one
    breakpoint set, so one search builds and hashes the levels once."""
    walks = _count_level_walks(monkeypatch)
    est = conjugate_entropy((1, 2), Q2, discretize_lebesgue(8), 1.0, n_ladder=(8, 16))
    assert est.diagnostics["evaluations"] > est.diagnostics["family_size"] == 89
    assert len(walks) == 1


# Restarts 0..3 with passes 0..3, but for passes without a start (refused).
@pytest.mark.parametrize("restarts, passes", [
    (restarts, passes) for restarts in range(4) for passes in range(4) if restarts or not passes])
def test_every_evaluated_potential_is_inside_the_search_bound(monkeypatch, restarts, passes):
    """Every potential the search hands to ``_gibbs_batch`` has |tau| within
    ``_search_bound``, the one reach its gate checks; no batch checks again.
    Random starts and ascent steps reach past the family's bound of 1."""
    from gridentropy import polymer, variational

    family = default_tau_family(2, random_count=2, rng_seed=restarts * 4 + passes)
    bound = variational._search_bound(family, restarts, passes)
    bounds = []
    gibbs_batch = polymer._gibbs_batch
    monkeypatch.setattr(variational, "_gibbs_batch", lambda seeds, beta, taus, *rest: (
        bounds.extend(tau.bound for tau in taus) or gibbs_batch(seeds, beta, taus, *rest)))
    conjugate_entropy((1,), Q2, _half_measure(), 1.0, tau_family=family, n_ladder=(8, 16),
                      restarts=restarts, ascent_passes=passes, rng_seed=passes)
    assert len(bounds) >= len(family)
    assert max(bounds) <= bound
    if restarts and passes:
        assert max(bounds) > 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_conjugate_refuses_a_reach_past_the_float_range():
    """A beta whose DP log weights could overflow over the potentials the
    search can reach, the family's bound plus 1.5 per ascent pass, raises
    ValueError up front instead of returning nan."""
    kwargs = dict(tau_family=default_tau_family(2, random_count=0), n_ladder=(8, 16),
                  restarts=1)
    with pytest.raises(ValueError, match="past the float64 range"):
        conjugate_entropy((1,), Q2, discretize_lebesgue(8), 1e308, ascent_passes=0, **kwargs)
    # 16 steps of 2e298 * (1 + 2 * 1.5) reach 1.28e300; of 2e298 * 1, 3.2e299.
    with pytest.raises(ValueError, match="past the float64 range"):
        conjugate_entropy((1,), Q2, discretize_lebesgue(8), 2e298, ascent_passes=2, **kwargs)
    est = conjugate_entropy((1,), Q2, discretize_lebesgue(8), 2e298, ascent_passes=0, **kwargs)
    assert math.isfinite(est.value)


@pytest.mark.parametrize("restarts, passes", [(0, -2), (-1, 0), (0, 1), (2, -1)])
def test_conjugate_refuses_negative_counts_and_passes_without_a_start(restarts, passes):
    """A negative restart or pass count, or ascent passes with no start to
    climb from, raise ValueError."""
    with pytest.raises(ValueError, match="restarts"):
        conjugate_entropy((1,), Q2, discretize_lebesgue(8), 1.0, n_ladder=(8, 16),
                          tau_family=default_tau_family(2, random_count=0),
                          restarts=restarts, ascent_passes=passes)


def test_conjugate_refuses_a_bad_rng_seed_before_any_free_energy(monkeypatch):
    """An rng_seed numpy cannot seed from raises before the family's batch runs."""
    from gridentropy import variational

    batches = []
    gibbs_batch = variational._gibbs_batch
    monkeypatch.setattr(variational, "_gibbs_batch",
                        lambda *args: batches.append(args) or gibbs_batch(*args))
    walks = _count_level_walks(monkeypatch)
    with pytest.raises(ValueError, match="non-negative"):
        conjugate_entropy((1, 2), Direction.parse("1/2,1/2"), discretize_lebesgue(8), 1.0,
                          n_ladder=(16, 32), rng_seed=-1)
    assert batches == [] and walks == []


def test_conjugate_without_a_start_is_the_family_maximum():
    """restarts=0 runs no ascent: the estimate is the family's best member,
    and only the family is evaluated."""
    family = default_tau_family(2, random_count=1)
    kwargs = dict(tau_family=family, n_ladder=(8, 16), ascent_passes=0)
    est = conjugate_entropy((1,), Q2, _half_measure(), 1.0, restarts=0, **kwargs)
    assert est.value == -est.diagnostics["family_best_objective"]
    assert est.diagnostics["evaluations"] == len(family)


def test_default_tau_family_refuses_a_negative_random_count():
    with pytest.raises(ValueError, match="random count"):
        default_tau_family(2, random_count=-3)


def _assert_search_matches_oracle(seeds, nu, beta, **kwargs):
    got = conjugate_entropy(seeds, Q2, nu, beta, **kwargs)
    want = conjugate_oracle.conjugate_entropy(seeds, Q2, nu, beta, **kwargs)
    assert got.value == want.value
    assert got.ladder == want.ladder
    assert got.diagnostics == want.diagnostics
    assert got == want


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("restarts, passes",
                         [(r, p) for r in (1, 2, 3) for p in (0, 1, 2)])
def test_batched_search_equals_the_sequential_oracle(k, restarts, passes):
    """The batched search picks the oracle's winner, with its floats and its
    evaluation count, for one seed and for several."""
    seeds = (1,) if (k + restarts + passes) % 2 else (2, 5, 7)
    _assert_search_matches_oracle(
        seeds, _half_measure(), 1.0,
        tau_family=default_tau_family(k, random_count=2, rng_seed=k),
        n_ladder=(4, 8, 12), restarts=restarts, ascent_passes=passes, rng_seed=restarts)


@pytest.mark.parametrize("seeds", [(3,), (1, 4)])
def test_batched_search_over_mixed_breakpoints_equals_the_oracle(seeds):
    """A family whose potentials have different breakpoints runs one batch per
    breakpoint set; the ascent from the winner moves to equal cells."""
    family = (TauFn.identity_ladder(16), TauFn.indicator(0.3),
              TauFn.from_values((0.5, -0.5, 1.0)), TauFn.from_values((-1.0, 0.25)),
              TauFn.indicator(0.7))
    for nu in (LAM64, _half_measure()):
        for beta in (0.5, 2.0):
            _assert_search_matches_oracle(
                seeds, nu, beta, tau_family=family, n_ladder=(4, 8, 16),
                restarts=3, ascent_passes=2)


def test_default_tau_family_shape():
    """The default family holds every sign ladder plus the random ones."""
    fam = default_tau_family(3, random_count=4)
    assert len(fam) == 3**3 + 4
    assert TauFn.from_values((0.0, 0.0, 0.0)) in fam
    assert len({t.values for t in fam}) >= 3**3
    with pytest.raises(ValueError):
        default_tau_family(9)


def test_kl_budget_lambda_slack_small():
    """Lambda has zero KL, so the slack is the estimator's bias alone."""
    eps = estimate_entropy_eps((1, 2, 3), Q2, LAM64, (6, 8, 10), (8.0, 4.0, 2.0))
    report = kl_budget_check(Q2, Histogram([1.0 / 64] * 64), eps)
    assert report.kl == 0.0
    assert report.shannon == pytest.approx(math.log(2), abs=1e-12)
    assert abs(report.slack) < 0.15
    assert not report.violation


def test_kl_budget_uniform_half_closed_form():
    """Uniform on the lower half has KL exactly log 2."""
    half = Histogram([1.0 / 16] * 16 + [0.0] * 16)
    report = kl_budget_check(Q2, half, _stub(0.0, 0.01))
    assert report.kl == pytest.approx(math.log(2), abs=1e-15)
    assert report.slack >= -report.band
    assert not report.violation
    bad = kl_budget_check(Q2, half, _stub(0.2, 0.01))
    assert bad.violation


def test_kl_budget_atomic_branches():
    """Atomic targets force a -inf estimate; anything finite is a violation."""
    agree = kl_budget_check(Q2, LAM64, _stub(-math.inf, 0.05))
    assert agree.kl == math.inf
    assert agree.slack == math.inf
    assert not agree.violation
    sneak = kl_budget_check(Q2, LAM64, _stub(0.4, 0.05))
    assert sneak.slack == -math.inf
    assert sneak.violation


def test_bernoulli_kl_closed_form():
    """Bernoulli relative entropy matches its two-term formula."""
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert bernoulli_kl(0.75, 0.5) == pytest.approx(want, abs=1e-15)
    assert bernoulli_kl(1.0, 0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert bernoulli_kl(0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        bernoulli_kl(0.5, 1.0)


def _brute_qualifying(seed: int, dimension: int, n: int, lo: float, threshold: int) -> int:
    env = Environment(seed, dimension)
    counts = []
    enumerate_level_paths(env, n, lambda path, labels: counts.append(
        sum(1 for u in labels if u >= lo)))
    return sum(1 for c in counts if c >= threshold)


def test_bernoulli_dp_matches_enumeration():
    """The packed count DP reproduces brute-force qualifying counts."""
    for seed in (1, 5):
        for n in (4, 6):
            for p, s in ((0.5, 0.75), (0.3, 0.5), (0.5, 1.0)):
                report = bernoulli_exponent_check(p, s, [n], [seed])
                threshold = math.ceil(n * s)
                want = _brute_qualifying(seed, 2, n, 1.0 - p, threshold)
                got = report.exponents[seed][n]
                expect = math.log(want) / n if want else -math.inf
                assert got == pytest.approx(expect, abs=1e-14)


def test_bernoulli_dp_matches_enumeration_3d():
    """The generic-dimension DP agrees with enumeration at D=3."""
    report = bernoulli_exponent_check(0.4, 0.6, [5], [3], dimension=3)
    want = _brute_qualifying(3, 3, 5, 0.6, 3)
    assert report.exponents[3][5] == pytest.approx(math.log(want) / 5, abs=1e-14)
    assert report.budget == pytest.approx(math.log(3) - bernoulli_kl(0.6, 0.4), abs=1e-15)


@pytest.mark.parametrize("p, s, n_ladder, seeds, dimension", [
    (0.5, 0.75, (10, 20), (1,), 1),
    (0.5, 0.75, (20, 40), (1, 2), 2),
    (0.4, 0.6, (5, 10), (3,), 3),
    (0.5, 0.75, (6, 12), (2,), 4),
    (0.3, 0.3, (6, 12), (1,), 4),
    (0.5, 1.0, (10, 30), (1, 2), 2),
    (0.5, 1.0, (4, 8), (1,), 3),
    (0.5, Fraction(2, 3), (9, 30), (4,), 2),
    (0.99, 1.0, (1, 2), (1,), 2),
    (0.99, 0.5, (20, 70), (1,), 2),
    (0.99, 0.5, (5, 10), (1,), 3),
    (0.5, 0.3, (40, 80), (5,), 2),
    # Small scales that leave the ladder early, one ladder past 2^64
    # paths, D = 1 with s < p, and D = 4.
    (0.5, 0.75, (4, 40, 41), (1, 3), 2),
    (0.5, Fraction(3, 5), (4, 70, 71), (2,), 2),
    (0.7, 0.5, (3, 9, 17), (1, 4), 1),
    (0.5, 0.75, (2, 7, 8), (5,), 4),
])
def test_bernoulli_packed_counts_match_list_oracle(p, s, n_ladder, seeds, dimension):
    """Packed integer fields count exactly what per-count lists count:
    D = 1..4, s below p, s = 1, a Fraction s, a skewed p whose all-unit
    field holds most of the D^n paths, D=2 ladders past n = 64, where
    counts exceed 2^64, and ladders whose small scales leave early.

    Fields below low(k) = max(0, min over scales n >= k of ceil(n s) -
    n + k) are pruned.  From one level to the next low never decreases
    and rises by at most one field: by 0 on early levels, by 1 in the
    steady state, and by 1 on every level when s = 1.  It never passes
    ceil(k s) at a scale k, and it equals the DP's closed form max(0, k
    - n_max + ceil(n_max s)): a scale leaving the ladder never drops a
    second field, since ceil(n s) - n never increases with n."""
    report = bernoulli_exponent_check(p, s, n_ladder, seeds, dimension=dimension)
    assert report.exponents == bernoulli_exponents(p, s, n_ladder, seeds, dimension)
    s_exact = Fraction(s)
    n_max = max(n_ladder)
    low = [max(0, min(math.ceil(n * s_exact) - n + k for n in n_ladder if n >= k))
           for k in range(n_max + 1)]
    drops = [b - a for a, b in zip(low, low[1:])]
    assert set(drops) == ({1} if s == 1 else {0, 1})
    assert all(low[n] <= math.ceil(n * s_exact) for n in n_ladder)
    slack = n_max - math.ceil(n_max * s_exact)
    assert low == [max(0, k - slack) for k in range(n_max + 1)]


def test_bernoulli_pruned_levels_peak_below_the_unpruned_dp():
    """The workload-sized DP (p = 1/2, s = 3/4, n = 40, 80, 160, seed 12)
    peaks under tracemalloc below the 1,082 KiB the unpruned DP peaked
    at (about 675 KiB pruned, with numpy 2.4 on CPython 3.11): its level
    integers hold up to ceil(n_max s) = 120 fewer fields of 162 bits."""
    args = (Fraction(1, 2), Fraction(3, 4), (40, 80, 160), (12,))
    bernoulli_exponent_check(*args)  # imports and caches out of the peak
    tracemalloc.start()
    try:
        bernoulli_exponent_check(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 900 * 1024


def test_bernoulli_exponent_within_budget():
    """The measured rare-event exponent stays under the closed-form budget."""
    report = bernoulli_exponent_check(0.5, 0.75, [60, 120], [1])
    assert report.exponents[1][60] == pytest.approx(0.4781641461169358, abs=1e-12)
    assert report.exponents[1][120] == pytest.approx(0.5139779557108994, abs=1e-12)
    assert report.budget == pytest.approx(math.log(2) - bernoulli_kl(0.75, 0.5), abs=1e-15)
    assert report.max_exponent <= report.budget + report.margin
    assert report.within_budget


def test_bernoulli_easy_threshold_gives_full_rate():
    """With s below p almost every path qualifies, so the rate is log D."""
    report = bernoulli_exponent_check(0.5, 0.3, [60], [1])
    assert report.budget == pytest.approx(math.log(2), abs=1e-15)
    assert report.final_exponents[1] > 0.65
    assert report.within_budget


def test_bernoulli_all_ones_paths_are_rare():
    """Requiring every label to be a unit kills the count for long paths."""
    report = bernoulli_exponent_check(0.5, 1.0, [40], [1, 2])
    assert all(v <= 0.0 for v in report.final_exponents.values())


def test_bernoulli_validation():
    """Out-of-range parameters and empty ladders are rejected."""
    with pytest.raises(ValueError):
        bernoulli_exponent_check(0.0, 0.5, [10], [1])
    with pytest.raises(ValueError):
        bernoulli_exponent_check(0.5, 0.0, [10], [1])
    with pytest.raises(ValueError):
        bernoulli_exponent_check(0.5, 0.5, [], [1])


def test_scaled_free_energy_decreases_toward_passage_time():
    """(1/beta) log Z falls with beta and stays above the passage time."""
    env = Environment(4, 2)
    endpoint = (6, 6)
    passage, _ = last_passage(env, endpoint, ID16)
    scaled = [DpTable.point(env, endpoint, beta, ID16).log_value() / beta
              for beta in (0.5, 1.0, 2.0, 4.0, 8.0)]
    for left, right in zip(scaled, scaled[1:]):
        assert right <= left + 1e-12
    for value in scaled:
        assert value >= passage - 1e-12
