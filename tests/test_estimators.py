"""Estimator tests: hand-enumeration oracles, exact per-environment
structure (bounds, superadditivity, perturbation, level decomposition),
profile sharing and the profile store's byte cap, and classification
behavior."""

import math
from collections import OrderedDict
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from gridentropy import (
    Direction,
    Environment,
    Measure,
    TauFn,
    cost_sum,
    discretize_lebesgue,
    enumerate_level_paths,
    enumerate_paths,
    eps_sum,
    eps_sum_level,
    estimate_entropy_eps,
    estimate_entropy_level,
    estimate_entropy_orderstats,
    extrapolate_ladder,
    LadderPlan,
    gibbs_estimate,
    order_stat_series,
    prokhorov_brute,
    prokhorov_distance,
    scale,
    vanish_threshold,
)
from gridentropy import estimators


def _walk_labels(env, axis_seq):
    pos = [0] * env.dimension
    labels = []
    for axis in axis_seq:
        labels.append(env.edge_label(tuple(pos), axis))
        pos[axis] += 1
    return labels


def _hand_eps_sum(env, axis_seqs, nu, n, eps):
    terms = []
    for seq in axis_seqs:
        mu = Measure((u, 1.0 / n) for u in _walk_labels(env, seq))
        terms.append(math.exp(-(n / eps) * prokhorov_brute(mu, nu)))
    return math.log(math.fsum(terms)) / n


def test_eps_sum_two_path_oracle():
    """Hand enumeration of both paths to (1,1) reproduces eps_sum exactly."""
    env = Environment(7, 2)
    nu = discretize_lebesgue(8)
    q = Direction.parse("1/2,1/2")
    for eps, frozen in ((1.0, 0.11346145674340372), (0.5, -0.1196470344848475)):
        oracle = _hand_eps_sum(env, [(0, 1), (1, 0)], nu, 2, eps)
        got = eps_sum(env, q, nu, 2, eps)
        assert abs(got - oracle) < 1e-13
        assert abs(got - frozen) < 1e-12


def test_eps_sum_six_path_oracle():
    """Integer direction (1,1) at n=2: the 6-term hand sum matches."""
    env = Environment(7, 2)
    nu = discretize_lebesgue(8)
    seqs = sorted(set(permutations((0, 0, 1, 1))))
    oracle = _hand_eps_sum(env, seqs, nu, 2, 1.0)
    got = eps_sum(env, Direction.parse("1,1"), nu, 2, 1.0)
    assert abs(got - oracle) < 1e-13
    assert abs(got - (-0.10412026538597247)) < 1e-12


def test_eps_sum_interval_bounds():
    """eps_sum lies in the exact interval forced by rho <= tv sums."""
    rng = np.random.default_rng(20260815)
    for trial in range(40):
        d = int(rng.integers(2, 4))
        q = Direction.from_fractions([Fraction(1, d)] * d)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        nu = Measure(zip(rng.random(k), rng.uniform(0.1, 1.5, k)))
        eps = float(rng.choice([0.5, 1.0, 2.0]))
        val = eps_sum(Environment(int(rng.integers(1 << 30)), d), q, nu, n, eps)
        floor_mass = sum(q.floor_scale(n)) / n
        lower = -(floor_mass + nu.total_mass) / eps
        upper = floor_mass * math.log(d)
        assert lower - 1e-12 <= val <= upper + 1e-12


def test_eps_sum_monotone_in_eps():
    """Raw value is nonincreasing as eps decreases, per environment."""
    rng = np.random.default_rng(7)
    q = Direction.parse("1/2,1/2")
    for trial in range(20):
        nu = Measure(zip(rng.random(3), rng.uniform(0.1, 0.5, 3)))
        env = Environment(int(rng.integers(1 << 30)), 2)
        n = int(rng.integers(2, 7))
        vals = [eps_sum(env, q, nu, n, eps) for eps in (2.0, 1.0, 0.5)]
        assert vals[0] >= vals[1] >= vals[2]


def test_order_stat_attained_path_is_zero():
    """Rank 1 against (1/n) times an enumerated path's own measure is 0."""
    env = Environment(3, 2)
    n = 3
    collected = []
    enumerate_paths(env, (2, 1), lambda path, labels: collected.append(list(labels)))
    nu = Measure((u, 1.0 / n) for u in collected[1])
    stat = order_stat_series(env, Direction.from_fractions([Fraction(2, 3), Fraction(1, 3)]), nu, n, [1])
    assert stat.values[0] == 0.0


def test_order_stat_rank_past_count_is_inf():
    """Rank 7 of a 6-path ensemble carries the +inf sentinel."""
    stat = order_stat_series(Environment(0, 2), Direction.parse("1,1"), discretize_lebesgue(4), 2, [1, 7])
    assert math.isfinite(stat.values[0])
    assert stat.values[1] == math.inf


def test_order_stat_matches_sort_oracle():
    """Profile lookup agrees with a full sort of all 20 distances."""
    env = Environment(42, 2)
    nu = discretize_lebesgue(16)
    n = 3
    dists = []
    enumerate_paths(
        env,
        (3, 3),
        lambda path, labels: dists.append(
            prokhorov_distance(Measure((u, 1.0 / n) for u in labels), nu)
        ),
    )
    oracle = sorted(dists)
    stat = order_stat_series(env, Direction.parse("1,1"), nu, n, [1, 6, 20])
    assert stat.values == (oracle[0], oracle[5], oracle[19])


def test_eps_sum_level_empty_path():
    """floor(n t) = 0 leaves the single empty path: value -tv(nu)/eps."""
    env = Environment(1, 2)
    nu = discretize_lebesgue(4)
    got = eps_sum_level(env, Fraction(1, 2), nu, 1, 2.0)
    assert abs(got - (-nu.total_mass / 2.0)) < 1e-15
    assert eps_sum_level(env, Fraction(1, 2), Measure.zero(), 1, 2.0) == 0.0


def test_tiny_eps_is_rejected_not_silently_wrong():
    """n/eps overflowing to inf would make a zero distance feed -inf * 0 = nan."""
    env = Environment(1, 2)
    q = Direction((1, 1), 2)
    n = 4
    paths = []
    enumerate_paths(env, q.floor_scale(n), lambda path, labels: paths.append(list(labels)))
    nu = Measure((u, 1.0 / n) for u in paths[0])
    # The first path sits at distance 0, so the true value is 0.0.
    assert eps_sum(env, q, nu, n, 1e-3) == 0.0
    for call in (
        lambda: eps_sum(env, q, nu, n, 1e-310),
        lambda: eps_sum_level(env, Fraction(1), nu, n, 1e-310),
    ):
        with pytest.raises(ValueError, match=r"eps=1e-310 .* n=4"):
            call()
    with pytest.raises(ValueError, match=r"eps=1e-310"):
        cost_sum(env, (0, 0), q.floor_scale(n), scale(nu, n), 1e-310)


def test_cost_sum_overflowing_term_is_not_nan():
    """A term -rho/eps that overflows to -inf drops out instead of making nan.

    Against a mass-4 target every path distance exceeds 2, so at this eps
    the first path's term is -inf while the smallest distance stays finite.
    """
    env = Environment(2, 2)
    target = Measure([(3.0, 4.0)])
    eps = 1.261031569160536e-308
    dists = []
    enumerate_paths(
        env,
        (2, 2),
        lambda path, labels: dists.append(
            prokhorov_distance(Measure((u, 1.0) for u in labels), target)
        ),
    )
    assert -dists[0] / eps == -math.inf
    assert dists.count(min(dists)) == 1
    got = cost_sum(env, (0, 0), (2, 2), target, eps)
    assert got == -min(dists) / eps == -1.6361214536515307e308


def _count_enumerations(monkeypatch):
    calls = []
    original = estimators.label_rows

    def counting(env, block_rows, *, endpoint=None, length=None):
        calls.append((env.seed, tuple(endpoint)))
        return original(env, block_rows, endpoint=endpoint, length=length)

    monkeypatch.setattr(estimators, "label_rows", counting)
    return calls


def test_eps_ladder_enumerates_once_per_seed_and_n(monkeypatch):
    """2 seeds x 3 scales x 3 eps values build exactly 6 profiles."""
    calls = _count_enumerations(monkeypatch)
    nu = discretize_lebesgue(11)
    estimate_entropy_eps([5, 6], Direction.parse("1/2,1/2"), nu, [2, 4, 6], [4.0, 2.0, 1.0])
    assert sorted(calls) == sorted((seed, (n // 2, n // 2)) for seed in (5, 6) for n in (2, 4, 6))


def test_alpha_grid_enumerates_once_per_seed_and_n(monkeypatch):
    """Every alpha of the grid reads the same (seed, n) profiles."""
    calls = _count_enumerations(monkeypatch)
    nu = discretize_lebesgue(13)
    grid = [0.0, 0.1, 0.2, 0.3, 0.4]
    est = estimate_entropy_orderstats([5, 6], Direction.parse("1/2,1/2"), nu, [2, 4, 6], grid)
    assert len(est.ladder) == 2 * 3 * len(grid)
    assert sorted(calls) == sorted((seed, (n // 2, n // 2)) for seed in (5, 6) for n in (2, 4, 6))


def test_profile_store_stays_under_byte_cap(monkeypatch):
    """The store evicts down to its cap; an oversized profile is returned, not kept."""
    store = OrderedDict()
    monkeypatch.setattr(estimators, "_profiles", store)
    monkeypatch.setattr(estimators, "_PROFILE_STORE_BYTES", 8 * 26)
    env = Environment(9, 2)
    nu = discretize_lebesgue(16)
    q = Direction.parse("1,1")
    for n in (1, 2, 1):  # 2 and 6 paths: both fit, and n=1 is the most recent
        order_stat_series(env, q, nu, n, [1])
        assert sum(p.nbytes for p in store.values()) <= 8 * 26
    assert sorted(len(p) for p in store.values()) == [2, 6]
    # n=3 has 20 paths: storing it evicts the least recently used profile.
    order_stat_series(env, q, nu, 3, [1])
    assert sorted(len(p) for p in store.values()) == [2, 20]
    assert sum(p.nbytes for p in store.values()) <= 8 * 26
    # n=4 has 70 paths, more than the cap: answered but never stored.
    dists = []
    enumerate_paths(
        env,
        (4, 4),
        lambda path, labels: dists.append(
            prokhorov_distance(Measure((u, 1.0 / 4) for u in labels), nu)
        ),
    )
    stat = order_stat_series(env, q, nu, 4, [1, 35, 70, 71])
    assert stat.values == (*(sorted(dists)[j - 1] for j in (1, 35, 70)), math.inf)
    assert sorted(len(p) for p in store.values()) == [2, 20]


def _dfs_profile(env, nu, n, endpoint=None, length=None):
    """The profile the slow way: one DFS visit, Measure and distance per path."""
    dists = []

    def visit(path, labels):
        dists.append(prokhorov_distance(Measure((u, 1.0 / n) for u in labels), nu))

    if endpoint is not None:
        enumerate_paths(env, endpoint, visit)
    else:
        enumerate_level_paths(env, length, visit)
    return sorted(dists)


@pytest.mark.parametrize("dimension, endpoint, length", [
    (1, (5,), 5), (2, (3, 3), 6), (3, (2, 1, 1), 4),
])
def test_profile_blocks_match_dfs_oracle(monkeypatch, dimension, endpoint, length):
    """Profiles built from label rows in blocks of a few rows are ``==``
    the sorted per-path distances of the DFS, for point and level ensembles."""
    env = Environment(17, dimension)
    for nu in (discretize_lebesgue(64), Measure([(0.125, 0.5), (0.375, 0.5)]), Measure.dirac(0.5)):
        n = length + 1
        want_point = _dfs_profile(env, nu, n, endpoint=endpoint)
        want_level = _dfs_profile(env, nu, n, length=length)
        for block_paths in (None, 1, 3):
            monkeypatch.setattr(estimators, "_profiles", OrderedDict())
            if block_paths is not None:
                row_bytes = 8 * (length * len(nu.atoms) + 1)
                monkeypatch.setattr(estimators, "_PROFILE_BLOCK_BYTES", block_paths * row_bytes)
            point = estimators._profile(env, nu, n, endpoint=endpoint)
            level = estimators._profile(env, nu, n, level_length=length)
            assert point.tolist() == want_point
            assert level.tolist() == want_level


def test_level_decomposition_identity():
    """exp(n * level sum) equals the sum of exp(n * per-endpoint sums)."""
    env = Environment(3, 2)
    nu = discretize_lebesgue(8)
    n, eps = 3, 1.0
    lvl = eps_sum_level(env, Fraction(1), nu, n, eps)
    total = 0.0
    for i in range(n + 1):
        q = Direction.from_fractions([Fraction(i, n), Fraction(n - i, n)])
        total += math.exp(n * eps_sum(env, q, nu, n, eps))
    assert abs(math.exp(n * lvl) - total) < 1e-10 * total


def test_level_dominates_balanced_direction():
    """Level sum >= the balanced-endpoint sum whenever lengths line up."""
    nu = discretize_lebesgue(8)
    q = Direction.parse("1/2,1/2")
    for seed in range(5):
        env = Environment(seed, 2)
        for n in (2, 4, 6):
            lvl = eps_sum_level(env, Fraction(1), nu, n, 1.0)
            point = eps_sum(env, q, nu, n, 1.0)
            assert lvl >= point


def test_cost_sum_superadditive_concatenation():
    """Unnormalized cost sums are superadditive under path concatenation."""
    base = discretize_lebesgue(4)
    for seed in range(5):
        env = Environment(seed, 2)
        for m in (1, 2):
            for k in (1, 2):
                whole = cost_sum(env, (0, 0), (m + k, m + k), scale(base, m + k), 1.0)
                first = cost_sum(env, (0, 0), (m, m), scale(base, m), 1.0)
                second = cost_sum(env, (m, m), (m + k, m + k), scale(base, k), 1.0)
                assert whole >= first + second - 1e-12


def test_perturbation_inequality():
    """Shrinking the endpoint and swapping the target costs at most the stated amounts."""
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        qi = [int(rng.integers(1, 4)) for _ in range(2)]
        pi = [int(rng.integers(0, v + 1)) for v in qi]
        q = Direction.from_fractions([Fraction(v, n) for v in qi])
        p = Direction.from_fractions([Fraction(v, n) for v in pi])
        nu = Measure(zip(rng.random(3), rng.uniform(0.1, 0.6, 3)))
        xi = Measure(zip(rng.random(3), rng.uniform(0.1, 0.6, 3)))
        eps = 1.0
        env = Environment(int(rng.integers(1 << 30)), 2)
        lhs = eps_sum(env, q, nu, n, eps)
        rhs = eps_sum(env, p, xi, n, eps)
        shift = sum(a - b for a, b in zip(q.floor_scale(n), p.floor_scale(n))) / n
        penalty = (shift + prokhorov_distance(nu, xi)) / eps
        assert lhs >= rhs - penalty - 1e-12


def test_extrapolate_recovers_exact_model():
    """Inputs lying exactly on a + b/n return a with zero residual."""
    ns = [4, 8, 16, 32]
    raws = [0.7 - 1.3 / n for n in ns]
    a, resid = extrapolate_ladder(ns, raws)
    assert abs(a - 0.7) < 1e-12
    assert resid < 1e-12


def test_estimate_eps_structure():
    """Ladder rows are complete, band covers residuals, monotone flag set."""
    nu = discretize_lebesgue(8)
    est = estimate_entropy_eps([1, 2], Direction.parse("1/2,1/2"), nu, [4, 6, 8], [4.0, 2.0])
    assert est.method == "eps_sum"
    assert len(est.ladder) == 2 * 3 * 2
    assert est.band >= 0.0
    assert est.diagnostics["monotone_in_eps"] is True
    assert est.value == min(est.diagnostics["fits_by_eps"].values())
    with pytest.raises(ValueError):
        estimate_entropy_eps([1], Direction.parse("1/2,1/2"), nu, [4, 6], [2.0, 4.0])


def test_estimate_orderstats_mass_mismatch_is_neg_inf():
    """A target whose mass cannot match the ensemble never vanishes."""
    nu = scale(discretize_lebesgue(8), 0.5)
    est = estimate_entropy_orderstats([1, 2], Direction.parse("1/2,1/2"), nu, [4, 6, 8], [0.0, 0.1])
    assert est.value == -math.inf


def test_estimate_orderstats_single_path_direction():
    """q=(1,0) has one path per scale, so only alpha=0 can vanish."""
    nu = discretize_lebesgue(64)
    est = estimate_entropy_orderstats(
        [1], Direction.parse("1,0"), nu, [64, 256, 1024], [0.0, 0.05, 0.1], threshold=0.1
    )
    assert est.value == 0.0


def test_estimate_level_homogeneity():
    """Doubling the target roughly doubles the level estimate at desk scale."""
    nu = discretize_lebesgue(8)
    est1 = estimate_entropy_level([1, 2, 3], 2, nu, [4, 6, 8], [4.0, 2.0])
    est2 = estimate_entropy_level([1, 2, 3], 2, scale(nu, 2.0), [2, 3, 4], [4.0, 2.0], t=Fraction(2))
    assert abs(est2.value - 2.0 * est1.value) <= 2.0 * est1.band + est2.band
    assert est1.diagnostics["min_level_minus_direction_raw"] >= 0.0
    assert est1.diagnostics["balanced_direction_estimate"] is not None


def test_estimators_need_two_ladder_scales():
    """Every estimator on a ladder refuses fewer than two distinct scales:
    a + b/n fitted to one scale, however often repeated, is singular."""
    nu = discretize_lebesgue(8)
    q = Direction.parse("1/2,1/2")
    for n_ladder in ([4], [4, 4], [6, 6, 6]):
        for estimate in (
            lambda: estimate_entropy_level([1], 2, nu, n_ladder, [4.0, 2.0]),
            lambda: estimate_entropy_eps([1], q, nu, n_ladder, [4.0, 2.0]),
            lambda: estimate_entropy_orderstats([1], q, nu, n_ladder, [0.0, 0.5]),
            lambda: gibbs_estimate([1], 1.0, TauFn.constant(0.0), n_ladder, q=q),
            lambda: LadderPlan([1], n_ladder, q=q),
        ):
            with pytest.raises(ValueError, match="two ladder scales"):
                estimate()


def test_vanish_threshold_values():
    """Adjacent-atom spacing sets the radius; boundary gaps do not count."""
    assert abs(vanish_threshold(discretize_lebesgue(64), 12) - 2 * (1 / 128 + 1 / 12)) < 1e-15
    half = Measure(((2 * i + 1) / 128, 1 / 32) for i in range(32))
    assert abs(vanish_threshold(half, 12) - 2 * (1 / 128 + 1 / 12)) < 1e-15
    assert vanish_threshold(Measure.dirac(0.3), 10) == 0.2


def test_order_stat_series_validation():
    """Ranks below 1 and decreasing value tuples are rejected."""
    with pytest.raises(ValueError):
        order_stat_series(Environment(0, 2), Direction.parse("1,1"), Measure.zero(), 2, [0])
    from gridentropy import OrderStatSeries

    with pytest.raises(ValueError):
        OrderStatSeries(2, Measure.zero(), (1, 2), (0.5, 0.4), "point")
