"""Polymer tests: DP vs enumeration oracles, exact decomposition and
zero-temperature bounds, sampler law checks, table layout."""

import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from gridentropy import (
    Direction,
    DpTable,
    Environment,
    TauFn,
    bernoulli_exponent_check,
    conjugate_entropy,
    default_tau_family,
    discretize_lebesgue,
    gibbs_estimate,
    last_passage,
    path_count,
    sample_polymer_paths,
)
from gridentropy import lattice, polymer, variational
from gridentropy.estimators import _check_seeds, _ladder_scales
from gridentropy.lattice import _level_blocks
from gridentropy.polymer import (
    _gibbs_batch, _ladder_box, _step_thresholds, _stream_bases, _stream_uniforms,
)
import dp_oracle
from path_oracle import edge_label, enumerate_level_paths, enumerate_paths, path_weight
from sampler_oracle import SampleStream, box_points, sample_path

TAU16 = TauFn.identity_ladder(16)
ZERO = TauFn.constant(0.0)


def _enum_log_partition(env, endpoint, beta, tau):
    terms = []
    enumerate_paths(
        env, endpoint, lambda p, labels: terms.append(math.exp(beta * path_weight(env, tau, p)))
    )
    return math.log(math.fsum(terms))


def test_point_partition_matches_enumeration():
    """DP equals the enumerated log sum at several endpoints, seeds, betas."""
    for seed, endpoint in ((11, (4, 4)), (0, (3, 2)), (5, (2, 2))):
        env = Environment(seed, 2)
        for beta in (0.5, 1.0, 2.0):
            oracle = _enum_log_partition(env, endpoint, beta, TAU16)
            got = DpTable.point(env, endpoint, beta, TAU16).log_value()
            assert abs(got - oracle) <= 1e-10 * abs(oracle)


def test_point_partition_generic_dimension():
    """The D=3 level recursion agrees with enumeration too."""
    env = Environment(4, 3)
    oracle = _enum_log_partition(env, (2, 1, 1), 0.7, TAU16)
    got = DpTable.point(env, (2, 1, 1), 0.7, TAU16).log_value()
    assert abs(got - oracle) <= 1e-10 * abs(oracle)


def test_point_partition_zero_tau_is_log_count():
    """All weights 1: the partition function counts paths."""
    for env, endpoint, beta in ((Environment(11, 2), (5, 3), 2.0),
                                (Environment(2, 3), (2, 2, 1), 1.0)):
        got = DpTable.point(env, endpoint, beta, ZERO).log_value()
        assert abs(got - math.log(path_count(endpoint))) < 1e-12


def test_single_edge_endpoint():
    """Endpoint (1,0) has one edge: value is beta times its weight."""
    env = Environment(6, 2)
    expected = 1.7 * TAU16(edge_label(env, (0, 0), 0))
    assert abs(DpTable.point(env, (1, 0), 1.7, TAU16).log_value() - expected) < 1e-14


def test_level_partition_trivial_taus():
    """tau = 0 gives n log D; tau = c shifts by n beta c."""
    env = Environment(1, 2)
    assert abs(DpTable.level(env, 9, 1.0, ZERO).log_value() - 9 * math.log(2)) < 1e-11
    c = TauFn.constant(0.3)
    assert abs(DpTable.level(env, 7, 2.0, c).log_value() - 7 * (2.0 * 0.3 + math.log(2))) < 1e-11


def test_level_partition_matches_enumeration():
    """Enumerating 64 paths (D=2, n=6) and 81 paths (D=3, n=4) agrees with the level sweep."""
    for dimension, length in ((2, 6), (3, 4)):
        env = Environment(3, dimension)
        terms = []
        enumerate_level_paths(
            env, length, lambda p, labels: terms.append(math.exp(path_weight(env, TAU16, p)))
        )
        oracle = math.log(math.fsum(terms))
        got = DpTable.level(env, length, 1.0, TAU16).log_value()
        assert abs(got - oracle) <= 1e-10 * abs(oracle)


def test_level_decomposition_identity():
    """exp(level log Z) is the sum of exp(point log Z) over the level."""
    for seed in (3, 8):
        env = Environment(seed, 2)
        lvl = math.exp(DpTable.level(env, 5, 1.0, TAU16).log_value())
        total = math.fsum(
            math.exp(DpTable.point(env, (i, 5 - i), 1.0, TAU16).log_value()) for i in range(6)
        )
        assert abs(lvl - total) <= 1e-10 * total


def test_table_levels_hold_the_box_points():
    """levels[k] has one entry per level-k point of the box, listed lexicographically,
    and steps[k - 1] points each row at its predecessors v - e_axis and holds the
    terms its fold read: the predecessor's value plus the edge's weight, or -inf."""
    for endpoint in ((3, 2), (2, 0, 3), (4,)):
        env = Environment(5, len(endpoint))
        table = DpTable.point(env, endpoint, 1.0, TAU16)
        want = box_points(endpoint)
        levels = _level_blocks(endpoint, sum(endpoint), [env.seed], lambda bits: bits)
        walked = [[(0,) * env.dimension]] + [
            list(map(tuple, points.tolist())) for points, *_ in levels]
        assert walked == want
        assert [len(level) for level in table.levels] == [len(pts) for pts in want]
        assert len(table.steps) == sum(endpoint)
        for k, (pred, terms) in enumerate(table.steps, 1):
            assert pred.shape == terms.shape == (len(want[k]), env.dimension)
            for row, v in enumerate(want[k]):
                for axis in range(env.dimension):
                    if v[axis] == 0:
                        assert pred[row, axis] == -1 and terms[row, axis] == -math.inf
                        continue
                    u = v[:axis] + (v[axis] - 1,) + v[axis + 1:]
                    assert want[k - 1][pred[row, axis]] == u
                    assert terms[row, axis] == (table.levels[k - 1][pred[row, axis]]
                                                + TAU16(edge_label(env, u, axis)))
    table = DpTable.level(Environment(5, 3), 4, 1.0, TAU16)
    assert [len(level) for level in table.levels] == [math.comb(k + 2, 2) for k in range(5)]
    assert [len(pred) for pred, _ in table.steps] == [math.comb(k + 2, 2) for k in range(1, 5)]


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("beta", [0.7, None])
def test_dense_fold_equals_the_per_axis_scatter_oracle(dimension, beta):
    """Levels (and, with a beta, sampler thresholds) equal the per-axis
    scatter fold bit for bit, in point and level tables, max-plus too."""
    env = Environment(6, dimension)
    for tau in (TAU16, TauFn.from_values((-1.5, 0.25, 2.0))):
        for table in (DpTable.point(env, (5, 3, 2)[:dimension], beta, tau),
                      DpTable.level(env, 4, beta, tau)):
            assert ([level.tolist() for level in table.levels]
                    == [level.tolist() for level in dp_oracle.levels(table)])
            if beta is not None:
                assert ([cum.tolist() for cum in _step_thresholds(table)]
                        == [cum.tolist() for cum in dp_oracle.step_thresholds(table)])


def test_table_build_walks_the_lattice_once(monkeypatch):
    """One level walk serves a table, its sampler thresholds and its backtrack."""
    walks = []

    def counted(*args):
        walks.append(args)
        return _level_blocks(*args)

    monkeypatch.setattr(polymer, "_level_blocks", counted)
    table = DpTable.point(Environment(2, 3), (2, 1, 2), 1.0, TAU16)
    sample_polymer_paths(table, range(20))
    assert len(walks) == 1
    last_passage(Environment(2, 2), (4, 3), TAU16)
    assert len(walks) == 2
    sample_polymer_paths(DpTable.level(Environment(2, 2), 5, 1.0, TAU16), range(20))
    assert len(walks) == 3


def test_endpoint_of_the_wrong_dimension_is_rejected():
    """An endpoint needs one coordinate per dimension; the error names it and D."""
    for dimension, endpoint in ((2, (3, 3, 3)), (3, (3, 3))):
        env = Environment(1, dimension)
        for build in (
            lambda: DpTable.point(env, endpoint, 1.0, TAU16),
            lambda: last_passage(env, endpoint, TAU16),
        ):
            with pytest.raises(ValueError, match=re.escape(str(endpoint)) + f".*D={dimension}"):
                build()


def test_gibbs_zero_tau_free_energy():
    """tau = 0, q balanced: free energy extrapolates to log 2 tightly."""
    est = gibbs_estimate([1], 1.0, ZERO, [256, 512, 1024, 2048], q=Direction.parse("1/2,1/2"))
    assert abs(est.value - math.log(2)) < 0.02
    assert est.band < 0.01


def test_gibbs_monotone_in_beta():
    """For tau >= 0 the free energy is nondecreasing in beta."""
    vals = [
        gibbs_estimate([1, 2], beta, TAU16, [8, 12, 16], q=Direction.parse("1/2,1/2")).value
        for beta in (0.5, 1.0, 2.0)
    ]
    assert vals[0] <= vals[1] <= vals[2]


def test_level_free_energy_dominates_point():
    """Point-to-level free energy bounds every point-to-point one."""
    lvl = gibbs_estimate([1, 2], 1.0, TAU16, [6, 12, 18]).value
    for q in ("1/2,1/2", "2/3,1/3"):
        pt = gibbs_estimate([1, 2], 1.0, TAU16, [6, 12, 18], q=Direction.parse(q)).value
        assert lvl >= pt - 1e-9


def _held_batch(seeds, beta, taus, n_ladder, q, dimension, held):
    """``_gibbs_batch`` over levels listed once per breakpoint set in ``held``,
    as ``conjugate_entropy`` holds them, so a later batch reads the cells an
    earlier one computed."""
    seeds, n_ladder = _check_seeds(seeds), _ladder_scales(n_ladder)
    dimension = q.dimension if q is not None else dimension
    box, depth = _ladder_box(n_ladder, q, dimension)

    def levels(tau):
        if tau.breakpoints not in held:
            held[tau.breakpoints] = list(_level_blocks(box, depth, seeds, tau.cell))
        return held[tau.breakpoints]

    return _gibbs_batch(seeds, beta, taus, n_ladder, q, dimension, levels)


def _per_scale_raws(seeds, beta, tau, n_ladder, q, dimension):
    """(1/n) log Z from one ``DpTable`` per scale: the ladder's oracle."""
    raws = []
    for seed in seeds:
        env = Environment(seed, dimension)
        for n in sorted(n_ladder):
            if q is None:
                raws.append(DpTable.level(env, n, beta, tau).log_value() / n)
            else:
                raws.append(DpTable.point(env, q.floor_scale(n), beta, tau).log_value() / n)
    return raws


GIBBS_LADDERS = [
    # (q or None for length-n paths, dimension, ladder)
    (Direction.parse("1/2,1/2"), 2, (4, 8, 16)),
    (Direction.parse("2/3,1/3"), 2, (3, 5, 9)),
    (None, 2, (3, 6, 10)),
    (Direction.parse("1"), 1, (2, 5, 7)),
    (None, 1, (2, 5, 7)),
    (Direction.parse("1/3,1/3,1/3"), 3, (3, 6, 9)),
    (Direction.parse("1/2,1/4,1/4"), 3, (4, 5, 8)),
    (None, 3, (2, 4, 5)),
    # Two scales that share an endpoint, and endpoints at the origin.
    (Direction.parse("1/3,1/3,1/3"), 3, (1, 2, 4)),
    (Direction.parse("1/2,1/2"), 2, (2, 3, 5)),
    (Direction.parse("1/4,3/4"), 2, (1, 2, 3, 4)),
]


@pytest.mark.parametrize("q, dimension, n_ladder", GIBBS_LADDERS)
@pytest.mark.parametrize("tau", [TauFn.identity_ladder(16), TauFn.indicator(0.3)],
                         ids=["identity16", "indicator"])
def test_gibbs_ladder_reads_equal_per_scale_partitions(q, dimension, n_ladder, tau):
    """One DP to the largest box reads every scale bit for bit, streamed or from held levels."""
    seeds = (3, 4)
    oracle = _per_scale_raws(seeds, 1.3, tau, n_ladder, q, dimension)
    streamed = gibbs_estimate(seeds, 1.3, tau, n_ladder, q=q, dimension=dimension)
    shared = _held_batch(seeds, 1.3, [tau], n_ladder, q, dimension, {})
    assert [row.raw for row in streamed.ladder] == oracle
    assert shared == [streamed]


# Potentials of six breakpoint sets, with equal and unequal cells; two
# pairs share breakpoints, and the constant has one cell.
BATCH_TAUS = (
    TauFn.identity_ladder(16),
    TauFn.indicator(0.3),
    TauFn.from_values((-1.5, 0.25, 2.0)),
    TauFn((0.0, 0.1, 0.65), (1.0, -2.0, 0.5)),
    TauFn.from_values((0.3, -0.7, 1.0)),
    TauFn.constant(0.0),
    TauFn((0.0, 0.1, 0.65), (-0.25, 0.0, 3.0)),
    TauFn.indicator(0.55),
)


@pytest.mark.parametrize("q, dimension, n_ladder", GIBBS_LADDERS)
def test_batched_dp_equals_one_dp_per_seed_and_potential(q, dimension, n_ladder):
    """A batch over (potentials x seeds x rows) gives every potential the
    estimate of its own ``gibbs_estimate`` and every seed the raws of a DP
    run for it alone, in point and level mode, for D = 1, 2, 3."""
    seeds = (3, 4, 9)
    held = {}
    batched = _held_batch(seeds, 0.8, BATCH_TAUS, n_ladder, q, dimension, held)
    for tau, est in zip(BATCH_TAUS, batched):
        assert est == gibbs_estimate(seeds, 0.8, tau, n_ladder, q=q, dimension=dimension)
        for i, seed in enumerate(seeds):
            alone = gibbs_estimate((seed,), 0.8, tau, n_ladder, q=q, dimension=dimension)
            assert est.ladder[i * len(n_ladder):(i + 1) * len(n_ladder)] == alone.ladder
        assert [row.raw for row in est.ladder] == _per_scale_raws(
            seeds, 0.8, tau, n_ladder, q, dimension)
    # A second batch reads the cells the first one computed.
    assert len(held) == 6
    assert _held_batch(seeds, 0.8, BATCH_TAUS[::-1], n_ladder, q, dimension, held) == batched[::-1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dp_reach_past_the_float_range_is_refused():
    """A beta and tau whose DP log weights could overflow float64 raise
    ValueError before any level is folded, not an overflow warning and a
    nan: in gibbs_estimate, point and level tables (max-plus too) and
    last passage.  The conjugate search's own gate has its tests in
    test_variational."""
    q = Direction.parse("1/2,1/2")
    tau = TauFn.identity_ladder(4)
    huge = TauFn.constant(1e308)
    env = Environment(1, 2)
    for refused in (
        lambda: gibbs_estimate((1,), 1e308, tau, (8, 16), q=q),
        lambda: gibbs_estimate((1, 2), 1.0, huge, (8, 16)),
        lambda: DpTable.point(env, (8, 8), 1e308, tau),
        lambda: DpTable.level(env, 16, None, huge),
        lambda: last_passage(env, (3, 3), huge),
    ):
        with pytest.raises(ValueError, match="past the float64 range"):
            refused()
    # A depth past the float range is refused, not an OverflowError: its box
    # is too large to index, which the gate checks before the reach.  So is
    # a ladder box too large to index.
    with pytest.raises(ValueError, match="too large to index"):
        DpTable.point(env, (10**400, 1), 1.0, tau)
    for wide in (Direction.parse("1e400,1"), Direction.parse("1e200,1"), None):
        with pytest.raises(ValueError, match="too large to index"):
            gibbs_estimate((1,), 1.0, tau, (2, 4 if wide else 10**13), q=wide)
    # Inside the bound, the same calls run clean.
    assert math.isfinite(gibbs_estimate((1,), 1e297, tau, (8, 16), q=q).value)
    assert math.isfinite(DpTable.level(env, 16, None, TauFn.constant(1e298)).log_value())


_WIDE = Direction.parse("1e400,1")
_CONJUGATE = dict(tau_family=default_tau_family(2, random_count=0), restarts=1, ascent_passes=0)


@pytest.mark.parametrize("refused, match", [
    pytest.param(lambda env: DpTable.point(env, (3, 3, 3), 1.0, TAU16), "not NE of start",
                 id="point-ensemble"),
    pytest.param(lambda env: DpTable.point(env, (-1, 3), 1.0, TAU16), "not NE of start",
                 id="point-negative-ensemble"),
    pytest.param(lambda env: DpTable.point(env, (10**400, 1), 1e308, TAU16), "too large to index",
                 id="point-box-before-reach"),
    pytest.param(lambda env: DpTable.point(env, (10**5000, 1), 1.0, TAU16),
                 re.escape("box (10^5000.00, 1) is too large to index"),
                 id="point-box-past-the-digit-limit"),
    pytest.param(lambda env: DpTable.point(env, (8, 8), 1e308, TAU16), "past the float64 range",
                 id="point-reach"),
    pytest.param(lambda env: DpTable.level(env, -1, 1.0, TAU16), "length must be >= 0",
                 id="level-ensemble"),
    pytest.param(lambda env: DpTable.level(env, 10**10, None, TAU16), "too large to index",
                 id="level-box"),
    pytest.param(lambda env: DpTable.level(env, 16, None, TauFn.constant(1e308)),
                 "past the float64 range", id="level-reach"),
    pytest.param(lambda env: last_passage(env, (10**400, 1), TAU16), "too large to index",
                 id="last-passage-box"),
    pytest.param(lambda env: gibbs_estimate((1,), 1.0, TAU16, (2, 4), q=_WIDE),
                 "too large to index", id="gibbs-box"),
    pytest.param(lambda env: gibbs_estimate((1,), 1e308, TAU16, (8, 16)),
                 "past the float64 range", id="gibbs-reach"),
    pytest.param(lambda env: conjugate_entropy((1,), Direction.parse("1/2,1/2"),
                                               discretize_lebesgue(8), 1.0,
                                               n_ladder=(2, 10**13), **_CONJUGATE),
                 "too large to index", id="conjugate-ladder-box"),
    pytest.param(lambda env: conjugate_entropy((1,), _WIDE, discretize_lebesgue(8), 1.0,
                                               n_ladder=(2, 4), **_CONJUGATE),
                 "too large to index", id="conjugate-box"),
    pytest.param(lambda env: conjugate_entropy((1,), Direction.parse("1/2,1/2"),
                                               discretize_lebesgue(8), 1e308, n_ladder=(8, 16),
                                               **_CONJUGATE),
                 "past the float64 range", id="conjugate-reach"),
    pytest.param(lambda env: bernoulli_exponent_check(0.5, 0.75, [10, 10**7], [1], dimension=3),
                 "too large to index", id="bernoulli-box"),
])
def test_the_dp_gate_refuses_before_any_level_is_built(monkeypatch, refused, match):
    """Every DP entry point passes one gate, polymer._dp_box, before it builds
    a level: an ensemble that is not one, then a box int64 cannot index (its
    sides past the digit limit written as powers of ten), then log weights
    past the float range, each a ValueError."""
    def no_levels(*args):
        raise AssertionError("a level was built before the gate")

    for module in (lattice, polymer, variational):
        monkeypatch.setattr(module, "_level_blocks", no_levels)
    with pytest.raises(ValueError, match=match):
        refused(Environment(1, 2))


@pytest.mark.parametrize("q, dimension, n_ladder", GIBBS_LADDERS)
def test_block_boundaries_change_no_estimate(monkeypatch, q, dimension, n_ladder):
    """Blocks of one level, or of a few levels that cut the ladder between
    two scales, give the estimates of the module's blocks bit for bit."""
    seeds = (3, 4)
    want = gibbs_estimate(seeds, 1.3, TAU16, n_ladder, q=q, dimension=dimension)
    want_batch = _held_batch(seeds, 1.3, BATCH_TAUS, n_ladder, q, dimension, {})
    for block_bytes in (0, 2500, 5000, 10000, 20000):
        monkeypatch.setattr(lattice, "_PLAN_BLOCK_BYTES", block_bytes)
        assert gibbs_estimate(seeds, 1.3, TAU16, n_ladder, q=q, dimension=dimension) == want
        assert _held_batch(seeds, 1.3, BATCH_TAUS, n_ladder, q, dimension, {}) == want_batch


def test_gibbs_ladder_scales_must_be_positive():
    """A zero scale would divide by zero; it is refused up front."""
    with pytest.raises(ValueError, match="positive"):
        gibbs_estimate((1,), 1.0, TAU16, (0, 4), q=Direction.parse("1/2,1/2"))


def test_last_passage_constant_tau():
    """Constant weights: value is c times the path length."""
    env = Environment(2, 2)
    val, path = last_passage(env, (3, 4), TauFn.constant(0.25))
    assert abs(val - 0.25 * 7) < 1e-12
    assert path.end == (3, 4)


def test_last_passage_matches_enumeration():
    """Max-plus DP equals the enumerated maximum and returns an attaining path."""
    for endpoint in ((5, 5), (3, 2, 2)):
        env = Environment(9, len(endpoint))
        best = [-math.inf]
        enumerate_paths(
            env, endpoint,
            lambda p, labels: best.__setitem__(0, max(best[0], path_weight(env, TAU16, p))),
        )
        val, path = last_passage(env, endpoint, TAU16)
        assert val == best[0]
        assert path_weight(env, TAU16, path) == val
        assert path.end == endpoint


@pytest.mark.parametrize("tau", [TauFn.indicator(0.5), TauFn.constant(0.25)])
@pytest.mark.parametrize("endpoint", [(4, 3), (3, 3), (2, 2, 1), (2, 1, 2)])
def test_last_passage_tie_break_is_lower_axis_first(tau, endpoint):
    """Among all maximizing paths, the backtrack returns the one whose
    reversed step sequence is lexicographically smallest: at each step
    back, the lowest axis that attains the maximum."""
    for seed in (1, 4, 9):
        env = Environment(seed, len(endpoint))
        weights = {}
        enumerate_paths(env, endpoint,
                        lambda p, labels: weights.__setitem__(p.steps, path_weight(env, tau, p)))
        best = max(weights.values())
        maximizers = [steps for steps, w in weights.items() if w == best]
        val, path = last_passage(env, endpoint, tau)
        assert val == best
        assert path.steps == min(maximizers, key=lambda steps: steps[::-1])
        if tau.values == (0.25,):
            assert len(maximizers) == path_count(endpoint)


def test_zero_temperature_sandwich():
    """0 <= (1/beta) log Z - last passage <= (1/beta) log #paths, exactly."""
    for seed in (7, 9):
        env = Environment(seed, 2)
        for endpoint in ((3, 3), (4, 4)):
            val, _ = last_passage(env, endpoint, TAU16)
            bound = math.log(path_count(endpoint))
            for beta in (10.0, 100.0):
                gap = DpTable.point(env, endpoint, beta, TAU16).log_value() / beta - val
                assert -1e-9 <= gap <= bound / beta + 1e-12


def test_sampler_beta_zero_uniform():
    """beta = 0 draws uniformly over the 6 paths of (2,2)."""
    env = Environment(11, 2)
    table = DpTable.point(env, (2, 2), 0.0, ZERO)
    freq = Counter(map(tuple, sample_polymer_paths(table, range(30000)).tolist()))
    assert len(freq) == 6
    p = stats.chisquare(list(freq.values())).pvalue
    assert p > 0.01


def test_sampler_matches_exact_law():
    """beta = 1 path frequencies match exp(T)/Z over all 20 paths of (3,3)."""
    env = Environment(5, 2)
    weights = {}
    enumerate_paths(env, (3, 3), lambda p, labels: weights.__setitem__(p.steps, math.exp(path_weight(env, TAU16, p))))
    z = math.fsum(weights.values())
    table = DpTable.point(env, (3, 3), 1.0, TAU16)
    draws = 20000
    freq = Counter(map(tuple, sample_polymer_paths(table, range(draws)).tolist()))
    observed = [freq.get(k, 0) for k in weights]
    expected = [draws * w / z for w in weights.values()]
    p = stats.chisquare(observed, expected).pvalue
    assert p > 0.01


def test_sampler_concentrates_at_large_beta():
    """With a 0.375 weight gap, beta = 100 almost surely draws the maximizer."""
    env = Environment(8, 2)
    _, argmax = last_passage(env, (3, 3), TAU16)
    table = DpTable.point(env, (3, 3), 100.0, TAU16)
    hits = sum(tuple(steps) == argmax.steps
               for steps in sample_polymer_paths(table, range(200)).tolist())
    assert hits / 200 >= 0.99


def test_sampler_level_mode():
    """Level ensembles sample endpoint and steps; beta = 0 is uniform over D^n."""
    env = Environment(1, 2)
    table = DpTable.level(env, 3, 0.0, ZERO)
    freq = Counter(map(tuple, sample_polymer_paths(table, range(8000)).tolist()))
    assert len(freq) == 8
    assert stats.chisquare(list(freq.values())).pvalue > 0.01


# Seeds at the edges of the 64-bit mask: zero, negatives, and values
# from 2**63 up, which do not fit an int64.
_EDGE_SEEDS = [0, 1, -1, -(2**63), 2**63, 2**63 + 7, 2**64 - 1, 2**64 + 3, 3**45]


def _oracle_rows(table, seeds):
    """The scalar oracle's draws as a list of step lists, checking they start at the origin."""
    paths = [sample_path(table, seed) for seed in seeds]
    assert all(path.start == (0,) * table.env.dimension for path in paths)
    return [list(path.steps) for path in paths]


def _assert_step_matrix(steps, table, draws):
    """The sampler's result is one (draws, depth) integer array."""
    assert isinstance(steps, np.ndarray)
    assert steps.dtype.kind == "i"
    assert steps.shape == (draws, len(table.levels) - 1)


@pytest.mark.parametrize("dimension, kind, target", [
    (1, "point", (6,)), (1, "level", 5),
    (2, "point", (3, 3)), (2, "point", (0, 4)), (2, "level", 5), (2, "level", 0),
    (3, "point", (2, 1, 2)), (3, "level", 4), (2, "point", (0, 0)),
    (4, "point", (2, 0, 1, 2)), (4, "level", 3),
    # No point has a last-axis predecessor: thresholds past the +inf are lifted.
    (3, "point", (2, 2, 0)),
])
@pytest.mark.parametrize("beta", [0.0, 1.0, 100.0])
def test_lockstep_sampler_matches_scalar_oracle(dimension, kind, target, beta):
    """The batch sampler draws the scalar oracle's path for every seed, one
    row of its (draws, depth) step matrix each."""
    env = Environment(3, dimension)
    if kind == "point":
        table = DpTable.point(env, target, beta, TAU16)
    else:
        table = DpTable.level(env, target, beta, TAU16)
    seeds = _EDGE_SEEDS + list(range(100, 400))
    steps = sample_polymer_paths(table, seeds)
    _assert_step_matrix(steps, table, len(seeds))
    assert steps.tolist() == _oracle_rows(table, seeds)
    one = sample_polymer_paths(table, [seeds[3]])
    _assert_step_matrix(one, table, 1)
    assert one.tolist() == _oracle_rows(table, [seeds[3]])


def test_lockstep_sampler_falls_back_like_the_scalar_oracle():
    """Probabilities that sum below 1 leave the rest to the last axis or point."""
    for table in (DpTable.point(Environment(4, 3), (2, 2, 2), 1.0, TAU16),
                  DpTable.point(Environment(4, 3), (2, 2, 0), 1.0, TAU16),
                  DpTable.level(Environment(4, 2), 5, 1.0, TAU16)):
        # Adding k to level k (and to the terms folded from it) scales
        # every step's probabilities by 1/e; a larger total does the same
        # to the endpoint marginal.
        deflated = dataclasses.replace(
            table, levels=[v + k for k, v in enumerate(table.levels)],
            steps=[(pred, terms + k) for k, (pred, terms) in enumerate(table.steps)])
        deflated.log_value = lambda table=deflated: DpTable.log_value(table) + 1.0
        seeds = range(500)
        steps = sample_polymer_paths(deflated, seeds)
        _assert_step_matrix(steps, deflated, 500)
        assert steps.tolist() == _oracle_rows(deflated, seeds)


def test_vectorized_uniforms_equal_sample_stream():
    """Each stream's counter-th uniform is SampleStream's, bit for bit."""
    bases = _stream_bases(_EDGE_SEEDS)
    streams = [SampleStream(seed) for seed in _EDGE_SEEDS]
    for counter in range(1, 20):
        assert _stream_uniforms(bases, counter).tolist() == [s.uniform() for s in streams]


@pytest.mark.parametrize("seeds", [
    range(-5, 6), range(2**63 - 4, 2**63 + 5), range(2**64 - 4, 2**64 + 9, 3),
    range(-(2**63) - 4, -(2**63) + 3), range(3, -(2**64) - 7, -(2**62) + 5),
    range(2**64 + 3, 2**64 - 8, -2), range(-7, 40, 3), range(10, -11, -2), range(0),
    range(2**70, 2**70 + 4),
])
def test_stream_bases_of_a_range_wrap_like_each_seed(seeds):
    """A range's bases, from uint64 array arithmetic, are those of its seeds one by one."""
    assert _stream_bases(seeds).tolist() == _stream_bases(list(seeds)).tolist()


def test_sampler_refuses_a_maxplus_table():
    """Only a softmax table defines a polymer measure to sample."""
    with pytest.raises(ValueError, match="softmax"):
        sample_polymer_paths(DpTable.point(Environment(1, 2), (3, 3), None, TAU16), [0])


def test_sample_stream_behavior():
    """Deterministic per seed, distinct across seeds, uniform in the bulk."""
    a = SampleStream(123)
    b = SampleStream(123)
    xs = [a.uniform() for _ in range(1000)]
    assert xs == [b.uniform() for _ in range(1000)]
    c = SampleStream(124)
    assert xs != [c.uniform() for _ in range(1000)]
    big = SampleStream(7)
    draws = np.array([big.uniform() for _ in range(100000)])
    assert abs(draws.mean() - 0.5) < 0.005
    counts, _ = np.histogram(draws, bins=64, range=(0.0, 1.0))
    assert stats.chisquare(counts).pvalue > 0.001

