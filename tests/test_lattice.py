"""Lattice combinatorics, hashed environments, step functions, enumeration."""

import json
import math
import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest
from scipy import stats

from gridentropy import (
    BudgetError,
    Direction,
    Environment,
    Measure,
    Path,
    TauFn,
    cost_sum,
    label_rows,
    level_path_count,
    path_count,
    shannon_entropy,
)
from gridentropy import estimators, lattice
from gridentropy.lattice import _chain_heads, _chain_labels, _ensemble, _level_blocks
from gridentropy.measures import add
from path_oracle import (
    _chain_head, _dfs_paths, edge_label, enumerate_level_paths, enumerate_paths, path_labels,
    path_weight,
)
import plan_oracle


def test_path_count_examples():
    assert path_count((2, 2)) == 6
    assert path_count((7, 0, 0)) == 1
    assert path_count((3, 2, 1)) == 60
    assert path_count(()) == 1 or path_count((0,)) == 1


def test_path_count_matches_exhaustive_dfs():
    env = Environment(1, 3)
    seen = []
    n = enumerate_paths(env, (2, 2, 1), lambda p, labels: seen.append(p.steps))
    assert n == path_count((2, 2, 1)) == 30
    assert len(set(seen)) == 30
    assert all(len(s) == 5 for s in seen)


def test_path_count_permutation_symmetric():
    for perm in permutations((3, 2, 1)):
        assert path_count(perm) == 60


def test_level_path_count():
    assert level_path_count(2, 3) == 8
    assert level_path_count(3, 0) == 1


def test_shannon_entropy_values():
    assert shannon_entropy(Direction((1, 1), 2)) == pytest.approx(math.log(2), rel=1e-12)
    assert shannon_entropy(Direction((1, 0), 1)) == 0.0
    assert shannon_entropy(Direction((2, 1), 3)) == pytest.approx(
        math.log(3) - (2 / 3) * math.log(2), rel=1e-12
    )


def test_shannon_entropy_asymptotics_of_path_count():
    """H(q) is the growth rate of the multinomial path count."""
    q = Direction((2, 1), 3)
    n = 3000
    rate = math.log(path_count(q.floor_scale(n))) / n
    assert abs(rate - shannon_entropy(q)) < 5e-3


def test_shannon_entropy_homogeneous_and_symmetric():
    q = Direction((3, 5), 4)
    q2 = Direction((6, 10), 4)
    assert shannon_entropy(q2) == pytest.approx(2 * shannon_entropy(q), rel=1e-12)
    assert shannon_entropy(Direction((5, 3), 4)) == pytest.approx(shannon_entropy(q), rel=1e-12)


def test_direction_reduction_and_floor():
    q = Direction((2, 2), 4)
    assert q.numerators == (1, 1) and q.denominator == 2
    assert q.floor_scale(7) == (3, 3)
    assert Direction.parse("1/2,1/2") == q
    assert Direction.parse("2,1").floor_scale(5) == (10, 5)
    with pytest.raises(ValueError):
        Direction((1, -1), 2)


def _labels(env, anchors, axis):
    """The labels of the (k, D) anchors' edges along one axis, hashed as the engines hash them."""
    heads = _chain_heads([env.seed], env.dimension)[axis]
    return _chain_labels(heads, np.asarray(anchors, dtype=np.uint64))


# Seed 42's labels of three (anchor, axis) edges in D = 2, frozen: the
# hash is part of the reproducibility contract.
FROZEN_LABELS = {((0, 0), 0): 0.6064316414486781, ((0, 0), 1): 0.5690243419601562,
                 ((3, 4), 0): 0.9126466496849445}


def test_edge_label_deterministic_and_frozen_values():
    """The frozen labels come out of the scalar oracle, the walker's label rows
    and the DP plan's bits alike."""
    env = Environment(42, 2)
    plan = {}
    for points, _, bits in _level_blocks((4, 4), 8, [42], lambda bits: bits[0]):
        for point, row in zip(points.tolist(), bits.tolist()):
            plan.update({(tuple(point), axis): m * 2.0**-53 for axis, m in enumerate(row)})
    for (anchor, axis), want in FROZEN_LABELS.items():
        assert edge_label(env, anchor, axis) == edge_label(env, anchor, axis) == want
        end = tuple(c + (i == axis) for i, c in enumerate(anchor))
        [(rows, steps)] = label_rows(env, 1, endpoint=end, start=anchor)
        assert rows.tolist() == [[want]] and steps.tolist() == [[axis]]
        assert plan[end, axis] == want


def test_chain_heads_equal_the_scalar_oracle_heads():
    """The uint64 heads equal the oracle's Python-int heads for seeds at
    and past both ends of 64 bits, with no numpy overflow warning."""
    seeds = [0, 1, 2**63, 2**64 - 1, -1, 2**70 + 5]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        heads = _chain_heads(seeds, 4)
    assert heads.dtype == np.uint64
    assert heads.tolist() == [[_chain_head(seed, axis) for seed in seeds] for axis in range(4)]


def test_edge_label_vectorized_matches_scalar():
    env = Environment(99, 3)
    rng = np.random.default_rng(0)
    anchors = rng.integers(0, 1000, size=(50, 3))
    for axis in range(3):
        batch = _labels(env, anchors, axis)
        for row, got in zip(anchors, batch):
            assert got == edge_label(env, tuple(int(c) for c in row), axis)


def test_edge_label_uniformity_chi_square():
    """10^6 hashed labels pass a 256-bin chi-square uniformity test."""
    env = Environment(20260815, 2)
    k = 1_000_000
    anchors = np.stack([np.arange(k), np.zeros(k, dtype=np.int64)], axis=1)
    labels = _labels(env, anchors, 0)
    assert abs(labels.mean() - 0.5) < 0.002
    counts = np.bincount((labels * 256).astype(np.int64), minlength=256)
    p = stats.chisquare(counts).pvalue
    assert p > 0.001


def test_distinct_seeds_uncorrelated():
    env_a = Environment(1, 2)
    env_b = Environment(2, 2)
    k = 100_000
    anchors = np.stack([np.arange(k), np.arange(k) * 7 % 1000], axis=1)
    la = _labels(env_a, anchors, 1)
    lb = _labels(env_b, anchors, 1)
    assert abs(np.corrcoef(la, lb)[0, 1]) < 0.01


def test_tau_step_function():
    tau = TauFn((0.0, 0.25, 0.75), (1.0, -2.0, 0.5))
    assert tau(0.0) == 1.0
    assert tau(0.24999) == 1.0
    assert tau(0.25) == -2.0
    assert tau(1.0) == 0.5
    assert tau.bound == 2.0
    # Labels 0, 0.3, 0.9 and 1 - 2^-53 (the largest) as their 53-bit integers.
    bits = np.array([0, math.ceil(0.3 * 2**53), math.ceil(0.9 * 2**53), 2**53 - 1],
                    dtype=np.uint64)
    cells = tau.cell(bits).tolist()
    assert cells == [0, 1, 2, 2]
    assert [tau.values[c] for c in cells] == [tau(m * 2.0**-53) for m in bits.tolist()]
    assert TauFn.from_json(json.dumps({"breakpoints": tau.breakpoints, "values": tau.values})) == tau


def test_tau_cell_matches_scalar_and_keys_by_cells():
    """The cell of each hashed label's bits holds the scalar call's value;
    equality, hashing and repr see only the cells, so equal potentials
    share a cache key."""
    labels = _labels(Environment(3, 2), np.arange(200).reshape(100, 2), 0)
    bits = (labels * 2.0**53).astype(np.uint64)  # exact: labels are m * 2^-53
    for make in (lambda: TauFn.identity_ladder(16), lambda: TauFn.indicator(0.5),
                 lambda: TauFn.from_values([0.3, -0.2, 0.9])):
        tau, twin = make(), make()
        assert [tau.values[c] for c in tau.cell(bits).tolist()] == [tau(x) for x in labels.tolist()]
        assert tau == twin and hash(tau) == hash(twin) and {tau: 1}[twin] == 1
        assert repr(tau) == (f"TauFn(breakpoints={tau.breakpoints!r}, "
                             f"values={tau.values!r}, bound={tau.bound!r})")


@pytest.mark.parametrize("tau", [
    *(pytest.param(TauFn.identity_ladder(k), id=f"identity:{k}") for k in range(1, 65)),
    # Floors that are not multiples of a power of two.
    pytest.param(TauFn.from_values([0.3, -0.2, 0.9]), id="values:3"),
    pytest.param(TauFn.indicator(0.3), id="indicator:0.3"),
    # Subnormal (and tiny) breakpoints: every floor but the first is 1.
    pytest.param(TauFn((0.0, 5e-324, 1e-310, 2.0**-60), (1.0, 2.0, 3.0, 4.0)), id="subnormal"),
    # The largest float below 1, whose floor is the largest label's bits.
    pytest.param(TauFn((0.0, 0.5, 1 - 2.0**-53), (0.0, 1.0, 2.0)), id="below-one"),
    # A power-of-two cell count with unequal cells: the search, not the shift.
    pytest.param(TauFn((0.0, 0.3), (1.0, 2.0)), id="unequal:2"),
    pytest.param(TauFn((0.0, 0.25, 0.5, 0.875), (-1.0, 0.0, 1.0, 2.0)), id="unequal:4"),
])
def test_tau_cell_of_bits_equals_the_float_search(tau):
    """cell(bits) is the float search of the label bits * 2^-53 over the
    breakpoints: at every integer floor and its neighbours, at both ends
    of the 53-bit range and at random bits, whether the cell is read by
    shift (identity:2^j) or by search (every other case)."""
    floors = [math.ceil(b * 2**53) for b in tau.breakpoints]
    if tau.values == (1.0, 2.0, 3.0, 4.0):
        assert floors == [0, 1, 1, 1]
    near = {0, 2**53 - 1} | {f + d for f in floors for d in (-1, 0, 1) if 0 <= f + d < 2**53}
    bits = np.concatenate([np.array(sorted(near), dtype=np.uint64),
                           np.random.default_rng(5).integers(0, 2**53, 10_000, dtype=np.uint64)])
    want = np.searchsorted(np.array(tau.breakpoints), bits * 2.0**-53, side="right") - 1
    assert tau.cell(bits).tolist() == want.tolist()


def test_tau_cell_shifts_exactly_for_equal_cells_of_width_a_power_of_two():
    """The shift serves k = 2^j equal cells (identity:1..64, 4 cells from
    values, zero and constant potentials) and no other breakpoints."""
    shifted = [*(TauFn.identity_ladder(2**j) for j in range(7)),
               TauFn.from_values([0.3, -0.2, 0.9, 0.1]), TauFn.constant(0.0), TauFn.constant(2.5)]
    assert [tau._shift for tau in shifted] == [53, 52, 51, 50, 49, 48, 47, 51, 53, 53]
    searched = [TauFn.identity_ladder(k) for k in (3, 5, 6, 7, 12, 48, 63)]
    searched += [TauFn.from_values([0.3, -0.2, 0.9]), TauFn.indicator(0.3),
                 TauFn((0.0, 0.3), (1.0, 2.0)), TauFn((0.0, 0.25, 0.5, 0.875), (1.0, 2.0, 3.0, 4.0)),
                 TauFn((0.0, 0.25), (1.0, 2.0))]
    assert all(tau._shift is None for tau in searched)


def test_tau_validation():
    with pytest.raises(ValueError):
        TauFn((0.1,), (1.0,))  # must start at 0
    with pytest.raises(ValueError):
        TauFn((0.0, 0.5, 0.5), (1.0, 2.0, 3.0))  # not strictly increasing
    with pytest.raises(ValueError):
        TauFn.from_values([0.0] * 65)  # too many cells


def test_tau_constructors():
    assert TauFn.constant(3.0)(0.7) == 3.0
    ind = TauFn.indicator(0.5)
    assert ind(0.49) == 0.0 and ind(0.5) == 1.0 and ind(1.0) == 1.0
    ladder = TauFn.identity_ladder(4)
    assert ladder(0.0) == 0.125 and ladder(0.99) == 0.875


def test_enumerate_paths_basics():
    env = Environment(5, 2)
    paths = []
    n = enumerate_paths(env, (1, 1), lambda p, labels: paths.append(p))
    assert n == 2
    assert {p.steps for p in paths} == {(0, 1), (1, 0)}
    count = enumerate_paths(env, (2, 2), lambda p, labels: None)
    assert count == 6


def test_enumerate_paths_label_multiset_is_sorted_and_correct():
    """The visitor's labels are the path's edge labels in step order, exactly."""
    for env, endpoint in ((Environment(5, 2), (3, 2)), (Environment(5, 3), (2, 1, 2))):
        checked = []

        def check(path, labels):
            assert list(labels) == path_labels(env, path)
            checked.append(path)

        count = enumerate_paths(env, endpoint, check)
        count += enumerate_paths(env, endpoint, check, start=(1,) * env.dimension)
        count += enumerate_level_paths(env, 4, check)
        assert len(checked) == count


def test_enumerate_paths_budget_refusal():
    env = Environment(5, 2)
    with pytest.raises(BudgetError) as info:
        enumerate_paths(env, (10, 10), lambda p, labels: None, budget=1000)
    assert info.value.count == path_count((10, 10))


def test_enumerate_level_paths():
    env = Environment(5, 2)
    endpoints = set()
    n = enumerate_level_paths(env, 3, lambda p, labels: endpoints.add(p.end))
    assert n == 8
    assert endpoints == {(3, 0), (2, 1), (1, 2), (0, 3)}
    with pytest.raises(BudgetError):
        enumerate_level_paths(env, 40, lambda p, labels: None, budget=10**6)


def _dfs_visits(env, start, endpoint=None, length=None):
    """The oracle DFS's (labels, steps) of every path, in visiting order."""
    visits = []

    def visit(path, labels):
        visits.append((list(labels), list(path.steps)))

    if endpoint is not None:
        enumerate_paths(env, endpoint, visit, start=start)
    else:
        _dfs_paths(env, start, visit, None, length)
    return visits


@pytest.mark.parametrize("dimension, endpoint, length", [
    (1, (4,), 0), (1, (0,), 1), (2, (3, 2), 5), (2, (0, 0), 3), (3, (2, 1, 2), 4),
])
def test_label_rows_equal_sorted_dfs_lists(dimension, endpoint, length):
    """Level expansion yields the DFS's label lists and step axes, sorted as
    the DFS visits them (lexicographically by steps), in blocks of at most
    block_rows rows, for any block size and from the origin or another start."""
    env = Environment(23, dimension)
    for start in ((0,) * dimension, tuple(range(1, dimension + 1))):
        shifted = tuple(s + c for s, c in zip(start, endpoint))
        for kwargs in ({"endpoint": shifted}, {"length": length}):
            want = _dfs_visits(env, start, **kwargs)
            for block_rows in (0, 1, 2, 5, 10**6):
                blocks = list(label_rows(env, block_rows, start=start, **kwargs))
                assert all(len(labels) <= max(1, block_rows) for labels, _ in blocks)
                got = [(row, axes) for labels, steps in blocks
                       for row, axes in zip(labels.tolist(), steps.tolist())]
                assert got == want


def test_label_rows_validation():
    env = Environment(5, 2)
    for kwargs in ({}, {"endpoint": (1, 1), "length": 2}, {"endpoint": (1, 1, 1)},
                   {"endpoint": (1, -1)}, {"length": -1},
                   {"endpoint": (2, 2), "start": (1, 3)}, {"length": 2, "start": (1,)},
                   {"endpoint": (2, 2), "start": (0, 0, 0)}):
        with pytest.raises(ValueError):
            list(label_rows(env, 10, **kwargs))
    # cost_sum hands the same ensembles to the walker, against one atom too.
    for start, endpoint in (((1, 1), (1, 0)), ((1, 3), (2, 2)), ((0, 0, 0), (2, 2))):
        for target in (Measure([(0.5, 1.0)]), Measure([(0.25, 0.5), (0.75, 0.5)])):
            with pytest.raises(ValueError):
                cost_sum(env, start, endpoint, target, 1.0)


def test_label_rows_budget_refusal_hashes_nothing(monkeypatch):
    """An ensemble past the budget raises BudgetError with its exact count
    before any label is hashed."""
    def no_hashing(*args):
        raise AssertionError("hashed a label")

    monkeypatch.setattr(lattice, "_chain_labels", no_hashing)
    monkeypatch.setattr(lattice, "_mix_array", no_hashing)
    env = Environment(5, 2)
    for kwargs, count in (({"endpoint": (10, 10)}, path_count((10, 10))),
                          ({"endpoint": (12, 9), "start": (2, 1)}, path_count((10, 8))),
                          ({"length": 12}, level_path_count(2, 12))):
        with pytest.raises(BudgetError) as info:
            next(label_rows(env, 10, budget=1000, **kwargs))
        assert info.value.count == count


def test_label_rows_refuses_paths_longer_than_the_budget_before_hashing(monkeypatch):
    """Ensembles of fewer paths than steps (D = 1, or one nonzero side) whose
    paths are longer than the budget raise BudgetError naming the length before
    any label is hashed; a length equal to the budget is walked."""
    budget = 50
    assert [len(block[0][0]) for block in label_rows(Environment(5, 1), 10, length=budget,
                                                     budget=budget)] == [budget]

    def no_hashing(*args):
        raise AssertionError("hashed a label")

    monkeypatch.setattr(lattice, "_chain_labels", no_hashing)
    monkeypatch.setattr(lattice, "_mix_array", no_hashing)
    for env, kwargs, depth in ((Environment(5, 1), {"length": 10**400}, 10**400),
                               (Environment(5, 1), {"length": budget + 1}, budget + 1),
                               (Environment(5, 2), {"endpoint": (10**14, 0)}, 10**14),
                               (Environment(5, 3), {"endpoint": (2, 60, 3), "start": (2, 0, 3)},
                                60)):
        with pytest.raises(BudgetError, match=f"enumeration of 1 length-{depth} paths") as info:
            next(label_rows(env, 10, budget=budget, **kwargs))
        assert info.value.count == f"1 length-{depth}"


def test_ensemble_gate_refuses_a_huge_length_before_counting():
    """Past 2^16 steps and the budget's bit length, the gate's refusal names
    D^length instead of computing it; shorter lengths keep their exact count."""
    with pytest.raises(BudgetError, match=r"2\^(10{400}) paths exceeds budget 100000000"):
        _ensemble(2, 10**8, length=10**400)
    with pytest.raises(BudgetError) as info:
        next(label_rows(Environment(1, 3), 10, length=10**400, budget=10**8))
    assert info.value.count == f"3^{10**400}"
    for length, budget, count in ((12, 1000, 4096), (1 << 16, 10, 2 ** (1 << 16))):
        with pytest.raises(BudgetError) as info:
            _ensemble(2, budget, length=length)
        assert info.value.count == count
    assert _ensemble(1, 10**401, length=10**400) == ((0,), None, 10**400, 1)
    assert level_path_count(2, 1 << 16) == 2 ** (1 << 16)
    assert level_path_count(1, 10**400) == 1


def test_ensemble_gate_refuses_a_huge_endpoint_before_counting(monkeypatch):
    """An endpoint whose lower bound rest * ln(total / rest) is far past the
    budget is refused without the exact count, by the walker and the profile."""
    def no_counting(*args):
        raise AssertionError("counted the paths exactly")

    monkeypatch.setattr(lattice, "path_count", no_counting)
    endpoint = (5 * 10**6, 5 * 10**6)
    with pytest.raises(BudgetError, match=r"at least 10\^1505149 paths exceeds budget 100000000"):
        next(label_rows(Environment(5, 2), 10, endpoint=endpoint))
    with pytest.raises(BudgetError) as info:
        estimators._profile(Environment(5, 2), Measure([(0.5, 1.0)]), 10**7, endpoint=endpoint)
    assert info.value.count == "at least 10^1505149"


def test_budget_refusal_text_stays_under_the_digit_limit():
    """Counts and lengths past Python's int-to-str digit limit are written as
    powers of ten, so that building the refusal never raises."""
    with pytest.raises(BudgetError, match=r"enumeration of 10\^30100\.40 paths"):
        _ensemble(2, 10**8, endpoint=(50000, 50000))
    with pytest.raises(BudgetError, match=r"enumeration of 2\^10\^5000\.30 paths"):
        _ensemble(2, 10**8, length=2 * 10**5000)
    with pytest.raises(BudgetError, match=r"enumeration of 1 length-10\^5000\.30 paths"):
        _ensemble(1, 10**8, length=2 * 10**5000)


def test_enumerate_paths_from_offset_start():
    env = Environment(5, 2)
    paths = []
    enumerate_paths(env, (3, 2), lambda p, labels: paths.append(p), start=(2, 1))
    assert len(paths) == 2
    assert all(p.start == (2, 1) and p.end == (3, 2) for p in paths)


def test_concatenated_empirical_measure_adds():
    """Empirical measure of a concatenation is the sum of the pieces'."""
    env = Environment(17, 2)
    first = Path((0, 0), (0, 0, 1))
    second = Path((2, 1), (0, 1, 1))
    joined = Path((0, 0), first.steps + second.steps)

    def empirical(path):
        return Measure((u, 1.0) for u in path_labels(env, path))

    assert add(empirical(first), empirical(second)) == empirical(joined)


def test_path_weight_examples():
    env = Environment(3, 2)
    path = Path((0, 0), (0, 0, 0, 0, 1, 1, 1))
    assert path_weight(env, TauFn.constant(2.5), path) == pytest.approx(2.5 * 7)
    assert path_weight(env, TauFn.constant(0.0), path) == 0.0


def test_path_weight_equals_integral_of_empirical_measure():
    env = Environment(9, 3)
    tau = TauFn((0.0, 0.5), (-1.0, 2.0))
    path = Path((0, 0, 0), (0, 0, 1, 1, 2, 2))
    mu = Measure((u, 1.0) for u in path_labels(env, path))
    integral = sum(m * tau(p) for p, m in mu.atoms)
    assert path_weight(env, tau, path) == pytest.approx(integral, abs=1e-12)


def test_staircase_empirical_cdf_near_uniform():
    """Long fixed path: labels behave like an i.i.d. uniform sample."""
    env = Environment(123, 2)
    n = 100_000
    anchors = np.zeros((n, 2), dtype=np.int64)
    anchors[:, 0] = np.arange(n)
    labels = np.sort(_labels(env, anchors, 0))
    grid = (np.arange(1, n + 1)) / n
    kolmogorov = np.max(np.abs(labels - grid))
    assert kolmogorov <= 0.01


# (box, depth): point boxes of D = 1..4, zero coordinates included, and level cubes.
PLAN_BOXES = [
    ((5,), 5), ((3, 2), 5), ((3, 0, 5), 8), ((4, 4, 0), 8), ((0, 0, 0), 0), ((0, 4), 4),
    ((2, 3, 1, 2), 8), ((2, 0, 3, 1), 6),
    ((6,), 6), ((6, 6), 6), ((4, 4, 4), 4), ((3, 3, 3, 3), 3),
]


def _plan_levels(box, depth, seeds, tau):
    """The block plan's levels as (points, pred, bits, cell), from two walks
    whose cell functions are the identity and ``tau.cell``, and its block
    count: the plan calls its cell function once per block, on the block's
    (seeds, rows, D) bits."""
    shapes = []

    def cell(bits):
        shapes.append(bits.shape)
        return tau.cell(bits)

    levels = [(points, pred, bits, cells) for (points, pred, bits), (*_, cells) in zip(
        _level_blocks(box, depth, seeds, lambda bits: bits), _level_blocks(box, depth, seeds, cell))]
    assert [shape[0] for shape in shapes] == [len(seeds)] * len(shapes)
    assert sum(shape[1] for shape in shapes) == sum(len(points) for points, *_ in levels)
    return levels, len(shapes)


@pytest.mark.parametrize("box, depth", PLAN_BOXES)
@pytest.mark.parametrize("seeds", [(7,), (3, 2**64 - 1, -5)], ids=["one-seed", "three-seeds"])
@pytest.mark.parametrize("blocks", ["cap", "one-level", "several"])
def test_block_plan_equals_the_level_oracle(monkeypatch, box, depth, seeds, blocks):
    """Every level of the block plan has the oracle's points and pred and,
    on every edge (pred >= 0), its labels as bits * 2^-53 and the float
    search's cells: under the module's cap, with one level per block, and
    under caps that cut blocks of several levels."""
    tau = TauFn((0.0, 0.1, 0.65), (1.0, -2.0, 0.5))
    oracle = []
    for points, pred, edges in plan_oracle._level_plan(box, depth):
        label = plan_oracle._level_labels(seeds, pred, edges)
        cell = np.searchsorted(np.array(tau.breakpoints), label, side="right") - 1
        oracle.append((points, pred, label, cell))
    caps = {"cap": [lattice._PLAN_BLOCK_BYTES], "one-level": [0],
            "several": range(250, 16001, 250)}[blocks]
    block_counts = []
    for cap in caps:
        monkeypatch.setattr(lattice, "_PLAN_BLOCK_BYTES", cap)
        levels, count = _plan_levels(box, depth, seeds, tau)
        block_counts.append(count)
        assert len(levels) == depth
        for got, want in zip(levels, oracle):
            points, pred, bits, cell = got
            want_points, want_pred, want_label, want_cell = want
            assert points.tolist() == want_points.tolist()
            assert pred.tolist() == want_pred.tolist()
            assert bits.dtype == np.uint64 and bits.shape == want_label.shape
            edge = want_pred >= 0
            assert (bits[:, edge] * 2.0**-53).tolist() == want_label[:, edge].tolist()
            assert cell[:, edge].tolist() == want_cell[:, edge].tolist()
    if blocks == "one-level":
        assert block_counts == [depth]
    if blocks == "several" and depth >= 3:
        assert any(1 < count < depth for count in block_counts)


def _streamed_peak(box, depth, seeds):
    """tracemalloc's peak while the plan streams, each block dropped before
    the next, and the bytes of the largest level it yields.  The cells are
    read by binary search, the cell function with the most temporaries."""
    tau = TauFn((0.0, 0.1, 0.65), (1.0, -2.0, 0.5))
    largest = 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for points, pred, cells in _level_blocks(box, depth, seeds, tau.cell):
            largest = max(largest, points.nbytes + pred.nbytes + cells.nbytes)
            del points, pred, cells
        return tracemalloc.get_traced_memory()[1] - base, largest
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("box, depth, seeds", [
    ((512, 512), 512, (1,)),
    # The thin box: 361,201 prefixes, each at one level of 1200.
    ((600, 600, 0), 1200, (1,)),
    ((64, 64), 128, (1, 2, 3, 4, 5)),
    ((16, 16, 16), 48, (1,)),
    ((40, 40, 40), 40, (1, 2)),
    ((12, 12, 12, 12), 12, (1,)),
])
def test_plan_stays_under_its_byte_cap(box, depth, seeds):
    """Streaming a plan never holds more than the byte cap plus one level,
    every table, prefix chain and temporary of a block counted."""
    peak, level = _streamed_peak(box, depth, seeds)
    assert peak <= lattice._PLAN_BLOCK_BYTES + level
