"""Lattice combinatorics, hashed environments, step functions, enumeration."""

import math
import tracemalloc
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
    enumerate_level_paths,
    enumerate_paths,
    label_rows,
    level_path_count,
    path_count,
    shannon_entropy,
)
from gridentropy import lattice
from gridentropy.lattice import _chain_heads, _level_blocks, _split
from gridentropy.measures import add
from path_oracle import path_labels, path_weight
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


def test_edge_label_deterministic_and_frozen_values():
    env = Environment(42, 2)
    assert env.edge_label((0, 0), 0) == env.edge_label((0, 0), 0)
    # frozen values: the hash is part of the reproducibility contract
    assert env.edge_label((0, 0), 0) == pytest.approx(0.6064316414486781, abs=0)
    assert env.edge_label((0, 0), 1) == pytest.approx(0.5690243419601562, abs=0)
    assert env.edge_label((3, 4), 0) == pytest.approx(0.9126466496849445, abs=0)


def test_edge_label_vectorized_matches_scalar():
    env = Environment(99, 3)
    rng = np.random.default_rng(0)
    anchors = rng.integers(0, 1000, size=(50, 3))
    for axis in range(3):
        batch = env.label_array(anchors, axis)
        for row, got in zip(anchors, batch):
            assert got == env.edge_label(tuple(int(c) for c in row), axis)


def test_edge_label_uniformity_chi_square():
    """10^6 hashed labels pass a 256-bin chi-square uniformity test."""
    env = Environment(20260815, 2)
    k = 1_000_000
    anchors = np.stack([np.arange(k), np.zeros(k, dtype=np.int64)], axis=1)
    labels = env.label_array(anchors, 0)
    assert abs(labels.mean() - 0.5) < 0.002
    counts = np.bincount((labels * 256).astype(np.int64), minlength=256)
    p = stats.chisquare(counts).pvalue
    assert p > 0.001


def test_distinct_seeds_uncorrelated():
    env_a = Environment(1, 2)
    env_b = Environment(2, 2)
    k = 100_000
    anchors = np.stack([np.arange(k), np.arange(k) * 7 % 1000], axis=1)
    la = env_a.label_array(anchors, 1)
    lb = env_b.label_array(anchors, 1)
    assert abs(np.corrcoef(la, lb)[0, 1]) < 0.01


def test_tau_step_function():
    tau = TauFn((0.0, 0.25, 0.75), (1.0, -2.0, 0.5))
    assert tau(0.0) == 1.0
    assert tau(0.24999) == 1.0
    assert tau(0.25) == -2.0
    assert tau(1.0) == 0.5
    assert tau.bound == 2.0
    xs = np.array([0.0, 0.3, 0.9, 1.0])
    assert np.array_equal(tau.apply(xs), np.array([1.0, -2.0, 0.5, 0.5]))
    assert TauFn.from_json(tau.to_json()) == tau


def test_tau_apply_matches_scalar_and_keys_by_cells():
    """apply equals the scalar call label by label; equality, hashing and
    repr see only the cells, so equal potentials share a cache key."""
    labels = Environment(3, 2).label_array(np.arange(200, dtype=np.uint64).reshape(100, 2), 0)
    for make in (lambda: TauFn.identity_ladder(16), lambda: TauFn.indicator(0.5),
                 lambda: TauFn.from_values([0.3, -0.2, 0.9])):
        tau, twin = make(), make()
        assert tau.apply(labels).tolist() == [tau(x) for x in labels.tolist()]
        assert tau == twin and hash(tau) == hash(twin) and {tau: 1}[twin] == 1
        assert repr(tau) == (f"TauFn(breakpoints={tau.breakpoints!r}, "
                             f"values={tau.values!r}, bound={tau.bound!r})")


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


def _dfs_label_lists(env, endpoint=None, length=None):
    lists = []
    if endpoint is not None:
        enumerate_paths(env, endpoint, lambda p, labels: lists.append(tuple(sorted(labels))))
    else:
        enumerate_level_paths(env, length, lambda p, labels: lists.append(tuple(sorted(labels))))
    return sorted(lists)


@pytest.mark.parametrize("dimension, endpoint, length", [
    (1, (4,), 0), (1, (0,), 1), (2, (3, 2), 5), (2, (0, 0), 3), (3, (2, 1, 2), 4),
])
def test_label_rows_equal_sorted_dfs_lists(dimension, endpoint, length):
    """Level expansion yields each path's sorted labels once, in blocks of
    at most block_rows rows, for any block size."""
    env = Environment(23, dimension)
    for kwargs in ({"endpoint": endpoint}, {"length": length}):
        want = _dfs_label_lists(env, **kwargs)
        for block_rows in (0, 1, 2, 5, 10**6):
            blocks = list(label_rows(env, block_rows, **kwargs))
            assert all(len(block) <= max(1, block_rows) for block in blocks)
            rows = [tuple(row) for block in blocks for row in block.tolist()]
            assert sorted(rows) == want


def test_label_rows_validation():
    env = Environment(5, 2)
    for kwargs in ({}, {"endpoint": (1, 1), "length": 2}, {"endpoint": (1, 1, 1)},
                   {"endpoint": (1, -1)}, {"length": -1}):
        with pytest.raises(ValueError):
            list(label_rows(env, 10, **kwargs))


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
    labels = np.sort(env.label_array(anchors, 0))
    grid = (np.arange(1, n + 1)) / n
    kolmogorov = np.max(np.abs(labels - grid))
    assert kolmogorov <= 0.01


# (box, depth): point boxes of D = 1..4, zero coordinates included, and level cubes.
PLAN_BOXES = [
    ((5,), 5), ((3, 2), 5), ((3, 0, 5), 8), ((4, 4, 0), 8), ((0, 0, 0), 0), ((0, 4), 4),
    ((2, 3, 1, 2), 8), ((2, 0, 3, 1), 6),
    ((6,), 6), ((6, 6), 6), ((4, 4, 4), 4), ((3, 3, 3, 3), 3),
]


def _plan_levels(box, depth, heads, tau):
    """The block plan's levels as (points, pred, label, cell), and the levels of each block."""
    blocks = list(_level_blocks(box, depth, heads))
    levels = [level for bounds, points, pred, label in blocks
              for level in _split(bounds, points, pred, label, tau.cell(label))]
    return levels, [len(bounds) - 1 for bounds, *_ in blocks]


@pytest.mark.parametrize("box, depth", PLAN_BOXES)
@pytest.mark.parametrize("seeds", [(7,), (3, 2**64 - 1, -5)], ids=["one-seed", "three-seeds"])
@pytest.mark.parametrize("blocks", ["cap", "one-level", "several"])
def test_block_plan_equals_the_level_oracle(monkeypatch, box, depth, seeds, blocks):
    """Every level of the block plan has the oracle's points, pred, labels
    (NaN where there is no edge) and cells: under the module's cap, with
    one level per block, and under caps that cut blocks of several levels."""
    heads = _chain_heads(seeds, len(box))
    tau = TauFn((0.0, 0.1, 0.65), (1.0, -2.0, 0.5))
    oracle = []
    for points, pred, edges in plan_oracle._level_plan(box, depth):
        label = plan_oracle._level_labels(heads, pred, edges)
        oracle.append((points, pred, label, tau.cell(label)))
    caps = {"cap": [lattice._PLAN_BLOCK_BYTES], "one-level": [0],
            "several": range(250, 16001, 250)}[blocks]
    partitions = []
    for cap in caps:
        monkeypatch.setattr(lattice, "_PLAN_BLOCK_BYTES", cap)
        levels, sizes = _plan_levels(box, depth, heads, tau)
        partitions.append(sizes)
        assert len(levels) == depth
        for got, want in zip(levels, oracle):
            points, pred, label, cell = got
            want_points, want_pred, want_label, want_cell = want
            assert points.tolist() == want_points.tolist()
            assert pred.tolist() == want_pred.tolist()
            assert (np.isnan(label) == np.isnan(want_label)).all()
            assert (label == want_label).sum() == (~np.isnan(want_label)).sum()
            assert cell.tolist() == want_cell.tolist()
    if blocks == "one-level":
        assert partitions == [[1] * depth]
    if blocks == "several" and depth >= 3:
        assert any(len(sizes) > 1 and max(sizes) > 1 for sizes in partitions)


def _streamed_peak(box, depth, seeds):
    """tracemalloc's peak while the plan streams, each block dropped before
    the next, and the bytes of the largest level it yields."""
    heads = _chain_heads(seeds, len(box))
    largest = 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for block in _level_blocks(box, depth, heads):
            bounds, points, pred, label = block
            level_bytes = (points.nbytes + pred.nbytes + label.nbytes) // len(points)
            rows = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
            largest = max(largest, rows * level_bytes)
            del block, bounds, points, pred, label
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
