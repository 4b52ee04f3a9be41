"""Atomic measure arithmetic: construction, TV, KL, discretization."""

import json
import math

import numpy as np
import pytest

from gridentropy import (
    Histogram,
    Measure,
    add,
    discretize_lebesgue,
    kl_divergence,
    scale,
    tv_distance,
)


def test_atoms_sorted_merged_and_zero_mass_dropped():
    """Equal positions merge exactly; zero masses vanish; order is by position."""
    m = Measure([(0.5, 1.0), (0.2, 0.3), (0.5, 2.0), (0.9, 0.0)])
    assert m.atoms == ((0.2, 0.3), (0.5, 3.0))
    assert m.total_mass == pytest.approx(3.3, rel=1e-12)


def test_construction_rejects_bad_atoms():
    with pytest.raises(ValueError):
        Measure([(math.inf, 1.0)])
    with pytest.raises(ValueError):
        Measure([(0.5, -0.1)])


@pytest.mark.parametrize("mass", [math.inf, math.nan])
def test_construction_rejects_non_finite_mass(mass):
    """An infinite or NaN mass is refused, and the error names it."""
    with pytest.raises(ValueError, match=f"got {mass}"):
        Measure([(0.5, mass)])


def test_total_mass_matches_sum_of_masses():
    rng = np.random.default_rng(7)
    for _ in range(50):
        atoms = [(rng.uniform(), rng.uniform(0.0, 2.0)) for _ in range(rng.integers(0, 20))]
        m = Measure(atoms)
        assert abs(m.total_mass - sum(m.masses)) <= 1e-12 * max(1.0, m.total_mass)


def test_tv_distance_examples():
    assert tv_distance(Measure([(0.0, 1.0)]), Measure([(0.0, 1.0)])) == 0.0
    assert tv_distance(Measure([(0.0, 1.0)]), Measure([(1.0, 1.0)])) == 1.0
    assert tv_distance(Measure([(0.3, 2.0)]), Measure([(0.3, 1.0)])) == 1.0


def test_tv_distance_brute_force_over_subsets():
    """sup_A |mu(A) - nu(A)| via explicit subset scan on random pairs."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        mu = Measure([(rng.integers(0, 5) / 4, rng.uniform(0.1, 2.0)) for _ in range(4)])
        nu = Measure([(rng.integers(0, 5) / 4, rng.uniform(0.1, 2.0)) for _ in range(4)])
        support = sorted(set(mu.positions) | set(nu.positions))
        best = 0.0
        for mask in range(1 << len(support)):
            chosen = {support[i] for i in range(len(support)) if mask >> i & 1}
            mm = sum(m for p, m in mu.atoms if p in chosen)
            nn = sum(m for p, m in nu.atoms if p in chosen)
            best = max(best, abs(mm - nn))
        assert tv_distance(mu, nu) == pytest.approx(best, abs=1e-12)


def test_tv_distance_is_a_metric():
    rng = np.random.default_rng(3)
    ms = [
        Measure([(rng.uniform(), rng.uniform(0.1, 2.0)) for _ in range(rng.integers(0, 6))])
        for _ in range(30)
    ]
    for a in ms[:10]:
        for b in ms[:10]:
            assert tv_distance(a, b) == tv_distance(b, a)
            assert (tv_distance(a, b) == 0.0) == (a == b)
    for a, b, c in zip(ms, ms[10:], ms[20:]):
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


def test_add_and_scale():
    assert add(Measure([(0.2, 1.0)]), Measure([(0.2, 1.0)])) == Measure([(0.2, 2.0)])
    assert scale(Measure([(0.1, 3.0)]), 1 / 3) == Measure([(0.1, 1.0)])
    assert add(Measure([(0.1, 1.0)]), Measure([(0.4, 1.0)])).total_mass == 2.0
    assert scale(Measure([(0.5, 1.0)]), 0.0) == Measure()
    with pytest.raises(ValueError):
        scale(Measure([(0.5, 1.0)]), -1.0)
    rng = np.random.default_rng(5)
    for _ in range(30):
        mu = Measure([(rng.uniform(), rng.uniform(0.1, 2.0)) for _ in range(5)])
        nu = Measure([(rng.uniform(), rng.uniform(0.1, 2.0)) for _ in range(5)])
        assert add(mu, nu).total_mass == pytest.approx(mu.total_mass + nu.total_mass, rel=1e-12)


def test_kl_divergence_histogram():
    assert kl_divergence(Histogram.uniform(1)) == 0.0
    assert kl_divergence(Histogram.uniform(64)) == pytest.approx(0.0, abs=1e-15)
    # mass 1 spread uniformly over [0, 1/2]: density 2, KL = log 2
    half = Histogram([1 / 32] * 32 + [0.0] * 32)
    assert kl_divergence(half) == pytest.approx(math.log(2), rel=1e-12)


def test_kl_divergence_non_negative_random():
    rng = np.random.default_rng(13)
    for _ in range(40):
        raw = rng.uniform(0.0, 1.0, size=16)
        hist = Histogram(tuple(raw / raw.sum()))
        assert kl_divergence(hist) >= -1e-12


def test_kl_divergence_atomic_is_infinite():
    assert kl_divergence(Measure([(0.5, 1.0)])) == math.inf
    with pytest.raises(ValueError):
        kl_divergence(Measure([(0.5, 2.0)]))
    with pytest.raises(ValueError):
        kl_divergence(Histogram([0.3, 0.3]))


def test_discretize_lebesgue():
    assert discretize_lebesgue(1) == Measure([(0.5, 1.0)])
    assert discretize_lebesgue(2) == Measure([(0.25, 0.5), (0.75, 0.5)])
    m = discretize_lebesgue(64)
    assert m.total_mass == pytest.approx(1.0, rel=1e-12)
    assert m.positions[0] == 1 / 128 and m.positions[-1] == 127 / 128
    with pytest.raises(ValueError):
        discretize_lebesgue(0)


def test_measure_json_round_trip():
    m = Measure([(0.25, 0.5), (0.75, 1.5)])
    assert Measure.from_json(json.dumps(m.atoms)) == m
    h = Histogram([0.25, 0.75])
    assert Histogram.from_json(json.dumps({"bin_count": 2, "bin_masses": h.bin_masses})) == h
