"""Levy-Prokhorov distance: the line sweep against the Dinic max-flow oracle
and the definition-level oracle, and the row kernel against the scalar
distance."""

import numpy as np
import pytest

from gridentropy import (
    Environment,
    Measure,
    add,
    discretize_lebesgue,
    label_rows,
    prokhorov_brute,
    prokhorov_distance,
    prokhorov_rows,
    tv_distance,
)
from gridentropy import prokhorov
from flow_oracle import bisect_infimum, oracle_deficiency


def rand_measure(rng, max_atoms=6):
    k = rng.integers(0, max_atoms + 1)
    return Measure([(rng.uniform(), rng.uniform(0.1, 2.0)) for _ in range(k)])


def sweep_deficiency(mu, nu, radius):
    """max_A [mu(A) - nu(A^radius)], A^radius closed, as mu_total minus the sweep's flow."""
    flow = prokhorov._sweep_flow(mu.positions, mu.masses, nu.positions, nu.masses, radius)
    return max(0.0, mu.total_mass - flow)


def test_max_deficiency_examples():
    """The sweep's deficiency at closed radii, the exact distance included."""
    mu = Measure([(0.2, 1.0), (0.8, 1.0)])
    assert sweep_deficiency(mu, mu, 0.0) == 0.0
    assert sweep_deficiency(Measure([(0.2, 1.0)]), Measure([(0.5, 1.0)]), 0.1) == 1.0
    assert sweep_deficiency(Measure([(0.2, 1.0)]), Measure([(0.5, 1.0)]), 0.4) == 0.0
    assert sweep_deficiency(Measure([(0.2, 1.0)]), Measure([(0.5, 1.0)]), 0.3) == 0.0


def test_distance_examples():
    assert prokhorov_distance(Measure([(0.2, 1.0)]), Measure([(0.5, 1.0)])) == pytest.approx(0.3)
    assert prokhorov_distance(Measure([(0.3, 2.0)]), Measure([(0.3, 1.0)])) == pytest.approx(1.0)
    assert prokhorov_distance(Measure([(0.0, 0.5), (1.0, 0.5)]), Measure([(0.5, 1.0)])) == pytest.approx(0.5)
    assert prokhorov_brute(Measure([(0.0, 1.0)]), Measure([(1.0, 1.0)])) == pytest.approx(1.0)


def test_distance_to_zero_measure_is_tv_norm():
    rng = np.random.default_rng(2)
    for _ in range(20):
        mu = rand_measure(rng)
        assert prokhorov_distance(mu, Measure()) == pytest.approx(mu.total_mass, abs=1e-12)
        assert prokhorov_distance(Measure(), mu) == pytest.approx(mu.total_mass, abs=1e-12)


def test_lebesgue_discretizations_are_close():
    assert prokhorov_distance(discretize_lebesgue(2), discretize_lebesgue(4)) <= 0.25
    # exact value for the 2-vs-4 midpoint grids
    assert prokhorov_distance(discretize_lebesgue(2), discretize_lebesgue(4)) == pytest.approx(0.125)
    assert prokhorov_distance(discretize_lebesgue(16), discretize_lebesgue(64)) <= 1 / 32


def test_flow_matches_brute_oracle():
    """Main correctness gate: 200 random pairs, exact agreement."""
    rng = np.random.default_rng(20260815)
    for trial in range(200):
        mu = rand_measure(rng)
        nu = rand_measure(rng)
        if trial % 3 == 0 and mu.atoms and nu.atoms:
            # shared positions exercise the distance-0 breakpoint
            nu = Measure(list(nu.atoms[:-1]) + [(mu.positions[0], 0.5)])
        assert abs(prokhorov_distance(mu, nu) - prokhorov_brute(mu, nu)) <= 1e-12


def test_weaker_than_total_variation():
    rng = np.random.default_rng(31)
    for _ in range(200):
        mu, nu = rand_measure(rng), rand_measure(rng)
        assert prokhorov_distance(mu, nu) <= tv_distance(mu, nu) + 1e-12


def test_subadditive_over_measure_sums():
    rng = np.random.default_rng(37)
    for _ in range(200):
        m1, n1 = rand_measure(rng), rand_measure(rng)
        m2, n2 = rand_measure(rng), rand_measure(rng)
        lhs = prokhorov_distance(add(m1, m2), add(n1, n2))
        assert lhs <= prokhorov_distance(m1, n1) + prokhorov_distance(m2, n2) + 1e-12


def test_is_a_metric():
    rng = np.random.default_rng(41)
    ms = [rand_measure(rng) for _ in range(30)]
    for a, b in zip(ms, ms[1:]):
        assert prokhorov_distance(a, b) == prokhorov_distance(b, a)
        assert (prokhorov_distance(a, b) <= 1e-15) == (a == b)
    for a, b, c in zip(ms, ms[10:], ms[20:]):
        assert prokhorov_distance(a, c) <= prokhorov_distance(a, b) + prokhorov_distance(b, c) + 1e-12


def test_brute_rejects_large_support():
    big = Measure([(i / 20, 1.0) for i in range(12)])
    with pytest.raises(ValueError):
        prokhorov_brute(big, big)


def test_bisection_regime_matches_brute_oracle():
    """8x8-atom pairs have 65 breakpoints, so the crossing search bisects over many probes."""
    rng = np.random.default_rng(43)
    for _ in range(25):
        mu = Measure([(rng.uniform(), rng.uniform(0.1, 2.0)) for _ in range(8)])
        nu = Measure([(rng.uniform(), rng.uniform(0.1, 2.0)) for _ in range(8)])
        assert abs(prokhorov_distance(mu, nu) - prokhorov_brute(mu, nu)) <= 1e-12


def test_singleton_target_matches_brute_oracle():
    """Point-mass targets take the closed-form path; it must agree exactly."""
    rng = np.random.default_rng(91)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        mu = Measure([(rng.uniform(), rng.uniform(0.1, 2.0)) for _ in range(k)])
        nu = Measure([(float(rng.uniform()), float(rng.uniform(0.1, 2.0)))])
        want = prokhorov_brute(mu, nu)
        assert abs(prokhorov_distance(mu, nu) - want) <= 1e-12
        assert prokhorov_distance(nu, mu) == prokhorov_distance(mu, nu)


def test_singleton_target_tie_cases():
    """Exact distance ties and mass gaps sit on the crossing boundaries."""
    cases = [
        (Measure([(0.3, 0.4)]), Measure([(0.5, 0.4)]), 0.2),
        (Measure([(0.3, 1.0)]), Measure([(0.3, 0.2)]), 0.8),
        (Measure([(0.2, 0.5), (0.8, 0.5)]), Measure([(0.5, 1.0)]), 0.3),
        (Measure([(0.1, 0.3), (0.5, 0.3), (0.9, 0.3)]), Measure([(0.5, 0.9)]), 0.4),
        (Measure([(0.25, 0.25), (0.75, 0.25)]), Measure([(0.5, 1.5)]), 1.0),
    ]
    for mu, nu, want in cases:
        assert prokhorov_distance(mu, nu) == pytest.approx(want, abs=1e-15)
        assert prokhorov_distance(mu, nu) == pytest.approx(prokhorov_brute(mu, nu), abs=1e-15)


def test_sweep_matches_dinic_oracle():
    """The sweep's deficiency equals the general max-flow's bit for bit.

    Supports run to 40 atoms, past prokhorov_brute's limit, and a third
    of the radii sit exactly on a pairwise distance, whose pairs the
    closed neighborhood admits.
    """
    rng = np.random.default_rng(20261018)
    mass_kinds = (1 / 6, 1 / 10, 1 / 64, None)

    def measure():
        k = int(rng.integers(1, 41))
        kind = mass_kinds[rng.integers(len(mass_kinds))]
        masses = rng.uniform(0.01, 1.0, size=k) if kind is None else np.full(k, kind)
        return Measure(zip(rng.uniform(size=k).tolist(), masses.tolist()))

    for _ in range(300):
        mu, nu = measure(), measure()
        distances = sorted({abs(x - y) for x in mu.positions for y in nu.positions})
        on_distance = distances[int(rng.integers(len(distances)))]
        for radius in (0.0, on_distance, float(rng.uniform(0.0, 0.3))):
            assert sweep_deficiency(mu, nu, radius) == oracle_deficiency(mu, nu, radius)
            assert sweep_deficiency(nu, mu, radius) == oracle_deficiency(nu, mu, radius)


def _search_cases():
    """Small measure pairs for the crossing search, both ways round.

    Positions are dyadic (many equal distances, merged in the breakpoint
    set) or uniform; atom masses are 1/3, 1/6, 1/7 or 1/8, so the sweep's
    sums round, and the two totals mostly differ, at times by more than
    the largest distance, so that the crossing can sit past the last
    breakpoint.
    """
    rng = np.random.default_rng(20261020)
    masses = (1 / 3, 1 / 6, 1 / 7, 1 / 8)

    def measure():
        k = int(rng.integers(2, 9))
        if rng.integers(2):
            positions = (rng.integers(0, 17, size=k) / 16).tolist()
        else:
            positions = rng.uniform(size=k).tolist()
        mass = masses[rng.integers(len(masses))]
        return Measure((x, mass) for x in positions)

    cases = []
    while len(cases) < 240:
        mu, nu = measure(), measure()
        if len(mu.atoms) >= 2 and len(nu.atoms) >= 2:
            cases += [(mu, nu), (nu, mu)]
    return cases


def test_guided_search_matches_full_bisection_from_every_guess():
    """_infimum returns the full-range bisection's bits from no guess and
    from every start guess; a float predicate that failed to be monotone
    would let the search order pick a different crossing."""
    past_last = 0
    for mu, nu in _search_cases():
        breakpoints = sorted({0.0} | {abs(x - y) for x in mu.positions for y in nu.positions})
        args = (breakpoints, mu.positions, mu.masses, nu.positions, nu.masses,
                max(mu.total_mass, nu.total_mass))
        want = bisect_infimum(*args).hex()
        past_last += abs(mu.total_mass - nu.total_mass) > breakpoints[-1]
        assert prokhorov._infimum(*args).hex() == want
        for guess in range(len(breakpoints)):
            assert prokhorov._infimum(*args, guess).hex() == want
    assert past_last > 0


def test_row_search_takes_two_probes_per_fast_row(monkeypatch):
    """On the 70 paths to (4, 4) against lebesgue:64 at mass 1/8, the
    estimated crossing leaves about two exact probes per row (about 9 for
    the full-range bisection), and every row is probed at least once."""
    [(rows, _)] = label_rows(Environment(1, 2), 10**6, endpoint=(4, 4))
    rows.sort(axis=1)
    assert rows.shape == (70, 8)
    probes = []
    sweep, infimum = prokhorov._sweep_flow, prokhorov._infimum

    def counting_sweep(*args):
        probes[-1] += 1
        return sweep(*args)

    def counting_infimum(*args):
        probes.append(0)
        return infimum(*args)

    monkeypatch.setattr(prokhorov, "_sweep_flow", counting_sweep)
    monkeypatch.setattr(prokhorov, "_infimum", counting_infimum)
    calls = _count_scalar_calls(monkeypatch)
    prokhorov_rows(rows, 1 / 8, discretize_lebesgue(64))
    assert len(calls) == 0 and len(probes) == 70
    assert min(probes) >= 1
    assert sum(probes) <= 2.2 * len(probes)


def _count_scalar_calls(monkeypatch):
    calls = []
    original = prokhorov.prokhorov_distance

    def counting(mu, nu):
        calls.append(mu)
        return original(mu, nu)

    monkeypatch.setattr(prokhorov, "prokhorov_distance", counting)
    return calls


ROW_TARGETS = (discretize_lebesgue(64), Measure([(0.125, 0.5), (0.375, 0.5)]), Measure([(0.5, 1.0)]))


@pytest.mark.parametrize("dimension, endpoint, length", [
    (1, (6,), 6), (2, (3, 3), 6), (3, (2, 2, 1), 5),
])
def test_prokhorov_rows_match_scalar_distance(monkeypatch, dimension, endpoint, length):
    """The row kernel is ``==`` prokhorov_distance on every path of point and
    level ensembles, and no target needs the scalar path."""
    env = Environment(31, dimension)
    for kwargs in ({"endpoint": endpoint}, {"length": length}):
        rows = np.concatenate([labels for labels, _ in label_rows(env, 10**6, **kwargs)])
        rows.sort(axis=1)
        for nu in ROW_TARGETS:
            for mass in (1.0 / length, 1.0 / (length + 3)):
                want = [prokhorov_distance(Measure((u, mass) for u in row), nu)
                        for row in rows.tolist()]
                calls = _count_scalar_calls(monkeypatch)
                assert prokhorov_rows(rows, mass, nu).tolist() == want
                assert len(calls) == 0
                monkeypatch.undo()


def test_prokhorov_rows_fallback_rows(monkeypatch):
    """Rows with zero or equal breakpoints, short rows, a row equal to the
    target and rows with two labels at the same distance from a one-atom
    target agree with prokhorov_distance.  Only rows with equal labels,
    which Measure merges, call it, whatever a one-atom target's mass
    against the row's total."""
    nu = Measure([(0.125, 0.5), (0.375, 0.5)])
    fast = [0.2, 0.6]
    forced = [
        [0.3, 0.3],      # duplicate labels
        [0.125, 0.6],    # a zero breakpoint
        [0.0, 0.25],     # equal breakpoints: |0 - 0.125| == |0.25 - 0.125|
        [0.125, 0.375],  # the target's own atoms: distance 0
    ]
    calls = _count_scalar_calls(monkeypatch)
    got = prokhorov_rows(np.array([fast] + forced), 0.5, nu)
    assert len(calls) == 1  # the duplicate labels
    want = [prokhorov_distance(Measure((u, 0.5) for u in row), nu) for row in [fast] + forced]
    assert got.tolist() == want
    assert got[-1] == 0.0
    for rows in (np.empty((1, 0)), np.array([[0.3], [0.7]])):
        calls.clear()
        got = prokhorov_rows(rows, 0.25, nu)
        assert len(calls) == 0
        assert got.tolist() == [prokhorov_distance(Measure((u, 0.25) for u in row), nu)
                                for row in rows.tolist()]
    assert prokhorov_rows(np.empty((1, 0)), 0.25, nu).tolist() == [nu.total_mass]
    # Against one atom, two labels at the same distance from it run the kernel too.
    dirac = Measure([(0.5, 1.0)])
    forced = [[0.25, 0.75], [0.3, 0.3]]  # equal distances; equal labels
    calls.clear()
    got = prokhorov_rows(np.array([fast] + forced), 0.5, dirac)
    assert len(calls) == 1  # the equal labels
    want = [prokhorov_distance(Measure((u, 0.5) for u in row), dirac) for row in [fast] + forced]
    assert got.tolist() == want
    rows = np.array([[0.1, 0.45, 0.9], [0.5, 0.55, 0.7], [0.0, 0.2, 0.35]])
    for mass in (0.1, 0.75, 1.5):  # below, equal to and above the row total 3 * 0.25
        nu = Measure([(0.4, mass)])
        calls.clear()
        got = prokhorov_rows(rows, 0.25, nu)
        assert len(calls) == 0
        assert got.tolist() == [prokhorov_distance(Measure((u, 0.25) for u in row), nu)
                                for row in rows.tolist()]


def test_prokhorov_rows_match_brute_oracle():
    """On small supports the row kernel agrees with the definition."""
    rng = np.random.default_rng(7)
    for _ in range(30):
        length = int(rng.integers(2, 6))
        rows = np.sort(rng.uniform(size=(4, length)), axis=1)
        mass = 1.0 / int(rng.integers(length, length + 3))
        nu = Measure(zip(rng.uniform(size=3), rng.uniform(0.1, 0.5, 3)))
        for row, got in zip(rows.tolist(), prokhorov_rows(rows, mass, nu).tolist()):
            assert abs(got - prokhorov_brute(Measure((u, mass) for u in row), nu)) <= 1e-12


def test_prokhorov_rows_match_prokhorov_distance_bits():
    """A block's distances have the float.hex of prokhorov_distance on each
    row alone: dyadic labels (distance ties, equal labels and zero
    distances), one-atom rows against multi-atom targets, and empty rows,
    against one-atom and multi-atom targets of mixed masses."""
    rng = np.random.default_rng(20261021)
    targets = (
        discretize_lebesgue(8),
        Measure([(0.25, 1 / 3), (0.5, 1 / 7), (0.75, 1 / 3)]),
        Measure([(0.5, 1.0)]),
        Measure([(0.375, 0.2)]),
        Measure(),
    )
    for length in range(7):
        for rows in (rng.integers(0, 9, size=(40, length)) / 8, rng.uniform(size=(40, length))):
            rows.sort(axis=1)
            for nu in targets:
                for mass in (1 / 3, 1 / 8, 1.0):
                    got = [d.hex() for d in prokhorov_rows(rows, mass, nu).tolist()]
                    want = [prokhorov_distance(Measure((u, mass) for u in row), nu).hex()
                            for row in rows.tolist()]
                    assert got == want


def test_one_atom_closed_form_breaks_distance_ties_by_mass():
    """Two atoms at the same distance from a one-atom target join the far
    mass in (distance, mass) order, the lighter added last, from either
    side; the two orders round apart here."""
    light, heavy, far = 0.02247455323943691, 0.03257964863613815, 0.03943616755677566
    mu = Measure([(0.25, heavy), (0.45, 0.004692979338711745), (0.75, light), (0.9, far)])
    nu = Measure([(0.5, 0.008504242956601892)])
    want = (far + heavy) + light
    assert want != (far + light) + heavy
    assert prokhorov_distance(mu, nu) == want
    assert prokhorov_distance(nu, mu) == want
