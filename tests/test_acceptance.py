"""End-to-end acceptance: every published criterion at its stated scale.

One parametrized test per criterion so the verbose run shows a single
pass/fail line for each.  The suite keeps no cache of its own; the
estimators' profile store is shared across the module, so the
Lebesgue-target profiles are built once and reused, exactly as
``gridentropy verify`` does.  Below them: the suite's chi-square tail
against scipy, and a counter test of that sharing.
"""

from collections import Counter, OrderedDict

import numpy as np
import pytest
from scipy import stats
from test_estimators import _count_enumerations

from gridentropy import estimators
from gridentropy.verification import TITLES, VerificationSuite, _chi2_sf, format_table


@pytest.fixture(scope="module")
def suite():
    return VerificationSuite()


@pytest.mark.parametrize("number", sorted(TITLES), ids=lambda n: f"{n:02d}")
def test_criterion(suite, number):
    """Every check row holds and the run fits its wall-clock budget."""
    report = suite.run([number])[0]
    assert report.passed, "\n" + format_table([report])


@pytest.mark.parametrize("dof", range(1, 41))
def test_chi2_tail_matches_scipy(dof):
    """The closed-form tail agrees with scipy's to 1e-12 relative on [0, 60],
    and is exactly 1 at x = 0."""
    xs = np.linspace(0.0, 60.0, 601)
    got = np.array([_chi2_sf(float(x), dof) for x in xs])
    np.testing.assert_allclose(got, stats.chi2.sf(xs, dof), rtol=1e-12, atol=0)
    assert _chi2_sf(0.0, dof) == 1.0


def test_criteria_5_and_10_walk_each_lebesgue_ensemble_once(monkeypatch):
    """Criterion 5 walks each (seed, n) ensemble once for its Lebesgue
    target, though two estimators read it.  Criterion 10 then walks each
    once per other target (uniform-half, triangular) and reads its
    Lebesgue profiles from the store."""
    monkeypatch.setattr(estimators, "_profiles", OrderedDict())
    monkeypatch.setattr(estimators, "_profile_bytes", 0)
    calls = _count_enumerations(monkeypatch)
    once = Counter((seed, (n // 2, n // 2)) for seed in range(1, 6) for n in (6, 8, 10, 12))
    suite = VerificationSuite()
    suite.run([5])
    assert Counter(calls) == once
    suite.run([10])
    assert Counter(calls) == once + once + once
