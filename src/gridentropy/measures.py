"""Finite atomic measures on the unit interval and their arithmetic.

Everything downstream (Prokhorov distances, path empirical measures,
entropy targets) is built from two representations:

* ``Measure`` -- an exact list of weighted atoms.  Path empirical
  measures, Lebesgue discretizations and estimator targets all live
  here.
* ``Histogram`` -- masses on a regular binning of [0, 1), used only
  where a density with respect to Lebesgue is required (KL divergence).

Atom positions are compared exactly: they come either from a
deterministic hash or from explicit construction, so float equality is
meaningful and equal positions merge their mass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Measure",
    "Histogram",
    "tv_distance",
    "add",
    "scale",
    "kl_divergence",
    "discretize_lebesgue",
]

# How far from 1 the total mass of a probability measure may be.
UNIT_MASS_TOL = 1e-9


@dataclass(frozen=True)
class Measure:
    """Finite non-negative atomic measure with exact atom positions.

    Atoms are stored sorted by position.  Equal positions are merged on
    construction and zero-mass atoms are dropped, so two measures are
    equal (and hash equal) iff they are equal as measures.  Positions
    normally live in [0, 1], but only finiteness is enforced here.

    Parameters
    ----------
    atoms : iterable of (position, mass) pairs
        Masses must be finite and non-negative, positions finite.

    Raises
    ------
    ValueError
        On a non-finite position or a negative or non-finite mass.
    """

    atoms: tuple[tuple[float, float], ...]
    total_mass: float = field(init=False, compare=False)

    def __init__(self, atoms: Iterable[tuple[float, float]] = ()):
        merged: dict[float, float] = {}
        for position, mass in atoms:
            position = float(position)
            mass = float(mass)
            if not math.isfinite(position):
                raise ValueError(f"atom position must be finite, got {position}")
            if not (0.0 <= mass < math.inf):
                raise ValueError(f"atom mass must be finite and non-negative, got {mass}")
            if mass > 0.0:
                merged[position] = merged.get(position, 0.0) + mass
        cleaned = tuple(sorted((p, m) for p, m in merged.items() if m > 0.0))
        object.__setattr__(self, "atoms", cleaned)
        object.__setattr__(self, "total_mass", math.fsum(m for _, m in cleaned))

    @property
    def positions(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.atoms)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(m for _, m in self.atoms)

    @classmethod
    def from_json(cls, text: str) -> "Measure":
        pairs = json.loads(text)
        return cls((float(p), float(m)) for p, m in pairs)

    def __repr__(self) -> str:
        if not self.atoms:
            return "Measure(zero)"
        body = ", ".join(f"{m:.6g}@{p:.6g}" for p, m in self.atoms[:4])
        if len(self.atoms) > 4:
            body += f", ... {len(self.atoms)} atoms"
        return f"Measure({body})"


@dataclass(frozen=True)
class Histogram:
    """Masses on the regular binning [(i-1)/m, i/m) of the unit interval.

    Used where a density with respect to Lebesgue is structural (KL
    divergence); absolute continuity holds by construction.
    """

    bin_masses: tuple[float, ...]

    def __init__(self, bin_masses: Iterable[float]):
        masses = tuple(float(m) for m in bin_masses)
        if not masses:
            raise ValueError("histogram needs at least one bin")
        if any(not (m >= 0.0) for m in masses):
            raise ValueError("histogram masses must be non-negative")
        object.__setattr__(self, "bin_masses", masses)

    @classmethod
    def uniform(cls, bin_count: int) -> "Histogram":
        return cls((1.0 / bin_count,) * bin_count)

    @property
    def bin_count(self) -> int:
        return len(self.bin_masses)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.bin_masses)

    def to_measure(self) -> Measure:
        """Atomic discretization: mass of bin i collapses to its midpoint."""
        m = self.bin_count
        return Measure(
            ((2 * i + 1) / (2 * m), mass)
            for i, mass in enumerate(self.bin_masses)
            if mass > 0.0
        )

    @classmethod
    def from_json(cls, text: str) -> "Histogram":
        obj = json.loads(text)
        masses = obj["bin_masses"]
        if len(masses) != obj["bin_count"]:
            raise ValueError("bin_count does not match the mass list")
        return cls(masses)


def tv_distance(mu: Measure, nu: Measure) -> float:
    """Total variation distance: sup over atom sets of |mu(A) - nu(A)|.

    Computed as the larger of the two one-sided sums of per-position
    mass differences (the optimal A collects the positions where one
    measure exceeds the other).
    """
    masses_mu = dict(mu.atoms)
    masses_nu = dict(nu.atoms)
    gain = 0.0
    loss = 0.0
    # Sorted positions fix the accumulation order, keeping the result
    # exactly symmetric in (mu, nu).
    for position in sorted(masses_mu.keys() | masses_nu.keys()):
        diff = masses_mu.get(position, 0.0) - masses_nu.get(position, 0.0)
        if diff > 0.0:
            gain += diff
        else:
            loss -= diff
    return max(gain, loss)


def add(mu: Measure, nu: Measure) -> Measure:
    """Sum of measures; masses at equal positions merge."""
    return Measure(mu.atoms + nu.atoms)


def scale(mu: Measure, c: float) -> Measure:
    """Scale all masses by c >= 0; c = 0 gives the zero measure."""
    if c < 0.0:
        raise ValueError(f"scale factor must be non-negative, got {c}")
    return Measure((p, c * m) for p, m in mu.atoms)


def kl_divergence(nu: Histogram | Measure) -> float:
    """Relative entropy of a probability measure against Lebesgue on [0, 1].

    Histogram input: sum of p_i * log(p_i * m) over bins (0 log 0 = 0);
    finiteness is structural because a histogram is absolutely
    continuous.  Measure input: atoms are singular with respect to
    Lebesgue, so any non-zero atomic measure returns +inf.

    Raises
    ------
    ValueError
        If the input is not normalized to total mass 1.
    """
    if isinstance(nu, Histogram):
        if abs(nu.total_mass - 1.0) > UNIT_MASS_TOL:
            raise ValueError(f"histogram must have total mass 1, got {nu.total_mass}")
        m = nu.bin_count
        return math.fsum(p * math.log(p * m) for p in nu.bin_masses if p > 0.0)
    if isinstance(nu, Measure):
        if abs(nu.total_mass - 1.0) > UNIT_MASS_TOL:
            raise ValueError(f"measure must have total mass 1, got {nu.total_mass}")
        return math.inf
    raise TypeError(f"expected Histogram or Measure, got {type(nu).__name__}")


def discretize_lebesgue(m: int) -> Measure:
    """Midpoint discretization of Lebesgue measure: mass 1/m at (2i-1)/(2m).

    The Prokhorov distance from this to any finer midpoint
    discretization (and to Lebesgue itself) is at most 1/(2m).
    """
    if m < 1:
        raise ValueError(f"bin count must be >= 1, got {m}")
    return Measure(((2 * i + 1) / (2 * m), 1.0 / m) for i in range(m))

