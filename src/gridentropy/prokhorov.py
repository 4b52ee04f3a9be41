"""Exact Levy-Prokhorov distance between finite atomic measures.

The metric is

    rho(mu, nu) = inf{eps > 0 : mu(A) <= nu(A^eps) + eps and
                                nu(A) <= mu(A^eps) + eps for all A}

with A^eps the *open* eps-neighborhood.  For atomic measures the
feasibility predicate at radius eps is a transport question (Strassen
1965): the worst-case deficiency max_A [mu(A) - nu(A^eps)] equals
mu_total minus the max flow through the bipartite graph whose edges
join atoms closer than eps.  Both mass constraints share one flow value
because the admissible graph is symmetric.

On the line that graph is convex: with both supports sorted, atom x_i
sees a contiguous run of the y_j, and both ends of the run are
nondecreasing in i.  Max flow on a convex bipartite graph is a greedy
sweep (Glover 1967, "Maximum matching in a convex bipartite graph"):
take the y_j in order and serve each from the leftmost x that is still
in reach and still has mass, since that x is the first to fall out of
reach.  One probe is a single O(n + m) pass with no graph.

Open-neighborhood semantics matter: radius eps admits exactly the edges
at distance < eps, so on the half-open interval (d_k, d_{k+1}] between
consecutive pairwise distances the edge set is frozen at the *closed*
set {distance <= d_k} and the infimum over that interval is
max(d_k, deficiency).  Bisecting the sorted breakpoints (0.0 and every
|x - y|, repeats kept) for the crossing of the nonincreasing deficiency
therefore gives the exact infimum with no search tolerance.

One row kernel computes every distance: ``prokhorov_rows`` runs it on
a block of path empirical measures, ``prokhorov_distance`` on one row
with per-atom masses.  Its cases are equal measures, an empty side, a
one-atom side (one closed form for either side) and the general case,
where one numpy pass builds every row's breakpoints.  For a block, a
second pass bisects every row's crossing in lockstep on Hall's
deficiency max_A [mu(A) - nu(A^r)] read on the line, with no sweep,
and each row's exact search starts there.  The closed neighborhood of
one atom is an interval, so a set A may be split into runs of
consecutive atoms.  If two runs' neighborhoods meet, every atom
between them has its neighborhood inside their hull, so adding those
atoms adds mu mass and no nu mass; the worst A is therefore a union of
runs with disjoint neighborhoods, and its deficiency is the sum of the
runs' own.  A union whose neighborhoods overlap sums to no more than
its true deficiency, so the best sum of run deficiencies over all
unions of runs is Hall's value, and one pass over the atoms finds it.
Two probes confirm the crossing when the estimate is right, and an
estimate that float rounding (or anything else) puts off costs more
probes, never a different distance.

``prokhorov_brute`` re-derives the same value straight from the
definition by enumerating support subsets; it is the reference oracle
for the sweep.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .measures import Measure

__all__ = ["prokhorov_distance", "prokhorov_rows", "prokhorov_brute"]

_BRUTE_SUPPORT_MAX = 16


def _sweep_flow(
    xs: Sequence[float],
    x_masses: Sequence[float],
    ys: Sequence[float],
    y_masses: Sequence[float],
    radius: float,
) -> float:
    """Max flow from the x atoms to the y atoms over edges |x - y| <= radius.

    Both position lists are sorted.  Each y_j is served in order from
    the leftmost x that still has mass, after dropping the x's left of
    y_j - radius, which no later y can reach either.  Every x before the
    pointer is spent or expired and every x after it is untouched, so
    one pointer suffices.  The signed differences equal |x - y| exactly
    on their side of y, so admissibility agrees bit for bit with the
    breakpoints.  Each transfer empties an atom or a demand exactly,
    and the flow value is a plain sum of masses.
    """
    remaining = list(x_masses)
    count = len(remaining)
    i = 0
    flow = 0.0
    for y, need in zip(ys, y_masses):
        while i < count and y - xs[i] > radius:
            i += 1
        while i < count and xs[i] - y <= radius:
            have = remaining[i]
            if have <= need:
                flow += have
                need -= have
                i += 1
            else:
                flow += need
                remaining[i] = have - need
                break
    return flow


def prokhorov_distance(mu: Measure, nu: Measure) -> float:
    """Exact Levy-Prokhorov distance between two atomic measures.

    The row kernel on one row: mu's positions, with its per-atom masses.
    """
    return float(_kernel(np.array([mu.positions]), mu.masses, nu)[0])


def prokhorov_rows(rows: np.ndarray, mass: float, nu: Measure) -> np.ndarray:
    """prokhorov_distance(Measure((x, mass) for x in row), nu) for every row.

    ``rows`` is a (paths, atoms) float array, each row sorted.  A row
    with equal labels, which Measure merges into one atom, goes through
    ``prokhorov_distance``.  Every other row runs the kernel with the
    whole block, and in the general case each row's crossing search
    starts from the ``_hall_crossings`` estimate: the same exact sweeps
    decide, so the estimate saves probes (about two per row where the
    full-range bisection takes log2 of the breakpoint count) and never
    changes a bit.
    """
    merged = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    distances = np.empty(len(rows))
    distances[~merged] = _kernel(rows[~merged], [mass] * rows.shape[1], nu)
    for i in merged.nonzero()[0].tolist():
        distances[i] = prokhorov_distance(Measure((x, mass) for x in rows[i].tolist()), nu)
    return distances


def _kernel(rows: np.ndarray, masses: Sequence[float], nu: Measure) -> np.ndarray:
    """The distance from every row's measure to nu.

    Row i is the measure with mass masses[j] at rows[i, j]; each row is
    sorted and its labels are distinct.  In the general case one numpy
    pass builds every row's breakpoints: IEEE subtraction and abs give
    the bits of every |x - y|, kept with their repeats.  A block of
    more than one row starts each row's crossing search from the
    ``_hall_crossings`` estimate, which reads masses[0] as every atom's
    mass; a single row, where the estimate costs more numpy calls than
    the probes it saves, bisects the full range.
    """
    count, length = rows.shape
    ys, y_masses = nu.positions, nu.masses
    total = math.fsum(masses)
    if not ys:
        distances = np.full(count, total)
    elif length == 0:
        distances = np.full(count, nu.total_mass)
    elif len(ys) == 1:
        distances = _singleton_rows(rows, masses, total, ys[0], y_masses[0])
    elif length == 1:
        # A one-atom row: nu's atoms become the measure, the row's atom the target.
        distances = _singleton_rows(np.array([ys]), y_masses, nu.total_mass, rows, masses[0])
    else:
        breakpoints = np.zeros((count, length * len(ys) + 1))
        gaps = breakpoints[:, 1:]
        # Splitting the contiguous last axis gives a view, so the
        # pairwise distances land in place behind the leading 0.0.
        pairs = gaps.reshape(count, length, len(ys))
        np.subtract(rows[:, :, None], np.array(ys), out=pairs)
        np.abs(pairs, out=pairs)
        gaps.sort(axis=1)
        max_total = max(total, nu.total_mass)
        if count > 1:
            guesses = _hall_crossings(breakpoints, rows, masses[0], nu, max_total - total).tolist()
        else:
            guesses = [None] * count
        x_masses = list(masses)
        distances = np.array([
            _infimum(row_breakpoints, xs, x_masses, ys, y_masses, max_total, start)
            for row_breakpoints, xs, start in zip(breakpoints, rows.tolist(), guesses)
        ])
    if tuple(masses) == y_masses:
        distances[(rows == ys).all(axis=1)] = 0.0
    return distances


def _singleton_rows(
    rows: np.ndarray, masses: Sequence[float], total: float, x: float | np.ndarray, c: float
) -> np.ndarray:
    """The distance from every row's measure to the single atom c at x.

    Row i has mass masses[j] at rows[i, j], ``total`` in all; x is a
    number or a column holding one per row.  Against a point mass only
    two kinds of sets bind: subsets of the row's far atoms (giving
    mass>=distance constraints) and {x} itself (giving the mass-balance
    constraints).  Writing f(eps) for the row's mass at distance >= eps
    from x, eps is admissible iff eps >= f(eps) + max(c - total, 0) and
    eps >= max(total - c, 0); both sides are monotone, so the infimum is
    the crossing of a step function.

    Each row's distances |u - x| are sorted, ties by mass, the mass at
    distance >= the i-th of them is a reversed running sum added from
    the far end one mass at a time, and the first crossing comes from
    ``argmax``.  A crossing inside a run of equal distances gives that
    distance, as a crossing at the run's first would.  When all masses
    are equal the tie order changes no bit, so a plain sort and one
    running sum for the whole block stand in for ``lexsort`` and a
    running sum per row, which cost several times as much on a large
    block of path measures.
    """
    gaps = np.abs(rows - x)
    count, length = gaps.shape
    if len(set(masses)) == 1:
        gaps.sort(axis=1)
        tail = np.cumsum(np.full(length, masses[0]))[::-1]
    else:
        order = np.lexsort((np.broadcast_to(masses, gaps.shape), gaps), axis=1)
        gaps = np.take_along_axis(gaps, order, axis=1)
        tail = np.cumsum(np.array(masses)[order][:, ::-1], axis=1)[:, ::-1]
    lift = max(c - total, 0.0)
    floor = max(total - c, 0.0)
    # On (high[i - 1], high[i]] the requirement is eps >= need[i].
    high = np.concatenate([gaps, np.full((count, 1), math.inf)], axis=1)
    need = np.concatenate([tail, np.zeros(tail.shape[:-1] + (1,))], axis=-1) + lift
    need = np.broadcast_to(need, high.shape)
    first = (need <= high).argmax(axis=1)
    at = np.arange(count)
    low = np.where(first > 0, high[at, first - 1], 0.0)
    return np.maximum(np.maximum(low, need[at, first]), floor)


def _infimum(
    breakpoints: Sequence[float],
    xs: Sequence[float],
    x_masses: Sequence[float],
    ys: Sequence[float],
    y_masses: Sequence[float],
    max_total: float,
    guess: int | None = None,
) -> float:
    """The distance, found at the crossing of its sorted breakpoints.

    ``breakpoints`` are 0.0 and every |x - y| in nondecreasing order,
    repeats kept (a list or a numpy row); both supports are sorted and
    hold at least two atoms each.  Equal breakpoints probe alike, so
    the crossing found is the first of its run, and the result has the
    bits it would have over the distinct breakpoints alone.

    Without a ``guess`` the crossing is bisected over the full range.
    ``prokhorov_rows`` passes the crossing that ``_hall_crossings``
    estimates.  A guess in 0..len(breakpoints) - 1 is probed first,
    then its neighbour on the side the probe points to.  When those two
    probes bracket the crossing they are all the search takes;
    otherwise what is left of the range is bisected.  Every probe is an
    exact sweep, so the guess decides how many probes are taken, never
    which crossing is found.
    """
    deficiency_cache: dict[int, float] = {}

    def deficiency(k: int) -> float:
        # Deficiency on the interval (b_k, b_{k+1}]: closed edges at b_k.
        if k not in deficiency_cache:
            flow = _sweep_flow(xs, x_masses, ys, y_masses, float(breakpoints[k]))
            deficiency_cache[k] = max(0.0, max_total - flow)
        return deficiency_cache[k]

    # deficiency(k) is nonincreasing and breakpoints do not decrease, so
    # the predicate b_k >= deficiency(k) is monotone; the minimum of
    # max(b_k, deficiency(k)) sits at the crossing, the first k where
    # it holds (count if none).  The search keeps it in [crossing, hi]:
    # the predicate fails below crossing, and holds at hi unless
    # hi == count.
    count = len(breakpoints)
    crossing, hi = 0, count

    def probe(k: int) -> None:
        nonlocal crossing, hi
        if breakpoints[k] >= deficiency(k):
            hi = k
        else:
            crossing = k + 1

    if guess is not None:
        probe(guess)
        neighbour = guess - 1 if hi == guess else guess + 1
        if crossing <= neighbour < hi:
            probe(neighbour)
    while crossing < hi:
        probe((crossing + hi) // 2)

    if crossing == count:
        return deficiency(count - 1)
    if crossing == 0:
        return float(breakpoints[0])
    return min(float(breakpoints[crossing]), deficiency(crossing - 1))


def _hall_crossings(
    breakpoints: np.ndarray, rows: np.ndarray, mass: float, nu: Measure, excess: float
) -> np.ndarray:
    """Estimated crossing index of every row, bisected in lockstep.

    Each row is a measure with mass ``mass`` at each of its sorted
    labels.  At radius r its deficiency is ``excess`` (max_total -
    mu_total) plus Hall's value, the best sum of run deficiencies (see
    the module docstring).  The labels i..j cover nu's mass in
    [x_i - r, x_j + r], so the run costs a_j - b_i with
    a_j = (j + 1) mass - C(x_j + r) and b_i = i mass - C(x_i - r), C
    being nu's cumulative mass from two ``searchsorted`` calls.  One pass
    over j keeps the best union with a run still open (``open_``) and
    the best closed union (``closed``, 0 for the empty set).  Float
    rounding can put the estimate off; the caller's exact probes
    decide.  Returns indices in 0..count - 1, count being clipped to
    the last breakpoint.
    """
    paths, length = rows.shape
    count = breakpoints.shape[1]
    ys = np.array(nu.positions)
    below = np.concatenate([[0.0], np.cumsum(nu.masses)])
    taken = np.arange(length) * mass
    lo = np.zeros(paths, dtype=np.int64)
    hi = np.full(paths, count)
    while (lo < hi).any():
        mid = np.minimum((lo + hi) // 2, count - 1)
        radius = np.take_along_axis(breakpoints, mid[:, None], axis=1)
        a = taken + mass - below[np.searchsorted(ys, rows + radius, "right")]
        b = taken - below[np.searchsorted(ys, rows - radius, "left")]
        closed = np.zeros(paths)
        open_ = np.full(paths, -math.inf)
        for j in range(length):
            np.maximum(open_, closed - b[:, j], out=open_)
            np.maximum(closed, a[:, j] + open_, out=closed)
        holds = radius[:, 0] >= closed + excess
        active = lo < hi
        hi = np.where(active & holds, mid, hi)
        lo = np.where(active & ~holds, mid + 1, lo)
    return np.minimum(lo, count - 1)


def prokhorov_brute(mu: Measure, nu: Measure) -> float:
    """Reference oracle: the infimum straight from the definition.

    Feasibility for a fixed set A is monotone in eps, so
    rho = max over A of inf{eps : constraint for A holds}, and the
    per-set infimum is scanned over the distances from the other
    measure's atoms to A.  Exponential in the support size.
    """
    support = len(mu.atoms) + len(nu.atoms)
    if support > _BRUTE_SUPPORT_MAX:
        raise ValueError(f"combined support {support} exceeds {_BRUTE_SUPPORT_MAX}")

    def one_sided(from_atoms, to_atoms) -> float:
        worst = 0.0
        count = len(from_atoms)
        for mask in range(1, 1 << count):
            chosen = [from_atoms[i] for i in range(count) if mask >> i & 1]
            set_mass = sum(m for _, m in chosen)
            # nu(A^eps) jumps at the distances from the other support to A.
            dists = sorted(
                (min(abs(y - x) for x, _ in chosen), m) for y, m in to_atoms
            )
            best = None
            # Interval (0, d_1]: only distance-0 mass is inside A^eps.
            thresholds = [0.0] + [d for d, _ in dists]
            masses_at = {0.0: 0.0}
            for d, m in dists:
                masses_at[d] = masses_at.get(d, 0.0) + m
            running = 0.0
            seen = set()
            for r in thresholds:
                if r in seen:
                    continue
                seen.add(r)
                running += masses_at.get(r, 0.0)
                candidate = max(r, set_mass - running)
                if best is None or candidate < best:
                    best = candidate
            worst = max(worst, best)
        return worst

    if not mu.atoms and not nu.atoms:
        return 0.0
    if not mu.atoms:
        return nu.total_mass
    if not nu.atoms:
        return mu.total_mass
    return max(one_sided(mu.atoms, nu.atoms), one_sided(nu.atoms, mu.atoms))
