"""Workload definitions: the CLI steps each workload runs, built from its seed.

A workload is a list of steps.  Each step is one ``gridentropy`` command
line plus the artifact files it writes; the child process calls
``gridentropy.cli.main`` on the argv and hashes the captured stdout and
the artifacts.

The workload seed is folded onto ``VARIANTS`` input variants
(``seed % VARIANTS``).  Each variant uses its own, disjoint range of
environment seeds and sampler streams, and ``reference.json`` holds the
output digests of every variant, so every run's outputs are checked
against digests recorded from the code the baseline was measured on.

No step passes ``--threads``, and the child clears
``GRID_ENTROPY_THREADS``, so the workloads run the single-worker path.
"""

from __future__ import annotations

from dataclasses import dataclass

VARIANTS = 16


@dataclass(frozen=True)
class Step:
    """One CLI invocation: a label, its argv, and the files it writes."""

    name: str
    argv: tuple[str, ...]
    artifacts: tuple[str, ...] = ()


def _ensemble(v: int) -> list[Step]:
    # Three environments per variant.  Step 1 builds every point profile,
    # step 2 reads them all from the cache, step 3 builds level profiles
    # and re-reads the balanced point profiles, step 4 builds profiles
    # for a second target.
    seeds = f"{1 + 3 * v}..{3 + 3 * v}"
    point = ("--q", "1/2,1/2", "--nu", "lebesgue:64", "--n", "4,6,8", "--seeds", seeds)
    return [
        Step("entropy-eps",
             ("entropy-eps", *point, "--eps", "8,4,2",
              "--csv", "eps.csv", "--json", "eps.json", "--svg", "eps.svg"),
             ("eps.csv", "eps.json", "eps.svg")),
        Step("orderstats",
             ("orderstats", *point, "--alpha-grid", "0:1:0.05",
              "--csv", "os.csv", "--json", "os.json", "--svg", "os.svg"),
             ("os.csv", "os.json", "os.svg")),
        Step("entropy-level",
             ("entropy-level", "--D", "2", "--t", "1", "--nu", "lebesgue:64",
              "--n", "4,6", "--eps", "8,4,2", "--seeds", seeds,
              "--csv", "level.csv", "--json", "level.json", "--svg", "level.svg"),
             ("level.csv", "level.json", "level.svg")),
        Step("klbudget",
             ("klbudget", "--q", "1/2,1/2", "--nu", "hist:0.5,0.5,0,0", "--method", "eps",
              "--n", "6,8,10", "--eps", "8,4,2", "--seeds", seeds, "--json", "kl.json"),
             ("kl.json",)),
    ]


def _free_energy(v: int) -> list[Step]:
    # One environment per variant; the family and ascent seeds move with
    # the variant too.  No step computes a Prokhorov distance.
    seeds = str(1 + v)
    return [
        Step("conjugate",
             ("conjugate", "--q", "1/2,1/2", "--nu", "lebesgue:64", "--beta", "1",
              "--n", "32..128", "--seeds", seeds, "--k", "3", "--random-count", "2",
              "--family-seed", str(2026 + v), "--restarts", "1", "--passes", "1",
              "--ascent-seed", str(9 + v), "--csv", "conj.csv", "--json", "conj.json"),
             ("conj.csv", "conj.json")),
        Step("gibbs-level",
             ("gibbs", "--D", "2", "--q", "level", "--beta", "1", "--tau", "identity:16",
              "--n", "64..512", "--seeds", seeds,
              "--csv", "gibbs.csv", "--json", "gibbs.json", "--svg", "gibbs.svg"),
             ("gibbs.csv", "gibbs.json", "gibbs.svg")),
        Step("bernoulli",
             ("bernoulli", "--p", "1/2", "--s", "3/4", "--n", "40,80,160", "--seeds", seeds,
              "--csv", "bern.csv", "--json", "bern.json"),
             ("bern.csv", "bern.json")),
    ]


def _sampler(v: int) -> list[Step]:
    # One environment and one sampler stream block per variant.
    seed = str(1 + v)
    rng = str(1_000_000 * v)
    return [
        Step("sample-point",
             ("sample", "--D", "2", "--seed", seed, "--beta", "2", "--tau", "identity:16",
              "--endpoint", "3,3", "--draws", "15000", "--rng-seed", rng, "--json", "s2.json"),
             ("s2.json",)),
        Step("sample-level-3d",
             ("sample", "--D", "3", "--seed", seed, "--beta", "1", "--tau", "identity:16",
              "--length", "12", "--draws", "2000", "--rng-seed", rng, "--json", "s3.json"),
             ("s3.json",)),
        Step("lpp",
             ("lpp", "--D", "2", "--seed", seed, "--endpoint", "120,120",
              "--tau", "identity:16", "--json", "lpp.json"),
             ("lpp.json",)),
        Step("gibbs-3d",
             ("gibbs", "--D", "3", "--q", "1/3,1/3,1/3", "--beta", "1", "--tau", "zero",
              "--n", "12..48", "--seeds", seed, "--json", "g3.json"),
             ("g3.json",)),
    ]


WORKLOADS = {
    "ensemble": _ensemble,
    "free-energy": _free_energy,
    "sampler": _sampler,
}


def variant(seed: int) -> int:
    """The input variant a workload seed selects."""
    return seed % VARIANTS


def steps(workload: str, seed: int) -> list[Step]:
    """The steps of one workload pass; a function of (workload, seed) alone."""
    return WORKLOADS[workload](variant(seed))
