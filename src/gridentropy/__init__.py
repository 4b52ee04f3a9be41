"""Last-passage percolation laboratory.

Computes grid entropy of lattice-path empirical measures three ways
(order-statistic exponent, exponential cost sums, convex conjugate of
the Gibbs free energy), cross-validates them, and provides directed
polymer partition functions, last-passage times, and polymer path
sampling on hashed deterministic environments.
"""

from .measures import (
    Histogram,
    Measure,
    add,
    discretize_lebesgue,
    kl_divergence,
    scale,
    tv_distance,
)
from .prokhorov import max_deficiency, prokhorov_brute, prokhorov_distance, prokhorov_rows
from .estimators import (
    EntropyEstimate,
    LadderRow,
    OrderStatSeries,
    cost_sum,
    eps_sum,
    eps_sum_level,
    estimate_entropy_eps,
    estimate_entropy_level,
    estimate_entropy_orderstats,
    extrapolate_ladder,
    order_stat_series,
    vanish_threshold,
)
from .lattice import (
    DEFAULT_PATH_BUDGET,
    BudgetError,
    Direction,
    Environment,
    Path,
    TauFn,
    enumerate_level_paths,
    enumerate_paths,
    label_rows,
    level_path_count,
    path_count,
    shannon_entropy,
)
from .polymer import (
    DpTable,
    LadderPlan,
    gibbs_estimate,
    last_passage,
    sample_polymer_paths,
)
from .variational import (
    BernoulliReport,
    CandidateFamily,
    KlBudgetReport,
    SupResult,
    bernoulli_exponent_check,
    bernoulli_kl,
    conjugate_entropy,
    default_tau_family,
    integral,
    kl_budget_check,
    variational_sup,
)

__version__ = "0.1.0"
