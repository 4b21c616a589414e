"""Average base-station load of a mobility-aware D2D caching system.

Library layout:

- ``model``: system parameters, Zipf popularity, Poisson mobility counts
- ``channel``: success probabilities, rates, per-stay packet budgets, and
  the disc quadrature behind them, which also gives the non-orthogonal
  delivery mean as a sum over the nodes taken in blocks of cache rows
- ``load``: exact and fast evaluators of the average BS load
- ``optimize``: greedy/exhaustive placement, matroid and submodularity
  property harnesses, and the high-mobility analysis, whose closed-form
  placement, relaxed objective and Jensen-gap check all read the
  per-content deliverables of ``per_content_delivery``
- ``montecarlo``: end-to-end statistical cross-validation
- ``cli``: experiment driver (eval / optimize / sweep / validate)

Every entry point reads the access scheme from its ``SystemConfig``
(``cfg.with_scheme`` switches it), and ``model.MAX_TABLE_ENTRIES`` and
``model.MAX_TRUNCATION`` cap what a config may ask for.  The per-config
vectors are plain read-only arrays: ``zipf_popularity`` gives the request
probabilities, and ``link_budget_for`` and ``build_link_budget`` the packet
budget of each transmitter count u, with index 0 a sentinel.
"""

from .channel import (
    build_link_budget,
    interference_factor,
    packet_budget,
    rate,
    success_probability,
    success_probability_mc,
)
from .load import (
    LoadEvaluation,
    average_load_enum,
    average_load_fast,
    link_budget_for,
    request_load,
)
from .model import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    Scheme,
    SystemConfig,
    db_to_linear,
    default_config,
    expected_stay_time,
    poisson_pmf,
    poisson_truncation,
    zipf_popularity,
)
from .montecarlo import estimate_average_load, sample_state
from .optimize import (
    JensenGapReport,
    MatroidReport,
    SubmodularityReport,
    check_matroid_axioms,
    check_submodularity,
    exhaustive_placement,
    gap_constant,
    greedy_placement,
    high_mobility_continuous,
    high_mobility_placement,
    jensen_gap_check,
    noma_delivery_mean,
    per_content_delivery,
    relaxed_objective,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "JensenGapReport",
    "LoadEvaluation",
    "MatroidReport",
    "NeighborCacheDistribution",
    "Placement",
    "Scheme",
    "SubmodularityReport",
    "SystemConfig",
    "average_load_enum",
    "average_load_fast",
    "build_link_budget",
    "check_matroid_axioms",
    "check_submodularity",
    "db_to_linear",
    "default_config",
    "estimate_average_load",
    "exhaustive_placement",
    "expected_stay_time",
    "gap_constant",
    "greedy_placement",
    "high_mobility_continuous",
    "high_mobility_placement",
    "interference_factor",
    "jensen_gap_check",
    "link_budget_for",
    "noma_delivery_mean",
    "packet_budget",
    "per_content_delivery",
    "poisson_pmf",
    "poisson_truncation",
    "rate",
    "relaxed_objective",
    "request_load",
    "sample_state",
    "success_probability",
    "success_probability_mc",
    "zipf_popularity",
]
