"""Daycare matching with sibling applicants.

Library layout:

* :mod:`sibmatch.model` — market tuple, matchings, JSON formats.
* :mod:`sibmatch.stability` — choice function and both blocking notions.
* :mod:`sibmatch.algorithms` — DA, SC, SDA, ESDA with execution traces.
* :mod:`sibmatch.solver` — exhaustive existence check for small markets.
* :mod:`sibmatch.market` — random market generator (Mallows priorities).
* :mod:`sibmatch.diagnostics` — ordering/trace structure analysis.
* :mod:`sibmatch.experiment` — sweep harness and report rendering.
"""

from sibmatch.algorithms import (
    AlgorithmOutcome,
    FailureKind,
    classify_failure,
    run_da,
    run_esda,
    run_sc,
    run_sda,
)
from sibmatch.market import MarketConfig, gen_instance, kendall_tau, mallows_sample
from sibmatch.model import (
    DUMMY_ID,
    Daycare,
    Family,
    Instance,
    Matching,
    dump_instance,
    dump_matching,
    is_feasible,
    is_individually_rational,
    load_instance,
    load_matching,
)
from sibmatch.solver import FindStableResult, SearchBudget, find_stable
from sibmatch.stability import (
    BlockingCoalition,
    choice,
    find_blocking_coalition,
    is_stable,
)

__version__ = "0.1.0"

__all__ = [
    "DUMMY_ID",
    "AlgorithmOutcome",
    "BlockingCoalition",
    "Daycare",
    "FailureKind",
    "Family",
    "FindStableResult",
    "Instance",
    "MarketConfig",
    "Matching",
    "SearchBudget",
    "choice",
    "classify_failure",
    "dump_instance",
    "dump_matching",
    "find_blocking_coalition",
    "find_stable",
    "gen_instance",
    "is_feasible",
    "is_individually_rational",
    "is_stable",
    "kendall_tau",
    "load_instance",
    "load_matching",
    "mallows_sample",
    "run_da",
    "run_esda",
    "run_sc",
    "run_sda",
]
