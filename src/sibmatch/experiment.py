"""Batch harness: sweep market configurations, run algorithms, tabulate.

For every (n, phi) cell the harness generates ``trials`` instances with
per-instance seeds derived by hashing (base seed, n, phi, trial), runs
each requested algorithm, and aggregates success counts, failure-kind
histograms, and wall-clock times of the successful runs (the timer wraps
the algorithm call only; generation and verification are outside it).

Every heuristic success is verified against the matching stability
predicate before it is counted: ESDA successes must be stable, SDA
successes ABH-stable.  The exact solver rows are produced by the
backtracking oracle and are skipped above ``exact_cap`` children.  An
exception raised by one run counts as a ``harness-error`` failure, and
its ``repr`` is kept in the cell's ``errors``.

Reports render to CSV or a markdown table with a fixed column order, so
two runs with the same spec are byte-identical apart from the timing
columns.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

from sibmatch.algorithms import run_da, run_esda, run_sc, run_sda
from sibmatch.market import MarketConfig, check_fields, gen_instance
from sibmatch.model import Instance
from sibmatch.solver import SearchBudget, find_stable
from sibmatch.stability import is_stable

ALGORITHMS = ("da", "sc", "sda", "esda", "exact-ours", "exact-abh")

__all__ = ["ALGORITHMS", "CellStats", "ExperimentReport", "SweepSpec", "instance_seed", "render_report", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid: sizes x phis x algorithms, ``trials`` each.

    ``base`` holds MarketConfig overrides applied to every cell (alpha,
    sigma, preference lengths, ...); n, phi, and seed come from the grid.
    Every field is checked on construction, ``base`` by building the
    MarketConfig of each size and the exact solver's limits by building
    their SearchBudget; a bad field raises ValueError naming it.  So does
    a repeated size or algorithm, or two phis that agree to the nine
    decimals ``instance_seed`` hashes: each cell of the grid is run once.
    Lists are stored as tuples and phis as floats.
    """

    sizes: tuple[int, ...]
    phis: tuple[float, ...]
    trials: int = 100
    algorithms: tuple[str, ...] = ("esda",)
    base: dict = field(default_factory=dict)
    seed: int = 0
    exact_cap: int = 60
    exact_max_nodes: int = 500_000
    exact_max_millis: int = 10_000

    def __post_init__(self):
        check_fields(self)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for n in self.sizes:
            if n < 1:
                raise ValueError(f"size {n!r} is not a positive integer")
        for phi in self.phis:
            if not 0.0 <= phi <= 1.0:
                raise ValueError(f"phi {phi!r} outside [0, 1]")
        object.__setattr__(self, "phis", tuple(map(float, self.phis)))
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        for name, key in (("sizes", int), ("phis", "{:.9f}".format), ("algorithms", str)):
            keys = [key(v) for v in getattr(self, name)]
            for k, v in enumerate(keys):
                if v in keys[:k]:
                    raise ValueError(f"{name}: {getattr(self, name)[k]!r} repeats an earlier entry")
        for key in self.base:
            if key in ("n", "phi", "seed"):
                raise ValueError(f"base may not override {key!r}")
            if key not in MarketConfig.__dataclass_fields__:
                raise ValueError(f"base: unknown MarketConfig field {key!r}")
        # with no sizes, n=1 still checks the type and range of every field
        for n in self.sizes or (1,):
            try:
                _market_config(self.base, n, 0.0, 0)
            except ValueError as exc:
                raise ValueError(f"base: {exc} (n={n})") from None
        try:
            SearchBudget(self.exact_max_nodes, self.exact_max_millis)
        except ValueError as exc:  # "max_nodes must be positive", ...
            raise ValueError(f"exact_{exc}") from None

    @classmethod
    def from_dict(cls, data) -> "SweepSpec":
        """The spec of a JSON object; raises ValueError naming the key of
        any field that is unknown or of the wrong type or range."""
        if not isinstance(data, dict):
            raise ValueError("spec must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        return cls(**{"sizes": (), "phis": (), **data})

    def to_dict(self) -> dict:
        return {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(self).items()}


@dataclass
class CellStats:
    """Aggregated outcomes of one (n, phi, algorithm) cell.

    ``times`` holds the elapsed time of each successful run and
    ``failures`` counts the failed runs by kind, so ``successes`` and
    ``trials`` are derived from them.  ``errors`` keeps the ``repr`` of
    each harness error; ``skipped`` marks an ``exact-*`` cell above
    ``exact_cap``.
    """

    times: list[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    skipped: bool = False
    errors: list[str] = field(default_factory=list)

    @property
    def successes(self) -> int:
        return len(self.times)

    @property
    def trials(self) -> int:
        return self.successes + sum(self.failures.values())


@dataclass
class ExperimentReport:
    spec: SweepSpec
    cells: dict[tuple[int, float, str], CellStats]


def instance_seed(seed: int, n: int, phi: float, trial: int) -> int:
    """Stable cross-platform per-instance seed."""
    key = f"{seed}|{n}|{phi:.9f}|{trial}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _market_config(spec_base: dict, n: int, phi: float, seed: int) -> MarketConfig:
    return MarketConfig(n=n, phi=phi, seed=seed, **spec_base)


def _run_algorithm(algo: str, instance: Instance, spec: SweepSpec, n: int):
    """One timed run.  Returns (success, elapsed_seconds, failure_kind);
    success is None for an ``exact-*`` run skipped above ``exact_cap``."""
    exact = algo.startswith("exact-")
    if exact and n > spec.exact_cap:
        return None, 0.0, None
    start = time.perf_counter()
    if exact:
        budget = SearchBudget(spec.exact_max_nodes, spec.exact_max_millis)
        outcome = find_stable(instance, algo.removeprefix("exact-"), budget)
    elif algo == "da":
        outcome = run_da(instance)
    else:
        outcome = {"sc": run_sc, "sda": run_sda, "esda": run_esda}[algo](instance)
    elapsed = time.perf_counter() - start
    if exact:
        return outcome.found, elapsed, None if outcome.found else outcome.status
    if algo == "da":
        return True, elapsed, None
    if outcome.succeeded:
        mode = "abh" if algo == "sda" else "ours"
        if algo in ("sda", "esda") and not is_stable(instance, outcome.matching, mode):
            return False, elapsed, "stability-violation"
        return True, elapsed, None
    return False, elapsed, outcome.failure.kind


def _run_trial(args) -> list[tuple[str, object, float, object, object]]:
    """Worker: run all requested algorithms on one generated instance.

    ``args`` is ``(spec, n, phi, trial)`` with the checked spec itself,
    which pickles for a process pool.  Each row is ``(algo, success,
    elapsed, failure, error)``, one per algorithm in spec order (the
    caller knows the task it ran); ``error`` is the ``repr`` of the
    exception behind a harness error, else None.
    """
    spec, n, phi, trial = args
    rows = []
    try:
        cfg = _market_config(spec.base, n, phi, instance_seed(spec.seed, n, phi, trial))
        instance = gen_instance(cfg)
    except Exception as exc:  # config errors propagate, per-instance faults isolate
        raise RuntimeError(f"generation failed for n={n} phi={phi} trial={trial}: {exc}")
    for algo in spec.algorithms:
        error = None
        try:
            success, elapsed, failure = _run_algorithm(algo, instance, spec, n)
        except Exception as exc:
            success, elapsed, failure, error = False, 0.0, "harness-error", repr(exc)
        rows.append((algo, success, elapsed, failure, error))
    return rows


def run_sweep(spec: SweepSpec, jobs: int = 1) -> ExperimentReport:
    """Run the whole grid; deterministic given the spec (timings aside).

    ``jobs`` worker processes run the trials; it must be an integer >= 1
    (1 runs them in this process), else ValueError.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    tasks = [
        (spec, n, phi, trial)
        for n in spec.sizes
        for phi in spec.phis
        for trial in range(spec.trials)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_trial = list(pool.map(_run_trial, tasks, chunksize=4))
    else:
        per_trial = [_run_trial(t) for t in tasks]

    cells = {
        (n, phi, algo): CellStats()
        for n in spec.sizes
        for phi in spec.phis
        for algo in spec.algorithms
    }
    for (_, n, phi, _), rows in zip(tasks, per_trial):
        for algo, success, elapsed, failure, error in rows:
            cell = cells[(n, phi, algo)]
            if success is None:
                cell.skipped = True
            elif success:
                cell.times.append(elapsed)
            else:
                cell.failures[failure] += 1
                if error is not None:
                    cell.errors.append(error)
    return ExperimentReport(spec=spec, cells=cells)


CSV_COLUMNS = ("n", "phi", "algorithm", "success", "time_mean_s", "time_std_s", "failures")


def _cell_row(key, cell: CellStats) -> list[str]:
    n, phi, algo = key
    if cell.skipped:
        return [str(n), f"{phi:g}", algo, "skipped", "", "", ""]
    mean = f"{statistics.fmean(cell.times):.4f}" if cell.times else "nan"
    std = (
        f"{statistics.stdev(cell.times):.4f}"
        if len(cell.times) > 1
        else ("0.0000" if cell.times else "nan")
    )
    failures = "|".join(f"{k}:{v}" for k, v in sorted(cell.failures.items()))
    return [
        str(n),
        f"{phi:g}",
        algo,
        f"{cell.successes}/{cell.trials}",
        mean,
        std,
        failures,
    ]


def render_report(report: ExperimentReport, fmt: str = "csv") -> str:
    """Render with the fixed column order: one row per entry of
    ``report.cells``, in its order (``run_sweep`` builds it in grid
    order).  A markdown cell escapes ``|`` as ``\\|``; CSV cells are
    written as they are."""
    rows = [_cell_row(key, cell) for key, cell in report.cells.items()]
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(CSV_COLUMNS) + " |"]
        lines.append("|" + "|".join(" --- " for _ in CSV_COLUMNS) + "|")
        lines += ["| " + " | ".join(cell.replace("|", "\\|") or "-" for cell in r) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def spec_from_json(text: str | bytes) -> SweepSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid spec JSON: {exc}") from exc
    return SweepSpec.from_dict(data)
