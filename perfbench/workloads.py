"""The three seeded workloads and their output checks.

Each workload turns ``--seed`` into a list of inputs (one *pass*) and
runs it as a closed loop: one caller, one instance at a time, no pool.
Only the program's own pipeline is timed; digests and oracle
cross-checks run outside the timed region.

Each workload has a fixed set of markets, and the seed sets the order in
which they run:

* ``sweep-n500``: the criterion-2 grid shape at sweep base seed 0, with
  the phi cells in a seeded order.
* ``n3000``: market seeds 0 and 1, each at phi 0.5 and 1.0, in a seeded
  order.
* ``oracle-small``: the criterion-3 set of 300 markets, in a seeded order.

The sets are fixed because a run holds few markets, and their costs are
far apart: with a different sweep base seed per run, one sweep pass took
from 6.7 s to 9.7 s on the same machine, which is wider than any bound
the benchmark could keep.  A fixed set also keeps the golden records
(``golden.json``) small and valid for every seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import sibmatch.algorithms as algorithms
import sibmatch.experiment as experiment
import sibmatch.market as market
import sibmatch.solver as solver
import sibmatch.stability as stability
from sibmatch.model import dump_matching

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Sizes are read at call time, so the self-tests can shrink them.
SWEEP_N = 500
SWEEP_SEED = 0
SWEEP_PHIS = (0.0, 0.3, 0.5, 0.7, 0.9, 1.0)
SWEEP_TRIALS = 12
SWEEP_ERROR_KINDS = ("harness-error", "stability-violation")

N3000_N = 3000
N3000_MARKETS = ((0.5, 0), (1.0, 0), (0.5, 1), (1.0, 1))  # (phi, market seed)

ORACLE_MARKETS = 300


@dataclass
class PassResult:
    """One pass: instances carried through the pipeline and its timing."""

    instances: int = 0
    seconds: float = 0.0
    instance_seconds: list[float] = field(default_factory=list)
    failed: int = 0
    messages: list[str] = field(default_factory=list)  # why instances failed

    def fail(self, messages: list[str]) -> None:
        """Count one failed instance if there is any message about it."""
        if messages:
            self.failed += 1
            self.messages.extend(messages)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _timed(tracer):
    return tracer.span("bench.timed") if tracer is not None else nullcontext()


def _untraced(tracer):
    return tracer.paused() if tracer is not None else nullcontext()


def seeded_order(items, seed: int) -> list:
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


def check_golden(golden: dict, key: str, record, label: str) -> list[str]:
    expected = golden.get(key)
    if expected is None:
        return [f"{label}: no golden record for {key!r}"]
    if expected != record:
        return [f"{label}: golden mismatch, expected {expected!r}, got {record!r}"]
    return []


def run_instance(result: PassResult, label: str, tracer, pipeline, check) -> None:
    """Time ``pipeline()`` and count it; ``check(outputs)`` runs untimed.

    The outputs go out of scope on return, so one market's instance and
    trace are never alive while the next one runs, and a full collection
    first gives every market the same collector state whatever ran before.
    """
    result.instances += 1
    gc.collect()
    start = time.perf_counter()
    try:
        with _timed(tracer):
            outputs = pipeline()
    except Exception as exc:  # one market's fault must not hide the others
        result.fail([f"{label}: raised {exc!r}"])
        return
    finally:
        elapsed = time.perf_counter() - start
        result.seconds += elapsed
        result.instance_seconds.append(elapsed)
    result.fail(check(outputs))


# -- sweep-n500 --------------------------------------------------------------


def sweep_spec(phis=SWEEP_PHIS) -> experiment.SweepSpec:
    return experiment.SweepSpec(
        sizes=(SWEEP_N,), phis=tuple(phis), trials=SWEEP_TRIALS, algorithms=("esda", "sc"), seed=SWEEP_SEED
    )


def blank_timing(report_text: str) -> str:
    """The rendered CSV report with the time_mean_s/time_std_s columns
    emptied and the rows in grid order, whatever order the cells ran in."""
    header, *rows = report_text.splitlines()
    blanked = []
    for line in rows:
        cells = line.split(",")
        cells[4:6] = ["", ""]
        blanked.append(cells)
    blanked.sort(key=lambda cells: (int(cells[0]), float(cells[1]), cells[2]))
    return "\n".join([header] + [",".join(cells) for cells in blanked]) + "\n"


@contextmanager
def trial_clock(samples: list[float]):
    """Time each ``run_sweep`` trial (one generated instance and its runs)."""
    original = experiment._run_trial

    def clocked(args):
        start = time.perf_counter()
        try:
            return original(args)
        finally:
            samples.append(time.perf_counter() - start)

    experiment._run_trial = clocked
    try:
        yield
    finally:
        experiment._run_trial = original


def locate_sweep_errors(spec: experiment.SweepSpec, report) -> list[tuple[tuple, str]]:
    """Name the (n, phi, trial) of every harness error or stability violation.

    ``run_sweep`` only keeps per-cell counts, so flagged cells are re-run
    trial by trial, outside any timing, to find the offending trials and
    the exception text of harness errors.
    """
    found = []
    for (n, phi, algo), cell in report.cells.items():
        if not any(cell.failures.get(kind) for kind in SWEEP_ERROR_KINDS):
            continue
        for trial in range(spec.trials):
            seed = experiment.instance_seed(spec.seed, n, phi, trial)
            where = f"sweep base seed {spec.seed} cell (n={n}, phi={phi:g}, trial={trial}) {algo}"
            try:
                instance = market.gen_instance(experiment._market_config(spec.base, n, phi, seed))
                _, _, failure = experiment._run_algorithm(algo, instance, spec, n)
            except Exception as exc:  # the sweep swallowed this; report its text
                found.append(((n, phi, trial), f"{where}: harness-error: {exc!r}"))
                continue
            if failure in SWEEP_ERROR_KINDS:
                found.append(((n, phi, trial), f"{where}: {failure}"))
    return found


def sweep_report() -> str:
    """Golden record of the sweep: its report with the timing columns blanked."""
    return blank_timing(experiment.render_report(experiment.run_sweep(sweep_spec(), jobs=1)))


def sweep_pass(phis, golden: dict, tracer=None) -> PassResult:
    spec = sweep_spec(phis)
    result = PassResult(instances=len(spec.phis) * spec.trials)
    gc.collect()
    start = time.perf_counter()
    try:
        with trial_clock(result.instance_seconds), _timed(tracer):
            report = experiment.run_sweep(spec, jobs=1)
            text = experiment.render_report(report)
    except Exception as exc:  # run_sweep lets generation errors through
        result.failed = result.instances
        result.messages.append(f"sweep: raised {exc!r}")
        return result
    finally:
        result.seconds = time.perf_counter() - start
    with _untraced(tracer):
        errors = locate_sweep_errors(spec, report)
    flagged = any(cell.failures.get(kind) for cell in report.cells.values() for kind in SWEEP_ERROR_KINDS)
    if flagged and not errors:
        errors = [(None, "sweep: error rows that did not reproduce on re-run")]
    mismatch = check_golden(golden, "sweep-n500", blank_timing(text), "sweep")
    result.messages = [message for _, message in errors] + mismatch
    # a report mismatch cannot say which instance differs, so all of them fail
    result.failed = result.instances if mismatch else len({key for key, _ in errors})
    return result


# -- n3000 -------------------------------------------------------------------


def n3000_record(outcome) -> dict:
    return {
        "esda": outcome.status,
        "attempts": len(outcome.pi_history),
        "matching": sha256(dump_matching(outcome.matching)) if outcome.succeeded else None,
    }


def n3000_pipeline(phi: float, mseed: int):
    """gen_instance -> run_esda -> is_stable on success."""
    instance = market.gen_instance(market.MarketConfig(n=N3000_N, phi=phi, seed=mseed))
    outcome = algorithms.run_esda(instance)
    stable = stability.is_stable(instance, outcome.matching) if outcome.succeeded else None
    return instance, outcome, stable


def n3000_pass(markets, golden: dict, tracer=None) -> PassResult:
    result = PassResult()
    table = golden.get("n3000", {})

    def check(label, phi, mseed, outputs):
        _, outcome, stable = outputs
        if stable is False:
            return [f"{label}: ESDA success is not stable"]
        return check_golden(table, f"{phi:g}/{mseed}", n3000_record(outcome), label)

    for phi, mseed in markets:
        label = f"n3000 phi={phi:g} market seed {mseed}"
        run_instance(result, label, tracer, lambda: n3000_pipeline(phi, mseed),
                     lambda outputs: check(label, phi, mseed, outputs))
    return result


# -- oracle-small ------------------------------------------------------------


def oracle_config(k: int) -> market.MarketConfig:
    """Market k of the criterion-3 set."""
    return market.MarketConfig(
        n=6 + (k % 9),
        phi=(0.3, 1.0)[k % 2],
        alpha=(0.4, 0.6)[(k // 2) % 2],
        L=2,
        sigma=2.0,
        daycare_ratio=0.5,
        sibling_pref_length=3,
        joint_pref_length=4,
        seed=10_000 + k,
    )


def oracle_pipeline(k: int):
    """gen_instance -> ESDA -> SDA -> is_stable on successes -> find_stable."""
    instance = market.gen_instance(oracle_config(k))
    esda = algorithms.run_esda(instance)
    sda = algorithms.run_sda(instance)
    esda_stable = stability.is_stable(instance, esda.matching, "ours") if esda.succeeded else None
    sda_stable = stability.is_stable(instance, sda.matching, "abh") if sda.succeeded else None
    exact = solver.find_stable(instance, "ours")
    return instance, esda, sda, esda_stable, sda_stable, exact


def oracle_record(instance, esda, sda, esda_stable, sda_stable, exact) -> dict:
    def digest(outcome):
        return sha256(dump_matching(outcome.matching)) if outcome.succeeded else None

    return {
        "esda": esda.status,
        "esda_matching": digest(esda),
        "sda": sda.status,
        "sda_matching": digest(sda),
        "exact": exact.status,
    }


def oracle_checks(instance, esda, sda, esda_stable, sda_stable, exact) -> list[str]:
    """Cross-checks between the heuristics, the predicates and the solver."""
    problems = []
    if esda_stable is False:
        problems.append("ESDA success is not stable")
    if sda_stable is False:
        problems.append("SDA success is not ABH-stable")
    if exact.status == "budget-exceeded":
        problems.append("solver budget exceeded")
    if esda.succeeded and exact.status == "none-exists":
        problems.append("ESDA found a stable matching the solver says does not exist")
    if exact.found and not stability.is_stable(instance, exact.matching, "ours"):
        problems.append("solver matching is not stable")
    return problems


def oracle_pass(order, golden: dict, tracer=None) -> PassResult:
    result = PassResult()
    table = golden.get("oracle-small", {})

    def check(label, k, outputs):
        with _untraced(tracer):
            problems = [f"{label}: {p}" for p in oracle_checks(*outputs)]
        return problems or check_golden(table, str(k), oracle_record(*outputs), label)

    for k in order:
        label = f"oracle-small market {k}"
        run_instance(result, label, tracer, lambda: oracle_pipeline(k), lambda outputs: check(label, k, outputs))
    return result


# -- registry ----------------------------------------------------------------


def make_pass(workload: str, seed: int, golden: dict):
    """The workload's pass for this seed, as a callable taking ``tracer``."""
    if workload == "sweep-n500":
        phis = seeded_order(SWEEP_PHIS, seed)
        return lambda tracer=None: sweep_pass(phis, golden, tracer)
    if workload == "n3000":
        markets = seeded_order(N3000_MARKETS, seed)
        return lambda tracer=None: n3000_pass(markets, golden, tracer)
    if workload == "oracle-small":
        order = seeded_order(range(ORACLE_MARKETS), seed)
        return lambda tracer=None: oracle_pass(order, golden, tracer)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep-n500", "n3000", "oracle-small")
