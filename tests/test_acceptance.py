"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Thresholds are fixed here, not tuned at runtime.
"""

import json
import time

import numpy as np
from scipy.stats import chi2

import helpers
from sibmatch.algorithms import (
    TYPE_1A,
    TYPE_1B,
    TYPE_2_PERMUTATION_REPEAT,
    run_esda,
    run_sda,
)
from sibmatch.cli import main
from sibmatch.diagnostics import rank_lemma_violations, roster_monotonicity_violations
from sibmatch.experiment import SweepSpec, run_sweep
from sibmatch.market import MarketConfig, gen_instance, mallows_sample
from sibmatch.model import DUMMY_ID, Matching
from sibmatch.solver import find_stable
from sibmatch.stability import is_stable


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# -- criterion 1: golden worked examples -------------------------------------


def test_criterion_1_golden_examples():
    start = time.perf_counter()

    seat_transfer_mkt = helpers.seat_transfer_market()
    shifted = Matching(seat_transfer_mkt, {"c1": "d2", "c2": "d0"})
    assert is_stable(seat_transfer_mkt, shifted, "abh") and not is_stable(seat_transfer_mkt, shifted, "ours")
    top = Matching(seat_transfer_mkt, {"c1": "d1", "c2": "d2"})
    assert is_stable(seat_transfer_mkt, top, "ours")

    rotation_mkt = helpers.rotation_market()
    assert find_stable(rotation_mkt, "ours").status == "none-exists"

    weak_only_mkt = helpers.weak_only_market()
    sda = run_sda(weak_only_mkt)
    assert sda.succeeded
    assert sda.matching.family_tuple(weak_only_mkt.families_by_id["f1"]) == ("d2", "d3")
    assert sda.matching["c3"] == DUMMY_ID
    assert not is_stable(weak_only_mkt, sda.matching, "ours")
    assert find_stable(weak_only_mkt, "ours").status == "none-exists"

    restart_mkt = helpers.restart_success_market()
    esda4 = run_esda(restart_mkt)
    assert esda4.succeeded
    assert esda4.pi_history == [(1, 2, 3), (3, 1, 2), (1, 3, 2)]
    m4 = esda4.matching
    assert m4.family_tuple(restart_mkt.families_by_id["f1"]) == ("d1", "d2")
    assert m4.family_tuple(restart_mkt.families_by_id["f3"]) == ("d3", "d4")
    assert m4.family_tuple(restart_mkt.families_by_id["f2"]) == ("d0", "d0")

    self_cycle_mkt = helpers.self_cycle_market()
    esda5 = run_esda(self_cycle_mkt)
    assert esda5.failure.kind == TYPE_1A
    assert esda5.failure.chain == ("c1", "c3", "c4", "c1")
    found5 = find_stable(self_cycle_mkt, "ours")
    assert found5.found
    assert found5.matching["c3"] == "d2" and found5.matching["c4"] == "d1"

    sibling_cycle_mkt = helpers.sibling_cycle_market()
    esda6 = run_esda(sibling_cycle_mkt)
    assert esda6.failure.kind == TYPE_1B
    assert esda6.failure.chain == ("c1", "c3", "c2")

    order_flip_mkt = helpers.order_flip_market()
    esda7 = run_esda(order_flip_mkt)
    assert esda7.failure.kind == TYPE_2_PERMUTATION_REPEAT

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 1 PASS: golden examples reproduced in {elapsed:.2f}s")


# -- criterion 2: synthetic table at n=500 ------------------------------------


def test_criterion_2_synthetic_table():
    start = time.perf_counter()
    spec = SweepSpec(
        sizes=(500,),
        phis=(0.0, 0.3, 0.5, 0.7, 0.9, 1.0),
        trials=100,
        algorithms=("esda", "sc"),
        seed=0,
    )
    result = run_sweep(spec)
    elapsed = time.perf_counter() - start

    esda_counts = {}
    for phi in spec.phis:
        esda = result.cells[(500, phi, "esda")]
        sc = result.cells[(500, phi, "sc")]
        esda_counts[phi] = esda.successes
        assert sc.successes == 0, f"SC succeeded at phi={phi}"
        assert esda.trials == sc.trials == 100
    for phi in (0.0, 0.3, 0.5, 0.7):
        assert esda_counts[phi] >= 95, (phi, esda_counts[phi])
    assert 85 <= esda_counts[0.9] <= 100, esda_counts[0.9]
    assert 60 <= esda_counts[1.0] <= 90, esda_counts[1.0]
    assert elapsed < 300.0
    report(
        "criterion 2 PASS: ESDA successes "
        + ", ".join(f"phi={phi:g}: {esda_counts[phi]}/100" for phi in spec.phis)
        + f"; SC 0/100 everywhere; {elapsed:.0f}s"
    )


# -- criterion 3: oracle agreement on small instances --------------------------


def test_criterion_3_oracle_agreement():
    start = time.perf_counter()
    esda_successes = 0
    none_exists, esda_misses = [], []
    for k in range(300):
        instance = helpers.oracle_market(k)
        esda = run_esda(instance)
        exact = find_stable(instance, "ours")
        assert exact.status != "budget-exceeded", k
        if exact.status == "none-exists":
            none_exists.append(k)
        if esda.succeeded:
            esda_successes += 1
            assert is_stable(instance, esda.matching, "ours"), k
            assert exact.found, k
        elif exact.found:
            esda_misses.append(k)
        sda = run_sda(instance)
        if sda.succeeded:
            assert is_stable(instance, sda.matching, "abh"), k
    elapsed = time.perf_counter() - start
    assert none_exists == [25, 134]
    assert esda_misses == [107, 129, 285]
    assert esda_successes == 295
    assert elapsed < 120.0
    report(
        f"criterion 3 PASS: 300 instances (n<=14), {esda_successes} ESDA successes, "
        f"all verified stable and confirmed by the exhaustive solver; no stable "
        f"matching on markets {none_exists}; ESDA missed one on markets "
        f"{esda_misses}; {elapsed:.0f}s"
    )


# -- criterion 4: stability implies ABH-stability -------------------------------


def test_criterion_4_proposition_1_property():
    import random

    rng = random.Random(99)
    stable_cases = 0
    for k in range(1000):
        instance = helpers.random_instance(rng, max_children=10)
        matching = helpers.random_feasible_ir_matching(rng, instance)
        if is_stable(instance, matching, "ours"):
            stable_cases += 1
            assert is_stable(instance, matching, "abh"), k
    assert stable_cases >= 100
    report(
        f"criterion 4 PASS: 1000 feasible-IR pairs, {stable_cases} stable, "
        "zero implication violations"
    )


# -- criterion 5: Mallows sampler statistics -------------------------------------


def test_criterion_5_mallows_statistics():
    rng = np.random.default_rng(12345)

    ref = [f"c{i}" for i in range(25)]
    assert all(mallows_sample(ref, 0.0, rng) == ref for _ in range(10_000))

    four = ["a", "b", "c", "d"]
    counts: dict[tuple, int] = {}
    draws = 100_000
    for _ in range(draws):
        counts_key = tuple(mallows_sample(four, 1.0, rng))
        counts[counts_key] = counts.get(counts_key, 0) + 1
    assert len(counts) == 24
    expected = draws / 24
    statistic = sum((c - expected) ** 2 / expected for c in counts.values())
    critical = chi2.ppf(1 - 0.001, 23)
    assert statistic < critical, (statistic, critical)

    phi = 0.3
    ref8 = [f"c{i}" for i in range(8)]
    inversions = {1: 0, 2: 0, 3: 0}
    draws = 100_000
    for _ in range(draws):
        sample = mallows_sample(ref8, phi, rng)
        position = {c: i for i, c in enumerate(sample)}
        for dist in inversions:
            lo, hi = ref8[2], ref8[2 + dist]
            if position[hi] < position[lo]:
                inversions[dist] += 1
    for dist, count in inversions.items():
        bound = 4 * phi**dist
        assert count / draws <= bound, (dist, count / draws, bound)
    report(
        "criterion 5 PASS: phi=0 exact on 10^4 draws; phi=1 uniform chi-square "
        f"stat {statistic:.1f} < {critical:.1f}; inversion rates "
        + ", ".join(f"d={d}: {c / draws:.4f} <= {4 * phi**d:.3f}" for d, c in inversions.items())
    )


# -- criterion 6: trace invariants ------------------------------------------------


def test_criterion_6_trace_invariants():
    start = time.perf_counter()
    phis = (0.0, 0.3, 0.5, 0.7, 0.9, 1.0)
    failures = 0
    for k in range(100):
        instance = gen_instance(MarketConfig(n=200, phi=phis[k % 6], seed=20_000 + k))
        out = run_esda(instance)
        assert roster_monotonicity_violations(instance, out.trace) == [], k
        assert rank_lemma_violations(instance, out.trace) == [], k
        history = out.pi_history
        assert len(set(history)) == len(history), k
        if not out.succeeded:
            failures += 1
            if out.failure.kind == TYPE_2_PERMUTATION_REPEAT:
                assert out.failure.permutation in history, k
    elapsed = time.perf_counter() - start
    report(
        f"criterion 6 PASS: 100 traces (n=200, {failures} failures) satisfy both "
        f"lemma invariants; permutation sets duplicate-free; {elapsed:.0f}s"
    )


# -- criterion 7: experiment determinism ---------------------------------------------


def strip_timing_columns(text: str) -> str:
    rows = []
    for line in text.splitlines():
        cells = line.split(",")
        cells[4:6] = ["", ""]
        rows.append(",".join(cells))
    return "\n".join(rows)


def test_criterion_7_experiment_determinism(tmp_path):
    spec = {
        "sizes": [60],
        "phis": [0.5, 1.0],
        "trials": 3,
        "algorithms": ["esda", "sda", "sc"],
        "base": {"alpha": 0.3, "daycare_ratio": 0.3},
        "seed": 11,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for name in ("a.csv", "b.csv"):
        out_path = tmp_path / name
        code = main(
            ["experiment", "--spec", str(spec_path), "--out", str(out_path)]
        )
        assert code == 0
        outputs.append(out_path.read_text())
    assert strip_timing_columns(outputs[0]) == strip_timing_columns(outputs[1])
    assert outputs[0].splitlines()[0] == "n,phi,algorithm,success,time_mean_s,time_std_s,failures"
    report("criterion 7 PASS: repeated sweeps byte-identical modulo timing columns")


# -- informational large-n smoke run -----------------------------------------------


def test_smoke_large_market():
    instance = gen_instance(MarketConfig(n=3000, phi=0.5, seed=42))
    start = time.perf_counter()
    out = run_esda(instance)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        f"smoke PASS: n=3000 ESDA {out.status} in {elapsed:.1f}s "
        f"({len(out.pi_history)} permutation attempts)"
    )
