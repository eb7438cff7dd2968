import hashlib
import json
import random

import pytest

import helpers
from sibmatch.algorithms import classify_failure, run_esda, run_sda
from sibmatch.diagnostics import (
    diameter,
    dominates,
    extract_chains,
    nesting_pairs,
    rank_lemma_violations,
    roster_monotonicity_violations,
    structure_report,
    top_dominates,
)
from sibmatch.market import MarketConfig, gen_instance
from sibmatch.model import Family, MatchingError
from sibmatch.trace import ExecutionTrace, replay_trace


def test_interleaved_ordering_all_pairs_nest():
    ordering, fams = helpers.interleaved_ordering()
    f1, f2, f3 = fams
    assert dominates(ordering, f1, f2) and dominates(ordering, f2, f1)
    pairs = nesting_pairs(ordering, fams)
    assert pairs == {
        frozenset({"f1", "f2"}),
        frozenset({"f1", "f3"}),
        frozenset({"f2", "f3"}),
    }
    assert top_dominates(ordering, f1, f2)
    assert not top_dominates(ordering, f1, f1)


def test_dominates_block_ordering_asymmetric():
    f = Family("f", ("a1", "a2"), ())
    g = Family("g", ("b1", "b2"), ())
    ordering = ["a1", "a2", "b1", "b2"]
    assert dominates(ordering, f, g)
    assert not dominates(ordering, g, f)
    assert nesting_pairs(ordering, [f, g]) == set()


def test_dominates_self_multi_child():
    f = Family("f", ("a1", "a2"), ())
    assert dominates(["a1", "x", "a2"], f, f)


def test_missing_child_raises():
    f = Family("f", ("a1", "a2"), ())
    with pytest.raises(ValueError, match="missing"):
        dominates(["a1"], f, f)
    with pytest.raises(ValueError, match="missing"):
        diameter(["a1"], f)


def test_diameter_examples():
    f = Family("f1", ("c1", "c2", "c3"), ())
    assert diameter(["c1", "c2", "c3", "x"], f) == 3
    single = Family("g", ("s1",), ())
    assert diameter(["a", "s1", "b"], single) == 1
    # reference-ordering example: c4 > c5 > c1 > c2 > c3
    assert diameter(["c4", "c5", "c1", "c2", "c3"], f) == 3


def test_diameter_lower_bound_and_contiguity():
    rng = random.Random(4)
    kids = [f"c{i}" for i in range(6)]
    fam = Family("f", tuple(kids[:3]), ())
    for _ in range(100):
        order = kids[:]
        rng.shuffle(order)
        d = diameter(order, fam)
        assert d >= 3
        positions = sorted(order.index(c) for c in fam.children)
        contiguous = positions[2] - positions[0] == 2
        assert (d == 3) == contiguous


def test_nesting_symmetry_random():
    rng = random.Random(5)
    fams = [Family(f"f{i}", (f"a{i}", f"b{i}"), ()) for i in range(4)]
    kids = [c for f in fams for c in f.children]
    for _ in range(50):
        order = kids[:]
        rng.shuffle(order)
        pairs = nesting_pairs(order, fams)
        for f in fams:
            for g in fams:
                if f.id != g.id:
                    mutual = dominates(order, f, g) and dominates(order, g, f)
                    assert (frozenset({f.id, g.id}) in pairs) == mutual


def test_extract_chains_self_cycle(self_cycle_mkt):
    out = run_esda(self_cycle_mkt)
    chains = extract_chains(self_cycle_mkt, out.trace)
    cycle = [ch for ch in chains if ch.is_cycle]
    assert len(cycle) == 1
    assert cycle[0].children == ("c1", "c3", "c4", "c1")
    assert len(cycle[0]) == 4
    assert cycle[0].inserting_family == "f1"
    assert cycle[0].daycares == ("d1", "d2", "d1")


def test_extract_chains_sibling_cycle_family_flag(sibling_cycle_mkt):
    out = run_esda(sibling_cycle_mkt)
    chains = extract_chains(sibling_cycle_mkt, out.trace)
    assert any(
        ch.children == ("c1", "c3", "c2") and ch.is_family_cycle and not ch.is_cycle
        for ch in chains
    )


def test_extract_chains_empty_without_rejections():
    inst = helpers.make_instance(
        [("f1", ["c1"], [["d1"]]), ("f2", ["c2"], [["d2"]])],
        [("d1", 1, ["c1"]), ("d2", 1, ["c2"])],
    )
    out = run_sda(inst)
    assert out.succeeded
    assert extract_chains(inst, out.trace) == []


def test_chains_never_span_attempts(restart_mkt):
    out = run_esda(restart_mkt)
    for ch in extract_chains(restart_mkt, out.trace):
        assert ch.attempt_index in (0, 1, 2)


def test_lemma_invariants_on_small_markets():
    for seed in range(40):
        inst = gen_instance(
            MarketConfig(n=30, phi=(0.5, 1.0)[seed % 2], alpha=0.4, L=3,
                         daycare_ratio=0.3, sibling_pref_length=4,
                         joint_pref_length=5, sigma=2.0, seed=seed)
        )
        for runner in (run_sda, run_esda):
            out = runner(inst)
            assert roster_monotonicity_violations(inst, out.trace) == []
            assert rank_lemma_violations(inst, out.trace) == []


def test_structure_report_generated_instance():
    inst = gen_instance(MarketConfig(n=40, phi=0.8, alpha=0.4, seed=6, daycare_ratio=0.3))
    out = run_esda(inst)
    report = structure_report(inst, out.trace)
    assert set(report["diameter"]) == set(inst.sibling_families)
    assert all(d >= 1 for d in report["diameter"].values())
    for pair in report["nesting_pairs"]:
        assert sorted(pair) == pair
    assert "chains" in report
    if out.succeeded:
        assert report["failure"] is None
    else:
        assert report["failure"]["kind"]


def test_structure_report_plain_instance(self_cycle_mkt):
    out = run_esda(self_cycle_mkt)
    report = structure_report(self_cycle_mkt, out.trace)
    assert "diameter" not in report  # no reference ordering in meta
    assert report["failure"]["kind"] == "type-1a"
    assert report["failure"]["chain"] == ["c1", "c3", "c4", "c1"]


def test_structure_report_without_trace(self_cycle_mkt):
    report = structure_report(self_cycle_mkt)
    assert report["sibling_families"] == ["f1"]
    assert "chains" not in report and "failure" not in report


def test_nesting_rare_in_generated_markets():
    # with eps=1 nearly every family is a contiguous block in the
    # reference ordering, and disjoint blocks cannot nest, so instances
    # containing any nesting pair should be vanishingly rare
    hits = 0
    for seed in range(200):
        inst = gen_instance(
            MarketConfig(n=100, phi=0.5, alpha=0.4, epsilon=1.0, seed=seed)
        )
        fams = [inst.families_by_id[f] for f in inst.sibling_families]
        if nesting_pairs(inst.meta["reference_ordering"], fams):
            hits += 1
    assert hits <= 2


def test_grouped_families_have_tight_diameter():
    inst = gen_instance(MarketConfig(n=60, phi=0.5, alpha=0.5, seed=7))
    ref = inst.meta["reference_ordering"]
    grouped = inst.meta["grouped_families"]
    for fid, is_grouped in grouped.items():
        fam = inst.families_by_id[fid]
        if is_grouped:
            assert diameter(ref, fam) == fam.size


def test_roster_check_flags_corrupted_trace(restart_mkt):
    out = run_esda(restart_mkt)
    child = next(c for c, d in out.matching.assignment.items() if d != "d0")
    events = [dict(e) for e in out.trace.events]
    # forge an event that vacates a seat without refilling it
    events.append(
        {"kind": "place", "family": "forged", "tuple_index": 0,
         "placed": {child: "d0"}, "evicted": []}
    )
    assert roster_monotonicity_violations(restart_mkt, ExecutionTrace(events)) != []


def test_replays_reject_a_foreign_trace(restart_mkt):
    other = gen_instance(MarketConfig(n=40, phi=1.0, alpha=0.5, daycare_ratio=0.3, seed=3))
    trace = run_esda(other).trace
    with pytest.raises(MatchingError, match="unknown"):
        replay_trace(restart_mkt, trace)
    with pytest.raises(MatchingError, match="unknown"):
        roster_monotonicity_violations(restart_mkt, trace)
    with pytest.raises(MatchingError, match="unknown"):
        extract_chains(restart_mkt, trace)
    with pytest.raises(MatchingError, match="unknown"):
        structure_report(restart_mkt, trace)
    # d1 ranks only c1 and c5
    unranked = ExecutionTrace([
        {"kind": "attempt", "index": 0, "pi": [1, 2, 3], "families": ["f1", "f2", "f3"]},
        {"kind": "place", "family": "f2", "tuple_index": 0,
         "placed": {"c3": "d1", "c4": "d4"}, "evicted": []},
        {"kind": "success"},
    ])
    for check in (replay_trace, roster_monotonicity_violations, rank_lemma_violations):
        with pytest.raises(MatchingError, match="does not rank"):
            check(restart_mkt, unranked)


def test_rank_lemma_flags_a_vacated_seat_before_success():
    inst = helpers.make_instance(
        [("f1", ["c1"], [["d1"]]), ("f2", ["c2"], [["d2"]])],
        [("d1", 1, ["c1", "c2"]), ("d2", 1, ["c1", "c2"])],
    )

    def trace(last):
        # f2's placement at d2 evicts c1, the only child seated at d1, so
        # d1's rank rises from 1 (c1) to 3 (a vacant seat)
        return ExecutionTrace([
            {"kind": "attempt", "index": 0, "pi": [], "families": []},
            {"kind": "place", "family": "f1", "tuple_index": 0, "placed": {"c1": "d1"}, "evicted": []},
            {"kind": "place", "family": "f2", "tuple_index": 0, "placed": {"c2": "d2"},
             "evicted": [["c1", "d1", "c2"]]},
            last,
        ])

    assert rank_lemma_violations(inst, trace({"kind": "success"})) == [{"event": 2, "daycare": "d1"}]
    restart = {"kind": "restart", "inserting": "f2", "displaced": "f1", "new_pi": []}
    assert rank_lemma_violations(inst, trace(restart)) == []


def _type_1_repeat(*final_attempt):
    return ExecutionTrace([
        {"kind": "attempt", "index": 0, "pi": [1], "families": ["f1"]},
        {"kind": "insert", "family": "f1", "position": 0},
        *final_attempt,
        {"kind": "repeat", "inserting": "f1", "displaced": "f1", "new_pi": [1]},
    ])


def test_malformed_type_1_traces_raise(sibling_cycle_mkt):
    placed = {"kind": "place", "family": "f1", "tuple_index": 0,
              "placed": {"c1": "d1", "c2": "d2"}, "evicted": []}
    no_eviction = _type_1_repeat(placed)
    # c3 evicts c2 without ever having been evicted: the chain ends in f1
    # but cannot be traced back to a child f1 placed
    foreign_start = _type_1_repeat(
        placed,
        {"kind": "place", "family": "f2", "tuple_index": 1,
         "placed": {"c3": "d2"}, "evicted": [["c2", "d2", "c3"]]},
    )
    # a type-1 repeat with no attempt to read its chain from
    no_attempt = ExecutionTrace([{"kind": "repeat", "inserting": "f1", "displaced": "f1", "new_pi": [1]}])
    for trace in (no_eviction, foreign_start, no_attempt):
        with pytest.raises(ValueError):
            classify_failure(trace)
        with pytest.raises(ValueError):
            structure_report(sibling_cycle_mkt, trace)


# sha256 of ``json.dumps(structure_report(inst, run_esda(inst).trace),
# sort_keys=True)`` on generated markets (n, phi, seed), with the ESDA
# outcome each pins.
PINNED_REPORTS = [
    (60, 1.0, 0, "type-1a", "fc96c7c50a0c753a74ed624024b86164bcbe19eaef38c1998675d2a4dd9485ff"),
    (100, 0.5, 1, None, "ac2f9648d472a51105777d07f1c31f8d153007c4a92b3381eb3ac92145644d51"),
    (200, 1.0, 2, None, "61281709df9646c11e65ac74be4a38f141f61aeb1ec2d33f929718faf833d3e7"),
    (300, 0.5, 3, None, "b82ee078562782c0ac2d69d71883c0d15bf36032e68f451975e0f1db33621251"),
    (500, 1.0, 4, "type-2-permutation-repeat",
     "2b6f07494f13a6bf25650628bfb5976d2c2fde853635fe0a6c24ac5d31363e05"),
    (500, 0.5, 5, None, "d517c37f727238eb70d60fbcba4cf95fb486848e8a46b1e8b55a15f1f463aaae"),
]


@pytest.mark.parametrize("n, phi, seed, kind, digest", PINNED_REPORTS,
                         ids=[f"n{n}-phi{phi}-seed{seed}" for n, phi, seed, *_ in PINNED_REPORTS])
def test_structure_reports_are_pinned(n, phi, seed, kind, digest):
    inst = gen_instance(MarketConfig(n=n, phi=phi, seed=seed))
    out = run_esda(inst)
    assert (out.failure.kind if out.failure else None) == kind
    report = json.dumps(structure_report(inst, out.trace), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest
