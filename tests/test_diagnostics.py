import hashlib
import json
import random

import pytest

import helpers
from sibmatch.algorithms import classify_failure, run_esda, run_sc, run_sda
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


@pytest.mark.parametrize("ordering", [["c1", "c2", "c1"], None, [["c1"], "c2"], "c1c2"],
                         ids=["repeated", "none", "nested", "string"])
def test_ordering_functions_reject_what_inspect_rejects(ordering):
    # a repeated id used its later position; None and the nested list
    # raised a bare TypeError; the string was read per character
    f = Family("f1", ("c1", "c2"), ())
    g = Family("f2", ("c3",), ())
    calls = (
        lambda: diameter(ordering, f),
        lambda: dominates(ordering, f, g),
        lambda: top_dominates(ordering, f, g),
        lambda: nesting_pairs(ordering, [f, g]),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^expected a list of distinct child ids$"):
            call()


def test_report_reference_ordering_sections():
    families = [("f1", ["c1", "c2"], [["d1", "d1"]]), ("f2", ["c3"], [["d1"]])]
    daycares = [("d1", 3, ["c1", "c2", "c3"])]

    def report(reference):
        meta = {"reference_ordering": reference}
        return structure_report(helpers.make_instance(families, daycares, meta))

    assert report(["c1", "c3", "c2"])["diameter"] == {"f1": 3}
    assert "diameter" not in report([])
    with pytest.raises(ValueError, match="^meta.reference_ordering: child 'c2' missing"):
        report(["c1", "c3"])


@pytest.mark.parametrize("n", [40, 120, 300])
def test_report_agrees_with_the_public_ordering_functions(n):
    for phi in (0.3, 0.8, 1.0):
        for seed in range(3):
            inst = gen_instance(MarketConfig(n=n, phi=phi, alpha=0.4, seed=seed))
            # the report reads the meta list; give the functions a tuple,
            # the form gen_reference_ordering returns
            ref = tuple(inst.meta["reference_ordering"])
            fams = [inst.families_by_id[f] for f in inst.sibling_families]
            report = structure_report(inst)
            assert report["diameter"] == {f.id: diameter(ref, f) for f in fams}
            assert report["domination"] == sorted(
                [f.id, g.id] for f in fams for g in fams if f.id != g.id and dominates(ref, f, g)
            )
            assert report["nesting_pairs"] == sorted(sorted(p) for p in nesting_pairs(ref, fams))


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
    cycle = [ch for ch in chains if ch["cycle"]]
    assert len(cycle) == 1
    assert cycle[0]["children"] == ["c1", "c3", "c4", "c1"]
    assert cycle[0]["length"] == 4
    assert cycle[0]["inserting_family"] == "f1"
    assert cycle[0]["daycares"] == ["d1", "d2", "d1"]


def test_extract_chains_sibling_cycle_family_flag(sibling_cycle_mkt):
    out = run_esda(sibling_cycle_mkt)
    chains = extract_chains(sibling_cycle_mkt, out.trace)
    assert any(
        ch["children"] == ["c1", "c3", "c2"] and ch["family_cycle"] and not ch["cycle"]
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
        assert ch["attempt"] in (0, 1, 2)


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
    # forge a second placement of f1, which moves c2 from d2 to d4 and so
    # vacates d2 without refilling it
    events = [
        {"kind": "attempt", "index": 0, "pi": [1, 2, 3], "families": ["f1", "f2", "f3"]},
        {"kind": "place", "family": "f1", "tuple_index": 0,
         "placed": {"c1": "d1", "c2": "d2"}, "evicted": []},
        {"kind": "place", "family": "f1", "tuple_index": 1,
         "placed": {"c1": "d1", "c2": "d4"}, "evicted": []},
    ]
    assert roster_monotonicity_violations(restart_mkt, ExecutionTrace(events)) == [
        {"event": 2, "daycare": "d2", "decrease": 1}
    ]


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
    # c1 sits at d1, but the second placement evicts it from d3
    unseated = ExecutionTrace([
        {"kind": "attempt", "index": 0, "pi": [1, 2, 3], "families": ["f1", "f2", "f3"]},
        {"kind": "place", "family": "f1", "tuple_index": 0,
         "placed": {"c1": "d1", "c2": "d2"}, "evicted": []},
        {"kind": "place", "family": "f2", "tuple_index": 0,
         "placed": {"c3": "d3", "c4": "d4"}, "evicted": [["c1", "d3", "c3"]]},
        {"kind": "success"},
    ])
    # c1 sits at d1, but the placement that evicts it does not seat c9
    unplaced = ExecutionTrace(unseated.events[:2] + [
        {"kind": "place", "family": "f2", "tuple_index": 0,
         "placed": {"c3": "d3", "c4": "d4"}, "evicted": [["c1", "d1", "c9"]]},
        {"kind": "success"},
    ])
    # c1 sits at d1, but the placement that evicts it seats c3 at d3
    elsewhere = ExecutionTrace(unseated.events[:2] + [
        {"kind": "place", "family": "f2", "tuple_index": 0,
         "placed": {"c3": "d3", "c4": "d4"}, "evicted": [["c1", "d1", "c3"]]},
        {"kind": "success"},
    ])
    # f1 places f3's children at its own first tuple's daycares
    foreign = ExecutionTrace(unseated.events[:2] + [
        {"kind": "place", "family": "f1", "tuple_index": 0,
         "placed": {"c5": "d1", "c6": "d2"}, "evicted": []},
        {"kind": "success"},
    ])
    # c1 sits at d1, and f3's placement seats c5 there too, evicting no one
    over_quota = ExecutionTrace(unseated.events[:2] + [
        {"kind": "place", "family": "f3", "tuple_index": 0,
         "placed": {"c5": "d1", "c6": "d4"}, "evicted": []},
        {"kind": "success"},
    ])
    checks = (replay_trace, roster_monotonicity_violations, rank_lemma_violations,
              extract_chains, structure_report)
    for check in checks:
        with pytest.raises(MatchingError, match="'f1' places .*'c5': 'd1'.*, not its tuple 0"):
            check(restart_mkt, foreign)
        with pytest.raises(MatchingError, match="'d1' ends above its quota 1"):
            check(restart_mkt, over_quota)
        with pytest.raises(MatchingError, match="does not rank"):
            check(restart_mkt, unranked)
        with pytest.raises(MatchingError, match="where it is not seated"):
            check(restart_mkt, unseated)
        with pytest.raises(MatchingError, match="'c1' is evicted by 'c9', which the event does not place"):
            check(restart_mkt, unplaced)
        with pytest.raises(MatchingError, match="'c1' is evicted by 'c3', which the event does not place at 'd1'"):
            check(restart_mkt, elsewhere)


def test_rank_lemma_flags_a_vacated_seat_before_success():
    inst = helpers.make_instance(
        [("f1", ["c1"], [["d2"], ["d1"]]), ("f2", ["c2"], [["d2"]])],
        [("d1", 1, ["c1", "c2"]), ("d2", 1, ["c1", "c2"])],
    )

    def trace(last):
        # f1's second placement moves c1, the only child seated at d1, to
        # d2, so d1's rank rises from 1 (c1) to 3 (a vacant seat)
        return ExecutionTrace([
            {"kind": "attempt", "index": 0, "pi": [], "families": []},
            {"kind": "place", "family": "f1", "tuple_index": 1, "placed": {"c1": "d1"}, "evicted": []},
            {"kind": "place", "family": "f1", "tuple_index": 0, "placed": {"c1": "d2"}, "evicted": []},
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


# sha256 of ``json.dumps(structure_report(inst, run(inst).trace),
# sort_keys=True)`` on generated markets (n, phi, seed) for one algorithm,
# with the outcome each pins.  The SDA run restarts three times and
# succeeds where ESDA fails its improvement check.
PINNED_REPORTS = [
    ("esda", 60, 1.0, 0, "type-1a", "fc96c7c50a0c753a74ed624024b86164bcbe19eaef38c1998675d2a4dd9485ff"),
    ("esda", 100, 0.5, 1, None, "ac2f9648d472a51105777d07f1c31f8d153007c4a92b3381eb3ac92145644d51"),
    ("esda", 200, 1.0, 2, None, "61281709df9646c11e65ac74be4a38f141f61aeb1ec2d33f929718faf833d3e7"),
    ("esda", 300, 0.5, 3, None, "b82ee078562782c0ac2d69d71883c0d15bf36032e68f451975e0f1db33621251"),
    ("esda", 500, 1.0, 4, "type-2-permutation-repeat",
     "2b6f07494f13a6bf25650628bfb5976d2c2fde853635fe0a6c24ac5d31363e05"),
    ("esda", 500, 0.5, 5, None, "d517c37f727238eb70d60fbcba4cf95fb486848e8a46b1e8b55a15f1f463aaae"),
    ("sda", 150, 1.0, 12, None, "78e916b55dd4d6f196776168fb69f559dbb6122ff4e9ca3fd2131933781decce"),
    ("sc", 60, 1.0, 0, "sc-application-clash",
     "51b39d153ff96f9b4dfa27a5bf58a522d281c3dfcc36d14e164e01f301d5eb7c"),
]


@pytest.mark.parametrize(
    "algo, n, phi, seed, kind, digest", PINNED_REPORTS,
    ids=[f"{'' if a == 'esda' else a + '-'}n{n}-phi{phi}-seed{seed}" for a, n, phi, seed, *_ in PINNED_REPORTS],
)
def test_structure_reports_are_pinned(algo, n, phi, seed, kind, digest):
    inst = gen_instance(MarketConfig(n=n, phi=phi, seed=seed))
    out = {"esda": run_esda, "sda": run_sda, "sc": run_sc}[algo](inst)
    assert (out.failure.kind if out.failure else None) == kind
    if algo == "sda":
        assert len(out.trace.pi_history) == 4
    report = json.dumps(structure_report(inst, out.trace), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest
