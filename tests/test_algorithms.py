import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from sibmatch import algorithms, stability
from sibmatch.algorithms import (
    IMPROVEMENT_FAILURE,
    SC_APPLICATION_CLASH,
    TYPE_1A,
    TYPE_1B,
    TYPE_2_PERMUTATION_REPEAT,
    classify_failure,
    run_da,
    run_esda,
    run_sc,
    run_sda,
)
from sibmatch.experiment import instance_seed
from sibmatch.market import MarketConfig, gen_instance
from sibmatch.model import DUMMY_ID, dump_matching, is_feasible, is_individually_rational
from sibmatch.stability import is_stable
from sibmatch.trace import ExecutionTrace, replay_trace


def small_market(seed: int, n: int = 12, phi: float = 1.0):
    cfg = MarketConfig(
        n=n,
        phi=phi,
        alpha=0.5,
        L=3,
        sigma=2.0,
        daycare_ratio=0.5,
        sibling_pref_length=4,
        joint_pref_length=5,
        seed=seed,
    )
    return gen_instance(cfg)


# -- deferred acceptance ----------------------------------------------------


def test_da_phase_of_self_cycle_market(self_cycle_mkt):
    m = run_da(self_cycle_mkt).matching
    assert m["c3"] == "d1"
    assert m["c4"] == "d2"
    assert m["c1"] == DUMMY_ID and m["c2"] == DUMMY_ID


def test_da_phase_of_sibling_cycle_market(sibling_cycle_mkt):
    m = run_da(sibling_cycle_mkt).matching
    assert m["c3"] == "d1"


def test_da_output_feasible_ir_stable_on_singleton_markets():
    rng = random.Random(5)
    for seed in range(30):
        inst = gen_instance(
            MarketConfig(n=rng.randint(4, 16), phi=1.0, alpha=0.0, L=2,
                         daycare_ratio=0.6, seed=seed)
        )
        m = run_da(inst).matching
        assert is_feasible(inst, m)
        assert is_individually_rational(inst, m)
        assert is_stable(inst, m, "ours")


# -- ESDA golden cases ------------------------------------------------------


def test_esda_success_after_two_restarts(restart_mkt):
    out = run_esda(restart_mkt)
    assert out.succeeded
    assert out.pi_history == [(1, 2, 3), (3, 1, 2), (1, 3, 2)]
    m = out.matching
    assert m.family_tuple(restart_mkt.families_by_id["f1"]) == ("d1", "d2")
    assert m.family_tuple(restart_mkt.families_by_id["f3"]) == ("d3", "d4")
    assert m.family_tuple(restart_mkt.families_by_id["f2"]) == ("d0", "d0")
    assert is_stable(restart_mkt, m, "ours")


def test_esda_type_1a_on_self_cycle(self_cycle_mkt):
    out = run_esda(self_cycle_mkt)
    assert not out.succeeded
    assert out.failure.kind == TYPE_1A
    assert out.failure.chain == ("c1", "c3", "c4", "c1")


def test_esda_type_1b_on_sibling_cycle(sibling_cycle_mkt):
    out = run_esda(sibling_cycle_mkt)
    assert not out.succeeded
    assert out.failure.kind == TYPE_1B
    assert out.failure.chain == ("c1", "c3", "c2")


def test_esda_type_2_on_order_flip(order_flip_mkt):
    out = run_esda(order_flip_mkt)
    assert not out.succeeded
    assert out.failure.kind == TYPE_2_PERMUTATION_REPEAT
    assert out.failure.permutation == (1, 2)
    assert out.pi_history == [(1, 2), (2, 1)]


def test_esda_improvement_failure_on_weak_only(weak_only_mkt):
    out = run_esda(weak_only_mkt)
    assert not out.succeeded
    assert out.failure.kind == IMPROVEMENT_FAILURE


# -- SDA ---------------------------------------------------------------------


def test_sda_weak_only_success_not_strictly_stable(weak_only_mkt):
    out = run_sda(weak_only_mkt)
    assert out.succeeded
    m = out.matching
    assert m.family_tuple(weak_only_mkt.families_by_id["f1"]) == ("d2", "d3")
    assert m["c3"] == DUMMY_ID
    assert is_stable(weak_only_mkt, m, "abh")
    assert not is_stable(weak_only_mkt, m, "ours")


def test_sda_type_2_on_order_flip(order_flip_mkt):
    out = run_sda(order_flip_mkt)
    assert not out.succeeded
    assert out.failure.kind == TYPE_2_PERMUTATION_REPEAT


def test_sda_failure_kinds_match_esda_on_type1(self_cycle_mkt, sibling_cycle_mkt):
    assert run_sda(self_cycle_mkt).failure.kind == TYPE_1A
    assert run_sda(sibling_cycle_mkt).failure.kind == TYPE_1B


# -- SC ------------------------------------------------------------------------


def test_sc_clash_on_self_cycle(self_cycle_mkt):
    out = run_sc(self_cycle_mkt)
    assert not out.succeeded
    assert out.failure.kind == SC_APPLICATION_CLASH
    # c_3 displaced to d_2 evicts c_4, whose application to d_1 clashes
    terminal = out.trace.terminal
    assert terminal["child"] == "c4" and terminal["daycare"] == "d1"


def test_sc_fails_on_synthetic_market():
    inst = gen_instance(MarketConfig(n=200, phi=0.5, seed=3))
    out = run_sc(inst)
    assert not out.succeeded
    assert out.failure.kind == SC_APPLICATION_CLASH


# -- shared behaviour ---------------------------------------------------------


def test_conservativity_without_sibling_families():
    for seed in (0, 1, 2):
        inst = gen_instance(
            MarketConfig(n=10, phi=1.0, alpha=0.0, L=2, daycare_ratio=0.6, seed=seed)
        )
        baseline = run_da(inst).matching
        for runner in (run_sc, run_sda, run_esda):
            out = runner(inst)
            assert out.succeeded
            assert out.matching == baseline


def test_determinism_identical_traces():
    inst = small_market(seed=99)
    a, b = run_esda(inst), run_esda(inst)
    assert a.status == b.status
    assert a.trace.events == b.trace.events
    if a.succeeded:
        assert a.matching == b.matching


def test_success_outputs_feasible_ir_and_replayable():
    successes = 0
    for seed in range(40):
        inst = small_market(seed=seed)
        for runner in (run_da, run_sda, run_esda, run_sc):
            out = runner(inst)
            if not out.succeeded:
                continue
            successes += 1
            m = out.matching
            assert is_feasible(inst, m)
            assert is_individually_rational(inst, m)
            assert replay_trace(inst, out.trace) == m
    assert successes > 20


def test_esda_success_implies_stability_small_markets():
    for seed in range(60):
        inst = small_market(seed=1000 + seed)
        out = run_esda(inst)
        if out.succeeded:
            assert is_stable(inst, out.matching, "ours")
        sda = run_sda(inst)
        if sda.succeeded:
            assert is_stable(inst, sda.matching, "abh")


def test_permutation_history_duplicate_free():
    import math

    for seed in range(60):
        inst = small_market(seed=2000 + seed, n=14)
        out = run_esda(inst)
        history = out.pi_history
        assert len(set(history)) == len(history)
        assert len(history) <= math.factorial(len(inst.sibling_families)) + 1
        if out.failure is not None and out.failure.kind == TYPE_2_PERMUTATION_REPEAT:
            assert out.failure.permutation in history


def test_classify_failure_rejects_success_trace(restart_mkt):
    out = run_esda(restart_mkt)
    with pytest.raises(ValueError, match="success"):
        classify_failure(out.trace)


def test_classify_failure_rejects_a_trace_without_terminal_event():
    with pytest.raises(ValueError, match="trace has no terminal event"):
        classify_failure(ExecutionTrace())


def test_exhausted_family_rests_unmatched():
    # f1's only tuple is refused: it must land on the dummy, run succeeds
    inst = helpers.make_instance(
        [
            ("f1", ["c1", "c2"], [["d1", "d2"]]),
            ("f2", ["c3"], [["d1"]]),
        ],
        [("d1", 1, ["c3"]), ("d2", 1, ["c2"])],  # c1 unacceptable at d1
    )
    out = run_esda(inst)
    assert out.succeeded
    assert out.matching.family_tuple(inst.families_by_id["f1"]) == ("d0", "d0")
    assert out.matching["c3"] == "d1"


def test_select_is_looked_up_at_call_time(monkeypatch):
    """The benchmark's tracer counts choice-function calls by replacing
    ``select`` in ``algorithms`` and in ``stability``; the engine and ESDA's
    improvement check must call whatever those names hold."""
    calls = dict.fromkeys((algorithms, stability), 0)
    for module in calls:
        def counting(*args, module=module, original=module.select):
            calls[module] += 1
            return original(*args)

        monkeypatch.setattr(module, "select", counting)
    inst = gen_instance(MarketConfig(n=200, phi=0.5, seed=0))
    for runner in (run_da, run_sc, run_esda):
        before = calls[algorithms]
        runner(inst)
        assert calls[algorithms] > before, runner.__name__
    before = calls[stability]
    run_esda(inst)
    assert calls[stability] > before


def test_trace_jsonl_roundtrip(restart_mkt):
    out = run_esda(restart_mkt)
    text = out.trace.to_jsonl()
    again = ExecutionTrace.from_jsonl(text)
    assert again.events == out.trace.events


# lines of other kinds that carry a place event's fields with another JSON
# type; they raised a bare TypeError and AttributeError
UNDECLARED_PLACE_FIELDS = [
    '{"kind": "success", "evicted": 1.5}',
    '{"kind": "insert", "family": "f1", "position": 0, "placed": "d1"}',
]


def test_trace_jsonl_ignores_fields_a_kind_does_not_declare():
    lines = UNDECLARED_PLACE_FIELDS + ['{"kind": "success", "foo": 1}']
    trace = ExecutionTrace.from_jsonl("\n".join(lines))
    assert trace.events == [json.loads(line) for line in lines]
    # on a place event the same entries are still checked
    place = '{"kind": "place", "family": "f1", "tuple_index": 0, "placed": {"c1": "d1"}, "evicted": [1.5]}'
    with pytest.raises(ValueError, match=r"^trace line 2: place event: each evicted entry must be a list of 3 ids$"):
        ExecutionTrace.from_jsonl(lines[0] + "\n" + place)


def test_trace_jsonl_rejects_an_index_beyond_the_float_range(restart_mkt):
    trace = run_esda(restart_mkt).trace
    assert len(trace) == len(trace.events)
    events = [dict(e) for e in trace.events]
    k = next(i for i, e in enumerate(events) if e["kind"] == "place")
    events[k]["tuple_index"] = 10**400
    with pytest.raises(ValueError, match=rf"^trace line {k + 1}: place event: 'tuple_index' must be of type int$"):
        ExecutionTrace.from_jsonl(ExecutionTrace(events).to_jsonl())


# -- restarts ------------------------------------------------------------------

# Seeded small markets that take two or more attempts under both SDA and
# ESDA, with every failure kind among them: (n, seed, algorithm, attempts,
# failure kind, then the leading 16 hex digits of the sha256 of the trace
# JSONL and of the dumped matching).  The SC rows run the same markets;
# their clashes name both reasons, "application to a daycare..."
# (n12-seed200, n16-seed194, n30-seed9, n30-seed92) and "sibling family
# displaced" (n16-seed28, n20-seed36, n24-seed63, n30-seed45).  Any change
# to the engine must keep these bytes.
PINNED_RUNS = [
    (12, 200, "esda", 2, TYPE_1A, "a9776a688ec3dafa", None),
    (12, 200, "sda", 2, TYPE_1A, "a9776a688ec3dafa", None),
    (16, 28, "esda", 2, IMPROVEMENT_FAILURE, "b83776dcd92505d6", None),
    (16, 28, "sda", 2, None, "249082b85e8aa59b", "9c6846fc4f95e3b2"),
    (16, 194, "esda", 4, None, "b3a05e2265228992", "a48a5662b1c7c7f0"),
    (16, 194, "sda", 4, None, "b3a05e2265228992", "a48a5662b1c7c7f0"),
    (20, 36, "esda", 4, None, "07827a1a8e9d1624", "f01a752266c4bb9b"),
    (20, 36, "sda", 4, None, "07827a1a8e9d1624", "f01a752266c4bb9b"),
    (24, 63, "esda", 3, TYPE_2_PERMUTATION_REPEAT, "f1a6f2ede1a3dcf1", None),
    (24, 63, "sda", 3, TYPE_2_PERMUTATION_REPEAT, "f1a6f2ede1a3dcf1", None),
    (30, 9, "esda", 7, TYPE_2_PERMUTATION_REPEAT, "9f9a03ba0d99eafe", None),
    (30, 9, "sda", 7, TYPE_2_PERMUTATION_REPEAT, "9f9a03ba0d99eafe", None),
    (30, 45, "esda", 4, TYPE_1B, "d28bd46091e971ba", None),
    (30, 45, "sda", 4, TYPE_1B, "d28bd46091e971ba", None),
    (30, 92, "esda", 5, None, "65852e647298f370", "b3a8f631df5419bd"),
    (30, 92, "sda", 5, None, "65852e647298f370", "b3a8f631df5419bd"),
    (12, 200, "sc", 1, SC_APPLICATION_CLASH, "c7c9496b90458fb9", None),
    (16, 28, "sc", 1, SC_APPLICATION_CLASH, "58982151679d8e26", None),
    (16, 194, "sc", 1, SC_APPLICATION_CLASH, "a73fe54b3d4a628a", None),
    (20, 36, "sc", 1, SC_APPLICATION_CLASH, "62c3f5390e7dd55c", None),
    (24, 63, "sc", 1, SC_APPLICATION_CLASH, "e3e878497ddc858d", None),
    (30, 9, "sc", 1, SC_APPLICATION_CLASH, "c0c5b8b9c9a3ef05", None),
    (30, 45, "sc", 1, SC_APPLICATION_CLASH, "2eba0db40ffa71cb", None),
    (30, 92, "sc", 1, SC_APPLICATION_CLASH, "28a6b1785a3db658", None),
]
RUNNERS = {
    "esda": run_esda,
    "sda": run_sda,
    "sc": run_sc,
}
# run_da matchings on the same markets, as (n, seed): leading 16 hex digits
# of the sha256 of the dumped matching.
PINNED_DA = {
    (12, 200): "3155f65dbf54a91b",
    (16, 28): "6c23878bac80e381",
    (16, 194): "32a91aac3c6a5563",
    (20, 36): "2d329cafe4f0bc45",
    (24, 63): "37283f73c81dcd1d",
    (30, 9): "10410c45c5fb91f5",
    (30, 45): "899d5f84026695fa",
    (30, 92): "182b3b3944014925",
}


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "n, seed, algo, attempts, kind, trace_sha, matching_sha",
    PINNED_RUNS,
    ids=[f"n{n}-seed{seed}-{algo}" for n, seed, algo, *_ in PINNED_RUNS],
)
def test_multi_attempt_runs_are_byte_identical(n, seed, algo, attempts, kind, trace_sha, matching_sha):
    out = RUNNERS[algo](small_market(seed, n=n))
    assert len(out.pi_history) == attempts
    assert (out.failure.kind if out.failure else None) == kind
    assert sha16(out.trace.to_jsonl()) == trace_sha
    assert (sha16(dump_matching(out.matching)) if out.succeeded else None) == matching_sha


@pytest.mark.parametrize("n, seed", sorted(PINNED_DA), ids=[f"n{n}-seed{seed}" for n, seed in sorted(PINNED_DA)])
def test_da_matchings_are_byte_identical(n, seed):
    assert sha16(dump_matching(run_da(small_market(seed, n=n)).matching)) == PINNED_DA[n, seed]


def test_every_attempt_starts_from_the_da_phase():
    for n, seed in sorted({(n, seed) for n, seed, *_ in PINNED_RUNS}):
        inst = small_market(seed, n=n)
        da = run_da(inst)
        for runner in (run_esda, run_sda):
            attempts = runner(inst).trace.attempts()
            heads = []
            for events in attempts:
                first_insert = next(k for k, e in enumerate(events) if e["kind"] == "insert")
                heads.append(events[:first_insert])
                assert replay_trace(inst, ExecutionTrace(heads[-1])) == da.matching
                # DA's own trace without its attempt and success events
                assert heads[-1][1:] == da.trace.events[1:-1]
            assert len(heads) >= 2
            assert all(head[1:] == heads[0][1:] for head in heads)


# The criterion-2 markets (n=500, sweep base seed 0) whose ESDA and SDA
# runs restart most often, as (phi, trial, attempts): the sha256 of their
# trace JSONL, the same for both runners since all three succeed.
PINNED_RESTARTS = [
    (0.9, 7, 13, "5cd0521e0d78d1f07ee4b14691dc546b06bf57514fb9856b8100226a4cfd1b05"),
    (0.7, 1, 10, "0e45df7413e17b091bc66653d97dc35fe4ad43b21487b2482b2d2e0904ffb914"),
    (0.0, 11, 10, "ebdb8104717ae00f6a0bb4f4b1c1661cc08e845bbf1ac607e71d81f294248b8a"),
]


def criterion_2_market(phi, trial):
    return gen_instance(MarketConfig(n=500, phi=phi, seed=instance_seed(0, 500, phi, trial)))


def assert_attempts_resume_the_shared_prefix(trace) -> None:
    """Every attempt after the first logs the previous attempt's events
    again, as the same objects, up to the first ``insert`` at which the
    two orders differ."""
    attempts = trace.attempts()
    for prev, cur in zip(attempts, attempts[1:]):
        keep = next(k for k, (a, b) in enumerate(zip(prev[0]["pi"], cur[0]["pi"])) if a != b)
        end = next(i for i, e in enumerate(prev) if e["kind"] == "insert" and e["position"] == keep)
        assert all(a is b for a, b in zip(cur[1:end], prev[1:end]))
        assert cur[end]["kind"] == "insert" and cur[end]["position"] == keep
        assert cur[end]["family"] == cur[0]["families"][keep] != prev[end]["family"]


@pytest.mark.parametrize("phi, trial, attempts, digest", PINNED_RESTARTS, ids=[f"phi{p[0]}-trial{p[1]}" for p in PINNED_RESTARTS])
def test_long_restart_runs_are_pinned(phi, trial, attempts, digest):
    inst = criterion_2_market(phi, trial)
    for runner in (run_esda, run_sda):
        out = runner(inst)
        assert out.succeeded and len(out.pi_history) == attempts
        assert hashlib.sha256(out.trace.to_jsonl().encode()).hexdigest() == digest


def test_restarts_resume_the_shared_prefix():
    markets = [small_market(seed, n=n) for n, seed in sorted({(n, seed) for n, seed, *_ in PINNED_RUNS})]
    markets += [criterion_2_market(phi, trial) for phi, trial, *_ in PINNED_RESTARTS]
    for inst in markets:
        for runner in (run_esda, run_sda):
            assert_attempts_resume_the_shared_prefix(runner(inst).trace)


# Every failed ESDA and SDA run of three seeded sets: the 300 criterion-3
# markets, 3,000 ``random_instance(random.Random(1), 12)`` markets and 60
# generated markets (n in {100, 300}, phi in {0.5, 1.0}, seeds 0-14).  Per
# set: failures, type-1 failures among them (42 in all), then the sha256
# of the JSON list of [market, algorithm, kind, chain, permutation,
# details] rows.  Pins the chains that classification reads off the trace.
def _failure_markets(name):
    if name == "criterion-3":
        return (helpers.oracle_market(k) for k in range(300))
    if name == "random":
        rng = random.Random(1)
        return (helpers.random_instance(rng, 12) for _ in range(3000))
    return (
        gen_instance(MarketConfig(n=n, phi=phi, seed=seed))
        for n in (100, 300)
        for phi in (0.5, 1.0)
        for seed in range(15)
    )


PINNED_FAILURES = [
    ("criterion-3", 9, 6, "2d87a32369b037aa0f95ff791ca649055854564f0bd9ad6323ed64e0cc3f5b56"),
    ("random", 71, 32, "b75989548df8231cd337053d57be3b97a2ad05a4c776294ef12fed4bd3605c31"),
    ("generated", 4, 4, "2ef135936e2b8fe50f4147ae569ac6e0647fd608d68887c7587f1b6ffa347ee3"),
]


@pytest.mark.parametrize("name, failures, type1, digest", PINNED_FAILURES, ids=[p[0] for p in PINNED_FAILURES])
def test_failure_classification_is_pinned(name, failures, type1, digest):
    rows = []
    for k, inst in enumerate(_failure_markets(name)):
        for algo, runner in (("esda", run_esda), ("sda", run_sda)):
            failure = runner(inst).failure
            if failure is not None:
                rows.append([k, algo, failure.kind, failure.chain, failure.permutation, failure.details])
    assert len(rows) == failures
    assert sum(row[2] in (TYPE_1A, TYPE_1B) for row in rows) == type1
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


# Generated markets restart far more often than ``random_instance`` ones
# (about 13% of runs against 3%), which exercises the resume from a
# shared order prefix.
MARKETS = st.builds(
    small_market, seed=st.integers(0, 10**6), n=st.integers(8, 30), phi=st.sampled_from((0.5, 1.0))
) | st.builds(lambda seed: helpers.random_instance(random.Random(seed)), st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(inst=MARKETS)
def test_sorted_successes_are_stable_and_replayable(inst):
    for runner, mode in ((run_esda, "ours"), (run_sda, "abh")):
        out = runner(inst)
        if out.succeeded:
            assert is_stable(inst, out.matching, mode)
            assert replay_trace(inst, out.trace) == out.matching


@settings(max_examples=200, deadline=None)
@given(inst=MARKETS)
def test_sc_is_the_first_sda_attempt_cut_short(inst):
    sc, sda = run_sc(inst).trace.events, run_sda(inst).trace.events
    assert sc[:-1] == sda[: len(sc) - 1]
    if sc[-1]["kind"] == "success":
        assert sc == sda


@settings(max_examples=200, deadline=None)
@given(inst=MARKETS)
def test_resumed_runs_equal_the_reference(inst):
    for algo, runner in (("sc", run_sc), ("sda", run_sda), ("esda", run_esda)):
        out, ref = runner(inst), helpers.reference_inserting(inst, algo)
        assert out.trace.to_jsonl() == ref.trace.to_jsonl()
        assert (out.status, out.failure) == (ref.status, ref.failure)


def reference_applications(fam, tup):
    """Group a tuple's non-dummy entries by daycare, first occurrence first;
    the displacer is the first applicant in sibling order."""
    groups: dict[str, list[str]] = {}
    for child, d in zip(fam.children, tup):
        if d != DUMMY_ID:
            groups.setdefault(d, []).append(child)
    return tuple((d, frozenset(children), children[0]) for d, children in groups.items())


@settings(max_examples=100, deadline=None)
@given(inst=MARKETS)
def test_applications_match_the_reference_grouping(inst):
    for fam in inst.families:
        assert inst.applications[fam.id] == tuple(
            reference_applications(fam, tup) for tup in fam.preferences
        )


def test_applications_of_a_repeated_daycare_and_a_dummy_slot():
    inst = helpers.make_instance(
        [("f1", ["c1", "c2", "c3"], [["d1", "d0", "d1"], ["d2", "d1", "d2"]])],
        [("d1", 2, ["c1", "c2", "c3"]), ("d2", 2, ["c1", "c3"])],
    )
    first, second = inst.applications["f1"]
    assert first == (("d1", frozenset({"c1", "c3"}), "c1"),)
    assert second == (("d2", frozenset({"c1", "c3"}), "c1"), ("d1", frozenset({"c2"}), "c2"))
    assert first[0][1] is second[0][1]


# The trace JSONL of ESDA, SDA and SC and the dumped run_da matching over
# seeded market sets: per set and runner, the sha256 of the outputs, one a
# line.  Each row also counts the ESDA placements that evict two children
# from one daycare and those that evict at two or more daycares, so the
# eviction order inside one placement is pinned as well.
def _pin_markets(name):
    if name == "random":
        rng = random.Random(1)
        return (helpers.random_instance(rng, 12) for _ in range(3000))
    return [gen_instance(MarketConfig(n=500, phi=float(name.removeprefix("n500-phi")), seed=0))]


PINNED_OUTPUTS = [
    ("random", 35, 41, {
        "esda": "27c9d5dce0117ecb389b4a66f9da4e65c828e50d19bd2ca7cfc133755f744c62",
        "sda": "ecfd12e1d164de12854d95b27b3cfec83404f8d080ef09955f7abae0b55a8e7b",
        "sc": "c5f59590ce837baf9daded834d2c674cea5f2812bd9cf33fa09b74c5761b5ba0",
        "da": "bf91803237696c6ee7764f86d0ccad591c8c172985a671aa36b7d6ebbd080747",
    }),
    ("n500-phi0", 0, 85, {
        "esda": "76157824b07df1bc2104658c95a1f75a861f5a6e0c0307f884c719b620302c74",
        "sda": "76157824b07df1bc2104658c95a1f75a861f5a6e0c0307f884c719b620302c74",
        "sc": "8806a6a085e5b630c00a3b29797f596efcf3a27c6dad84d445d965e4f083db62",
        "da": "b06ab5b9cd1904d5e5524ed8f79ba383cbd442737e66940055d8a6a7a714afa8",
    }),
    ("n500-phi0.5", 0, 69, {
        "esda": "75a84b23cefdc730ee0c7a7111ccf7c79f9e3f97bb70b94a89dfc197a0da1d77",
        "sda": "75a84b23cefdc730ee0c7a7111ccf7c79f9e3f97bb70b94a89dfc197a0da1d77",
        "sc": "2660326e74f87aa895098f1611052feaadc0c592d6d5b57555590248bd99d67c",
        "da": "7422c71ce51a2a3cfc5ba5570123ca87bc6e9724689f95e434398b8e0c1f1186",
    }),
    ("n500-phi1", 0, 9, {
        "esda": "d078e7bc3c814df5156d47ad034b3f414e92d247a2f91cdc130955f80de9f2ae",
        "sda": "d078e7bc3c814df5156d47ad034b3f414e92d247a2f91cdc130955f80de9f2ae",
        "sc": "4bfdfc9bfb94f8744948906f9daec115803a6a041a16967fc3ad9e5613ad3ecf",
        "da": "7911b3daed845a62fa22a85ba93847bb6f771de32a6a6dc4bd1197c52ded0472",
    }),
]


@pytest.mark.parametrize("name, same_daycare, two_daycares, digests", PINNED_OUTPUTS, ids=[p[0] for p in PINNED_OUTPUTS])
def test_outputs_are_pinned(name, same_daycare, two_daycares, digests):
    hashes = {algo: hashlib.sha256() for algo in digests}
    counts = [0, 0]
    for inst in _pin_markets(name):
        traces = {"esda": run_esda(inst).trace, "sda": run_sda(inst).trace, "sc": run_sc(inst).trace}
        for algo, trace in traces.items():
            hashes[algo].update(trace.to_jsonl().encode() + b"\n")
        hashes["da"].update(dump_matching(run_da(inst).matching).encode() + b"\n")
        for event in traces["esda"]:
            if event["kind"] == "place":
                daycares = [d for _, d, _ in event["evicted"]]
                counts[0] += len(set(daycares)) < len(daycares)
                counts[1] += len(set(daycares)) > 1
    assert counts == [same_daycare, two_daycares]
    assert {algo: h.hexdigest() for algo, h in hashes.items()} == digests
