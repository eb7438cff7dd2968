import random

import pytest

import helpers
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
from sibmatch.market import MarketConfig, gen_instance
from sibmatch.model import DUMMY_ID, is_feasible, is_individually_rational
from sibmatch.stability import is_stable
from sibmatch.trace import replay_trace


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
    m = run_da(self_cycle_mkt)
    assert m["c3"] == "d1"
    assert m["c4"] == "d2"
    assert m["c1"] == DUMMY_ID and m["c2"] == DUMMY_ID


def test_da_phase_of_sibling_cycle_market(sibling_cycle_mkt):
    m = run_da(sibling_cycle_mkt)
    assert m["c3"] == "d1"


def test_da_empty_scope(self_cycle_mkt):
    m = run_da(self_cycle_mkt, scope=())
    assert all(d == DUMMY_ID for d in m.assignment.values())


def test_da_rejects_multi_child_scope(self_cycle_mkt):
    with pytest.raises(ValueError, match="children"):
        run_da(self_cycle_mkt, scope=("f1",))
    with pytest.raises(ValueError, match="unknown"):
        run_da(self_cycle_mkt, scope=("nope",))


def test_da_output_feasible_ir_stable_on_singleton_markets():
    rng = random.Random(5)
    for seed in range(30):
        inst = gen_instance(
            MarketConfig(n=rng.randint(4, 16), phi=1.0, alpha=0.0, L=2,
                         daycare_ratio=0.6, seed=seed)
        )
        m = run_da(inst)
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


def test_sc_rejects_bad_permutation(order_flip_mkt):
    with pytest.raises(ValueError, match="permutation"):
        run_sc(order_flip_mkt, pi=(0, 0))


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
        baseline = run_da(inst)
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
        for runner in (run_sda, run_esda, run_sc):
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


def test_trace_jsonl_roundtrip(restart_mkt):
    from sibmatch.trace import ExecutionTrace

    out = run_esda(restart_mkt)
    text = out.trace.to_jsonl()
    again = ExecutionTrace.from_jsonl(text)
    assert again.events == out.trace.events
