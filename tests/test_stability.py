import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from sibmatch.algorithms import run_esda
from sibmatch.model import Daycare, Matching
from sibmatch.stability import (
    MODES,
    StabilityPreconditionError,
    choice,
    find_blocking_coalition,
    is_stable,
    select,
)


def test_choice_selects_highest_priority(rotation_mkt):
    d2 = rotation_mkt.daycares_by_id["d2"]
    assert choice(d2, {"c2", "c3"}) == {"c3"}


def test_choice_trivial_cases(rotation_mkt):
    d2 = rotation_mkt.daycares_by_id["d2"]
    assert choice(d2, set()) == set()
    zero = Daycare("dz", 0, ("c1",))
    assert choice(zero, {"c1", "c2"}) == set()


def test_choice_invariants():
    rng = random.Random(3)
    for _ in range(200):
        inst = helpers.random_instance(rng)
        children = list(inst.family_of)
        for dc in inst.daycares:
            applicants = {c for c in children if rng.random() < 0.5}
            sel = choice(dc, applicants)
            assert sel <= applicants
            if dc.unlimited:
                assert sel == applicants
                continue
            acceptable = {c for c in applicants if c in dc.priority}
            assert all(c in dc.priority for c in sel)
            assert len(sel) == min(len(acceptable), dc.quota)


@st.composite
def choice_problems(draw):
    """(seated, applicants, rank, quota) as the engine and the scans pass
    them: disjoint sets, every seated child acceptable, applicants maybe
    not; quota None is the dummy."""
    children = [f"c{i}" for i in range(draw(st.integers(0, 8)))]
    ranked = draw(st.permutations(children))
    rank = {c: i for i, c in enumerate(ranked) if draw(st.booleans())}
    quota = draw(st.one_of(st.none(), st.integers(0, 5)))
    seated = {c for c in rank if draw(st.booleans())}
    applicants = frozenset(c for c in children if c not in seated and draw(st.booleans()))
    return seated, applicants, rank, quota


def brute_force_choice(pool, rank, quota):
    """The subset of acceptable pool children of the largest feasible size
    whose sorted priority positions are lexicographically smallest."""
    acceptable = [c for c in pool if c in rank]
    size = min(quota, len(acceptable))
    return set(min(itertools.combinations(acceptable, size), key=lambda s: sorted(rank[c] for c in s)))


@settings(max_examples=500, deadline=None)
@given(problem=choice_problems())
@example(problem=({"c0", "c1"}, frozenset({"c2"}), {"c0": 2, "c1": 0, "c2": 1}, 2))  # full roster
@example(problem=(set(), frozenset({"c0", "c1"}), {"c1": 0}, 2))  # empty roster, unacceptable
@example(problem=({"c0"}, frozenset({"c1"}), {"c0": 1, "c1": 0}, 0))  # quota 0
def test_select_matches_brute_force_greedy(problem):
    seated, applicants, rank, quota = problem
    refused, evicted = select(seated, applicants, rank, quota)
    if quota is None:
        assert not refused and not evicted
        return
    chosen = brute_force_choice(seated | applicants, rank, quota)
    assert set(refused) == applicants - chosen
    assert list(evicted) == sorted(seated - chosen, key=rank.__getitem__)


# Witnesses on seeded feasible IR matchings, keyed (markets, mode): the
# leading 16 hex digits of the sha256 of the JSON list of
# [family, tuple_index, sorted [daycare, sorted accepted]] or null, and
# how many matchings were blocked.  "random" draws 120 helpers.random_instance
# markets, "oracle" takes the first 120 criterion-3 markets; four matchings
# each, all from one random.Random(41).
PINNED_WITNESSES = {
    ("random", "ours"): ("bcc534bd32df949e", 178),
    ("random", "abh"): ("719f911686a19943", 177),
    ("oracle", "ours"): ("57ab85e14a83ecd0", 479),
    ("oracle", "abh"): ("f13fed3a11c7f9b2", 479),
}


@pytest.mark.parametrize("markets, mode", sorted(PINNED_WITNESSES))
def test_witnesses_are_pinned(markets, mode):
    rng = random.Random(41)
    witnesses, blocked = [], 0
    for k in range(120):
        inst = helpers.random_instance(rng) if markets == "random" else helpers.oracle_market(k)
        for _ in range(4):
            m = helpers.random_feasible_ir_matching(rng, inst)
            w = find_blocking_coalition(inst, m, mode)
            if w is None:
                witnesses.append(None)
                continue
            blocked += 1
            assert all(type(v) is frozenset for v in w.accepted.values())
            accepted = sorted([d, sorted(v)] for d, v in w.accepted.items())
            witnesses.append([w.family, w.tuple_index, accepted])
    digest = hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()[:16]
    assert (digest, blocked) == PINNED_WITNESSES[markets, mode]


def test_two_notions_split_on_seat_transfer(seat_transfer_mkt):
    seat_transfer_matters = Matching(seat_transfer_mkt, {"c1": "d2", "c2": "d0"})
    assert is_stable(seat_transfer_mkt, seat_transfer_matters, "abh")
    assert not is_stable(seat_transfer_mkt, seat_transfer_matters, "ours")
    witness = find_blocking_coalition(seat_transfer_mkt, seat_transfer_matters, "ours")
    assert witness.family == "f1"
    assert witness.tuple_index == 0
    assert find_blocking_coalition(seat_transfer_mkt, seat_transfer_matters, "abh") is None

    top = Matching(seat_transfer_mkt, {"c1": "d1", "c2": "d2"})
    assert is_stable(seat_transfer_mkt, top, "ours")
    assert is_stable(seat_transfer_mkt, top, "abh")


def test_weak_only_matching_blocked_with_seat_transfer(weak_only_mkt):
    m = Matching(weak_only_mkt, {"c1": "d2", "c2": "d3", "c3": "d0"})
    witness = find_blocking_coalition(weak_only_mkt, m, "ours")
    assert witness is not None
    assert (witness.family, witness.tuple_index) == ("f1", 0)
    assert find_blocking_coalition(weak_only_mkt, m, "abh") is None


def test_rotation_market_candidates_all_blocked(rotation_mkt):
    mu = {
        "mu1": {"c1": "d1", "c2": "d2", "c3": "d0", "c4": "d0", "c5": "d0", "c6": "d0"},
        "mu2": {"c1": "d0", "c2": "d0", "c3": "d2", "c4": "d3", "c5": "d0", "c6": "d0"},
        "mu3": {"c1": "d0", "c2": "d0", "c3": "d0", "c4": "d0", "c5": "d3", "c6": "d1"},
    }
    blockers = {}
    for name, assignment in mu.items():
        m = Matching(rotation_mkt, assignment)
        assert not is_stable(rotation_mkt, m, "ours")
        w = find_blocking_coalition(rotation_mkt, m, "ours")
        blockers[name] = w.family
    assert blockers == {"mu1": "f2", "mu2": "f3", "mu3": "f1"}


def test_rotation_market_witness_detail(rotation_mkt):
    m = Matching(
        rotation_mkt, {"c1": "d1", "c2": "d2", "c3": "d0", "c4": "d0", "c5": "d0", "c6": "d0"}
    )
    w = find_blocking_coalition(rotation_mkt, m, "ours")
    assert w.tuple_index == 0
    assert w.accepted["d2"] == frozenset({"c3"})
    assert w.accepted["d3"] == frozenset({"c4"})


def test_self_cycle_market_stable_matching_exists(self_cycle_mkt):
    prime = Matching(self_cycle_mkt, {"c1": "d0", "c2": "d0", "c3": "d2", "c4": "d1"})
    assert is_stable(self_cycle_mkt, prime, "ours")


def test_all_unmatched_blocked_by_lone_singleton():
    inst = helpers.make_instance(
        [("f1", ["c1"], [["d1"]])],
        [("d1", 1, ["c1"])],
    )
    m = Matching.all_unmatched(inst)
    assert not is_stable(inst, m, "ours")
    w = find_blocking_coalition(inst, m, "ours")
    assert (w.family, w.tuple_index) == ("f1", 0)


def test_precondition_errors(rotation_mkt):
    infeasible = Matching(
        rotation_mkt, {"c1": "d1", "c2": "d1", "c3": "d0", "c4": "d0", "c5": "d0", "c6": "d0"}
    )
    with pytest.raises(StabilityPreconditionError, match="infeasible"):
        find_blocking_coalition(rotation_mkt, infeasible, "ours")
    not_ir = Matching(
        rotation_mkt, {"c1": "d2", "c2": "d1", "c3": "d0", "c4": "d0", "c5": "d0", "c6": "d0"}
    )
    with pytest.raises(StabilityPreconditionError, match="rational"):
        find_blocking_coalition(rotation_mkt, not_ir, "ours")
    # is_stable treats them as plain instability, not an error
    assert not is_stable(rotation_mkt, infeasible, "ours")
    assert not is_stable(rotation_mkt, not_ir, "ours")


@pytest.mark.parametrize("mode", MODES)
def test_matching_of_another_instance_is_rejected(rotation_mkt, seat_transfer_mkt, mode):
    # c3..c6 missing (this raised a bare KeyError) and, the other way
    # round, c3..c6 extra (the scan ran on the other market's rosters)
    for instance, other in ((rotation_mkt, seat_transfer_mkt), (seat_transfer_mkt, rotation_mkt)):
        matching = Matching.all_unmatched(other)
        with pytest.raises(StabilityPreconditionError, match="other children"):
            find_blocking_coalition(instance, matching, mode)
        assert is_stable(instance, matching, mode) is False


@pytest.mark.parametrize("mode", MODES)
def test_failed_run_has_no_stable_matching(self_cycle_mkt, mode):
    outcome = run_esda(self_cycle_mkt)
    assert not outcome.succeeded and outcome.matching is None
    assert is_stable(self_cycle_mkt, outcome.matching, mode) is False
    with pytest.raises(StabilityPreconditionError, match="no matching"):
        find_blocking_coalition(self_cycle_mkt, outcome.matching, mode)


def test_bad_mode_rejected(rotation_mkt):
    m = Matching.all_unmatched(rotation_mkt)
    with pytest.raises(ValueError, match="mode"):
        find_blocking_coalition(rotation_mkt, m, "strict")


def test_dummy_positions_skip_condition_two():
    # c2 applies to d0 in the blocking tuple: only d1 is checked
    inst = helpers.make_instance(
        [("f1", ["c1", "c2"], [["d1", "d0"], ["d2", "d2"]])],
        [("d1", 1, ["c1"]), ("d2", 2, ["c1", "c2"])],
    )
    m = Matching(inst, {"c1": "d2", "c2": "d2"})
    w = find_blocking_coalition(inst, m, "ours")
    assert w is not None
    assert (w.family, w.tuple_index) == ("f1", 0)
    assert set(w.accepted) == {"d1"}


def test_duplicate_daycare_in_tuple_checked_once():
    # both siblings target d1 (quota 2): one condition with both applicants
    inst = helpers.make_instance(
        [("f1", ["c1", "c2"], [["d1", "d1"]])],
        [("d1", 2, ["c1", "c2"])],
    )
    m = Matching.all_unmatched(inst)
    w = find_blocking_coalition(inst, m, "ours")
    assert w is not None
    assert w.accepted["d1"] == frozenset({"c1", "c2"})


def test_stability_implies_abh_stability_property():
    rng = random.Random(2024)
    checked = 0
    for _ in range(300):
        inst = helpers.random_instance(rng)
        m = helpers.random_feasible_ir_matching(rng, inst)
        if is_stable(inst, m, "ours"):
            assert is_stable(inst, m, "abh")
            checked += 1
    assert checked > 20  # the loop must actually exercise stable cases


def test_first_witness_scan_order():
    # two families can block; the family-id scan returns the earlier one
    inst = helpers.make_instance(
        [
            ("fa", ["c1"], [["d1"]]),
            ("fb", ["c2"], [["d2"]]),
        ],
        [("d1", 1, ["c1"]), ("d2", 1, ["c2"])],
    )
    m = Matching.all_unmatched(inst)
    w = find_blocking_coalition(inst, m, "ours")
    assert w.family == "fa"
