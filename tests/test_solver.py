import hashlib
import random

import pytest

import helpers
from sibmatch.algorithms import run_esda
from sibmatch.market import MarketConfig, gen_instance
from sibmatch.model import DUMMY_ID, dump_matching
from sibmatch.solver import SearchBudget, find_stable
from sibmatch.stability import is_stable


def test_rotation_market_none_exists(rotation_mkt):
    result = find_stable(rotation_mkt, "ours")
    assert result.status == "none-exists"
    assert result.matching is None


def test_self_cycle_market_found_expected(self_cycle_mkt):
    result = find_stable(self_cycle_mkt, "ours")
    assert result.found
    m = result.matching
    assert m["c3"] == "d2" and m["c4"] == "d1"
    assert m["c1"] == DUMMY_ID and m["c2"] == DUMMY_ID
    assert is_stable(self_cycle_mkt, m, "ours")


def test_sibling_cycle_market_none_exists(sibling_cycle_mkt):
    assert find_stable(sibling_cycle_mkt, "ours").status == "none-exists"


def test_weak_only_market_modes_disagree(weak_only_mkt):
    assert find_stable(weak_only_mkt, "ours").status == "none-exists"
    abh = find_stable(weak_only_mkt, "abh")
    assert abh.found
    assert is_stable(weak_only_mkt, abh.matching, "abh")


def test_unknown_mode_rejected(weak_only_mkt):
    # any mode but "ours" once ran the ABH search, and "OURS" found a matching
    with pytest.raises(ValueError, match="mode must be one of"):
        find_stable(weak_only_mkt, "OURS")


# The search on markets of the criterion-3 set, keyed (k, mode): status,
# nodes searched and the leading 16 hex digits of the sha256 of the dumped
# matching.  Markets 25, 125 and 134 ("ours") are among the largest
# searches; 134 is the one whose two modes disagree.
PINNED_SEARCHES = {
    (0, "ours"): ("found", 9, "23ec49d5f3a58021"),
    (0, "abh"): ("found", 9, "23ec49d5f3a58021"),
    (2, "ours"): ("found", 750, "58e4323ddeb1fe2f"),
    (2, "abh"): ("found", 750, "58e4323ddeb1fe2f"),
    (6, "ours"): ("found", 14230, "c22f8e826fa26cde"),
    (6, "abh"): ("found", 14230, "c22f8e826fa26cde"),
    (7, "ours"): ("found", 4921, "2667dad529aaa1b5"),
    (7, "abh"): ("found", 4921, "2667dad529aaa1b5"),
    (25, "ours"): ("none-exists", 170838, None),
    (25, "abh"): ("none-exists", 170838, None),
    (86, "ours"): ("found", 3132, "b9660aa73d23cc03"),
    (86, "abh"): ("found", 3132, "b9660aa73d23cc03"),
    (125, "ours"): ("found", 177340, "5dfcb5f1d518a347"),
    (125, "abh"): ("found", 177340, "5dfcb5f1d518a347"),
    (134, "ours"): ("none-exists", 443231, None),
    (134, "abh"): ("found", 27262, "7b6b3cb6997595c5"),
}


@pytest.mark.parametrize("k, mode", sorted(PINNED_SEARCHES), ids=[f"market{k}-{m}" for k, m in sorted(PINNED_SEARCHES)])
def test_searches_are_pinned(k, mode):
    result = find_stable(helpers.oracle_market(k), mode)
    digest = None
    if result.matching is not None:
        digest = hashlib.sha256(dump_matching(result.matching).encode()).hexdigest()[:16]
    assert (result.status, result.nodes, digest) == PINNED_SEARCHES[k, mode]


def test_budget_exceeded(rotation_mkt):
    result = find_stable(rotation_mkt, "ours", SearchBudget(max_nodes=2, max_millis=60_000))
    assert result.status == "budget-exceeded"
    assert result.nodes >= 2


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_millis=-1)


def test_found_matchings_are_stable_random():
    rng = random.Random(17)
    for _ in range(60):
        inst = helpers.random_instance(rng, max_children=8)
        for mode in ("ours", "abh"):
            result = find_stable(inst, mode)
            if result.found:
                assert is_stable(inst, result.matching, mode)


def test_mode_monotonicity_random():
    # a stable matching is ABH-stable, so found(ours) implies found(abh)
    rng = random.Random(23)
    for _ in range(80):
        inst = helpers.random_instance(rng, max_children=8)
        ours = find_stable(inst, "ours")
        abh = find_stable(inst, "abh")
        assert ours.status != "budget-exceeded" and abh.status != "budget-exceeded"
        if ours.found:
            assert abh.found


def test_oracle_dominance_over_esda():
    # wherever ESDA succeeds, exhaustive search must confirm existence
    wins = 0
    for seed in range(40):
        inst = gen_instance(
            MarketConfig(
                n=12, phi=1.0, alpha=0.5, L=2, sigma=2.0, daycare_ratio=0.5,
                sibling_pref_length=3, joint_pref_length=4, seed=seed,
            )
        )
        out = run_esda(inst)
        if out.succeeded:
            wins += 1
            assert find_stable(inst, "ours").found
    assert wins > 10


def test_esda_incomplete_but_solver_finds(self_cycle_mkt):
    # the known gap: heuristic fails while a stable matching exists
    assert not run_esda(self_cycle_mkt).succeeded
    assert find_stable(self_cycle_mkt, "ours").found
