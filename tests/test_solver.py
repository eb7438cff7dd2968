import hashlib
import itertools
import json
import random

import pytest

import helpers
from sibmatch.algorithms import run_esda
from sibmatch.cli import main
from sibmatch.market import MarketConfig, gen_instance
from sibmatch.model import DUMMY_ID, Matching, dump_instance, dump_matching
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
# nodes searched, nodes the search took before it pruned the subtrees in
# which the family just placed must block, and the leading 16 hex digits
# of the sha256 of the dumped matching.  Markets 25, 125 and 134 ("ours")
# were among the largest searches; 134 is the one whose two modes disagree.
PINNED_SEARCHES = {
    (0, "ours"): ("found", 8, 9, "23ec49d5f3a58021"),
    (0, "abh"): ("found", 8, 9, "23ec49d5f3a58021"),
    (2, "ours"): ("found", 12, 750, "58e4323ddeb1fe2f"),
    (2, "abh"): ("found", 12, 750, "58e4323ddeb1fe2f"),
    (6, "ours"): ("found", 33, 14230, "c22f8e826fa26cde"),
    (6, "abh"): ("found", 33, 14230, "c22f8e826fa26cde"),
    (7, "ours"): ("found", 15, 4921, "2667dad529aaa1b5"),
    (7, "abh"): ("found", 15, 4921, "2667dad529aaa1b5"),
    (25, "ours"): ("none-exists", 65, 170838, None),
    (25, "abh"): ("none-exists", 65, 170838, None),
    (86, "ours"): ("found", 19, 3132, "b9660aa73d23cc03"),
    (86, "abh"): ("found", 19, 3132, "b9660aa73d23cc03"),
    (125, "ours"): ("found", 17, 177340, "5dfcb5f1d518a347"),
    (125, "abh"): ("found", 17, 177340, "5dfcb5f1d518a347"),
    (134, "ours"): ("none-exists", 26, 443231, None),
    (134, "abh"): ("found", 26, 27262, "7b6b3cb6997595c5"),
}


@pytest.mark.parametrize("k, mode", sorted(PINNED_SEARCHES), ids=[f"market{k}-{m}" for k, m in sorted(PINNED_SEARCHES)])
def test_searches_are_pinned(k, mode):
    status, nodes, unpruned_nodes, pinned_digest = PINNED_SEARCHES[k, mode]
    assert nodes <= unpruned_nodes
    result = find_stable(helpers.oracle_market(k), mode)
    digest = None
    if result.matching is not None:
        digest = hashlib.sha256(dump_matching(result.matching).encode()).hexdigest()[:16]
    assert (result.status, result.nodes, digest) == (status, nodes, pinned_digest)


def test_rotation_market_nodes(rotation_mkt):
    # 10 nodes without the prune; test_budget_exceeded's max_nodes=2
    # must stay below this
    assert find_stable(rotation_mkt, "ours").nodes == 8


def test_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    # each singleton family has a quota-1 daycare of its own, so a stable
    # matching is trivial, but the search has one level per family
    n = 1500
    inst = helpers.make_instance(
        [(f"f{k}", [f"c{k}"], [[f"d{k}"]]) for k in range(1, n + 1)],
        [(f"d{k}", 1, [f"c{k}"]) for k in range(1, n + 1)],
    )
    result = find_stable(inst, "ours")
    assert (result.status, result.nodes) == ("found", n + 1)
    assert all(result.matching[f"c{k}"] == f"d{k}" for k in range(1, n + 1))
    path = tmp_path / "wide.json"
    path.write_text(dump_instance(inst))
    assert main(["exists", "--instance", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "status": "found", "nodes": n + 1, "matching": {"assignment": result.matching.assignment}
    }


def _exists_by_enumeration(instance, mode) -> bool:
    """Whether any leaf of the full product of options is stable."""
    families = instance.families
    options = [
        list(f.preferences) + ([] if f.all_dummy in f.preferences else [f.all_dummy])
        for f in families
    ]
    for combo in itertools.product(*options):
        assign = {c: d for f, tup in zip(families, combo) for c, d in zip(f.children, tup)}
        if is_stable(instance, Matching(instance, assign), mode):
            return True
    return False


def test_existence_matches_brute_force():
    markets = [
        helpers.seat_transfer_market(),
        helpers.rotation_market(),
        helpers.weak_only_market(),
        helpers.restart_success_market(),
        helpers.self_cycle_market(),
        helpers.sibling_cycle_market(),
        helpers.order_flip_market(),
    ]
    rng = random.Random(5)
    markets += [helpers.random_instance(rng, max_children=10) for _ in range(1000)]
    for mode in ("ours", "abh"):
        none_exists = 0
        for k, instance in enumerate(markets):
            exists = _exists_by_enumeration(instance, mode)
            assert find_stable(instance, mode).found == exists, (k, mode)
            none_exists += not exists
        assert none_exists >= 5, mode


def test_budget_exceeded(rotation_mkt):
    result = find_stable(rotation_mkt, "ours", SearchBudget(max_nodes=2, max_millis=60_000))
    assert result.status == "budget-exceeded"
    assert result.nodes >= 2


def test_budget_validation(rotation_mkt):
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_millis=-1)
    for field, value in (("max_nodes", "5"), ("max_nodes", 1.5), ("max_millis", True)):
        with pytest.raises(ValueError, match=field):
            SearchBudget(**{field: value})
    with pytest.raises(ValueError, match="budget"):
        find_stable(rotation_mkt, "ours", 5)


def test_deadline_ends_the_search():
    inst = gen_instance(
        MarketConfig(
            n=60, phi=1.0, alpha=0.6, L=2, sigma=2.0, daycare_ratio=0.5,
            sibling_pref_length=3, joint_pref_length=4, seed=4,
        )
    )
    assert find_stable(inst, "ours").nodes == 7808
    # the clock is read every 1,024 nodes, far below the node limit
    result = find_stable(inst, "ours", SearchBudget(max_nodes=10**6, max_millis=1))
    assert result.status == "budget-exceeded"
    assert result.nodes == 1024


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
