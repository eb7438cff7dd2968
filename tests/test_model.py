import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from sibmatch.market import MarketConfig, gen_instance
from sibmatch.model import (
    DUMMY_ID,
    Daycare,
    Family,
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    dump_instance,
    dump_matching,
    instance_to_dict,
    is_feasible,
    is_individually_rational,
    load_instance,
    load_matching,
)

ROTATION_JSON = {
    "families": [
        {"id": "f1", "children": ["c1", "c2"], "preferences": [["d1", "d2"]]},
        {"id": "f2", "children": ["c3", "c4"], "preferences": [["d2", "d3"]]},
        {"id": "f3", "children": ["c5", "c6"], "preferences": [["d3", "d1"]]},
    ],
    "daycares": [
        {"id": "d0", "quota": None, "priority": []},
        {"id": "d1", "quota": 1, "priority": ["c1", "c6", "c3", "c2", "c5", "c4"]},
        {"id": "d2", "quota": 1, "priority": ["c1", "c6", "c3", "c2", "c5", "c4"]},
        {"id": "d3", "quota": 1, "priority": ["c1", "c6", "c3", "c2", "c5", "c4"]},
    ],
    "meta": {},
}

DELETE = object()


def mutate(valid, path, value):
    """A deep copy of ``valid`` with the field at ``path`` set to ``value``
    (or deleted, for ``DELETE``)."""
    data = json.loads(json.dumps(valid))
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return data


def test_load_rotation_market_counts():
    inst = load_instance(json.dumps(ROTATION_JSON))
    assert len(inst.families) == 3
    assert len(inst.daycares) == 4
    assert all(d.quota == 1 for d in inst.daycares if d.id != DUMMY_ID)
    assert inst.daycares_by_id[DUMMY_ID].unlimited


def test_load_minimal_instance():
    inst = load_instance(
        {
            "families": [{"id": "f1", "children": ["c1"], "preferences": []}],
            "daycares": [
                {"id": "d0", "quota": None, "priority": []},
                {"id": "d1", "quota": 1, "priority": ["c1"]},
            ],
        }
    )
    assert inst.num_children == 1
    assert inst.singleton_families == ("f1",)
    assert inst.sibling_families == ()


def test_load_dangling_daycare_reference():
    bad = json.loads(json.dumps(ROTATION_JSON))
    bad["families"][0]["preferences"] = [["d9", "d2"]]
    with pytest.raises(InstanceError, match=r"families\[f1\].preferences\[0\].*d9"):
        load_instance(bad)


def test_load_missing_dummy():
    bad = json.loads(json.dumps(ROTATION_JSON))
    bad["daycares"] = bad["daycares"][1:]
    with pytest.raises(InstanceError, match="d0"):
        load_instance(bad)


def test_duplicate_ids_rejected():
    bad = json.loads(json.dumps(ROTATION_JSON))
    bad["families"].append(bad["families"][0])
    with pytest.raises(InstanceError, match="duplicate"):
        load_instance(bad)

    bad = json.loads(json.dumps(ROTATION_JSON))
    bad["daycares"].append(bad["daycares"][1])
    with pytest.raises(InstanceError, match="duplicate"):
        load_instance(bad)


def test_child_in_two_families_rejected():
    bad = json.loads(json.dumps(ROTATION_JSON))
    bad["families"][1]["children"] = ["c1", "c4"]
    with pytest.raises(InstanceError, match="c1"):
        load_instance(bad)


def test_tuple_length_mismatch_rejected():
    bad = json.loads(json.dumps(ROTATION_JSON))
    bad["families"][0]["preferences"] = [["d1"]]
    with pytest.raises(InstanceError, match="length"):
        load_instance(bad)


def test_load_reads_a_missing_or_null_meta_as_empty():
    for value in (DELETE, None):
        assert load_instance(mutate(ROTATION_JSON, ("meta",), value)).meta == {}


def test_duplicate_preference_tuple_rejected():
    bad = json.loads(json.dumps(ROTATION_JSON))
    bad["families"][0]["preferences"] = [["d1", "d2"], ["d1", "d2"]]
    with pytest.raises(InstanceError, match="duplicate tuple"):
        load_instance(bad)


def test_unlimited_quota_only_for_dummy():
    bad = json.loads(json.dumps(ROTATION_JSON))
    bad["daycares"][1]["quota"] = None
    with pytest.raises(InstanceError, match="unlimited"):
        load_instance(bad)

    bad = json.loads(json.dumps(ROTATION_JSON))
    bad["daycares"][0]["quota"] = 0
    with pytest.raises(InstanceError, match=r"daycares\[d0\].quota.*unlimited"):
        load_instance(bad)


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("families", 0, "id"), 5, r"families\[0\].id"),
        (("families",), 5, "families"),
        (("daycares",), 5, "daycares"),
        (("daycares", 1, "id"), ["d1"], r"daycares\[1\].id"),
        (("meta",), [1], "meta"),
        # these four used to load as an empty meta
        (("meta",), [], "meta"),
        (("meta",), 0, "meta"),
        (("meta",), False, "meta"),
        (("meta",), "", "meta"),
    ],
)
def test_load_wrong_types_rejected(path, value, where):
    with pytest.raises(InstanceError, match=where):
        load_instance(mutate(ROTATION_JSON, path, value))


@pytest.mark.parametrize(
    "families, daycares, where",
    [
        ([Family(5, ("c1",), ()), Family("f2", ("c2",), ())], [], r"families\[0\].id"),
        ([Family("f1", ("c1", ("c2",)), ())], [], r"families\[f1\].children\[1\]"),
        ([Family("f1", ("c1",), ())], [Daycare(None, 1, ())], r"daycares\[1\].id"),
    ],
    ids=["family", "child", "daycare"],
)
def test_instance_rejects_non_string_ids(families, daycares, where):
    with pytest.raises(InstanceError, match=where):
        Instance(families, [Daycare(DUMMY_ID, None, ())] + daycares)


ONE_CHILD = [Family("f1", ("c1",), ())]


@pytest.mark.parametrize(
    "families, daycares, meta, where",
    [
        (ONE_CHILD, [Daycare("d1", 1, (["c1"],))], None, r"daycares\[d1\].priority\[0\]"),
        (ONE_CHILD, [Daycare("d1", "2", ("c1",))], None, r"daycares\[d1\].quota"),
        (ONE_CHILD, [Daycare("d1", True, ("c1",))], None, r"daycares\[d1\].quota"),
        (ONE_CHILD, [Daycare("d1", 1.5, ("c1",))], None, r"daycares\[d1\].quota"),
        (ONE_CHILD, [Daycare("d1", 10**400, ("c1",))], None, r"daycares\[d1\].quota: expected an integer or null"),
        (ONE_CHILD, [Daycare("d1", -1, ("c1",))], None, r"daycares\[d1\].quota: negative quota -1"),
        ([Family("f1", ("c1",), (["d0"],))], [], None, r"families\[f1\].preferences\[0\]"),
        ([Family("f1", ("c1",), ((["d0"],),))], [], None, r"families\[f1\].preferences\[0\]"),
        ([Family("f1", ("c1",), None)], [], None, r"families\[f1\].preferences: expected a tuple"),
        ([Family("f1", 5, ())], [], None, r"families\[f1\].children: expected a tuple"),
        (ONE_CHILD, [Daycare("d1", 1, None)], None, r"daycares\[d1\].priority: expected a tuple"),
        (["f1"], [], None, r"families\[0\]: expected a Family"),
        (ONE_CHILD, ["d1"], None, r"daycares\[1\]: expected a Daycare"),
        (ONE_CHILD, [], [1], r"meta: expected a mapping"),
        (None, [], None, r"families: expected an iterable"),
        (ONE_CHILD, [Daycare("d1", 1, ("c1", "c1"))], None, r"daycares\[d1\].priority: duplicate child 'c1'"),
        ([Family("f1", (), ())], [], None, r"families\[f1\].children: empty"),
    ],
    ids=[
        "priority-list", "quota-str", "quota-bool", "quota-float", "quota-huge", "quota-negative", "tuple-list", "daycare-list",
        "preferences-none", "children-int", "priority-none", "family-str", "daycare-str",
        "meta-list", "families-none", "priority-duplicate", "children-empty",
    ],
)
def test_instance_rejects_wrong_field_types(families, daycares, meta, where):
    with pytest.raises(InstanceError, match=where):
        Instance(families, [Daycare(DUMMY_ID, None, ())] + daycares, meta=meta)


def test_roundtrip_golden_and_random():
    instances = [
        helpers.seat_transfer_market(),
        helpers.rotation_market(),
        helpers.restart_success_market(),
    ]
    rng = random.Random(42)
    instances += [helpers.random_instance(rng) for _ in range(100)]
    for inst in instances:
        twin = load_instance(dump_instance(inst))
        assert twin.families == inst.families
        assert twin.daycares == inst.daycares
        assert twin.meta == inst.meta
        assert dump_instance(twin) == dump_instance(inst)


def _applicant_pairs(inst):
    """Every (daycare, child) pair some tuple of the child's family names."""
    return {
        (d, c)
        for fam in inst.families
        for tup in fam.preferences
        for c, d in zip(fam.children, tup)
        if d != DUMMY_ID
    }


def _check_rank_tables(inst):
    acceptable = {
        (d, c) for d, c in _applicant_pairs(inst) if c in inst.daycares_by_id[d].priority
    }
    assert {(d, c) for d, table in inst.rank.items() for c in table} == acceptable
    for d, c in acceptable:
        assert inst.rank[d][c] == inst.daycares_by_id[d].priority.index(c)
    for dc in inst.daycares:
        for c in inst.family_of:
            assert inst.is_acceptable(dc.id, c) == (dc.id == DUMMY_ID or c in dc.priority)
    # a daycare the market lacks ranks no child
    assert not any(inst.is_acceptable("nope", c) for c in inst.family_of)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rank_tables_hold_the_acceptable_applicant_pairs(seed):
    _check_rank_tables(helpers.random_instance(random.Random(seed)))


@pytest.mark.parametrize("cfg", [
    MarketConfig(n=14, phi=0.5, seed=1),
    MarketConfig(n=60, phi=1.0, alpha=0.5, seed=2),
    MarketConfig(n=200, phi=0.0, seed=3),
], ids=["n14", "n60-phi1", "n200-phi0"])
def test_generated_rank_tables_hold_the_acceptable_applicant_pairs(cfg):
    _check_rank_tables(gen_instance(cfg))


def test_rank_tables_hold_no_other_pairs():
    # a full table per daycare would hold 22,000 entries here
    inst = gen_instance(MarketConfig(n=500, phi=0.5, seed=0))
    assert sum(map(len, inst.rank.values())) == 2_657


def test_matching_roundtrip(rotation_mkt):
    m = Matching(rotation_mkt, {"c1": "d1", "c2": "d2", "c3": "d0", "c4": "d0", "c5": "d0", "c6": "d0"})
    again = load_matching(dump_matching(m), rotation_mkt)
    assert again == m
    assert again.roster("d1") == frozenset({"c1"})


def test_reprs_and_comparison_with_another_type(rotation_mkt):
    m = Matching(rotation_mkt, {"c1": "d1", "c2": "d2", "c3": "d0", "c4": "d0", "c5": "d0", "c6": "d0"})
    assert repr(m) == "Matching(2/6 matched)"
    assert repr(rotation_mkt) == "Instance(3 families, 6 children, 4 daycares)"
    assert (m == "x") is False


def test_matching_requires_totality(rotation_mkt):
    with pytest.raises(MatchingError, match="missing"):
        Matching(rotation_mkt, {"c1": "d1"})
    with pytest.raises(MatchingError, match="unknown child"):
        load_matching(json.dumps({"assignment": {"cX": "d1"}}), rotation_mkt)
    for assignment in (5, ["c1"], {"c1": ["d1"]}):
        with pytest.raises(MatchingError, match="assignment"):
            load_matching({"assignment": assignment}, rotation_mkt)
    # the class checks its own assignment: these raised TypeError and AttributeError
    unhashable = {c: ["d0"] for c in rotation_mkt.family_of}
    for assignment in (unhashable, [("c1", "d0")]):
        with pytest.raises(MatchingError, match="assignment"):
            Matching(rotation_mkt, assignment)


def test_family_assignment_matched_families(restart_mkt):
    m = Matching(
        restart_mkt,
        {"c1": "d1", "c2": "d2", "c3": "d0", "c4": "d0", "c5": "d3", "c6": "d4"},
    )
    assert m.family_tuple(restart_mkt.families_by_id["f1"]) == ("d1", "d2")
    assert m.family_tuple(restart_mkt.families_by_id["f3"]) == ("d3", "d4")


def test_family_assignment_unmatched(rotation_mkt):
    m = Matching.all_unmatched(rotation_mkt)
    assert m.family_tuple(rotation_mkt.families_by_id["f1"]) == ("d0", "d0")


def test_family_assignment_second_family(rotation_mkt):
    mu2 = Matching(
        rotation_mkt,
        {"c1": "d0", "c2": "d0", "c3": "d2", "c4": "d3", "c5": "d0", "c6": "d0"},
    )
    assert mu2.family_tuple(rotation_mkt.families_by_id["f2"]) == ("d2", "d3")


def test_family_assignment_respects_sibling_order():
    rng = random.Random(7)
    for _ in range(50):
        inst = helpers.random_instance(rng)
        m = helpers.random_feasible_ir_matching(rng, inst)
        for fam in inst.families:
            tup = m.family_tuple(fam)
            assert tup == tuple(m[c] for c in fam.children)
        rosters = {d.id: m.roster(d.id) for d in inst.daycares if d.id != DUMMY_ID}
        assert Matching.from_rosters(inst, rosters) == m


def test_is_feasible_cases(rotation_mkt):
    mu1 = Matching(
        rotation_mkt,
        {"c1": "d1", "c2": "d2", "c3": "d0", "c4": "d0", "c5": "d0", "c6": "d0"},
    )
    assert is_feasible(rotation_mkt, mu1)
    crowded = Matching(
        rotation_mkt,
        {"c1": "d1", "c2": "d1", "c3": "d0", "c4": "d0", "c5": "d0", "c6": "d0"},
    )
    assert not is_feasible(rotation_mkt, crowded)
    assert is_feasible(rotation_mkt, Matching.all_unmatched(rotation_mkt))


def test_is_individually_rational_cases(rotation_mkt):
    mu3 = Matching(
        rotation_mkt,
        {"c1": "d0", "c2": "d0", "c3": "d0", "c4": "d0", "c5": "d3", "c6": "d1"},
    )
    assert is_individually_rational(rotation_mkt, mu3)
    unlisted = Matching(
        rotation_mkt,
        {"c1": "d2", "c2": "d1", "c3": "d0", "c4": "d0", "c5": "d0", "c6": "d0"},
    )
    assert not is_individually_rational(rotation_mkt, unlisted)


def test_unacceptable_child_breaks_ir():
    inst = helpers.make_instance(
        [("f1", ["c1"], [["d1"]])],
        [("d1", 1, [])],  # c1 not ranked: unacceptable
    )
    m = Matching(inst, {"c1": "d1"})
    assert not is_individually_rational(inst, m)


def test_all_unmatched_always_feasible_and_ir():
    rng = random.Random(11)
    for _ in range(50):
        inst = helpers.random_instance(rng)
        m = Matching.all_unmatched(inst)
        assert is_feasible(inst, m)
        assert is_individually_rational(inst, m)


def test_tuple_rank_ordering(seat_transfer_mkt):
    fam = seat_transfer_mkt.families_by_id["f1"]
    assert fam.tuple_rank(("d1", "d2")) == 0
    assert fam.tuple_rank(("d2", "d0")) == 1
    assert fam.tuple_rank(("d0", "d0")) == 2  # all-dummy after listed
    assert fam.tuple_rank(("d2", "d1")) == 3  # unlisted after all-dummy


def test_instance_to_dict_stable():
    inst = load_instance(json.dumps(ROTATION_JSON))
    assert instance_to_dict(inst)["families"][0]["id"] == "f1"
    assert dump_instance(inst) == dump_instance(load_instance(dump_instance(inst)))


# -- loader totality: every input gives a result or the documented error ------

IDS = st.sampled_from(["d0", "d1", "d3", "c1", "c2", "c6", "f1"])
SCALARS = st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
JSON_VALUES = st.recursive(
    SCALARS | IDS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(IDS | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
VALID_MATCHING = {
    "assignment": {"c1": "d1", "c2": "d2", "c3": "d0", "c4": "d0", "c5": "d0", "c6": "d0"}
}


def field_paths(value, prefix=()):
    """Every key or index path into a JSON value, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def assert_total(load, data, result_type, error):
    for form in (data, json.dumps(data)):
        try:
            assert isinstance(load(form), result_type)
        except error:
            pass


@settings(max_examples=300, deadline=None)
@given(data=JSON_VALUES)
def test_load_instance_total_on_any_json(data):
    assert_total(load_instance, data, Instance, InstanceError)


@settings(max_examples=300, deadline=None)
@given(
    path=st.sampled_from(list(field_paths(ROTATION_JSON))),
    value=st.just(DELETE) | JSON_VALUES,
)
def test_load_instance_total_on_one_field_mutations(path, value):
    assert_total(load_instance, mutate(ROTATION_JSON, path, value), Instance, InstanceError)


@settings(max_examples=300, deadline=None)
@given(
    path=st.sampled_from(list(field_paths(VALID_MATCHING))),
    value=st.just(DELETE) | JSON_VALUES,
    whole=JSON_VALUES,
)
def test_load_matching_total(path, value, whole):
    instance = load_instance(ROTATION_JSON)
    for data in (whole, mutate(VALID_MATCHING, path, value)):
        assert_total(lambda d: load_matching(d, instance), data, Matching, MatchingError)
