"""Structural fuzzing of every loader of outside input.

Each document starts valid: an n=12 market, its ESDA matching and trace,
and a sweep spec.  A few structural edits (replace a value, delete or add
a key, duplicate a list entry) must leave each loader returning a result
or raising its documented error, never a bare exception.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from sibmatch.algorithms import run_esda
from sibmatch.diagnostics import structure_report
from sibmatch.experiment import SweepSpec, spec_from_json
from sibmatch.market import MarketConfig, gen_instance
from sibmatch.model import (
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    instance_to_dict,
    load_instance,
    load_matching,
)
from sibmatch.trace import ExecutionTrace

# one restart, three evictions, success
MARKET = gen_instance(MarketConfig(n=12, phi=1.0, alpha=0.8, daycare_ratio=0.3, seed=4))
OUTCOME = run_esda(MARKET)
SPEC = SweepSpec(sizes=(12,), phis=(0.5, 1.0), trials=2, algorithms=("esda", "sc"), seed=3)


def load_trace(events):
    trace = ExecutionTrace.from_jsonl("\n".join(json.dumps(e) for e in events))
    return structure_report(MARKET, trace)


# name -> (valid document, loader, result type, documented error)
DOCUMENTS = {
    "instance": (instance_to_dict(MARKET), load_instance, Instance, InstanceError),
    "matching": (
        {"assignment": OUTCOME.matching.assignment},
        lambda data: load_matching(data, MARKET),
        Matching,
        MatchingError,
    ),
    "trace": (OUTCOME.trace.events, load_trace, dict, ValueError),
    "spec": (SPEC.to_dict(), lambda data: spec_from_json(json.dumps(data)), SweepSpec, ValueError),
}

IDS = st.sampled_from(["d0", "d1", "c1", "c12", "f1", "f3", "esda", "kind", "x"])
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 13) | st.sampled_from([2**63, -(10**400)])
    | st.floats() | IDS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(IDS, inner, max_size=3),
    max_leaves=6,
)


def containers(value):
    """Every dict and list inside a JSON value, the value included."""
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from containers(child)


def edit(doc, draw):
    """Apply one structural edit, drawn with ``draw``, to a container of
    ``doc`` it fits: ``add`` needs a dict, ``duplicate`` a non-empty list,
    the others any non-empty container.  An added key is a field name
    the document already uses somewhere (not a child id), or ``"x"``."""
    op = draw(st.sampled_from(["replace", "delete", "add", "duplicate"]))
    nodes = list(containers(doc))
    kind = {"add": dict, "duplicate": list}.get(op, (dict, list))
    fitting = [c for c in nodes if isinstance(c, kind) and (c or op == "add")]
    if not fitting:
        return
    node = draw(st.sampled_from(fitting))
    if op == "add":
        keys = {k for c in nodes if isinstance(c, dict) for k in c} - MARKET.family_of.keys()
        keys = sorted(keys | {"x"})
        node[draw(st.sampled_from(keys))] = draw(VALUES)
        return
    slot = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    if op == "replace":
        node[slot] = draw(VALUES)
    elif op == "delete":
        del node[slot]
    else:
        node.insert(slot, json.loads(json.dumps(node[slot])))


def test_unedited_documents_load():
    for valid, load, result_type, _ in DOCUMENTS.values():
        assert isinstance(load(json.loads(json.dumps(valid))), result_type)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(DOCUMENTS)), edits=st.integers(1, 3), data=st.data())
def test_loaders_raise_only_their_documented_errors(name, edits, data):
    valid, load, result_type, error = DOCUMENTS[name]
    doc = json.loads(json.dumps(valid))
    for _ in range(edits):
        edit(doc, data.draw)
    try:
        assert isinstance(load(doc), result_type)
    except error:
        pass
