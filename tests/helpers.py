"""Shared builders for the test suite.

The ``*_market`` functions are hand-built minimal markets, each isolating
one behaviour the suite pins down as a golden case: the seat-transfer gap
between the two stability notions, cyclic blocking with no stable
matching, each failure mode of the order-restart heuristic, and a market
it solves only after two restarts.

``random_instance`` and ``random_feasible_ir_matching`` drive the seeded
property loops: small markets with unacceptable children, dummy entries
inside tuples, and repeated daycares, to stress the edge cases the
golden markets do not cover.  ``oracle_market`` is market k of the
criterion-3 set of generated small markets.

``reference_inserting`` runs SC, SDA and ESDA without the resume from a
shared order prefix: the reference the resuming runs are
property-tested against.
"""

from __future__ import annotations

import random
from collections import deque

from sibmatch import algorithms
from sibmatch.market import MarketConfig, gen_instance
from sibmatch.model import DUMMY_ID, Daycare, Family, Instance, Matching
from sibmatch.trace import ExecutionTrace


def make_instance(families, daycares, meta=None) -> Instance:
    """families: (id, children, preferences); daycares: (id, quota, priority)."""
    fams = [
        Family(fid, tuple(children), tuple(tuple(t) for t in prefs))
        for fid, children, prefs in families
    ]
    dcs = [Daycare(DUMMY_ID, None, ())]
    dcs += [Daycare(did, quota, tuple(priority)) for did, quota, priority in daycares]
    return Instance(fams, dcs, meta=meta)


def seat_transfer_market() -> Instance:
    """One family, two children: (d2, d0) is weakly stable but the elder
    child could hand d2 to the younger and take d1, so it is not stable."""
    return make_instance(
        [("f1", ["c1", "c2"], [["d1", "d2"], ["d2", "d0"]])],
        [("d1", 1, ["c1", "c2"]), ("d2", 1, ["c1", "c2"])],
    )


def rotation_market() -> Instance:
    """Three two-child families that block each other cyclically: every
    candidate matching is blocked, so no stable matching exists."""
    shared = ["c1", "c6", "c3", "c2", "c5", "c4"]
    return make_instance(
        [
            ("f1", ["c1", "c2"], [["d1", "d2"]]),
            ("f2", ["c3", "c4"], [["d2", "d3"]]),
            ("f3", ["c5", "c6"], [["d3", "d1"]]),
        ],
        [("d1", 1, shared), ("d2", 1, shared), ("d3", 1, shared)],
    )


def weak_only_market() -> Instance:
    """A weakly stable matching exists but no stable one: the sorted
    heuristic without the improvement check returns (d2, d3) for f1,
    which f1 itself blocks via a seat transfer at (d1, d2)."""
    shared = ["c1", "c3", "c2"]
    return make_instance(
        [
            ("f1", ["c1", "c2"], [["d1", "d2"], ["d2", "d3"]]),
            ("f2", ["c3"], [["d2"]]),
        ],
        [("d1", 1, shared), ("d2", 1, shared), ("d3", 1, shared)],
    )


def restart_success_market() -> Instance:
    """Three sibling families; insertion order must be rearranged twice
    before a stable matching comes out."""
    return make_instance(
        [
            ("f1", ["c1", "c2"], [["d1", "d2"], ["d1", "d4"]]),
            ("f2", ["c3", "c4"], [["d3", "d4"], ["d5", "d4"]]),
            ("f3", ["c5", "c6"], [["d1", "d4"], ["d3", "d4"], ["d5", "d2"]]),
        ],
        [
            ("d1", 1, ["c1", "c5"]),
            ("d2", 1, ["c6", "c2"]),
            ("d3", 1, ["c3", "c5"]),
            ("d4", 1, ["c6", "c4", "c2"]),
            ("d5", 1, ["c3", "c5"]),
        ],
    )


def self_cycle_market() -> Instance:
    """Inserting the sibling family starts a displacement chain through
    two singletons that circles back and evicts the very child that
    started it (c1 -> c3 -> c4 -> c1).  A stable matching exists anyway."""
    return make_instance(
        [
            ("f1", ["c1", "c2"], [["d1", "d3"]]),
            ("f2", ["c3"], [["d1"], ["d2"]]),
            ("f3", ["c4"], [["d2"], ["d1"]]),
        ],
        [("d1", 1, ["c4", "c1", "c3"]), ("d2", 1, ["c3", "c4"]), ("d3", 1, ["c2"])],
    )


def sibling_cycle_market() -> Instance:
    """The displacement chain started by c1's placement lands on c1's own
    sibling c2 (c1 -> c3 -> c2).  No stable matching exists."""
    return make_instance(
        [
            ("f1", ["c1", "c2"], [["d1", "d2"]]),
            ("f2", ["c3"], [["d1"], ["d2"]]),
        ],
        [("d1", 1, ["c1", "c3"]), ("d2", 1, ["c3", "c2"])],
    )


def order_flip_market() -> Instance:
    """Two sibling families that evict each other whichever is inserted
    first, so the restart order flips back to one already attempted."""
    return make_instance(
        [
            ("f1", ["c1", "c2"], [["d1", "d2"], ["d1", "d3"]]),
            ("f2", ["c3", "c4"], [["d2", "d3"]]),
        ],
        [("d1", 1, ["c1"]), ("d2", 1, ["c3", "c2"]), ("d3", 1, ["c2", "c4"])],
    )


def interleaved_ordering():
    """A priority ordering interleaving three families so that every pair
    mutually dominates (best child ahead of the other's worst)."""
    ordering = ["c1", "c3", "c5", "c2", "c4", "c6"]
    families = [
        Family("f1", ("c1", "c2"), ()),
        Family("f2", ("c3", "c4"), ()),
        Family("f3", ("c5", "c6"), ()),
    ]
    return ordering, families


def random_instance(rng: random.Random, max_children: int = 10) -> Instance:
    """A small random market exercising the awkward corners.

    Some children are unacceptable at some daycares, tuples may repeat a
    daycare or point a child at the dummy, and quotas vary.
    """
    n = rng.randint(1, max_children)
    m = rng.randint(1, 4)
    daycare_ids = [f"d{k + 1}" for k in range(m)]

    children = [f"c{k + 1}" for k in range(n)]
    families = []
    pool = children[:]
    fid = 0
    while pool:
        size = min(len(pool), rng.choice((1, 1, 1, 2, 2, 3)))
        kids, pool = pool[:size], pool[size:]
        fid += 1
        prefs = []
        seen = set()
        for _ in range(rng.randint(0, 4)):
            tup = tuple(
                rng.choice(daycare_ids + [DUMMY_ID] if rng.random() < 0.2 else daycare_ids)
                for _ in kids
            )
            if tup not in seen and any(d != DUMMY_ID for d in tup):
                seen.add(tup)
                prefs.append(tup)
        families.append((f"f{fid}", kids, prefs))

    daycares = []
    for did in daycare_ids:
        ranked = [c for c in children if rng.random() < 0.85]
        rng.shuffle(ranked)
        daycares.append((did, rng.randint(0, 2), ranked))
    return make_instance(families, daycares)


def random_feasible_ir_matching(rng: random.Random, instance: Instance) -> Matching:
    """Uniform-ish feasible, individually rational matching.

    Families in random order pick any of their listed tuples that fits
    remaining quotas and acceptability, else rest unmatched.
    """
    remaining = {
        d.id: d.quota for d in instance.daycares if d.quota is not None
    }
    assign = dict.fromkeys(instance.family_of, DUMMY_ID)

    def fits(fam, tup) -> bool:
        need: dict[str, int] = {}
        for child, d in zip(fam.children, tup):
            if d == DUMMY_ID:
                continue
            if not instance.is_acceptable(d, child):
                return False
            need[d] = need.get(d, 0) + 1
        return all(remaining[d] >= k for d, k in need.items())

    fams = list(instance.families)
    rng.shuffle(fams)
    for fam in fams:
        options = [t for t in fam.preferences if fits(fam, t)]
        if not options or rng.random() < 0.3:
            continue
        tup = rng.choice(options)
        for child, d in zip(fam.children, tup):
            assign[child] = d
            if d != DUMMY_ID:
                remaining[d] -= 1
    return Matching(instance, assign)


def oracle_market(k: int) -> Instance:
    """Market k (0..299) of the criterion-3 set."""
    return gen_instance(
        MarketConfig(
            n=6 + (k % 9),
            phi=(0.3, 1.0)[k % 2],
            alpha=(0.4, 0.6)[(k // 2) % 2],
            L=2,
            sigma=2.0,
            daycare_ratio=0.5,
            sibling_pref_length=3,
            joint_pref_length=4,
            seed=10_000 + k,
        )
    )


def reference_inserting(instance: Instance, algo: str) -> algorithms.AlgorithmOutcome:
    """SC, SDA or ESDA (``algo``) without resuming: every attempt runs a
    fresh engine through the singleton DA phase, then inserts every
    sibling family in order pi."""
    trace = ExecutionTrace()
    fs = instance.sibling_families
    pi, attempted = tuple(range(len(fs))), set()
    try:
        while True:
            pi_1 = [k + 1 for k in pi]
            trace.append("attempt", index=len(attempted), pi=pi_1, families=[fs[k] for k in pi])
            attempted.add(pi)
            engine = algorithms._Engine(instance, trace)
            engine.cascade(deque(instance.singleton_families))
            if algo == "sc":
                engine.sibling_applied = set()
            for position, k in enumerate(pi):
                fam = instance.families_by_id[fs[k]]
                trace.append("insert", family=fam.id, position=position)
                hit = engine.cascade(deque([fam.id]))
                if hit is not None:
                    displaced, (child, d, _) = hit
                    if algo == "sc":
                        reason = "sibling family displaced"
                        trace.append("clash", family=displaced, child=child, daycare=d, reason=reason)
                        raise algorithms._Failed
                    # the inserting family moves directly before the displaced one
                    new_pi = pi
                    if displaced != fam.id:
                        rest = [x for x in pi if x != k]
                        rest.insert(rest.index(fs.index(displaced)), k)
                        new_pi = tuple(rest)
                    repeat = new_pi in attempted
                    new_pi_1 = [x + 1 for x in new_pi]
                    kind = "repeat" if repeat else "restart"
                    trace.append(kind, inserting=fam.id, displaced=displaced, new_pi=new_pi_1)
                    if repeat:
                        raise algorithms._Failed
                    pi = new_pi
                    break
                if algo == "esda" and (j := engine.improvable(fam)) is not None:
                    trace.append("improvement", family=fam.id, tuple_index=j)
                    raise algorithms._Failed
            else:
                trace.append("success")
                matching = Matching.from_rosters(instance, engine.roster)
                return algorithms.AlgorithmOutcome(matching, None, trace)
    except algorithms._Failed:
        return algorithms.AlgorithmOutcome(None, algorithms.classify_failure(trace), trace)
