"""Structural analysis of instances and execution traces.

Ordering structure (domination, nesting, diameter) is measured against an
explicit ordering, normally the generator's reference ordering, through
one table of each family's best and worst position in it.  Trace
structure (displacement chains, cycles, the roster and priority-rank
monotonicity invariants) is reconstructed from the event log, which every
function here replays through :class:`sibmatch.trace.Replay`, the one check
of a trace against its market.  A displacement chain is the one record
that :func:`sibmatch.trace.displacement_chains` yields, which
:func:`extract_chains` completes and the report prints.
"""

from __future__ import annotations

from sibmatch.algorithms import classify_failure
from sibmatch.model import DUMMY_ID, Family, Instance
from sibmatch.trace import ExecutionTrace, Replay, displacement_chains

__all__ = [
    "diameter",
    "dominates",
    "extract_chains",
    "nesting_pairs",
    "rank_lemma_violations",
    "roster_monotonicity_violations",
    "structure_report",
    "top_dominates",
]


def _spans(ordering, families) -> dict[str, tuple[int, int]]:
    """Each family's best and worst position in the ordering, by family id.

    Raises ValueError unless the ordering is a list or tuple of distinct
    child ids that holds every child of the families.
    """
    if not (
        isinstance(ordering, (list, tuple))
        and all(isinstance(c, str) for c in ordering)
        and len(set(ordering)) == len(ordering)
    ):
        raise ValueError("expected a list of distinct child ids")
    pos = {c: i for i, c in enumerate(ordering)}
    spans = {}
    for fam in families:
        try:
            places = [pos[c] for c in fam.children]
        except KeyError as exc:
            raise ValueError(f"child {exc.args[0]!r} missing from ordering") from exc
        spans[fam.id] = min(places), max(places)
    return spans


def dominates(ordering, f: Family, g: Family) -> bool:
    """True iff f's best-ranked child outranks g's worst-ranked child."""
    spans = _spans(ordering, (f, g))
    return spans[f.id][0] < spans[g.id][1]


def top_dominates(ordering, f: Family, g: Family) -> bool:
    """True iff f's best-ranked child outranks g's best-ranked child."""
    spans = _spans(ordering, (f, g))
    return spans[f.id][0] < spans[g.id][0]


def _domination(spans: dict[str, tuple[int, int]]) -> set[tuple[str, str]]:
    """Ordered pairs (f, g) of distinct families where f dominates g."""
    return {
        (f, g)
        for f, (best, _) in spans.items()
        for g, (_, worst) in spans.items()
        if f != g and best < worst
    }


def _nesting(domination: set[tuple[str, str]]) -> set[frozenset[str]]:
    return {frozenset(pair) for pair in domination if pair[::-1] in domination}


def nesting_pairs(ordering, families) -> set[frozenset[str]]:
    """Unordered pairs of distinct families that dominate each other."""
    return _nesting(_domination(_spans(ordering, families)))


def diameter(ordering, f: Family) -> int:
    """Positional span of a family's children, inclusive of both ends.

    Equals the family size exactly when the children sit contiguously.
    """
    best, worst = _spans(ordering, (f,))[f.id]
    return worst - best + 1


def extract_chains(instance: Instance, trace: ExecutionTrace) -> list[dict]:
    """Every displacement chain of a trace, in creation order.

    Each is a record of :func:`sibmatch.trace.displacement_chains` with
    three more keys: ``length`` (its number of children, the first
    included), ``cycle`` (it returns to its first child after touching
    another) and ``family_cycle`` (it starts and ends in the same family
    after touching at least two).  Chains never span attempts.  The walk
    reads the events through :class:`sibmatch.trace.Replay`, so every move
    it rejects (an unknown child or daycare, an eviction from a daycare the
    child does not sit at, a seat at a daycare that does not rank the
    child, a displacer the event does not place) raises its
    :class:`sibmatch.model.MatchingError`.
    """
    chains = displacement_chains(event for event, _ in Replay(instance, trace))
    for chain in chains:
        children = chain["children"]
        families = [instance.family_of[c] for c in children]
        chain["length"] = len(children)
        chain["cycle"] = children[0] == children[-1] and len(set(children)) > 1
        chain["family_cycle"] = families[0] == families[-1] and len(set(families)) > 1
    return chains


def roster_monotonicity_violations(instance: Instance, trace: ExecutionTrace) -> list[dict]:
    """Events where some daycare's roster shrank within an attempt.

    Within a fixed order, with no sibling-family rejection and no seat
    transfer (true of every in-attempt placement the engine makes), each
    daycare's occupancy may only grow or hold; any decrease is reported.
    """
    violations: list[dict] = []
    for k, (_, moves) in enumerate(Replay(instance, trace)):
        delta: dict[str, int] = {}
        for _, source, target in moves:
            if source != DUMMY_ID:
                delta[source] = delta.get(source, 0) - 1
            if target != DUMMY_ID:
                delta[target] = delta.get(target, 0) + 1
        for daycare, d in delta.items():
            if d < 0:
                violations.append({"event": k, "daycare": daycare, "decrease": -d})
    return violations


def rank_lemma_violations(instance: Instance, trace: ExecutionTrace) -> list[dict]:
    """Attempts that ended in success after a priority-rank regression.

    ``Rank(mu, d)`` is the 1-based priority rank of the worst child
    matched at d, with vacant seats counting as rank |C|+1.  If it ever
    strictly increases at some daycare during an attempt, that order
    cannot yield a matching; a success terminating such an attempt is a
    violation.
    """
    n_plus_one = instance.num_children + 1

    def rank_of(daycare: str, roster: set[str]) -> int:
        quota = instance.quota[daycare]
        if quota == 0 or len(roster) < quota:
            return n_plus_one
        return max(instance.rank[daycare][c] for c in roster) + 1

    violations: list[dict] = []
    replay = Replay(instance, trace)
    # Rank after the daycare's last change this attempt; the rosters only
    # change at the daycares a move touches, and start the attempt empty.
    last_rank: dict[str, int] = {}
    increased_at: list[dict] = []
    for k, (event, moves) in enumerate(replay):
        kind = event["kind"]
        if kind == "attempt":
            last_rank, increased_at = {}, []
        elif kind == "success" and increased_at:
            violations.extend(increased_at)
        touched = dict.fromkeys(d for move in moves for d in move[1:] if d != DUMMY_ID)
        for d in touched:
            rank = rank_of(d, replay.rosters[d])
            if rank > last_rank.get(d, n_plus_one):
                increased_at.append({"event": k, "daycare": d})
            last_rank[d] = rank
    return violations


def structure_report(instance: Instance, trace: ExecutionTrace | None = None) -> dict:
    """Instance and trace structure as one JSON-ready report.

    Ordering-based sections need the generator's reference ordering in
    ``instance.meta``; hand-written instances simply omit them, and an
    empty ordering yields none.  A ``meta.reference_ordering`` that is not
    a list of distinct child ids, or that misses a sibling-family child,
    raises ValueError naming it.  The trace is checked once, by the replay
    in :func:`extract_chains`: a move that :class:`sibmatch.trace.Replay`
    rejects raises its :class:`sibmatch.model.MatchingError`.
    """
    report: dict = {
        "children": instance.num_children,
        "sibling_families": list(instance.sibling_families),
    }
    reference = instance.meta.get("reference_ordering")
    if reference is not None:
        # an empty reference is valid and yields no ordering sections
        families = (instance.families_by_id[f] for f in instance.sibling_families)
        try:
            spans = _spans(reference, families if reference else ())
        except ValueError as exc:
            raise ValueError(f"meta.reference_ordering: {exc}") from None
    if reference:
        domination = _domination(spans)
        report["diameter"] = {f: worst - best + 1 for f, (best, worst) in spans.items()}
        report["domination"] = sorted(map(list, domination))
        report["nesting_pairs"] = sorted(sorted(p) for p in _nesting(domination))
    if trace is not None:
        report["chains"] = extract_chains(instance, trace)
        terminal = trace.terminal
        if terminal is not None and terminal["kind"] != "success":
            report["failure"] = classify_failure(trace).to_dict()
        elif terminal is not None:
            report["failure"] = None
    return report
