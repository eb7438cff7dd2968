"""Structural analysis of instances and execution traces.

Ordering structure (domination, nesting, diameter) is measured against an
explicit ordering, normally the generator's reference ordering; trace
structure (displacement chains, cycles, the roster and priority-rank
monotonicity invariants) is reconstructed from the event log.
"""

from __future__ import annotations

from dataclasses import dataclass

from sibmatch.algorithms import classify_failure
from sibmatch.model import DUMMY_ID, Family, Instance, MatchingError
from sibmatch.trace import ExecutionTrace, Replay, displacement_chains

__all__ = [
    "Chain",
    "diameter",
    "dominates",
    "extract_chains",
    "nesting_pairs",
    "rank_lemma_violations",
    "roster_monotonicity_violations",
    "structure_report",
    "top_dominates",
]


def _positions(ordering) -> dict[str, int]:
    return {c: i for i, c in enumerate(ordering)}


def _family_span(pos: dict[str, int], fam: Family) -> tuple[int, int]:
    try:
        places = [pos[c] for c in fam.children]
    except KeyError as exc:
        raise ValueError(f"child {exc.args[0]!r} missing from ordering") from exc
    return min(places), max(places)


def dominates(ordering, f: Family, g: Family) -> bool:
    """True iff f's best-ranked child outranks g's worst-ranked child."""
    pos = _positions(ordering)
    best_f, _ = _family_span(pos, f)
    _, worst_g = _family_span(pos, g)
    return best_f < worst_g


def top_dominates(ordering, f: Family, g: Family) -> bool:
    """True iff f's best-ranked child outranks g's best-ranked child."""
    pos = _positions(ordering)
    best_f, _ = _family_span(pos, f)
    best_g, _ = _family_span(pos, g)
    return best_f < best_g


def _spans(ordering, families) -> dict[str, tuple[int, int]]:
    """Each family's best and worst position in the ordering, by family id."""
    pos = _positions(ordering)
    return {fam.id: _family_span(pos, fam) for fam in families}


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
    pos = _positions(ordering)
    best, worst = _family_span(pos, f)
    return worst - best + 1


@dataclass(frozen=True)
class Chain:
    """A maximal displacement chain.

    ``children[0]`` applied and displaced ``children[1]``, who later
    displaced ``children[2]``, and so on; ``daycares[k]`` is where
    ``children[k+1]`` lost its seat.  A chain is a cycle when it returns
    to its first child; a family cycle when it starts and ends in the
    same family while touching at least two.
    """

    children: tuple[str, ...]
    daycares: tuple[str, ...]
    families: tuple[str, ...]
    attempt_index: int
    inserting_family: str | None

    @property
    def is_cycle(self) -> bool:
        return (
            len(self.children) >= 2
            and self.children[0] == self.children[-1]
            and any(c != self.children[0] for c in self.children)
        )

    @property
    def is_family_cycle(self) -> bool:
        return self.families[0] == self.families[-1] and len(set(self.families)) >= 2

    def __len__(self) -> int:
        return len(self.children)


def extract_chains(instance: Instance, trace: ExecutionTrace) -> list[Chain]:
    """Every displacement chain of a trace, in creation order.

    The chains are those of :func:`sibmatch.trace.displacement_chains`,
    with the families of their children; chains never span attempts.  An
    eviction naming a child or daycare the instance lacks raises
    :class:`MatchingError`.
    """
    family_of, known = instance.family_of, instance.daycares_by_id
    out: list[Chain] = []
    for children, daycares, attempt, inserting in displacement_chains(trace):
        for displacer, child, daycare in zip(children, children[1:], daycares):
            if not (child in family_of and displacer in family_of and daycare in known):
                raise MatchingError(
                    f"trace: eviction of {child!r} from {daycare!r} "
                    f"by {displacer!r} names an unknown child or daycare"
                )
        families = tuple(family_of[c] for c in children)
        out.append(Chain(children, daycares, families, attempt, inserting))
    return out


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
    ``instance.meta``; hand-written instances simply omit them.  A
    ``meta.reference_ordering`` that is not a list of distinct strings
    raises ValueError naming it.
    """
    report: dict = {
        "children": instance.num_children,
        "sibling_families": list(instance.sibling_families),
    }
    reference = instance.meta.get("reference_ordering")
    if reference is not None and not (
        isinstance(reference, list)
        and all(isinstance(c, str) for c in reference)
        and len(set(reference)) == len(reference)
    ):
        raise ValueError("meta.reference_ordering: expected a list of distinct child ids")
    if reference:
        spans = _spans(reference, (instance.families_by_id[f] for f in instance.sibling_families))
        domination = _domination(spans)
        report["diameter"] = {f: worst - best + 1 for f, (best, worst) in spans.items()}
        report["domination"] = sorted(map(list, domination))
        report["nesting_pairs"] = sorted(sorted(p) for p in _nesting(domination))
    if trace is not None:
        chains = extract_chains(instance, trace)
        report["chains"] = [
            {
                "children": list(ch.children),
                "daycares": list(ch.daycares),
                "length": len(ch),
                "cycle": ch.is_cycle,
                "family_cycle": ch.is_family_cycle,
                "attempt": ch.attempt_index,
                "inserting_family": ch.inserting_family,
            }
            for ch in chains
        ]
        terminal = trace.terminal
        if terminal is not None and terminal["kind"] != "success":
            report["failure"] = classify_failure(trace).to_dict()
        elif terminal is not None:
            report["failure"] = None
    return report
