"""Structural analysis of instances and execution traces.

Ordering structure (domination, nesting, diameter) is measured against an
explicit ordering, normally the generator's reference ordering; trace
structure (displacement chains, cycles, the roster and priority-rank
monotonicity invariants) is reconstructed from the event log.
"""

from __future__ import annotations

from dataclasses import dataclass

from sibmatch.algorithms import classify_failure
from sibmatch.model import DUMMY_ID, Family, Instance
from sibmatch.trace import ExecutionTrace, Replay

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
    items = list(getattr(ordering, "ordering", ordering))
    return {c: i for i, c in enumerate(items)}


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


def nesting_pairs(ordering, families) -> set[frozenset[str]]:
    """Unordered pairs of distinct families that dominate each other."""
    fams = list(families)
    pos = _positions(ordering)
    spans = {fam.id: _family_span(pos, fam) for fam in fams}
    out: set[frozenset[str]] = set()
    for i, f in enumerate(fams):
        for g in fams[i + 1 :]:
            if spans[f.id][0] < spans[g.id][1] and spans[g.id][0] < spans[f.id][1]:
                out.add(frozenset((f.id, g.id)))
    return out


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
    """Reconstruct every displacement chain of a trace.

    A placement by a child that was itself displaced earlier extends the
    chain that displaced it; any other placement starts new chains, one
    per child it evicts.  Chains never span attempts.
    """
    chains: list[dict] = []
    out: list[Chain] = []

    def finish() -> None:
        for ch in chains:
            out.append(
                Chain(
                    children=tuple(ch["children"]),
                    daycares=tuple(ch["daycares"]),
                    families=tuple(instance.family_of[c] for c in ch["children"]),
                    attempt_index=ch["attempt"],
                    inserting_family=ch["inserting"],
                )
            )
        chains.clear()

    attempt = -1
    inserting: str | None = None
    open_chain: dict[str, dict] = {}
    for event in trace:
        kind = event["kind"]
        if kind == "attempt":
            finish()
            open_chain.clear()
            attempt = event["index"]
            inserting = None
        elif kind == "insert":
            inserting = event["family"]
        elif kind == "place":
            for child, daycare, displacer in event["evicted"]:
                ch = open_chain.pop(displacer, None)
                if ch is None:
                    ch = {
                        "children": [displacer],
                        "daycares": [],
                        "attempt": attempt,
                        "inserting": inserting,
                    }
                    chains.append(ch)
                ch["children"].append(child)
                ch["daycares"].append(daycare)
                open_chain[child] = ch
    finish()
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
    ``instance.meta``; hand-written instances simply omit them.
    """
    report: dict = {
        "children": instance.num_children,
        "sibling_families": list(instance.sibling_families),
    }
    reference = instance.meta.get("reference_ordering")
    if reference:
        fams = [instance.families_by_id[f] for f in instance.sibling_families]
        report["diameter"] = {f.id: diameter(reference, f) for f in fams}
        report["domination"] = sorted(
            [f.id, g.id]
            for f in fams
            for g in fams
            if f.id != g.id and dominates(reference, f, g)
        )
        report["nesting_pairs"] = sorted(sorted(p) for p in nesting_pairs(reference, fams))
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
            failure = classify_failure(trace)
            report["failure"] = {
                "kind": failure.kind,
                "chain": list(failure.chain) if failure.chain else None,
                "permutation": list(failure.permutation) if failure.permutation else None,
            }
        elif terminal is not None:
            report["failure"] = None
    return report
