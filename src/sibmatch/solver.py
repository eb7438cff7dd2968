"""Exhaustive stable-matching existence check for small instances.

Every individually rational matching assigns each family either one of
its listed tuples or the all-dummy tuple, so the backtracking search over
exactly that product space is sound and complete: if it reports that no
stable matching exists, none does.  Partial assignments are pruned on
quota overflow and on unacceptable child-daycare pairs (both would kill
individual rationality or feasibility at the leaf anyway); stability is
checked only at complete leaves.

This is the ground-truth oracle the heuristics are compared against; it
is meant for instances of roughly fifteen families, not for market scale.
A node/time budget guards against blowup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from sibmatch.model import DUMMY_ID, Instance, Matching
from sibmatch.stability import scan_blocking

__all__ = ["FindStableResult", "SearchBudget", "find_stable"]


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock limits for one search."""

    max_nodes: int = 2_000_000
    max_millis: int = 60_000

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_millis <= 0:
            raise ValueError("SearchBudget fields must be positive")


@dataclass(frozen=True)
class FindStableResult:
    """Outcome of :func:`find_stable`.

    ``status`` is ``"found"`` (with ``matching``), ``"none-exists"``
    (exhaustive proof), or ``"budget-exceeded"``.
    """

    status: str
    matching: Matching | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"


class _Budget(Exception):
    pass


def find_stable(
    instance: Instance, mode: str = "ours", budget: SearchBudget | None = None
) -> FindStableResult:
    """Search for any matching stable in the given mode.

    Families are ordered largest first (ties by id) and options tried in
    preference order with the all-dummy tuple last, which tends to reach
    stable leaves early on markets where they exist.
    """
    budget = budget or SearchBudget()
    deadline = time.monotonic() + budget.max_millis / 1000.0
    families = sorted(instance.families, key=lambda f: (-f.size, f.id))
    options = []
    for fam in families:
        # (rank, tuple, applications); a listed tuple's rank is its index
        opts = [
            (j, tup, apps)
            for j, (tup, apps) in enumerate(zip(fam.preferences, instance.applications[fam.id]))
        ]
        if fam.all_dummy not in fam.preferences:
            opts.append((fam.tuple_rank(fam.all_dummy), fam.all_dummy, ()))
        options.append(opts)

    remaining = {
        d.id: d.quota for d in instance.daycares if d.quota is not None
    }
    rosters: dict[str, set[str]] = {
        d.id: set() for d in instance.daycares if d.id != DUMMY_ID
    }
    assign: dict[str, str] = {c: DUMMY_ID for c, _ in instance.children}
    # leaves are feasible and IR by construction, so the blocking scan
    # can run directly on the incrementally maintained rosters
    current_rank: dict[str, int] = {f.id: 0 for f in instance.families}
    nodes = 0

    def feasible_option(applications) -> bool:
        return all(
            remaining[d] >= len(apps) and all(c in instance.rank[d] for c in apps)
            for d, apps, _ in applications
        )

    def search(i: int) -> Matching | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_nodes:
            raise _Budget
        if nodes % 1024 == 0 and time.monotonic() > deadline:
            raise _Budget
        if i == len(families):
            if scan_blocking(instance, current_rank, rosters, mode) is None:
                return Matching(instance, assign)
            return None
        fam = families[i]
        for rank, tup, applications in options[i]:
            if not feasible_option(applications):
                continue
            for child, d in zip(fam.children, tup):
                assign[child] = d
                if d != DUMMY_ID:
                    remaining[d] -= 1
                    rosters[d].add(child)
            current_rank[fam.id] = rank
            result = search(i + 1)
            for child, d in zip(fam.children, tup):
                assign[child] = DUMMY_ID
                if d != DUMMY_ID:
                    remaining[d] += 1
                    rosters[d].discard(child)
            if result is not None:
                return result
        return None

    try:
        found = search(0)
    except _Budget:
        return FindStableResult("budget-exceeded", None, nodes)
    if found is not None:
        return FindStableResult("found", found, nodes)
    return FindStableResult("none-exists", None, nodes)
