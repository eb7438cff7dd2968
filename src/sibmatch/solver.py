"""Exhaustive stable-matching existence check for small instances.

Every individually rational matching assigns each family either one of
its listed tuples or the all-dummy tuple, so the backtracking search over
exactly that product space is sound and complete: if it reports that no
stable matching exists, none does.  Tuples with an unacceptable child are
dropped up front and partial assignments pruned on quota overflow (both
would kill individual rationality or feasibility at the leaf anyway).

Once a family is placed, the search also prunes the subtree if that
family must block in every completion.  Every completion's roster at a
daycare d lies between the current roster and the current roster plus
the children that some option of a later family seats at d.  Greedy
top-quota choice is responsive, so an applicant chosen from the larger
pool is chosen from any smaller one that still contains it.  If
:func:`stability.blocking_coalition_of` finds the family blocking
against the larger rosters, every leaf below is unstable.  Only subtrees
without a stable leaf are cut, so the depth-first search reaches the
same first stable leaf it would without the prune.  Complete leaves are
checked with the full blocking scan.

The search is one loop over explicit per-level stacks rather than a
recursion, so its depth (one level per family) is not bounded by
Python's recursion limit.

This is the ground-truth oracle the heuristics are compared against.  It
decides each criterion-3 market (n <= 14) in at most 110 nodes; a
node/time budget guards against blowup on larger ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

from sibmatch.model import DUMMY_ID, Instance, Matching, check_fields
from sibmatch.stability import MODES, blocking_coalition_of, scan_blocking

__all__ = ["FindStableResult", "SearchBudget", "find_stable"]


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock limits for one search; both positive integers."""

    max_nodes: int = 2_000_000
    max_millis: int = 60_000

    def __post_init__(self):
        check_fields(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")


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


class _Extended:
    """Rosters widened by the children later families may still seat."""

    __slots__ = ("rosters", "later")

    def __init__(self, rosters: dict[str, set[str]], later: dict[str, frozenset[str]]):
        self.rosters = rosters
        self.later = later

    def __getitem__(self, d: str) -> set[str]:
        later = self.later.get(d)
        return self.rosters[d] | later if later else self.rosters[d]


def find_stable(
    instance: Instance, mode: str = "ours", budget: SearchBudget | None = None
) -> FindStableResult:
    """Search for any matching stable in the given mode.

    Families are ordered largest first (ties by id) and options tried in
    preference order with the all-dummy tuple last, which tends to reach
    stable leaves early on markets where they exist.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    budget = SearchBudget() if budget is None else budget
    if not isinstance(budget, SearchBudget):
        raise ValueError(f"budget must be a SearchBudget, got {type(budget).__name__}")
    deadline = time.monotonic() + budget.max_millis / 1000.0
    families = sorted(instance.families, key=lambda f: (-f.size, f.id))
    quota = instance.quota
    options = []
    for fam in families:
        # (rank, applications); a listed tuple's rank is its index and the
        # unlisted all-dummy tuple ranks just below the last one
        opts = [
            (j, apps)
            for j, apps in enumerate(instance.applications[fam.id])
            if all(c in instance.rank[d] for d, group, _ in apps for c in group)
        ]
        if fam.all_dummy not in fam.preferences:
            opts.append((len(fam.preferences), ()))
        options.append(opts)

    # the search state is the rosters of the families placed so far and
    # their ranks; leaves are feasible and IR by construction, so the
    # blocking scan runs on the rosters directly, and only a stable leaf
    # is turned into a matching
    rosters: dict[str, set[str]] = {
        d.id: set() for d in instance.daycares if d.id != DUMMY_ID
    }
    current_rank: dict[str, int] = {f.id: 0 for f in instance.families}
    # extended[i]: the rosters plus every child that a kept option of a
    # family i.. seats at the daycare (suffix unions, all acceptable there)
    later: dict[str, frozenset[str]] = {}
    extended = [_Extended(rosters, later)]
    for opts in reversed(options):
        later = dict(later)
        for _, applications in opts:
            for d, apps, _ in applications:
                later[d] = later.get(d, frozenset()).union(apps)
        extended.append(_Extended(rosters, later))
    extended.reverse()

    # depth-first search as one loop over explicit per-level stacks:
    # tried[i] counts the options of family i tried so far, seated[i] holds
    # the applications of the one it is placed with (() when unplaced)
    last = len(families)
    tried = [0] * last
    seated: list = [()] * last
    nodes, i = 0, 0
    while True:
        nodes += 1
        if nodes > budget.max_nodes or (nodes % 1024 == 0 and time.monotonic() > deadline):
            return FindStableResult("budget-exceeded", None, nodes)
        if i == last:
            if scan_blocking(instance, current_rank, rosters, mode) is None:
                return FindStableResult("found", Matching.from_rosters(instance, rosters), nodes)
            i -= 1
        else:
            tried[i] = 0
        # place family i with its next option, backtracking past every
        # level whose options are used up
        while i >= 0:
            for d, apps, _ in seated[i]:
                rosters[d].difference_update(apps)
            seated[i] = ()
            if tried[i] == len(options[i]):
                i -= 1
                continue
            rank, applications = options[i][tried[i]]
            tried[i] += 1
            if any(len(rosters[d]) + len(apps) > quota[d] for d, apps, _ in applications):
                continue
            for d, apps, _ in applications:
                rosters[d].update(apps)
            current_rank[families[i].id] = rank
            seated[i] = applications
            # a family that blocks against the widest possible rosters
            # blocks at every leaf below: skip the subtree
            if not rank or blocking_coalition_of(instance, families[i], rank, extended[i + 1], mode) is None:
                break
        else:
            return FindStableResult("none-exists", None, nodes)
        i += 1
