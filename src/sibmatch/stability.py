"""Daycare choice function and the two blocking-coalition predicates.

Two stability notions are supported, selected by ``mode``:

* ``"ours"``: when testing whether family f can block with tuple j, each
  daycare re-selects from ``(roster \\ C_f) | applicants`` — siblings of f
  already seated there release their seats first (seat transfer).
* ``"abh"``: each daycare selects from ``roster | applicants`` — current
  occupants, including f's own children, keep competing.

A blocking coalition is a family plus a strictly preferred listed tuple
such that, at every distinct non-dummy daycare of the tuple, all of the
family's applicants to that daycare survive the re-selection.  The dummy
daycare accepts everyone and is exempt from the check.
"""

from __future__ import annotations

from dataclasses import dataclass

from sibmatch.model import (
    DUMMY_ID,
    Daycare,
    Instance,
    Matching,
    is_feasible,
    is_individually_rational,
)

MODES = ("ours", "abh")

__all__ = [
    "MODES",
    "BlockingCoalition",
    "StabilityPreconditionError",
    "choice",
    "find_blocking_coalition",
    "is_stable",
    "select",
]


class StabilityPreconditionError(ValueError):
    """The blocking predicates are defined only on feasible IR matchings."""


@dataclass(frozen=True)
class BlockingCoalition:
    """Witness that a family can block with its ``tuple_index``-th tuple.

    ``accepted`` maps each distinct non-dummy daycare of the tuple to the
    full choice-function output that admitted the family's applicants.
    """

    family: str
    tuple_index: int
    accepted: dict[str, frozenset[str]]


def select(applicants, rank: dict[str, int], quota: int | None) -> set[str]:
    """Greedy top-quota selection of acceptable applicants.

    ``rank`` maps child to priority position (0 highest); children absent
    from it are unacceptable and never selected.  ``quota=None`` means
    unlimited (the dummy daycare).
    """
    acceptable = [c for c in applicants if c in rank]
    if quota is None:
        return set(applicants)
    if len(acceptable) <= quota:
        return set(acceptable)
    acceptable.sort(key=rank.__getitem__)
    return set(acceptable[:quota])


def choice(daycare: Daycare, applicants) -> set[str]:
    """The daycare's choice function: highest-priority applicants up to quota.

    Deterministic in the applicant set; unacceptable applicants are never
    selected.  The dummy daycare returns all applicants.
    """
    if daycare.id == DUMMY_ID:
        return set(applicants)
    rank = {c: i for i, c in enumerate(daycare.priority)}
    return select(applicants, rank, daycare.quota)


def scan_blocking(
    instance: Instance,
    current_rank: dict[str, int],
    rosters,
    mode: str,
) -> BlockingCoalition | None:
    """Core blocking scan over explicit rosters.

    ``current_rank`` maps each family id to the preference rank of its
    current assignment; ``rosters`` maps daycare ids to occupant sets.
    Callers guarantee the underlying matching is feasible and IR.  Scans
    families in id order, tuples in preference order, first hit wins.
    """
    ours = mode == "ours"
    empty: frozenset[str] = frozenset()
    for fam in instance.families_in_id_order:
        limit = min(current_rank[fam.id], len(fam.preferences))
        if limit == 0:
            continue
        members = instance.family_members[fam.id]
        applications = instance.applications[fam.id]
        for j in range(limit):
            accepted: dict[str, frozenset[str]] = {}
            for d, apps, _ in applications[j]:
                pool = set(rosters.get(d, empty))
                if ours:
                    pool -= members
                pool |= apps
                sel = select(pool, instance.rank[d], instance.quota[d])
                if not apps <= sel:
                    accepted = {}
                    break
                accepted[d] = frozenset(sel)
            else:
                return BlockingCoalition(family=fam.id, tuple_index=j, accepted=accepted)
    return None


def find_blocking_coalition(
    instance: Instance, matching: Matching, mode: str = "ours"
) -> BlockingCoalition | None:
    """First blocking coalition under the deterministic scan, or None.

    Families are scanned in id order and tuples in preference order, so
    the returned witness is reproducible.  None means the matching is
    stable (mode ``"ours"``) or ABH-stable (mode ``"abh"``).

    Raises :class:`StabilityPreconditionError` if the matching is
    infeasible or not individually rational: the predicates are defined
    only on feasible IR matchings.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not is_feasible(instance, matching):
        raise StabilityPreconditionError("matching is infeasible")
    if not is_individually_rational(instance, matching):
        raise StabilityPreconditionError("matching is not individually rational")

    current_rank = {
        f.id: f.tuple_rank(matching.family_tuple(f)) for f in instance.families
    }
    rosters = {
        d.id: matching.roster(d.id) for d in instance.daycares if d.id != DUMMY_ID
    }
    return scan_blocking(instance, current_rank, rosters, mode)


def is_stable(instance: Instance, matching: Matching, mode: str = "ours") -> bool:
    """True iff the matching is feasible, IR, and admits no blocking coalition."""
    if not is_feasible(instance, matching):
        return False
    if not is_individually_rational(instance, matching):
        return False
    return find_blocking_coalition(instance, matching, mode) is None
