"""Daycare choice function and the two blocking-coalition predicates.

A family blocks with a strictly preferred listed tuple when, at every
distinct non-dummy daycare of the tuple, :func:`select` refuses none of
its applicants.  The notions, selected by ``mode``, differ in who stays
seated while a daycare re-selects:

* ``"ours"``: ``roster \\ C_f`` — siblings of f already seated there
  release their seats first (seat transfer).
* ``"abh"``: ``roster \\ applicants`` — current occupants, including f's
  other children, keep competing.

The engine, ESDA's check, the verifier and the solver all share
:func:`select` and the one blocking test, :func:`blocking_coalition_of`.
"""

from __future__ import annotations

from dataclasses import dataclass

from sibmatch.model import (
    DUMMY_ID,
    Daycare,
    Family,
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


def select(seated, applicants, rank: dict[str, int], quota: int | None):
    """A daycare's greedy choice from ``seated | applicants``: acceptable
    children in priority order up to ``quota`` (None: unlimited).

    Returns ``(refused, evicted)``, the applicants and the seated children
    not chosen, the latter in priority order.  ``rank`` maps child to
    priority position, such as ``Instance.rank[d]``, which holds only the
    daycare's applicant pairs; applicants absent from it are unacceptable.
    ``seated`` (all acceptable) and ``applicants`` are disjoint sets of
    children some tuple of their family names the daycare for.

    The pool is the acceptable applicants plus the seated children; a
    pool that fits the quota is chosen whole, so only the unacceptable
    applicants are refused and nobody is evicted.  Only a larger pool is
    sorted by rank.
    """
    if quota is None:
        return frozenset(), ()
    pool = [c for c in applicants if c in rank]
    pool += seated
    if len(pool) <= quota:
        return applicants.difference(pool), ()
    pool.sort(key=rank.__getitem__)
    return applicants.difference(pool[:quota]), [c for c in pool[quota:] if c not in applicants]


def choice(daycare: Daycare, applicants) -> set[str]:
    """The daycare's choice function: highest-priority applicants up to quota.

    Deterministic in the applicant set; unacceptable applicants are never
    selected.  An unlimited daycare (the dummy) returns all applicants.
    """
    applicants = set(applicants)
    rank = {c: i for i, c in enumerate(daycare.priority)}
    refused, _ = select((), applicants, rank, daycare.quota)
    return applicants - refused


def blocking_coalition_of(
    instance: Instance, family: Family, rank: int, rosters, mode: str
) -> BlockingCoalition | None:
    """Witness of the family's first tuple ranked above ``rank`` that
    blocks against ``rosters`` (non-dummy daycare -> occupants), or None."""
    ours = mode == "ours"
    applications = instance.applications[family.id]
    ranks, quotas = instance.rank, instance.quota
    for j in range(min(rank, len(applications))):
        accepted: dict[str, frozenset[str]] = {}
        for d, apps, _ in applications[j]:
            seated = rosters[d].difference(family.children if ours else apps)
            refused, evicted = select(seated, apps, ranks[d], quotas[d])
            if refused:
                break
            if evicted:
                seated = seated.difference(evicted)
            accepted[d] = apps.union(seated)
        else:
            return BlockingCoalition(family=family.id, tuple_index=j, accepted=accepted)
    return None


def scan_blocking(
    instance: Instance,
    current_rank: dict[str, int],
    rosters,
    mode: str,
) -> BlockingCoalition | None:
    """Core blocking scan over explicit rosters.

    ``current_rank`` maps each family id to the preference rank of its
    current assignment; ``rosters`` maps every non-dummy daycare id to its
    occupants.  Callers guarantee the underlying matching is feasible and
    IR.  Scans families in id order, tuples in preference order, first hit
    wins.
    """
    for fam in instance.families_in_id_order:
        rank = current_rank[fam.id]
        if rank:  # a family at its first tuple cannot block
            witness = blocking_coalition_of(instance, fam, rank, rosters, mode)
            if witness is not None:
                return witness
    return None


def find_blocking_coalition(
    instance: Instance, matching: Matching | None, mode: str = "ours"
) -> BlockingCoalition | None:
    """First blocking coalition under the deterministic scan, or None.

    Families are scanned in id order and tuples in preference order, so
    the returned witness is reproducible.  None means the matching is
    stable (mode ``"ours"``) or ABH-stable (mode ``"abh"``).

    Raises :class:`StabilityPreconditionError` if the matching is None
    (a failed run's), assigns other children than the instance's,
    infeasible or not individually rational: the predicates are defined
    only on feasible IR matchings of the instance.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if matching is None:
        raise StabilityPreconditionError("no matching to check")
    if matching.assignment.keys() != instance.family_of.keys():
        raise StabilityPreconditionError("matching assigns other children than the instance's")
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


def is_stable(instance: Instance, matching: Matching | None, mode: str = "ours") -> bool:
    """True iff the matching exists, is feasible, IR, and unblocked."""
    try:
        return find_blocking_coalition(instance, matching, mode) is None
    except StabilityPreconditionError:
        return False
