"""The four matching procedures: DA, SC, SDA, and ESDA.

All four share one proposal engine, which starts with every child
unmatched, and its one proposal step and loop.  In the step
(``propose``) a family walks its preference list; a tuple is accepted
only if no distinct non-dummy daycare of the tuple refuses any of the
family's applicants (``Instance.applications``) under
``stability.select``, which also names the seated children the placement
evicts.  The same step logs a refusal, or applies the evictions and
seats the family.  A proposing family never holds a seat, so each roster
goes to ``select`` as it is.  The loop proposes queued families in FIFO
order and queues every displaced singleton family; it stops at the first
eviction of a sibling-family child.  Deferred acceptance is that loop
over the singleton families; inserting a sibling family is that loop
started from the family alone.

All four also share one insertion driver, and each returns an
``AlgorithmOutcome``.  DA is the driver with no sibling family to
insert, so its trace (``attempt``, the DA phase, ``success``) is the
head every other run's attempts start with.  The driver is one loop
over the positions of the insertion order, a tuple of sibling-family
ids (id order in the first attempt); the trace's 1-based ``pi`` is
derived from it, each family's position in id order.  The singleton DA
phase ignores the order, so it runs once, right after the first
``attempt`` event.  A restart moves the inserting family directly before
the displaced one, so the new order keeps the old one up to the
displaced family's position and so does the matching state: the engine
journals every proposal, and the next attempt undoes the journal to the
state before that position and resumes there.  It first logs the events
of the positions it keeps again, headed by the DA phase's, so each
attempt's events read as a pass from the all-unmatched state.

* ``run_da``: children-proposing deferred acceptance over single-child
  families only; always succeeds.
* ``run_sc``: sequential couples, SDA's first attempt cut short.  The run
  fails the moment a displaced singleton applies to a daycare any
  sibling-family child has applied to, or a sibling family loses a seat.
  No retries.
* ``run_sda``: sorted deferred acceptance.  When an insertion displaces a
  sibling family f', the whole pass restarts with the inserting family
  moved directly before f'; seeing the same order twice is fatal.  No
  improvement check; a successful matching is ABH-stable.
* ``run_esda``: SDA plus a final per-iteration check, the verifier's
  blocking test for the family just processed: could it upgrade to a
  strictly better tuple once its own children hand over their seats?  If
  so, the run fails rather than return an unstable matching.  A
  successful matching is stable.

Failures are classified from the trace.  A restart that would evict the
inserting family itself is type-1: its displacement chain is the record
of ``trace.displacement_chains`` (the walk whose records the diagnostics
report) that holds the final attempt's last eviction, and is type-1-a if
its children end at the child that started it, type-1-b if at a
sibling.  A repeated restart order is type-2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from sibmatch.model import DUMMY_ID, Family, Instance, Matching
from sibmatch.stability import blocking_coalition_of, select
from sibmatch.trace import ExecutionTrace, displacement_chains

TYPE_1A = "type-1a"
TYPE_1B = "type-1b"
TYPE_2_PERMUTATION_REPEAT = "type-2-permutation-repeat"
IMPROVEMENT_FAILURE = "improvement-failure"
SC_APPLICATION_CLASH = "sc-application-clash"

FAILURE_KINDS = (
    TYPE_1A,
    TYPE_1B,
    TYPE_2_PERMUTATION_REPEAT,
    IMPROVEMENT_FAILURE,
    SC_APPLICATION_CLASH,
)

__all__ = [
    "FAILURE_KINDS",
    "IMPROVEMENT_FAILURE",
    "SC_APPLICATION_CLASH",
    "TYPE_1A",
    "TYPE_1B",
    "TYPE_2_PERMUTATION_REPEAT",
    "AlgorithmOutcome",
    "FailureKind",
    "classify_failure",
    "run_da",
    "run_esda",
    "run_sc",
    "run_sda",
]


@dataclass(frozen=True)
class FailureKind:
    """Typed unsuccessful termination.

    ``chain`` (type-1 only) is the displacement chain from the inserting
    family's child back into the family; ``permutation`` (type-2 only) is
    the repeated order, 1-based.  :meth:`to_dict` is the one JSON form of
    a failure: ``AlgorithmOutcome.to_dict`` adds ``details`` to it and
    ``diagnostics.structure_report`` uses it as is.
    """

    kind: str
    chain: tuple[str, ...] | None = None
    permutation: tuple[int, ...] | None = None
    details: str | None = None

    def to_dict(self) -> dict:
        """``kind``, ``chain`` and ``permutation``, the last two as lists or None."""
        return {
            "kind": self.kind,
            "chain": list(self.chain) if self.chain else None,
            "permutation": list(self.permutation) if self.permutation else None,
        }


@dataclass
class AlgorithmOutcome:
    """Result of one algorithm run: a matching or a typed failure, plus
    the full execution trace."""

    matching: Matching | None
    failure: FailureKind | None
    trace: ExecutionTrace

    @property
    def status(self) -> str:
        return "success" if self.failure is None else "failure"

    @property
    def succeeded(self) -> bool:
        return self.failure is None

    @property
    def pi_history(self) -> list[tuple[int, ...]]:
        return self.trace.pi_history

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.matching is not None:
            out["matching"] = {"assignment": self.matching.assignment}
        if self.failure is not None:
            out["failure"] = {**self.failure.to_dict(), "details": self.failure.details}
        out["permutation_history"] = [list(p) for p in self.trace.pi_history]
        return out


class _Failed(Exception):
    """Internal control flow: the run failed, its terminal event logged."""


class _Engine:
    """Mutable per-run matching state shared by all four procedures: what
    the proposal step reads, and nothing else.  It starts with every
    roster empty and every pointer at 0.

    ``roster`` maps each non-dummy daycare to its seated children, the
    one seat record; a run's matching is ``Matching.from_rosters`` of it.
    ``pos`` maps each family to its pointer into its preference list.
    ``journal`` holds one ``(family, pointer, seated, evicted)`` entry per
    ``propose`` call: the pointer it started from, the applications of
    the tuple it seated (none if exhausted) and the evictions.  A
    proposing family never holds a seat, so :meth:`undo` can take the
    calls back exactly.  ``sibling_applied`` is None except in SC, whose
    driver sets it to the empty set after the DA phase: from then on it
    holds every daycare a sibling family has applied to, and ``propose``
    enforces SC's application rule with it.
    """

    def __init__(self, instance: Instance, trace: ExecutionTrace):
        self.inst = instance
        self.trace = trace
        self.rank = instance.rank
        self.quota = instance.quota
        self.applications = instance.applications
        self.roster = {d.id: set() for d in instance.daycares if d.id != DUMMY_ID}
        self.pos = {f.id: 0 for f in instance.families}
        self.journal: list[tuple] = []
        self.sibling_applied: set[str] | None = None

    def undo(self, mark: int) -> None:
        """Take back the ``propose`` calls journaled after the first ``mark``,
        newest first, restoring the pointers and rosters they started from."""
        while len(self.journal) > mark:
            fam, start, seated, evicted = self.journal.pop()
            self.pos[fam.id] = start
            for d, apps, _ in seated:
                self.roster[d].difference_update(apps)
            for c, d, _ in evicted:
                self.roster[d].add(c)

    # -- the proposal step --------------------------------------------------

    def propose(self, fam: Family) -> list:
        """Walk the family's list from its pointer until placed or exhausted.

        A tuple runs the choice function of each of its distinct non-dummy
        daycares.  The first daycare that refuses an applicant is logged as
        a ``reject``; if none does, the evictions ``[child, daycare,
        displacer]`` are applied (daycares by first occurrence in the
        tuple, then children by priority rank; the displacer is the family
        child that applied), the family is seated and the ``place`` logged.

        Returns the evictions (the ``place`` event's list, so read-only;
        none if exhausted).  The pointer ends one past the accepted tuple,
        so a later re-proposal resumes with daycares not yet examined.
        The call is journaled.

        In SC (``sibling_applied`` set) every tried tuple first meets SC's
        application rule, daycare by daycare: a sibling family's daycares
        join ``sibling_applied``, and a singleton applying to one of them
        logs a ``clash`` and raises ``_Failed``.
        """
        applications = self.applications[fam.id]
        start = self.pos[fam.id]
        while self.pos[fam.id] < len(applications):
            j = self.pos[fam.id]
            self.pos[fam.id] = j + 1
            if self.sibling_applied is not None:
                for d, _, _ in applications[j]:
                    if fam.size > 1:
                        self.sibling_applied.add(d)
                    elif d in self.sibling_applied:
                        reason = "application to a daycare a sibling family applied to"
                        self.trace.append(
                            "clash", family=fam.id, child=fam.children[0], daycare=d, reason=reason
                        )
                        raise _Failed
            evicted = []
            for d, apps, displacer in applications[j]:
                refused, out = select(self.roster[d], apps, self.rank[d], self.quota[d])
                if refused:
                    self.trace.append(
                        "reject", family=fam.id, tuple_index=j, daycare=d, children=sorted(refused)
                    )
                    break
                evicted.extend([c, d, displacer] for c in out)
            else:
                for c, d, _ in evicted:
                    self.roster[d].discard(c)
                for d, apps, _ in applications[j]:
                    self.roster[d].update(apps)
                placed = dict(zip(fam.children, fam.preferences[j]))
                self.trace.append(
                    "place", family=fam.id, tuple_index=j, placed=placed, evicted=evicted
                )
                self.journal.append((fam, start, applications[j], evicted))
                return evicted
        self.journal.append((fam, start, (), ()))
        self.trace.append("exhausted", family=fam.id)
        return []

    # -- phases -----------------------------------------------------------

    def cascade(self, queue: deque):
        """The proposal loop: propose the queued families in FIFO order,
        queueing every displaced singleton family.

        Returns ``(sibling_family_id, eviction)`` the moment a placement
        evicts a sibling family's child, else None once the queue drains.
        """
        families_by_id, family_of = self.inst.families_by_id, self.inst.family_of
        while queue:
            for eviction in self.propose(families_by_id[queue.popleft()]):
                owner = family_of[eviction[0]]
                if families_by_id[owner].size > 1:
                    return owner, eviction
                queue.append(owner)
        return None

    def improvable(self, fam: Family) -> int | None:
        """First strictly better tuple the family could take with seat
        transfer, or None: the blocking test of mode ``"ours"`` restricted
        to this family against the current rosters.

        Called right after the family's insertion, when the cascade has
        evicted no sibling-family child, so a placed family holds the
        tuple just before its pointer and that is its rank.  An exhausted
        family holds no seat and was refused every tuple against these
        same rosters (nothing moved afterwards), so the test finds none
        at that rank either, as it would at the all-dummy rank.
        """
        witness = blocking_coalition_of(self.inst, fam, self.pos[fam.id] - 1, self.roster, "ours")
        return None if witness is None else witness.tuple_index


def _run_inserting(instance: Instance, algo: str) -> AlgorithmOutcome:
    """The insertion driver of DA, SC, SDA and ESDA (``algo``): DA inserts
    no family, only SC applies its application rule (the engine's
    ``sibling_applied``) and stops at a displaced sibling family, and only
    ESDA checks each insertion for an improvement.

    The insertion order is a tuple of family ids, ``attempted`` holds
    every order tried, and the trace's ``pi`` and ``new_pi`` map an order
    through ``pi``, each family's 1-based position in id order.

    The restart rule: when inserting ``order[position]`` displaces the
    sibling family f', the inserting family moves directly before f' and
    the next attempt resumes at f''s position ``keep``.  Only a seated
    family can be displaced, and an undo unseats every position from
    ``keep`` on, so f' was inserted earlier in this attempt or is the
    inserting family itself: ``keep <= position``, the new order is the
    old one with ``order[position]`` moved to ``keep``, and it first
    differs from the old one at ``keep``.  A family that displaced itself
    leaves the order unchanged, which is a repeat.
    """
    trace = ExecutionTrace()
    engine = _Engine(instance, trace)
    order = () if algo == "da" else instance.sibling_families
    pi = {f: k for k, f in enumerate(order, 1)}
    attempted = {order}
    trace.append("attempt", index=0, pi=list(pi.values()), families=list(order))
    base = len(trace.events)
    # the DA phase runs once: its end state is journal mark 0 and its
    # events head the prefix that every resumed attempt logs again
    engine.cascade(deque(instance.singleton_families))
    engine.journal.clear()
    engine.sibling_applied = set() if algo == "sc" else None
    # marks[k]: (journal length, events logged since the attempt event)
    # before inserting order[k]
    marks, position = [], 0

    try:
        while position < len(order):
            marks.append((len(engine.journal), len(trace.events) - base))
            fam = instance.families_by_id[order[position]]
            trace.append("insert", family=fam.id, position=position)
            hit = engine.cascade(deque([fam.id]))
            if hit is not None:
                displaced, (child, d, _) = hit
                if algo == "sc":
                    reason = "sibling family displaced"
                    trace.append("clash", family=displaced, child=child, daycare=d, reason=reason)
                    raise _Failed
                keep = order.index(displaced)
                new = (*order[:keep], fam.id, *order[keep:position], *order[position + 1 :])
                kind = "repeat" if new in attempted else "restart"
                new_pi = [pi[f] for f in new]
                trace.append(kind, inserting=fam.id, displaced=displaced, new_pi=new_pi)
                if kind == "repeat":
                    raise _Failed
                engine.undo(marks[keep][0])
                prefix = trace.events[base : base + marks[keep][1]]
                del marks[keep:]
                order, position = new, keep
                trace.append("attempt", index=len(attempted), pi=new_pi, families=list(order))
                attempted.add(order)
                base = len(trace.events)
                trace.events.extend(prefix)
            elif algo == "esda" and (j := engine.improvable(fam)) is not None:
                trace.append("improvement", family=fam.id, tuple_index=j)
                raise _Failed
            else:
                position += 1
        trace.append("success")
        return AlgorithmOutcome(Matching.from_rosters(instance, engine.roster), None, trace)
    except _Failed:
        return AlgorithmOutcome(None, classify_failure(trace), trace)


def run_da(instance: Instance) -> AlgorithmOutcome:
    """Deferred acceptance over the singleton families: the insertion
    driver with no sibling family to insert.  Always succeeds with the
    child-optimal stable matching of the restricted singleton market;
    every sibling-family child stays unmatched."""
    return _run_inserting(instance, "da")


def run_sc(instance: Instance) -> AlgorithmOutcome:
    """Sequential couples: SDA's first attempt, in id order, cut short.

    The run fails with ``sc-application-clash`` the moment a displaced
    singleton applies to any daycare a sibling-family child has ever
    applied to, or a sibling family's child loses a seat.
    """
    return _run_inserting(instance, "sc")


def run_sda(instance: Instance) -> AlgorithmOutcome:
    """Sorted deferred acceptance; a returned matching is ABH-stable."""
    return _run_inserting(instance, "sda")


def run_esda(instance: Instance) -> AlgorithmOutcome:
    """Extended sorted deferred acceptance; a returned matching is stable."""
    return _run_inserting(instance, "esda")


# -- failure classification ------------------------------------------------


def classify_failure(trace: ExecutionTrace) -> FailureKind:
    """Map a failed run's trace to its typed unsuccessful termination.

    Raises ValueError when the trace ends in success.
    """
    terminal = trace.terminal
    if terminal is None:
        raise ValueError("trace has no terminal event")
    kind = terminal["kind"]
    if kind == "success":
        raise ValueError("trace ends in success")
    if kind == "improvement":
        return FailureKind(
            IMPROVEMENT_FAILURE,
            details=(
                f"family {terminal['family']} can still obtain its "
                f"tuple #{terminal['tuple_index']} via a seat transfer"
            ),
        )
    if kind == "clash":
        return FailureKind(
            SC_APPLICATION_CLASH,
            details=(
                f"{terminal['reason']}: child {terminal['child']} "
                f"at {terminal['daycare']}"
            ),
        )
    # trace.terminal yields only TERMINAL_KINDS, so this one is "repeat"
    inserting = terminal["inserting"]
    if terminal["displaced"] != inserting:
        return FailureKind(
            TYPE_2_PERMUTATION_REPEAT, permutation=tuple(terminal["new_pi"])
        )
    # The terminal chain holds the final attempt's last eviction.
    attempts = trace.attempts()
    if not attempts:
        raise ValueError("trace has no attempt event")
    events = attempts[-1]
    evictions = [x for e in events if e["kind"] == "place" for x in e["evicted"]]
    if not evictions:
        raise ValueError("trace has no evictions in its final attempt")
    child, daycare, _ = evictions[-1]
    chain = next(
        tuple(ch["children"])
        for ch in reversed(displacement_chains(events))
        if ch["children"][-1] == child and ch["daycares"][-1] == daycare
    )
    if not any(
        e["kind"] == "place" and e["family"] == inserting and chain[0] in e["placed"]
        for e in events
    ):
        raise ValueError(
            f"chain {chain} does not start at a child {inserting!r} placed; malformed trace"
        )
    kind = TYPE_1A if chain[0] == chain[-1] else TYPE_1B
    return FailureKind(kind, chain=chain)
