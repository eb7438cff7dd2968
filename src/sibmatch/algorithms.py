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

SC, SDA and ESDA share one insertion driver.  The singleton DA phase
ignores the insertion order pi, so it runs once per run, and every
attempt logs its events again before inserting the sibling families in
order pi (id order in the first attempt).  A restart moves one family
to an earlier position, so the new order shares a prefix with the old
one and so does the matching state after it: the engine journals every
proposal, and an attempt resumes from the shared prefix by undoing the
journal to the state before its first differing position, logging the
prefix's events again.

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
inserting family itself is type-1: its displacement chain, the one
holding the final attempt's last eviction, is read off by
``trace.displacement_chains`` (the walk the diagnostics use too) and is
type-1-a if it ends at the child that started it, type-1-b if at a
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

    status: str  # "success" | "failure"
    matching: Matching | None
    failure: FailureKind | None
    trace: ExecutionTrace

    @property
    def succeeded(self) -> bool:
        return self.status == "success"

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
    """Mutable per-run matching state shared by all four procedures; it
    starts with every child unmatched and every pointer at 0.

    ``journal`` holds one ``(family, pointer, seated, evicted)`` entry per
    ``propose`` call: the pointer it started from, the applications of
    the tuple it seated (none if exhausted) and the evictions.  A
    proposing family never holds a seat, so :meth:`undo` can take the
    calls back exactly.
    """

    def __init__(self, instance: Instance, trace: ExecutionTrace):
        self.inst = instance
        self.trace = trace
        self.rank = instance.rank
        self.quota = instance.quota
        self.applications = instance.applications
        self.roster = {d.id: set() for d in instance.daycares if d.id != DUMMY_ID}
        self.assign = dict.fromkeys(instance.family_of, DUMMY_ID)
        self.pos = {f.id: 0 for f in instance.families}
        self.journal: list[tuple] = []

    def undo(self, mark: int) -> None:
        """Take back the ``propose`` calls journaled after the first ``mark``,
        newest first, restoring the state they started from."""
        journal, roster, assign = self.journal, self.roster, self.assign
        while len(journal) > mark:
            fam, start, seated, evicted = journal.pop()
            self.pos[fam.id] = start
            for d, apps, _ in seated:
                roster[d].difference_update(apps)
            for c in fam.children:
                assign[c] = DUMMY_ID
            for c, d, _ in evicted:
                roster[d].add(c)
                assign[c] = d

    # -- the proposal step --------------------------------------------------

    def propose(self, fam: Family, apply_hook=None) -> list:
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
        ``apply_hook(fam, d)`` is called for every daycare of every tried
        tuple before it is evaluated (the SC clash rule lives there).  The
        call is journaled.
        """
        applications = self.applications[fam.id]
        start = self.pos[fam.id]
        while self.pos[fam.id] < len(applications):
            j = self.pos[fam.id]
            self.pos[fam.id] = j + 1
            if apply_hook is not None:
                for d, _, _ in applications[j]:
                    apply_hook(fam, d)
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
                    self.assign[c] = DUMMY_ID
                placed = dict(zip(fam.children, fam.preferences[j]))
                self.assign.update(placed)
                for d, apps, _ in applications[j]:
                    self.roster[d].update(apps)
                self.trace.append(
                    "place", family=fam.id, tuple_index=j, placed=placed, evicted=evicted
                )
                self.journal.append((fam, start, applications[j], evicted))
                return evicted
        self.journal.append((fam, start, (), ()))
        self.trace.append("exhausted", family=fam.id)
        return []

    # -- phases -----------------------------------------------------------

    def cascade(self, queue: deque, apply_hook=None):
        """The proposal loop: propose the queued families in FIFO order,
        queueing every displaced singleton family.

        Returns ``(sibling_family_id, eviction)`` the moment a placement
        evicts a sibling family's child, else None once the queue drains.
        """
        families_by_id, family_of = self.inst.families_by_id, self.inst.family_of
        while queue:
            for eviction in self.propose(families_by_id[queue.popleft()], apply_hook):
                owner = family_of[eviction[0]]
                if families_by_id[owner].size > 1:
                    return owner, eviction
                queue.append(owner)
        return None

    def improvable(self, fam: Family) -> int | None:
        """First strictly better tuple the family could take with seat
        transfer, or None: the blocking test of mode ``"ours"`` restricted
        to this family against the current rosters."""
        current = fam.tuple_rank(tuple(self.assign[c] for c in fam.children))
        witness = blocking_coalition_of(self.inst, fam, current, self.roster, "ours")
        return None if witness is None else witness.tuple_index


def _reinsert(pi: tuple[int, ...], moving: int, before: int) -> tuple[int, ...]:
    """New order with ``moving`` placed immediately before ``before``."""
    if moving == before:
        return tuple(pi)
    rest = [x for x in pi if x != moving]
    rest.insert(rest.index(before), moving)
    return tuple(rest)


def _one_based(pi: tuple[int, ...]) -> list[int]:
    return [i + 1 for i in pi]


def run_da(instance: Instance) -> Matching:
    """Child-optimal stable matching of the restricted singleton market;
    every sibling-family child stays unmatched."""
    engine = _Engine(instance, ExecutionTrace())
    engine.cascade(deque(instance.singleton_families))
    return Matching(instance, engine.assign)


def _sc_clash_hook(trace: ExecutionTrace):
    """SC's application rule as a ``propose`` hook: a singleton applying to
    a daycare any sibling-family child has applied to logs a ``clash`` and
    raises ``_Failed``."""
    applied_fs: set[str] = set()

    def apply_hook(fam: Family, d: str) -> None:
        if fam.size > 1:
            applied_fs.add(d)
        elif d in applied_fs:
            reason = "application to a daycare a sibling family applied to"
            trace.append("clash", family=fam.id, child=fam.children[0], daycare=d, reason=reason)
            raise _Failed

    return apply_hook


def _run_inserting(instance: Instance, algo: str) -> AlgorithmOutcome:
    """The insertion driver of SC, SDA and ESDA (``algo``): only SC has the
    application-clash hook and stops at a displaced sibling family, and
    only ESDA checks each insertion for an improvement."""
    # the DA end state is journal mark 0; every attempt logs its events again
    engine = _Engine(instance, ExecutionTrace())
    engine.cascade(deque(instance.singleton_families))
    engine.journal.clear()
    da_events = engine.trace.events
    trace = engine.trace = ExecutionTrace()
    apply_hook = _sc_clash_hook(trace) if algo == "sc" else None
    fs = instance.sibling_families
    fs_index = {fid: k for k, fid in enumerate(fs)}
    pi = tuple(range(len(fs)))
    attempted: set[tuple[int, ...]] = set()
    # per inserted position of pi: (journal length, events logged since the
    # attempt's first insert) before its insertion; prefix: the events a
    # resumed attempt logs again for the positions it keeps
    marks: list[tuple[int, int]] = []
    prefix: list[dict] = []

    try:
        while True:
            families = [fs[k] for k in pi]
            trace.append("attempt", index=len(attempted), pi=_one_based(pi), families=families)
            attempted.add(pi)
            trace.events.extend(da_events)
            base = len(trace.events)
            trace.events.extend(prefix)

            for position in range(len(marks), len(pi)):
                marks.append((len(engine.journal), len(trace.events) - base))
                fam = instance.families_by_id[fs[pi[position]]]
                trace.append("insert", family=fam.id, position=position)
                hit = engine.cascade(deque([fam.id]), apply_hook)
                if hit is not None:
                    displaced, (child, d, _) = hit
                    if algo == "sc":
                        reason = "sibling family displaced"
                        trace.append("clash", family=displaced, child=child, daycare=d, reason=reason)
                        raise _Failed
                    new_pi = _reinsert(pi, pi[position], fs_index[displaced])
                    repeat = new_pi in attempted
                    trace.append(
                        "repeat" if repeat else "restart",
                        inserting=fam.id,
                        displaced=displaced,
                        new_pi=_one_based(new_pi),
                    )
                    if repeat:
                        raise _Failed
                    # resume after the longest prefix pi and new_pi share
                    keep = next(k for k, (a, b) in enumerate(zip(pi, new_pi)) if a != b)
                    engine.undo(marks[keep][0])
                    prefix = trace.events[base : base + marks[keep][1]]
                    del marks[keep:]
                    pi = new_pi
                    break
                if algo == "esda" and (j := engine.improvable(fam)) is not None:
                    trace.append("improvement", family=fam.id, tuple_index=j)
                    raise _Failed
            else:
                trace.append("success")
                return AlgorithmOutcome("success", Matching(instance, engine.assign), None, trace)
    except _Failed:
        return AlgorithmOutcome("failure", None, classify_failure(trace), trace)


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
        children
        for children, daycares, _, _ in reversed(displacement_chains(events))
        if children[-1] == child and daycares[-1] == daycare
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
