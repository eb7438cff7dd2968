"""The four matching procedures: DA, SC, SDA, and ESDA.

All four share one proposal engine and its one proposal loop.  A family
walks its preference list; a tuple is accepted only if no distinct
non-dummy daycare of the tuple refuses any of the family's applicants
(``Instance.applications``) under ``stability.select``, which also names
the seated children the placement evicts.  A proposing family never
holds a seat, so each roster goes to ``select`` as it is.  The loop
proposes queued families in FIFO order and queues every displaced
singleton family; it stops at the first eviction of a sibling-family
child.  Deferred acceptance is that loop over the singleton families;
inserting a sibling family is that loop started from the family alone.

* ``run_da``: children-proposing deferred acceptance over single-child
  families only; always succeeds.
* ``run_sc``: sequential couples.  Sibling families are inserted in a
  fixed order; the run aborts the moment a displaced singleton applies to
  a daycare any sibling-family child has applied to, or a sibling family
  loses a seat.  No retries.
* ``run_sda``: sorted deferred acceptance.  When an insertion displaces a
  sibling family f', the whole pass restarts with the inserting family
  moved directly before f'; seeing the same order twice is fatal.  No
  improvement check; a successful matching is ABH-stable.  The singleton
  DA phase ignores the order, so it runs once per run: every attempt
  starts from a copy of its end state and logs its events again.
* ``run_esda``: SDA plus a final per-iteration check, the verifier's
  blocking test for the family just processed: could it upgrade to a
  strictly better tuple once its own children hand over their seats?  If
  so, the run fails rather than return an unstable matching.  A
  successful matching is stable.

Failures are classified from the trace: a displacement chain returning to
the inserting family itself is type-1-a (same child) or type-1-b (a
sibling); a repeated restart order is type-2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from sibmatch.model import DUMMY_ID, Family, Instance, Matching
from sibmatch.stability import blocking_coalition_of, select
from sibmatch.trace import ExecutionTrace

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
    the repeated order, 1-based.
    """

    kind: str
    chain: tuple[str, ...] | None = None
    permutation: tuple[int, ...] | None = None
    details: str | None = None


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
            out["failure"] = {
                "kind": self.failure.kind,
                "chain": list(self.failure.chain) if self.failure.chain else None,
                "permutation": (
                    list(self.failure.permutation) if self.failure.permutation else None
                ),
                "details": self.failure.details,
            }
        out["permutation_history"] = [list(p) for p in self.trace.pi_history]
        return out


class _ScClash(Exception):
    """Internal control flow for the sequential-couples abort."""


class _Engine:
    """Mutable per-run matching state shared by all four procedures."""

    def __init__(self, instance: Instance, trace: ExecutionTrace):
        self.inst = instance
        self.trace = trace
        self.rank = instance.rank
        self.quota = instance.quota
        self.fs_ids: list[str] = list(instance.sibling_families)
        self.fo_ids: list[str] = list(instance.singleton_families)
        self.applications = instance.applications
        self.roster: dict[str, set[str]] = {}
        self.assign: dict[str, str] = {}
        self.pos: dict[str, int] = {}

    def reset(self) -> None:
        self.roster = {d.id: set() for d in self.inst.daycares if d.id != DUMMY_ID}
        self.assign = {child: DUMMY_ID for child, _ in self.inst.children}
        self.pos = {f.id: 0 for f in self.inst.families}

    def restore(self, roster, assign, pos) -> None:
        """Set the matching state to copies of the given one."""
        self.roster = {d: set(seated) for d, seated in roster.items()}
        self.assign = dict(assign)
        self.pos = dict(pos)

    # -- tuple evaluation -------------------------------------------------

    def eval_tuple(self, fam: Family, j: int):
        """Run every involved choice function on the family's ``j``-th
        tuple; no state is modified.

        Returns ``(evictions, None)`` if no daycare refuses an applicant,
        else ``(None, (daycare, refused_children))`` for the first that
        does.  Evictions are ``(child, daycare, displacer)``, daycares by
        first occurrence in the tuple, then children by priority rank;
        the displacer is the family child that applied to the daycare.
        """
        evictions: list[tuple[str, str, str]] = []
        for d, apps, displacer in self.applications[fam.id][j]:
            refused, evicted = select(self.roster[d], apps, self.rank[d], self.quota[d])
            if refused:
                return None, (d, refused)
            evictions.extend((c, d, displacer) for c in evicted)
        return evictions, None

    def place(self, fam: Family, j: int, evicted) -> list:
        """Commit an accepted tuple and the evictions ``eval_tuple``
        computed for it; returns the evictions."""
        for c, d, _ in evicted:
            self.roster[d].discard(c)
            self.assign[c] = DUMMY_ID
        tup = fam.preferences[j]
        for child, d in zip(fam.children, tup):
            self.assign[child] = d
            if d != DUMMY_ID:
                self.roster[d].add(child)
        self.trace.append(
            "place",
            family=fam.id,
            tuple_index=j,
            placed={c: d for c, d in zip(fam.children, tup)},
            evicted=[list(e) for e in evicted],
        )
        return evicted

    def propose(self, fam: Family, apply_hook=None) -> list:
        """Walk the family's list from its pointer until placed or exhausted.

        Returns the evictions of the placement (none if exhausted).  The
        pointer ends one past the accepted tuple, so a later re-proposal
        resumes with daycares not yet examined.  ``apply_hook(fam, d)`` is
        called for every distinct non-dummy daycare of every tried tuple
        before it is evaluated (the SC clash rule lives there).
        """
        applications = self.applications[fam.id]
        while self.pos[fam.id] < len(applications):
            j = self.pos[fam.id]
            if apply_hook is not None:
                for d, _, _ in applications[j]:
                    apply_hook(fam, d)
            evicted, refusal = self.eval_tuple(fam, j)
            if evicted is None:
                d, refused = refusal
                self.trace.append(
                    "reject",
                    family=fam.id,
                    tuple_index=j,
                    daycare=d,
                    children=sorted(refused),
                )
                self.pos[fam.id] = j + 1
                continue
            self.pos[fam.id] = j + 1
            return self.place(fam, j, evicted)
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

    def matching(self) -> Matching:
        return Matching(self.inst, self.assign)


def _reinsert(pi: tuple[int, ...], moving: int, before: int) -> tuple[int, ...]:
    """New order with ``moving`` placed immediately before ``before``."""
    if moving == before:
        return tuple(pi)
    rest = [x for x in pi if x != moving]
    rest.insert(rest.index(before), moving)
    return tuple(rest)


def _one_based(pi: tuple[int, ...]) -> list[int]:
    return [i + 1 for i in pi]


def run_da(instance: Instance, scope=None) -> Matching:
    """Child-optimal stable matching of the restricted singleton market.

    ``scope`` is an iterable of family ids, all of which must have exactly
    one child; it defaults to every single-child family.  Children outside
    the scope stay unmatched.
    """
    if scope is None:
        scope_ids = list(instance.singleton_families)
    else:
        scope_ids = sorted(set(scope))
        for fid in scope_ids:
            fam = instance.families_by_id.get(fid)
            if fam is None:
                raise ValueError(f"scope: unknown family {fid!r}")
            if fam.size != 1:
                raise ValueError(f"scope: family {fid!r} has {fam.size} children")
    engine = _Engine(instance, ExecutionTrace())
    engine.reset()
    engine.cascade(deque(scope_ids))
    return engine.matching()


def _run_sorted(instance: Instance, improvement: bool) -> AlgorithmOutcome:
    """Shared SDA/ESDA driver; ``improvement`` adds the ESDA check."""
    # The singleton DA phase ignores pi: run it once, and start every
    # attempt from its end state and its events.
    engine = _Engine(instance, ExecutionTrace())
    engine.reset()
    engine.cascade(deque(engine.fo_ids))
    da_events = engine.trace.events
    da_state = (engine.roster, engine.assign, engine.pos)
    trace = engine.trace = ExecutionTrace()
    fs = engine.fs_ids
    fs_index = {fid: k for k, fid in enumerate(fs)}
    pi = tuple(range(len(fs)))
    attempted = {pi}
    attempt_no = 0

    while True:
        trace.append(
            "attempt", index=attempt_no, pi=_one_based(pi), families=[fs[k] for k in pi]
        )
        attempt_no += 1
        trace.events.extend(da_events)
        engine.restore(*da_state)

        outcome = None
        for position, idx in enumerate(pi):
            fam = instance.families_by_id[fs[idx]]
            trace.append("insert", family=fam.id, position=position)
            hit = engine.cascade(deque([fam.id]))
            if hit is not None:
                displaced = hit[0]
                new_pi = _reinsert(pi, idx, fs_index[displaced])
                if new_pi in attempted:
                    trace.append(
                        "repeat",
                        inserting=fam.id,
                        displaced=displaced,
                        new_pi=_one_based(new_pi),
                    )
                    outcome = AlgorithmOutcome(
                        "failure", None, classify_failure(trace), trace
                    )
                else:
                    attempted.add(new_pi)
                    trace.append(
                        "restart",
                        inserting=fam.id,
                        displaced=displaced,
                        new_pi=_one_based(new_pi),
                    )
                    pi = new_pi
                    outcome = "restart"
                break
            if improvement:
                j = engine.improvable(fam)
                if j is not None:
                    trace.append("improvement", family=fam.id, tuple_index=j)
                    outcome = AlgorithmOutcome(
                        "failure", None, classify_failure(trace), trace
                    )
                    break
        if outcome is None:
            trace.append("success")
            return AlgorithmOutcome("success", engine.matching(), None, trace)
        if outcome != "restart":
            return outcome


def run_sda(instance: Instance) -> AlgorithmOutcome:
    """Sorted deferred acceptance; a returned matching is ABH-stable."""
    return _run_sorted(instance, improvement=False)


def run_esda(instance: Instance) -> AlgorithmOutcome:
    """Extended sorted deferred acceptance; a returned matching is stable."""
    return _run_sorted(instance, improvement=True)


def run_sc(instance: Instance, pi=None) -> AlgorithmOutcome:
    """Sequential couples baseline.

    ``pi`` is a permutation given as 0-based positions into the id-sorted
    sibling-family list (default: identity).  The run fails with
    ``sc-application-clash`` the moment a displaced singleton applies to
    any daycare a sibling-family child has ever applied to, or a sibling
    family's child loses a seat.  Sibling families are inserted once each,
    in order, with no restarts.
    """
    trace = ExecutionTrace()
    engine = _Engine(instance, trace)
    fs = engine.fs_ids
    if pi is None:
        pi = tuple(range(len(fs)))
    else:
        pi = tuple(pi)
        if sorted(pi) != list(range(len(fs))):
            raise ValueError(f"pi must be a permutation of 0..{len(fs) - 1}")

    applied_fs: set[str] = set()

    def apply_hook(fam: Family, d: str) -> None:
        if fam.size > 1:
            applied_fs.add(d)
        elif d in applied_fs:
            trace.append(
                "clash",
                family=fam.id,
                child=fam.children[0],
                daycare=d,
                reason="application to a daycare a sibling family applied to",
            )
            raise _ScClash

    trace.append("attempt", index=0, pi=_one_based(pi), families=[fs[k] for k in pi])
    engine.reset()
    try:
        engine.cascade(deque(engine.fo_ids))
        for position, idx in enumerate(pi):
            fam = instance.families_by_id[fs[idx]]
            trace.append("insert", family=fam.id, position=position)
            hit = engine.cascade(deque([fam.id]), apply_hook)
            if hit is not None:
                owner, (child, d, _) = hit
                trace.append(
                    "clash",
                    family=owner,
                    child=child,
                    daycare=d,
                    reason="sibling family displaced",
                )
                raise _ScClash
    except _ScClash:
        return AlgorithmOutcome("failure", None, classify_failure(trace), trace)
    trace.append("success")
    return AlgorithmOutcome("success", engine.matching(), None, trace)


# -- failure classification ------------------------------------------------


def _terminal_chain(trace: ExecutionTrace, members) -> tuple[str, ...]:
    """Reconstruct the displacement chain ending at the terminal eviction.

    Walk backwards through the final attempt: the last eviction hit the
    inserting family; its displacer was itself evicted earlier, and so on
    until the displacer is one of the inserting family's own children
    (their placement started the cascade).
    """
    events = trace.attempts()[-1]
    evictions: list[tuple[str, str]] = []  # (child, displacer), event order
    for event in events:
        if event["kind"] == "place":
            evictions.extend((c, x) for c, _, x in event["evicted"])
    if not evictions:
        raise ValueError("trace has no evictions in its final attempt")
    child, displacer = evictions[-1]
    chain = [child]
    pos = len(evictions) - 1
    while displacer not in members:
        prior = None
        for k in range(pos - 1, -1, -1):
            if evictions[k][0] == displacer:
                prior = k
                break
        if prior is None:
            raise ValueError(
                f"displacer {displacer!r} has no prior eviction; malformed trace"
            )
        chain.append(displacer)
        pos = prior
        displacer = evictions[prior][1]
    chain.append(displacer)
    chain.reverse()
    return tuple(chain)


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
    if kind == "repeat":
        inserting = terminal["inserting"]
        if terminal["displaced"] != inserting:
            return FailureKind(
                TYPE_2_PERMUTATION_REPEAT, permutation=tuple(terminal["new_pi"])
            )
        members: set[str] = set()
        for event in trace.attempts()[-1]:
            if event["kind"] == "place" and event["family"] == inserting:
                members |= set(event["placed"])
        chain = _terminal_chain(trace, members)
        kind = TYPE_1A if chain[0] == chain[-1] else TYPE_1B
        return FailureKind(kind, chain=chain)
    raise ValueError(f"unrecognised terminal event kind {kind!r}")
