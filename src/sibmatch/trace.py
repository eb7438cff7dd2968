"""Execution traces: an ordered, replayable event log of an algorithm run.

Events are plain dicts with a ``"kind"`` key.  Kinds and fields:

* ``attempt``: a fresh pass begins (the state resets to all-unmatched).
  Fields: ``index`` (0-based attempt counter), ``pi`` (1-based positions
  into the id-sorted sibling-family list), ``families`` (the same order
  as family ids).  DA inserts no family, so its one ``attempt`` has an
  empty ``pi`` and ``families``.
* ``insert``: a sibling family starts its iteration.  Fields: ``family``,
  ``position`` (0-based position within the current order).
* ``reject``: a proposed tuple was refused.  Fields: ``family``,
  ``tuple_index``, ``daycare`` (first refusing), ``children`` (refused).
* ``place``: a family's tuple was accepted.  Fields: ``family``,
  ``tuple_index``, ``placed`` (child -> daycare, dummy included),
  ``evicted`` (list of ``[child, daycare, displacer]`` in eviction order).
* ``exhausted``: preference list ran out; the family rests unmatched.
  Fields: ``family``.
* ``restart``: a sibling family was displaced and a new order is tried.
  Fields: ``inserting``, ``displaced``, ``new_pi`` (1-based).
* ``repeat``: the new order was already attempted (terminal).  Fields as
  ``restart``.
* ``improvement``: the just-processed family could still upgrade via a
  seat transfer (terminal).  Fields: ``family``, ``tuple_index``.
* ``clash``: sequential-couples failure (terminal).  Fields: ``family``,
  ``child``, ``daycare``, ``reason``.
* ``success``: the run produced a matching (terminal).

Replaying the ``place`` events of the final attempt onto the all-unmatched
assignment reproduces the final matching exactly; :class:`Replay`
implements that and is property-tested against every algorithm.
:func:`displacement_chains` is the one walk of the ``evicted`` fields
into displacement chains, one record each; failure classification and
the diagnostics both read those records.

Events are read-only.  An attempt after a restart resumes from the
prefix its order shares with the previous one and logs that prefix's
events again, the singleton DA phase's first, so they are the same dict
objects as the previous attempt's; changing one would change every
attempt that holds it.  :meth:`ExecutionTrace.from_jsonl` still returns
distinct dicts.
"""

from __future__ import annotations

import json
from typing import Iterator

from sibmatch.model import DUMMY_ID, Instance, Matching, MatchingError, is_kind, parse_json

__all__ = ["ExecutionTrace", "Replay", "displacement_chains", "replay_trace"]

TERMINAL_KINDS = ("repeat", "improvement", "clash", "success")

# Every event kind with its fields and the kind of JSON value each holds
# (a kind of ``model.is_kind``), as listed above.
EVENT_FIELDS: dict[str, dict[str, str]] = {
    "attempt": {"index": "int", "pi": "list", "families": "list"},
    "insert": {"family": "str", "position": "int"},
    "reject": {"family": "str", "tuple_index": "int", "daycare": "str", "children": "list"},
    "place": {"family": "str", "tuple_index": "int", "placed": "dict", "evicted": "list"},
    "exhausted": {"family": "str"},
    "restart": {"inserting": "str", "displaced": "str", "new_pi": "list"},
    "repeat": {"inserting": "str", "displaced": "str", "new_pi": "list"},
    "improvement": {"family": "str", "tuple_index": "int"},
    "clash": {"family": "str", "child": "str", "daycare": "str", "reason": "str"},
    "success": {},
}


def _check_event(event) -> None:
    """Raise ValueError unless ``event`` is an object of a known kind with
    every field of that kind, each of its JSON type, every ``evicted``
    entry a list of three ids and every ``placed`` daycare an id."""
    kind = event.get("kind") if isinstance(event, dict) else None
    if not isinstance(kind, str) or kind not in EVENT_FIELDS:
        raise ValueError("expected an event object with a known kind")
    for name, field_kind in EVENT_FIELDS[kind].items():
        if not is_kind(field_kind, event.get(name)):
            raise ValueError(f"{kind} event: {name!r} must be of type {field_kind}")
    for entry in event.get("evicted", ()):
        ids = isinstance(entry, list) and len(entry) == 3 and all(isinstance(x, str) for x in entry)
        if not ids:
            raise ValueError(f"{kind} event: each evicted entry must be a list of 3 ids")
    if not all(isinstance(d, str) for d in event.get("placed", {}).values()):
        raise ValueError(f"{kind} event: each placed daycare must be an id")


class ExecutionTrace:
    """Append-only event log; see the module docstring for the format.

    An event may appear more than once in ``events`` (the events of the
    order prefix, DA phase included, that a restarted attempt shares with
    the previous one), so treat events as read-only.
    """

    def __init__(self, events: list[dict] | None = None):
        self.events: list[dict] = list(events) if events else []

    def append(self, kind: str, **fields) -> dict:
        event = {"kind": kind, **fields}
        self.events.append(event)
        return event

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def pi_history(self) -> list[tuple[int, ...]]:
        """Attempted orders over the sibling families, 1-based, in order."""
        return [tuple(e["pi"]) for e in self.events if e["kind"] == "attempt"]

    @property
    def terminal(self) -> dict | None:
        """The terminal event, if the run has ended."""
        for event in reversed(self.events):
            if event["kind"] in TERMINAL_KINDS:
                return event
        return None

    def attempts(self) -> list[list[dict]]:
        """Events grouped per attempt (the leading ``attempt`` included)."""
        groups: list[list[dict]] = []
        for event in self.events:
            if event["kind"] == "attempt":
                groups.append([])
            if groups:
                groups[-1].append(event)
        return groups

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.events)

    @classmethod
    def from_jsonl(cls, text: str) -> "ExecutionTrace":
        """The trace of a JSON-lines log; a line that is not an event of the
        documented format raises ValueError naming it (1-based)."""
        events = []
        for number, line in enumerate(text.splitlines(), 1):
            if line.strip():
                try:
                    events.append(parse_json(line, ValueError, "{}"))
                    _check_event(events[-1])
                except ValueError as exc:
                    raise ValueError(f"trace line {number}: {exc}") from None
        return cls(events)


Move = tuple[str, str, str]


class Replay:
    """The one replay of an event log onto the all-unmatched assignment.

    Iterating applies the events in order and yields each as
    ``(event, moves)``: the seat moves ``(child, from, to)`` a ``place``
    event made (its evictions to the dummy, then its placements), none for
    other kinds.  ``assignment`` (every child to its daycare) and
    ``rosters`` (every real daycare to its seated children) hold the state
    after the event last yielded; each ``attempt`` event resets both.
    This is the one check of a trace against its market: a move naming a
    child or daycare the instance lacks, moving a child from a daycare it
    does not sit at, or seating a child at a daycare that does not rank
    it, an eviction whose displacer the same ``place`` event does not
    place at the daycare it evicts from, a ``placed`` that is not the
    event's family's ``tuple_index``-th tuple, and a ``place`` event that
    leaves a daycare above its quota, each raise :class:`MatchingError`.
    So every seat is an applicant pair of its daycare, held in
    ``Instance.rank``.
    """

    def __init__(self, instance: Instance, trace: ExecutionTrace):
        self.instance = instance
        self.trace = trace
        self._reset()

    def _reset(self) -> None:
        self.assignment = dict.fromkeys(self.instance.family_of, DUMMY_ID)
        self.rosters: dict[str, set[str]] = {
            d.id: set() for d in self.instance.daycares if d.id != DUMMY_ID
        }

    def _move(self, child: str, source: str, target: str) -> Move:
        known = self.instance.daycares_by_id
        if child not in self.assignment or source not in known or target not in known:
            raise MatchingError(f"trace: move of {child!r} from {source!r} to {target!r} is unknown")
        if self.assignment[child] != source:
            raise MatchingError(f"trace: {child!r} is moved from {source!r}, where it is not seated")
        if not self.instance.is_acceptable(target, child):
            raise MatchingError(f"trace: {child!r} is seated at {target!r}, which does not rank it")
        self.assignment[child] = target
        if source != DUMMY_ID:
            self.rosters[source].discard(child)
        if target != DUMMY_ID:
            self.rosters[target].add(child)
        return child, source, target

    def __iter__(self) -> Iterator[tuple[dict, list[Move]]]:
        for event in self.trace:
            moves: list[Move] = []
            if event["kind"] == "attempt":
                self._reset()
            elif event["kind"] == "place":
                for child, daycare, displacer in event["evicted"]:
                    moves.append(self._move(child, daycare, DUMMY_ID))
                    if event["placed"].get(displacer) != daycare:
                        raise MatchingError(
                            f"trace: {child!r} is evicted by {displacer!r}, "
                            f"which the event does not place at {daycare!r}"
                        )
                for child, daycare in event["placed"].items():
                    source = self.assignment.get(child, DUMMY_ID)
                    moves.append(self._move(child, source, daycare))
                self._check_placement(event)
            yield event, moves

    def _check_placement(self, event: dict) -> None:
        """Raise :class:`MatchingError` unless the ``place`` event seats its
        family's ``tuple_index``-th tuple and leaves every daycare it fills
        within its quota."""
        family, j, placed = event["family"], event["tuple_index"], event["placed"]
        fam = self.instance.families_by_id.get(family)
        if fam is None or not 0 <= j < len(fam.preferences) or (
            placed != dict(zip(fam.children, fam.preferences[j]))
        ):
            raise MatchingError(f"trace: {family!r} places {placed}, not its tuple {j}")
        for daycare in dict.fromkeys(placed.values()):
            quota = self.instance.quota[daycare]
            if daycare != DUMMY_ID and len(self.rosters[daycare]) > quota:
                raise MatchingError(f"trace: {daycare!r} ends above its quota {quota}")


def displacement_chains(events) -> list[dict]:
    """Every displacement chain of an event sequence, in creation order.

    A chain is the record ``{"children", "daycares", "attempt",
    "inserting_family"}``: the placement of ``children[0]`` evicted
    ``children[1]`` from ``daycares[0]``, whose next placement evicted
    ``children[2]`` from ``daycares[1]``, and so on (both lists).
    ``attempt`` is the index of the enclosing ``attempt`` event (-1 before
    any) and ``inserting_family`` the family of the last ``insert`` event
    before the chain began (None in the DA phase).  A placement by a child
    evicted earlier in the same attempt extends that child's chain; any
    other placement starts one new chain per child it evicts.  Chains
    never span attempts.
    """
    chains: list[dict] = []
    open_chain: dict[str, dict] = {}
    attempt, inserting = -1, None
    for event in events:
        kind = event["kind"]
        if kind == "attempt":
            open_chain.clear()
            attempt, inserting = event["index"], None
        elif kind == "insert":
            inserting = event["family"]
        elif kind == "place":
            for child, daycare, displacer in event["evicted"]:
                chain = open_chain.pop(displacer, None)
                if chain is None:
                    chain = {"children": [displacer], "daycares": [], "attempt": attempt,
                             "inserting_family": inserting}
                    chains.append(chain)
                chain["children"].append(child)
                chain["daycares"].append(daycare)
                open_chain[child] = chain
    return chains


def replay_trace(instance: Instance, trace: ExecutionTrace) -> Matching:
    """The matching the event log ends on.

    For a successful run this equals the matching the run produced.
    """
    replay = Replay(instance, trace)
    for _ in replay:
        pass
    return Matching(instance, replay.assignment)
