"""Execution traces: an ordered, replayable event log of an algorithm run.

Events are plain dicts with a ``"kind"`` key.  Kinds and fields:

* ``attempt``: a fresh pass begins (the state resets to all-unmatched).
  Fields: ``index`` (0-based attempt counter), ``pi`` (1-based positions
  into the id-sorted sibling-family list), ``families`` (the same order
  as family ids).
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
"""

from __future__ import annotations

import json
from typing import Iterator

from sibmatch.model import DUMMY_ID, Instance, Matching, MatchingError

__all__ = ["ExecutionTrace", "Replay", "replay_trace"]

TERMINAL_KINDS = ("repeat", "improvement", "clash", "success")


class ExecutionTrace:
    """Append-only event log; see the module docstring for the format."""

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
        lines = [line for line in text.splitlines() if line.strip()]
        return cls([json.loads(line) for line in lines])


Move = tuple[str, str, str]


class Replay:
    """The one replay of an event log onto the all-unmatched assignment.

    Iterating applies the events in order and yields each as
    ``(event, moves)``: the seat moves ``(child, from, to)`` a ``place``
    event made (its evictions to the dummy, then its placements), none for
    other kinds.  ``assignment`` (every child to its daycare) and
    ``rosters`` (every real daycare to its seated children) hold the state
    after the event last yielded; each ``attempt`` event resets both.  A
    move naming a child or daycare the instance lacks raises
    :class:`MatchingError`.
    """

    def __init__(self, instance: Instance, trace: ExecutionTrace):
        self.instance = instance
        self.trace = trace
        self._reset()

    def _reset(self) -> None:
        self.assignment = {child: DUMMY_ID for child, _ in self.instance.children}
        self.rosters: dict[str, set[str]] = {
            d.id: set() for d in self.instance.daycares if d.id != DUMMY_ID
        }

    def _move(self, child: str, source: str, target: str) -> Move:
        known = self.instance.daycares_by_id
        if child not in self.assignment or source not in known or target not in known:
            raise MatchingError(f"trace: move of {child!r} from {source!r} to {target!r} is unknown")
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
                for child, daycare, _ in event["evicted"]:
                    moves.append(self._move(child, daycare, DUMMY_ID))
                for child, daycare in event["placed"].items():
                    source = self.assignment.get(child, DUMMY_ID)
                    moves.append(self._move(child, source, daycare))
            yield event, moves


def replay_trace(instance: Instance, trace: ExecutionTrace) -> Matching:
    """The matching the event log ends on.

    For a successful run this equals the matching the run produced.
    """
    replay = Replay(instance, trace)
    for _ in replay:
        pass
    return Matching(instance, replay.assignment)
