"""Domain model for daycare markets with sibling applicants.

A market consists of families (each an ordered list of children plus a
strict preference list over *tuples* of daycares, one slot per child),
and daycares (each a quota plus a strict priority list over the children
it finds acceptable).  The reserved daycare id ``d0`` is the dummy that
represents being unmatched: it has unlimited quota, accepts every child,
and must exist in every instance.

Preference semantics, used by every other module:

* an earlier tuple in a family's list is strictly preferred to a later one;
* every listed tuple is strictly preferred to the all-dummy tuple;
* the all-dummy tuple is strictly preferred to any unlisted tuple
  (unlisted tuples are never produced by algorithms).

This module also states, once, what input from outside the program may
hold: :func:`is_kind` is the one check of a value's JSON kind (a bool is
never a number, and an integer must lie in the float range),
:func:`check_fields` the one check of a config dataclass's fields, and
:func:`parse_json` the one parse of JSON text.  The other modules call
these for their specs, traces and options.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from typing import Iterable, Mapping

DUMMY_ID = "d0"

__all__ = [
    "DUMMY_ID",
    "Daycare",
    "Family",
    "Instance",
    "InstanceError",
    "Matching",
    "MatchingError",
    "dump_instance",
    "dump_matching",
    "is_feasible",
    "is_individually_rational",
    "load_instance",
    "load_matching",
]


class InstanceError(ValueError):
    """Instance data violates the schema or a model invariant."""


class MatchingError(ValueError):
    """Matching data is not a total, well-referenced assignment."""


# The values each kind of outside input admits: bools never count as
# numbers, ints count as floats, and an int must lie in the float range
# (the range checks and the generator's arithmetic convert it).
_KINDS = {
    "int": (int, "an integer in the float range"),
    "float": ((int, float), "a number in the float range"),
    "str": (str, "a string"),
    "list": (list, "a list"),
    "dict": (dict, "an object"),
}


def is_kind(kind: str, value) -> bool:
    """True if ``value`` is of ``kind``: ``"int"``, ``"float"``, ``"str"``,
    ``"list"`` or ``"dict"``.  A bool is of none of them, and an int is
    a ``"float"`` too but of neither kind beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind][0]):
        return False
    return not isinstance(value, int) or abs(value) <= sys.float_info.max


def check_fields(obj) -> None:
    """Check every field of the dataclass ``obj`` against its annotation.

    This is the one type check of a config's fields (``MarketConfig``,
    ``SearchBudget``, ``SweepSpec``).  An ``int``, ``float``, ``str``,
    ``list`` or ``dict`` field must hold a value of that kind (see
    :func:`is_kind`); a ``tuple[X, ...]`` field must hold a list or tuple
    of X and is stored as a tuple.  Raises ValueError naming the first
    field that fails.  The annotations are read as strings, so the
    dataclass's module must use ``from __future__ import annotations``.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        item = f.type.removeprefix("tuple[").removesuffix(", ...]")
        if item == f.type:
            if not is_kind(item, value):
                raise ValueError(f"{f.name} must be {_KINDS[item][1]}")
        elif isinstance(value, (list, tuple)) and all(is_kind(item, v) for v in value):
            object.__setattr__(obj, f.name, tuple(value))
        else:
            raise ValueError(f"{f.name} must be a list, each item {_KINDS[item][1]}")


def parse_json(text: bytes | str, error: type[ValueError], message: str):
    """The value of the JSON ``text``; text that does not parse, or nests
    too deep, raises ``error(message.format(cause))``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(message.format(exc)) from exc


@dataclass(frozen=True)
class Family:
    """A family: ordered sibling list plus preferences over daycare tuples.

    ``children`` is the predefined sibling order; position ``i`` of every
    preference tuple names the daycare requested for ``children[i]``.
    """

    id: str
    children: tuple[str, ...]
    preferences: tuple[tuple[str, ...], ...]

    @property
    def size(self) -> int:
        return len(self.children)

    @property
    def all_dummy(self) -> tuple[str, ...]:
        """The tuple meaning every child of this family is unmatched."""
        return (DUMMY_ID,) * len(self.children)

    def tuple_rank(self, tup: tuple[str, ...]) -> int:
        """Rank of ``tup`` in this family's preference order, lower is better.

        Listed tuples rank by position; the all-dummy tuple ranks just
        below the last listed tuple; anything else ranks below that.
        """
        try:
            return self.preferences.index(tuple(tup))
        except ValueError:
            n = len(self.preferences)
            return n if tuple(tup) == self.all_dummy else n + 1


@dataclass(frozen=True)
class Daycare:
    """A daycare: quota plus a strict priority list of acceptable children.

    ``quota`` is ``None`` only for the dummy daycare (unlimited).  A child
    absent from ``priority`` is unacceptable; the dummy accepts everyone.
    """

    id: str
    quota: int | None
    priority: tuple[str, ...]

    @property
    def unlimited(self) -> bool:
        return self.quota is None


def _raise_priority_error(path: str, priority: tuple, family_of: Mapping) -> None:
    """Raise the error of a priority's first bad entry, naming the path.

    ``Instance`` builds each rank table in one step and calls this only
    when that step finds a duplicate, an unknown child or an unhashable
    entry, so the per-entry scan runs only to name it.
    """
    seen: set = set()
    for i, child in enumerate(priority):
        if not isinstance(child, str):
            raise InstanceError(f"{path}.priority[{i}]: expected a string")
        if child in seen:
            raise InstanceError(f"{path}.priority: duplicate child {child!r}")
        if child not in family_of:
            raise InstanceError(f"{path}.priority: unknown child {child!r}")
        seen.add(child)


class Instance:
    """A validated daycare market.

    Construction checks every model invariant and the type of every
    container, id, quota, priority entry and preference tuple (raising
    :class:`InstanceError` naming the path): one loop checks the families'
    and daycares' types and ids, one pass per family checks its children
    and compiles its tuples, one pass per daycare checks it and builds its
    rank table.  It precomputes the lookup tables used by the stability
    predicates, the solver and the algorithms: family and daycare indexes,
    ``family_of`` (every child to its family id, in family then sibling
    order: the one table of the market's children), ``rank[daycare_id]``,
    ``quota`` (daycare id to quota), and ``applications[family_id][j]``,
    the family's ``j``-th preference tuple grouped by daycare: one
    ``(daycare, applicants, displacer)`` triple per distinct non-dummy
    daycare, in first-occurrence order, where the displacer is the first
    applicant in sibling order.  ``rank[d]`` holds the applicant pairs of
    ``d`` only: each child that some tuple of its family names ``d`` for
    and that ``d`` ranks, mapped to its priority position.  The engine, the
    scans, the solver and the diagnostics look up no other pair; at n=3000
    these are about 2% of all (child, daycare) pairs.
    :meth:`is_acceptable` answers for any pair.  Instances are immutable by
    convention; all contained collections are tuples.
    """

    def __init__(
        self,
        families: Iterable[Family],
        daycares: Iterable[Daycare],
        meta: Mapping | None = None,
    ):
        for name, value in (("families", families), ("daycares", daycares)):
            if not isinstance(value, Iterable):
                raise InstanceError(f"{name}: expected an iterable")
        if meta is not None and not isinstance(meta, Mapping):
            raise InstanceError("meta: expected a mapping")
        self.families: tuple[Family, ...] = tuple(families)
        self.daycares: tuple[Daycare, ...] = tuple(daycares)
        self.meta: dict = dict(meta) if meta else {}

        self.families_by_id: dict[str, Family] = {}
        self.daycares_by_id: dict[str, Daycare] = {}
        for name, items, kind, index in (
            ("families", self.families, Family, self.families_by_id),
            ("daycares", self.daycares, Daycare, self.daycares_by_id),
        ):
            for k, item in enumerate(items):
                if not isinstance(item, kind):
                    raise InstanceError(f"{name}[{k}]: expected a {kind.__name__}")
                if not isinstance(item.id, str):
                    raise InstanceError(f"{name}[{k}].id: expected a string")
                if item.id in index:
                    raise InstanceError(f"{name}: duplicate {kind.__name__.lower()} id {item.id!r}")
                index[item.id] = item

        if DUMMY_ID not in self.daycares_by_id:
            raise InstanceError(f"daycares: missing dummy daycare {DUMMY_ID!r}")

        self.family_of: dict[str, str] = {}
        self.applications: dict[str, tuple[tuple, ...]] = {}
        # each daycare's applicants, a child once per tuple that names it
        applied: dict[str, list[str]] = {d: [] for d in self.daycares_by_id}
        for fam in self.families:
            for attr in ("children", "preferences"):
                if not isinstance(getattr(fam, attr), tuple):
                    raise InstanceError(f"families[{fam.id}].{attr}: expected a tuple")
            if not fam.children:
                raise InstanceError(f"families[{fam.id}].children: empty")
            for i, child in enumerate(fam.children):
                if not isinstance(child, str):
                    raise InstanceError(f"families[{fam.id}].children[{i}]: expected a string")
                if child in self.family_of:
                    raise InstanceError(
                        f"families[{fam.id}].children: child {child!r} "
                        "already belongs to another family"
                    )
                self.family_of[child] = fam.id
            seen: set[tuple[str, ...]] = set()
            # one frozenset per distinct applicant group of the family, keyed
            # by the child for a lone applicant and by itself otherwise
            groups: dict = {c: frozenset((c,)) for c in fam.children}
            compiled: list[tuple] = []
            # the path of tuple j is f"{path}[{j}]", formatted only to raise
            path = f"families[{fam.id}].preferences"
            for j, tup in enumerate(fam.preferences):
                if not isinstance(tup, tuple):
                    raise InstanceError(f"{path}[{j}]: expected a tuple of daycare ids")
                if len(tup) != len(fam.children):
                    raise InstanceError(
                        f"{path}[{j}]: tuple length {len(tup)} != "
                        f"family size {len(fam.children)}"
                    )
                entries: dict[str, tuple[str, frozenset[str], str]] = {}
                for child, d in zip(fam.children, tup):
                    if not isinstance(d, str) or d not in self.daycares_by_id:
                        raise InstanceError(f"{path}[{j}]: unknown daycare {d!r}")
                    if d == DUMMY_ID:
                        continue
                    applied[d].append(child)
                    entry = entries.get(d)
                    if entry is None:
                        entries[d] = (d, groups[child], child)
                    else:
                        merged = entry[1] | groups[child]
                        entries[d] = (d, groups.setdefault(merged, merged), entry[2])
                if tup in seen:
                    raise InstanceError(f"{path}[{j}]: duplicate tuple {tup!r}")
                seen.add(tup)
                compiled.append(tuple(entries.values()))
            self.applications[fam.id] = tuple(compiled)

        self.rank: dict[str, dict[str, int]] = {}
        # one int object per position, shared by every table; a valid
        # priority is no longer, and a longer one fails the length check
        positions = tuple(range(len(self.family_of)))
        for dc in self.daycares:
            path = f"daycares[{dc.id}]"
            if dc.quota is not None and not is_kind("int", dc.quota):
                raise InstanceError(f"{path}.quota: expected an integer or null")
            if dc.unlimited and dc.id != DUMMY_ID:
                raise InstanceError(f"{path}.quota: only {DUMMY_ID!r} may be unlimited")
            if not dc.unlimited and dc.id == DUMMY_ID:
                raise InstanceError(f"{path}.quota: {DUMMY_ID!r} must be unlimited (null)")
            if dc.quota is not None and dc.quota < 0:
                raise InstanceError(f"{path}.quota: negative quota {dc.quota}")
            if not isinstance(dc.priority, tuple):
                raise InstanceError(f"{path}.priority: expected a tuple")
            try:
                ranks = dict(zip(dc.priority, positions))
                valid = len(ranks) == len(dc.priority) and ranks.keys() <= self.family_of.keys()
            except TypeError:  # an unhashable entry
                valid = False
            if not valid:
                _raise_priority_error(path, dc.priority, self.family_of)
            self.rank[dc.id] = {c: ranks[c] for c in applied[dc.id] if c in ranks}

        # F^S / F^O partition, in family-id order (the canonical scan order).
        self.families_in_id_order: tuple[Family, ...] = tuple(
            self.families_by_id[fid] for fid in sorted(self.families_by_id)
        )
        self.sibling_families: tuple[str, ...] = tuple(
            f.id for f in self.families_in_id_order if f.size > 1
        )
        self.singleton_families: tuple[str, ...] = tuple(
            f.id for f in self.families_in_id_order if f.size == 1
        )
        self.quota: dict[str, int | None] = {d.id: d.quota for d in self.daycares}

    @property
    def num_children(self) -> int:
        return len(self.family_of)

    def is_acceptable(self, daycare_id: str, child: str) -> bool:
        """True if the daycare ranks the child (the dummy accepts all).

        A pair in ``rank`` is answered from it, any other pair by a scan of
        the priority list: an applicant the daycare does not rank, or a
        pair that only input from outside a run names.
        """
        if daycare_id == DUMMY_ID:
            return True
        return child in self.rank[daycare_id] or child in self.daycares_by_id[daycare_id].priority

    def __repr__(self) -> str:
        return (
            f"Instance({len(self.families)} families, "
            f"{len(self.family_of)} children, {len(self.daycares)} daycares)"
        )


class Matching:
    """A total assignment of children to daycares.

    Unmatched children are assigned the dummy daycare, so the map is
    total by construction.  The daycare-side view is derived and kept
    consistent: ``child in roster(d)`` iff ``assignment[child] == d``.
    Value semantics: equality compares assignments only.  Anything but a
    mapping of every child to a known daycare id raises MatchingError.
    """

    def __init__(self, instance: Instance, assignment: Mapping[str, str]):
        if not isinstance(assignment, Mapping):
            raise MatchingError("assignment: expected an object of daycare ids")
        known = instance.family_of
        for child, d in assignment.items():
            if child not in known:
                raise MatchingError(f"assignment: unknown child {child!r}")
            if not isinstance(d, str):
                raise MatchingError(f"assignment[{child}]: expected a daycare id, got {d!r}")
            if d not in instance.daycares_by_id:
                raise MatchingError(f"assignment[{child}]: unknown daycare {d!r}")
        missing = [c for c in known if c not in assignment]
        if missing:
            raise MatchingError(f"assignment: missing children {missing}")
        self._assignment: dict[str, str] = {child: assignment[child] for child in known}
        self._rosters: dict[str, frozenset[str]] | None = None

    @classmethod
    def all_unmatched(cls, instance: Instance) -> "Matching":
        return cls(instance, dict.fromkeys(instance.family_of, DUMMY_ID))

    @classmethod
    def from_rosters(cls, instance: Instance, rosters: Mapping[str, Iterable[str]]) -> "Matching":
        """The matching seating each roster's children at its daycare
        (non-dummy daycare id -> children) and every other child at the
        dummy: the one step from rosters to a matching."""
        assign = dict.fromkeys(instance.family_of, DUMMY_ID)
        assign.update((c, d) for d, children in rosters.items() for c in children)
        return cls(instance, assign)

    @property
    def assignment(self) -> dict[str, str]:
        return dict(self._assignment)

    def __getitem__(self, child: str) -> str:
        return self._assignment[child]

    def roster(self, daycare_id: str) -> frozenset[str]:
        """Children assigned to a daycare (empty for unknown ids)."""
        if self._rosters is None:
            rosters: dict[str, set[str]] = {}
            for child, d in self._assignment.items():
                rosters.setdefault(d, set()).add(child)
            self._rosters = {d: frozenset(cs) for d, cs in rosters.items()}
        return self._rosters.get(daycare_id, frozenset())

    def family_tuple(self, family: Family) -> tuple[str, ...]:
        """Assigned daycares in the family's sibling order."""
        return tuple(self._assignment[c] for c in family.children)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._assignment == other._assignment

    def __repr__(self) -> str:
        matched = sum(1 for d in self._assignment.values() if d != DUMMY_ID)
        return f"Matching({matched}/{len(self._assignment)} matched)"


def is_feasible(instance: Instance, matching: Matching) -> bool:
    """True iff no daycare exceeds its quota (unlimited never can)."""
    for dc in instance.daycares:
        if dc.quota is not None and len(matching.roster(dc.id)) > dc.quota:
            return False
    return True


def is_individually_rational(instance: Instance, matching: Matching) -> bool:
    """True iff every family holds a listed tuple or is fully unmatched,
    and no daycare hosts a child absent from its priority list."""
    for fam in instance.families:
        tup = matching.family_tuple(fam)
        if tup != fam.all_dummy and tup not in fam.preferences:
            return False
    for child, d in matching._assignment.items():
        if d != DUMMY_ID and not instance.is_acceptable(d, child):
            return False
    return True


# ---------------------------------------------------------------------------
# JSON serialisation.
#
# Instance schema:
#   {"families": [{"id": str, "children": [str, ...],
#                  "preferences": [[str, ...], ...]}, ...],
#    "daycares": [{"id": str, "quota": int | null, "priority": [str, ...]}, ...],
#    "meta": {...} | null}
# quota null means unlimited and is permitted only for "d0"; a missing or
# null meta means an empty one.
#
# Matching schema: {"assignment": {child: daycare, ...}}
# ---------------------------------------------------------------------------


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise InstanceError(f"{path}: {msg}")


def load_instance(data: bytes | str | Mapping) -> Instance:
    """Parse and validate an instance from JSON text or a parsed mapping.

    Raises :class:`InstanceError` naming the offending path on schema
    violations, dangling references, duplicate ids, or a missing dummy.
    """
    if isinstance(data, (bytes, str)):
        data = parse_json(data, InstanceError, "$: invalid JSON ({})")
    _expect(isinstance(data, Mapping), "$", "expected a JSON object")
    for key in ("families", "daycares"):
        _expect(key in data, "$", f"missing key {key!r}")
        _expect(isinstance(data[key], list), key, "expected a list")

    families = []
    for idx, raw in enumerate(data["families"]):
        path = f"families[{idx}]"
        _expect(isinstance(raw, Mapping), path, "expected an object")
        for key in ("id", "children", "preferences"):
            _expect(key in raw, path, f"missing key {key!r}")
        children = raw["children"]
        _expect(isinstance(children, list), f"{path}.children", "expected a list")
        prefs = raw["preferences"]
        _expect(isinstance(prefs, list), f"{path}.preferences", "expected a list")
        tuples = []
        for j, tup in enumerate(prefs):
            _expect(isinstance(tup, list), f"{path}.preferences[{j}]", "expected a list")
            tuples.append(tuple(tup))
        families.append(
            Family(id=raw["id"], children=tuple(children), preferences=tuple(tuples))
        )

    daycares = []
    for idx, raw in enumerate(data["daycares"]):
        path = f"daycares[{idx}]"
        _expect(isinstance(raw, Mapping), path, "expected an object")
        for key in ("id", "quota", "priority"):
            _expect(key in raw, path, f"missing key {key!r}")
        priority = raw["priority"]
        _expect(isinstance(priority, list), f"{path}.priority", "expected a list")
        daycares.append(Daycare(id=raw["id"], quota=raw["quota"], priority=tuple(priority)))

    return Instance(families, daycares, meta=data.get("meta"))


def instance_to_dict(instance: Instance) -> dict:
    return {
        "families": [
            {
                "id": f.id,
                "children": list(f.children),
                "preferences": [list(t) for t in f.preferences],
            }
            for f in instance.families
        ],
        "daycares": [
            {"id": d.id, "quota": d.quota, "priority": list(d.priority)}
            for d in instance.daycares
        ],
        "meta": instance.meta,
    }


def dump_instance(instance: Instance) -> str:
    """Canonical JSON text; byte-identical for equal instances."""
    return json.dumps(instance_to_dict(instance), sort_keys=True, indent=None)


def load_matching(data: bytes | str | Mapping, instance: Instance) -> Matching:
    if isinstance(data, (bytes, str)):
        data = parse_json(data, MatchingError, "$: invalid JSON ({})")
    if not isinstance(data, Mapping) or "assignment" not in data:
        raise MatchingError("$: expected an object with key 'assignment'")
    return Matching(instance, data["assignment"])


def dump_matching(matching: Matching) -> str:
    return json.dumps({"assignment": matching.assignment}, sort_keys=True)
