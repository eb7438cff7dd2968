"""Random daycare market generation.

The synthetic protocol, end to end:

1. Family structure.  A fraction ``alpha`` of the ``n`` children have
   siblings; two-sibling families hold 80% of them and three-sibling
   families the remaining 20% (counts truncated to integers).  Everyone
   else is an only child.
2. Daycares.  ``int(daycare_ratio * |F|)`` physical daycares, each split
   into one unit per age group with quotas from ``capacity_profile``.
   Children get independent uniform ages; a preference for a physical
   daycare means its unit for the child's age.
3. Family preferences.  A daycare-selection distribution with pairwise
   probability ratios within ``[1/sigma, sigma]`` is drawn once; each
   child samples a duplicate-free individual list from it, and sibling
   families pick a bounded number of distinct tuples uniformly from the
   product of their children's lists, in uniform random order.
4. Priorities.  A global reference ordering places each sibling family
   contiguously with probability ``1 - 1/n**(1+epsilon)`` and splits it
   otherwise; every daycare unit then draws an independent permutation
   from the Mallows distribution around that reference (dispersion
   ``phi``) and keeps the children of its age group.

Everything is driven by one seeded generator, so equal configs produce
byte-identical instances.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from sibmatch import _kernels
from sibmatch.model import DUMMY_ID, Daycare, Family, Instance

__all__ = [
    "MarketConfig",
    "ReferenceOrdering",
    "bounded_distribution",
    "check_fields",
    "family_counts",
    "gen_family_prefs",
    "gen_individual_prefs",
    "gen_instance",
    "gen_reference_ordering",
    "kendall_tau",
    "mallows_sample",
]


# The values each annotation of a checked field admits: bools never count
# as numbers, ints count as floats, and an int must lie in the float range
# (the range checks and the generator's arithmetic convert it).
_KINDS = {
    "int": (int, "an integer in the float range"),
    "float": ((int, float), "a number in the float range"),
    "str": (str, "a string"),
    "dict": (dict, "an object"),
}


def _is(kind: str, value) -> bool:
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind][0]):
        return False
    return not isinstance(value, int) or abs(value) <= sys.float_info.max


def check_fields(obj) -> None:
    """Check every field of the dataclass ``obj`` against its annotation.

    ``int``, ``float``, ``str`` and ``dict`` fields must hold such a value
    (see ``_KINDS``); a ``tuple[X, ...]`` field must hold a list or tuple
    of X and is stored as a tuple.  Raises ValueError naming the first
    field that fails.  The annotations are read as strings, so the
    dataclass's module must use ``from __future__ import annotations``.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        item = f.type.removeprefix("tuple[").removesuffix(", ...]")
        if item == f.type:
            if not _is(item, value):
                raise ValueError(f"{f.name} must be {_KINDS[item][1]}")
        elif isinstance(value, (list, tuple)) and all(_is(item, v) for v in value):
            object.__setattr__(obj, f.name, tuple(value))
        else:
            raise ValueError(f"{f.name} must be a list, each item {_KINDS[item][1]}")


@dataclass(frozen=True)
class MarketConfig:
    """Parameters of the random market.

    ``L`` is the individual preference length for only children;
    sibling children use ``sibling_pref_length`` and their families keep
    ``joint_pref_length`` tuples.  ``capacity_profile`` gives one quota
    per age group and fixes the number of age groups; a list is stored
    as a tuple.  Every field is checked on construction: a value of the
    wrong type or range raises ValueError.
    """

    n: int
    phi: float
    alpha: float = 0.2
    K: int = 3
    L: int = 5
    sigma: float = 1.0
    epsilon: float = 1.0
    daycare_ratio: float = 0.1
    capacity_profile: tuple[int, ...] = (5, 5, 1, 1, 1, 1)
    sibling_pref_length: int = 10
    joint_pref_length: int = 10
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError("phi must lie in [0, 1]")
        if not all(map(math.isfinite, (self.sigma, self.epsilon, self.daycare_ratio))):
            raise ValueError("sigma, epsilon and daycare_ratio must be finite")
        if self.sigma < 1.0:
            raise ValueError("sigma must be >= 1")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if min(self.L, self.sibling_pref_length, self.joint_pref_length) < 1:
            raise ValueError("preference lengths must be >= 1")
        if self.daycare_ratio <= 0.0:
            raise ValueError("daycare_ratio must be positive")
        if not self.capacity_profile or any(q < 0 for q in self.capacity_profile):
            raise ValueError("capacity_profile must be non-empty and non-negative")
        f2, f3, cs, _ = family_counts(self)
        if cs > self.n:
            raise ValueError(f"sibling children ({cs}) exceed n ({self.n})")
        if f3 > 0 and self.K < 3:
            raise ValueError("config yields three-sibling families but K < 3")
        if f2 > 0 and self.K < 2:
            raise ValueError("config yields two-sibling families but K < 2")


def family_counts(cfg: MarketConfig) -> tuple[int, int, int, int]:
    """(two-sibling families, three-sibling families, |C^S|, |C^O|).

    Truncating integer formulas; the tiny epsilon guards against float
    noise flipping an exact product below an integer.
    """
    f2 = int(cfg.alpha * cfg.n * 0.8 / 2 + 1e-9)
    f3 = int(cfg.alpha * cfg.n * 0.2 / 3 + 1e-9)
    cs = 2 * f2 + 3 * f3
    return f2, f3, cs, cfg.n - cs


@dataclass(frozen=True)
class ReferenceOrdering:
    """A reference priority ordering plus the per-family grouping record.

    ``grouped`` holds an entry per sibling family: True when the family
    entered the ordering as one contiguous block.
    """

    ordering: tuple[str, ...]
    grouped: dict[str, bool] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ordering)


def bounded_distribution(m: int, sigma: float, rng) -> np.ndarray:
    """Daycare-selection probabilities with ratios inside [1/sigma, sigma].

    Weights are independent uniforms on [1, sigma], normalised, so every
    pairwise ratio is within the band and every component is at most
    sigma/m by construction.  sigma=1 yields the exact uniform vector.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if sigma < 1.0:
        raise ValueError("sigma must be >= 1")
    weights = 1.0 + (sigma - 1.0) * rng.random(m)
    return weights / weights.sum()


def gen_individual_prefs(probabilities, length: int, rng) -> list[int]:
    """Duplicate-free list of daycare indices of exactly ``length``.

    Repeatedly draws from the distribution and keeps first occurrences,
    which is why ``length`` may not exceed the number of daycares.
    """
    p = np.asarray(probabilities, dtype=float)
    m = len(p)
    if length > m:
        raise ValueError(f"length {length} exceeds daycare count {m}")
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    out: list[int] = []
    seen: set[int] = set()
    while len(out) < length:
        draws = np.searchsorted(cdf, rng.random(max(8, 2 * (length - len(out)))), side="right")
        for d in draws:
            d = int(d)
            if d not in seen:
                seen.add(d)
                out.append(d)
                if len(out) == length:
                    break
    return out


def gen_family_prefs(individual: Sequence[Sequence], joint_len: int, rng) -> list[tuple]:
    """Distinct tuples from the product of per-child lists, random order.

    Position i of each tuple is drawn from child i's list.  When the
    product is small the whole of it is returned shuffled; otherwise
    ``joint_len`` distinct tuples are chosen uniformly (the insertion
    order of rejection sampling is itself a uniform random order).
    """
    if any(len(lst) == 0 for lst in individual):
        raise ValueError("every child needs a non-empty individual list")
    total = math.prod(len(lst) for lst in individual)
    count = min(joint_len, total)
    if total <= joint_len:
        combos = list(itertools.product(*individual))
        return [combos[k] for k in rng.permutation(total)]
    chosen: list[tuple] = []
    seen: set[tuple] = set()
    while len(chosen) < count:
        tup = tuple(lst[int(rng.integers(len(lst)))] for lst in individual)
        if tup not in seen:
            seen.add(tup)
            chosen.append(tup)
    return chosen


def gen_reference_ordering(
    families: Iterable[Family], n: int, epsilon: float, rng
) -> ReferenceOrdering:
    """Reference ordering: sibling families grouped with high probability.

    Each sibling family is split into separate entries with probability
    ``1/n**(1+epsilon)`` and otherwise enters as one block in sibling
    order; the entity list is then uniformly permuted.  Grouped families
    therefore occupy contiguous positions.
    """
    split_p = 1.0 / n ** (1.0 + epsilon) if n > 0 else 0.0
    entities: list[tuple[str, ...]] = []
    grouped: dict[str, bool] = {}
    for fam in families:
        if len(fam.children) == 1:
            entities.append(tuple(fam.children))
        elif rng.random() < split_p:
            grouped[fam.id] = False
            entities.extend((c,) for c in fam.children)
        else:
            grouped[fam.id] = True
            entities.append(tuple(fam.children))
    order = rng.permutation(len(entities))
    ordering = tuple(c for k in order for c in entities[int(k)])
    return ReferenceOrdering(ordering, grouped)


def _displacements(n: int, phi: float, rng, count: int) -> np.ndarray:
    """Per-item insertion displacements of ``count`` Mallows draws, one row each.

    Item i jumps ahead of v_i previously placed items, v_i in {0..i} with
    Pr[v_i = k] proportional to phi**k; total inversions = sum(v).
    Sampled by inverting the truncated geometric CDF; needs
    ``0 < phi <= 1``.  The one ``rng.random((count, n))`` call consumes
    the generator exactly as ``count`` calls of ``rng.random(n)`` do.
    """
    u = rng.random((count, n))
    i = np.arange(n, dtype=np.int64)
    if phi == 1.0:
        return np.minimum((u * (i + 1)).astype(np.int64), i)
    t = 1.0 - u * (1.0 - np.power(phi, (i + 1).astype(float)))
    v = np.ceil(np.log(t) / math.log(phi)).astype(np.int64) - 1
    return np.clip(v, 0, i)


def mallows_sample(reference, phi: float, rng, size: int | None = None):
    """Exact Mallows draw around a reference ordering.

    Sequential-insertion sampling: the normalising constant is never
    materialised.  ``phi=0`` returns a copy of the reference without
    touching ``rng``; ``phi=1`` is uniform over all permutations.

    An ndarray reference gives ndarray draws; any other reference gives
    lists of its items.  ``size`` follows numpy's convention: ``None``
    returns one draw, an integer ``k`` returns ``k`` draws (a ``(k, n)``
    array, or a list of ``k`` lists) equal to ``k`` successive single
    draws from the same generator, and leaves the generator in the same
    state.  All ``k`` draws are decoded in one kernel call on their
    displacement rows laid end to end: each v_i is at most i, so row r
    fills its own block ``r*n .. r*n+n-1``.
    """
    if not (_is("float", phi) and 0.0 <= phi <= 1.0):
        raise ValueError("phi must lie in [0, 1]")
    if size is not None and not (_is("int", size) and size >= 0):
        raise ValueError("size must be None or an integer >= 0")
    if isinstance(reference, ReferenceOrdering):
        reference = reference.ordering
    n = len(reference)
    count = 1 if size is None else size
    if phi == 0.0:
        positions = np.broadcast_to(np.arange(n), (count, n))
    else:
        rows = _displacements(n, phi, rng, count)
        # Looked up on the module at call time so a tracer can wrap it.
        flat = _kernels.decode_insertions(rows.ravel())
        positions = flat.reshape(count, n) - n * np.arange(count)[:, None]
    if isinstance(reference, np.ndarray):
        draws = reference[positions]
    else:
        items = list(reference)
        draws = [list(map(items.__getitem__, row)) for row in positions.tolist()]
    return draws[0] if size is None else draws


def kendall_tau(a: Sequence, b: Sequence) -> int:
    """Number of pairwise inversions between two orderings of one set."""
    pos = {item: i for i, item in enumerate(b)}
    if len(pos) != len(b):
        raise ValueError("ordering b contains duplicates")
    if len(a) != len(b) or any(x not in pos for x in a):
        raise ValueError("orderings must cover the same element set")
    seq = [pos[x] for x in a]
    if len(set(seq)) != len(seq):
        raise ValueError("ordering a contains duplicates")
    return int(_kernels.count_inversions(seq))


def _unit_id(phys: str, age: int) -> str:
    return f"{phys}-a{age}"


def _gen_daycares(phys, reference, ages, cfg: MarketConfig, rng) -> list[Daycare]:
    """The dummy, then one unit per physical daycare and age group.

    One Mallows call per physical daycare draws the priorities of all its
    units as positions in the reference ordering.  One mask of the
    reference ages against each unit's age keeps each unit's children,
    and the kept positions are mapped to child ids once.
    """
    order = reference.ordering
    age_of = np.array([ages[c] for c in order], dtype=np.int64)
    unit_ages = np.arange(len(cfg.capacity_profile))[:, None]
    daycares = [Daycare(id=DUMMY_ID, quota=None, priority=())]
    for p in phys:
        draws = mallows_sample(np.arange(len(order)), cfg.phi, rng, size=len(unit_ages))
        mask = age_of[draws] == unit_ages
        kept = map(order.__getitem__, draws[mask].tolist())
        for age, size in enumerate(mask.sum(axis=1).tolist()):
            daycares.append(
                Daycare(
                    id=_unit_id(p, age),
                    quota=cfg.capacity_profile[age],
                    priority=tuple(itertools.islice(kept, size)),
                )
            )
    return daycares


def gen_instance(cfg: MarketConfig) -> Instance:
    """Generate a full instance per the synthetic protocol.

    Deterministic in ``cfg`` (including the seed); the returned instance
    carries ages, the reference ordering, and the grouping record in its
    ``meta`` block.
    """
    rng = np.random.default_rng(cfg.seed)
    f2, f3, _, co = family_counts(cfg)
    num_ages = len(cfg.capacity_profile)

    sizes = [2] * f2 + [3] * f3 + [1] * co
    total_families = len(sizes)
    m_phys = max(1, int(cfg.daycare_ratio * total_families + 1e-9))
    phys = [f"d{k}" for k in range(1, m_phys + 1)]

    child_ids: list[str] = []
    family_children: list[list[str]] = []
    for size in sizes:
        kids = [f"c{len(child_ids) + j + 1}" for j in range(size)]
        child_ids.extend(kids)
        family_children.append(kids)

    ages = {c: int(a) for c, a in zip(child_ids, rng.integers(0, num_ages, size=len(child_ids)))}

    probabilities = bounded_distribution(m_phys, cfg.sigma, rng)
    single_len = min(cfg.L, m_phys)
    sibling_len = min(cfg.sibling_pref_length, m_phys)

    families: list[Family] = []
    for k, kids in enumerate(family_children):
        fid = f"f{k + 1}"
        if len(kids) == 1:
            picks = gen_individual_prefs(probabilities, single_len, rng)
            tuples = [(phys[d],) for d in picks]
        else:
            lists = [
                [phys[d] for d in gen_individual_prefs(probabilities, sibling_len, rng)]
                for _ in kids
            ]
            tuples = gen_family_prefs(lists, cfg.joint_pref_length, rng)
        mapped = tuple(
            tuple(_unit_id(d, ages[c]) for c, d in zip(kids, tup)) for tup in tuples
        )
        families.append(Family(id=fid, children=tuple(kids), preferences=mapped))

    reference = gen_reference_ordering(families, cfg.n, cfg.epsilon, rng)

    daycares = _gen_daycares(phys, reference, ages, cfg, rng)

    meta = {
        "generator": {**asdict(cfg), "capacity_profile": list(cfg.capacity_profile)},
        "physical_daycares": phys,
        "ages": ages,
        "reference_ordering": list(reference.ordering),
        "grouped_families": dict(reference.grouped),
    }
    return Instance(families, daycares, meta=meta)
