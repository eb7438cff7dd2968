"""Random daycare market generation.

The synthetic protocol, end to end:

1. Family structure.  A fraction ``alpha`` of the ``n`` children have
   siblings; two-sibling families hold 80% of them and three-sibling
   families the remaining 20% (counts truncated to integers).  Everyone
   else is an only child.
2. Daycares.  ``int(daycare_ratio * |F|)`` physical daycares, at least
   one and at most ``n``: a ratio giving more daycares than children
   raises ValueError, as every unit ranks every child of its age and
   more units only spend memory.  Each daycare is split into one unit
   per age group with quotas from ``capacity_profile``.  Children get
   independent uniform ages; a preference for a physical daycare means
   its unit for the child's age.
3. Family preferences.  A daycare-selection distribution with pairwise
   probability ratios within ``[1/sigma, sigma]`` is drawn once; each
   child samples a duplicate-free individual list from it, and sibling
   families pick a bounded number of distinct tuples uniformly from the
   product of their children's lists, in uniform random order.
4. Priorities.  A global reference ordering places each sibling family
   contiguously with probability ``1 - 1/n**(1+epsilon)`` and splits it
   otherwise; an epsilon so large that the power leaves the float range
   splits no family.  Every daycare unit then draws an independent
   permutation from the Mallows distribution around that reference
   (dispersion ``phi``) and keeps the children of its age group.

Everything is driven by one seeded generator, so equal configs produce
byte-identical instances.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from sibmatch import _kernels
from sibmatch.model import DUMMY_ID, Daycare, Family, Instance, check_fields, is_kind

__all__ = [
    "MarketConfig",
    "bounded_distribution",
    "family_counts",
    "gen_family_prefs",
    "gen_individual_prefs",
    "gen_instance",
    "gen_reference_ordering",
    "kendall_tau",
    "mallows_sample",
]


@dataclass(frozen=True)
class MarketConfig:
    """Parameters of the random market.

    ``L`` is the individual preference length for only children;
    sibling children use ``sibling_pref_length`` and their families keep
    ``joint_pref_length`` tuples.  ``capacity_profile`` gives one quota
    per age group and fixes the number of age groups; a list is stored
    as a tuple.  Every field is checked on construction: a value of the
    wrong type or range raises ValueError, and so does a ``daycare_ratio``
    that gives more physical daycares than the ``n`` children.
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
        f2, f3, cs, co = family_counts(self)
        if cs > self.n:
            raise ValueError(f"sibling children ({cs}) exceed n ({self.n})")
        families = f2 + f3 + co
        if self.daycare_ratio * families > self.n:
            raise ValueError(f"daycare_ratio * families exceeds n: {self.daycare_ratio} * {families} > {self.n}")
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


def bounded_distribution(m: int, sigma: float, rng) -> np.ndarray:
    """Daycare-selection probabilities with ratios inside [1/sigma, sigma].

    Weights are independent uniforms on [1, sigma], normalised, so every
    pairwise ratio is within the band and every component is at most
    sigma/m by construction.  sigma=1 yields the exact uniform vector.
    Raises ValueError when ``sigma * m`` exceeds the float range, as the
    weights' sum could then overflow.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if sigma < 1.0:
        raise ValueError("sigma must be >= 1")
    if not sigma <= sys.float_info.max / m:
        raise ValueError(f"sigma * m exceeds the float range: {sigma} * {m}")
    weights = 1.0 + (sigma - 1.0) * rng.random(m)
    return weights / weights.sum()


def _selection_cdf(probabilities, length: int) -> np.ndarray:
    """The CDF of a daycare-selection distribution, checked for ``length`` picks.

    ``rng.random()`` returns multiples of 2**-53, so a daycare can be
    drawn only when one of them falls in its CDF step.  Raises ValueError
    when fewer than ``length`` daycares can, as the duplicate-free draw
    would then never end.
    """
    p = np.asarray(probabilities, dtype=float)
    m = len(p)
    if length > m:
        raise ValueError(f"length {length} exceeds daycare count {m}")
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    drawable = np.count_nonzero(np.diff(np.ceil(cdf * 2.0**53), prepend=0.0) > 0)
    if drawable < length:
        raise ValueError(f"only {drawable} daycares can be drawn, {length} needed")
    return cdf


# Values drawn by one ``_distinct_draws`` call before it gives up.  A CDF
# step that only a handful of ``rng.random()``'s 2**53 values hit passes
# ``_selection_cdf`` but may take about 2**53 draws to be hit; the markets
# of the protocol fill a list in a few dozen draws.
_MAX_DRAWS = 2**20


def _distinct_draws(cdf: np.ndarray, length: int, rng) -> list[int]:
    """``length`` distinct daycare indices: first occurrences of draws from ``cdf``.

    Raises ValueError once ``_MAX_DRAWS`` values are drawn without filling
    the list.
    """
    out: list[int] = []
    seen: set[int] = set()
    drawn = 0
    while len(out) < length:
        if drawn >= _MAX_DRAWS:
            raise ValueError(f"{_MAX_DRAWS} draws gave only {len(out)} of {length} daycares")
        count = max(8, 2 * (length - len(out)))
        drawn += count
        for d in np.searchsorted(cdf, rng.random(count), side="right").tolist():
            if d not in seen:
                seen.add(d)
                out.append(d)
                if len(out) == length:
                    break
    return out


def gen_individual_prefs(probabilities, length: int, rng) -> list[int]:
    """Duplicate-free list of daycare indices of exactly ``length``.

    Repeatedly draws from the distribution and keeps first occurrences,
    which is why ``length`` may not exceed the number of daycares that
    can be drawn (see ``_selection_cdf``); more raises ValueError.
    """
    return _distinct_draws(_selection_cdf(probabilities, length), length, rng)


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
) -> tuple[tuple[str, ...], dict[str, bool]]:
    """Reference ordering: sibling families grouped with high probability.

    Each sibling family is split into separate entries with probability
    ``1/n**(1+epsilon)`` and otherwise enters as one block in sibling
    order; the entity list is then uniformly permuted.  Grouped families
    therefore occupy contiguous positions.

    Returns ``(ordering, grouped)``: the ordering as a tuple of child ids,
    and for each sibling family whether it entered as one block.
    """
    try:
        split_p = 1.0 / n ** (1.0 + epsilon) if n > 0 else 0.0
    except OverflowError:  # the power leaves the float range, so 1/power is below it
        split_p = 0.0
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
    return ordering, grouped


def _displacements(n: int, phi: float, rng, count: int) -> np.ndarray:
    """Per-item insertion displacements of ``count`` Mallows draws, one row each.

    Item i jumps ahead of v_i previously placed items, v_i in {0..i} with
    Pr[v_i = k] proportional to phi**k; total inversions = sum(v).
    Sampled by inverting the truncated geometric CDF; needs
    ``0 < phi <= 1``.  The one ``rng.random((count, n))`` call consumes
    the generator exactly as ``count`` calls of ``rng.random(n)`` do.
    The arithmetic runs in place, so a block of rows holds two arrays of
    its size, not one per step.
    """
    u = rng.random((count, n))
    i = np.arange(n, dtype=np.int64)
    if phi == 1.0:
        u *= i + 1
        v = u.astype(np.int64)
        return np.minimum(v, i, out=v)
    u *= 1.0 - np.power(phi, (i + 1).astype(float))
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    u /= math.log(phi)
    v = np.ceil(u, out=u).astype(np.int64)
    v -= 1
    return np.clip(v, 0, i, out=v)


def _mallows_positions(n: int, phi: float, rng, count: int) -> np.ndarray:
    """``count`` Mallows draws of the positions ``0..n-1``, one row each.

    ``phi=0`` gives the identity rows without touching ``rng``.  The rows
    are decoded in one kernel call, laid end to end: each v_i is at most
    i, so row r fills its own block ``r*n .. r*n+n-1``.
    """
    if phi == 0.0:
        return np.broadcast_to(np.arange(n), (count, n))
    rows = _displacements(n, phi, rng, count)
    # Looked up on the module at call time so a tracer can wrap it.
    flat = _kernels.decode_insertions(rows.ravel())
    return flat.reshape(count, n) - n * np.arange(count)[:, None]


def mallows_sample(reference, phi: float, rng, size: int | None = None):
    """Exact Mallows draw around a reference ordering.

    Sequential-insertion sampling: the normalising constant is never
    materialised.  ``phi=0`` returns a copy of the reference without
    touching ``rng``; ``phi=1`` is uniform over all permutations.

    ``reference`` is a sequence of items, such as the ordering tuple of
    :func:`gen_reference_ordering`.  An ndarray reference gives ndarray
    draws; any other reference gives lists of its items.  ``size``
    follows numpy's convention: ``None`` returns one draw, an integer
    ``k`` returns ``k`` draws (a ``(k, n)`` array, or a list of ``k``
    lists) equal to ``k`` successive single draws from the same
    generator, and leaves the generator in the same state.  The draws are
    the reference's items at the positions :func:`_mallows_positions`
    draws.
    """
    if not (is_kind("float", phi) and 0.0 <= phi <= 1.0):
        raise ValueError("phi must lie in [0, 1]")
    if size is not None and not (is_kind("int", size) and size >= 0):
        raise ValueError("size must be None or an integer >= 0")
    positions = _mallows_positions(len(reference), phi, rng, 1 if size is None else size)
    if isinstance(reference, np.ndarray):
        draws = reference[positions]
    else:
        items = list(reference)
        draws = [list(map(items.__getitem__, row)) for row in positions.tolist()]
    return draws[0] if size is None else draws


def kendall_tau(a: Sequence, b: Sequence) -> int:
    """Number of pairwise inversions between two orderings of one set.

    Raises ValueError unless ``a`` and ``b`` hold the same distinct,
    hashable items.  The count is ``_kernels.count_inversions`` of b's
    positions in a's order: O(n log n) comparisons and O(n²) bytes
    moved, a few ms at 3,000 items.
    """
    try:
        pos = {item: i for i, item in enumerate(b)}
        covered = len(a) == len(b) and all(x in pos for x in a)
    except TypeError:
        raise ValueError("orderings must hold hashable items") from None
    if len(pos) != len(b):
        raise ValueError("ordering b contains duplicates")
    if not covered:
        raise ValueError("orderings must cover the same element set")
    seq = [pos[x] for x in a]
    if len(set(seq)) != len(seq):
        raise ValueError("ordering a contains duplicates")
    return int(_kernels.count_inversions(seq))


def _unit_id(phys: str, age: int) -> str:
    return f"{phys}-a{age}"


def _gen_daycares(phys, order, ages, cfg: MarketConfig, rng) -> list[Daycare]:
    """The dummy, then one unit per physical daycare and age group.

    Each unit's priority is a Mallows draw of positions in ``order``, the
    reference ordering as a tuple of child ids, filtered to the unit's age
    group.  The units are drawn in blocks of ``_kernels.SHORT_ITEMS // n``
    rows (at least one), one ``_mallows_positions`` call per block, so
    numpy's fixed cost is paid once per block and a block decodes in one
    kernel call on 2-byte items.  One mask of the reference ages against
    each row's age keeps each unit's children, and the kept positions are
    mapped to child ids once per block, through one object array of the
    ids.  The draws equal one ``mallows_sample`` call per unit, because a
    call of ``count`` k consumes the generator as k single draws do.
    """
    n = len(order)
    age_of = np.array([ages[c] for c in order], dtype=np.int64)
    ids = np.array(order, dtype=object)
    units = [(p, age) for p in phys for age in range(len(cfg.capacity_profile))]
    rows = max(1, _kernels.SHORT_ITEMS // n)
    daycares = [Daycare(id=DUMMY_ID, quota=None, priority=())]
    for start in range(0, len(units), rows):
        block = units[start : start + rows]
        draws = _mallows_positions(n, cfg.phi, rng, len(block))
        mask = age_of[draws] == np.array([age for _, age in block])[:, None]
        kept = ids[draws[mask]].tolist()
        end = 0
        for (p, age), size in zip(block, mask.sum(axis=1).tolist()):
            end += size
            daycares.append(
                Daycare(
                    id=_unit_id(p, age),
                    quota=cfg.capacity_profile[age],
                    priority=tuple(kept[end - size : end]),
                )
            )
    return daycares


def gen_instance(cfg: MarketConfig) -> Instance:
    """Generate a full instance per the synthetic protocol.

    Deterministic in ``cfg`` (including the seed); the returned instance
    carries ages, the reference ordering, and the grouping record in its
    ``meta`` block.  Preferences are drawn as physical daycare indices;
    each tuple is then mapped to unit ids through a table built once per
    market, ``unit_ids[d][age]``.
    """
    rng = np.random.default_rng(cfg.seed)
    f2, f3, _, co = family_counts(cfg)
    num_ages = len(cfg.capacity_profile)

    sizes = [2] * f2 + [3] * f3 + [1] * co
    total_families = len(sizes)
    m_phys = max(1, int(cfg.daycare_ratio * total_families + 1e-9))
    phys = [f"d{k}" for k in range(1, m_phys + 1)]
    unit_ids = [[_unit_id(p, age) for age in range(num_ages)] for p in phys]

    child_ids: list[str] = []
    family_children: list[list[str]] = []
    for size in sizes:
        kids = [f"c{len(child_ids) + j + 1}" for j in range(size)]
        child_ids.extend(kids)
        family_children.append(kids)

    ages = {c: int(a) for c, a in zip(child_ids, rng.integers(0, num_ages, size=len(child_ids)))}

    single_len = min(cfg.L, m_phys)
    sibling_len = min(cfg.sibling_pref_length, m_phys)
    cdf = _selection_cdf(bounded_distribution(m_phys, cfg.sigma, rng), max(single_len, sibling_len))

    families: list[Family] = []
    for k, kids in enumerate(family_children):
        fid = f"f{k + 1}"
        if len(kids) == 1:
            tuples = [(d,) for d in _distinct_draws(cdf, single_len, rng)]
        else:
            lists = [_distinct_draws(cdf, sibling_len, rng) for _ in kids]
            tuples = gen_family_prefs(lists, cfg.joint_pref_length, rng)
        kid_ages = [ages[c] for c in kids]
        mapped = tuple(
            tuple(unit_ids[d][age] for d, age in zip(tup, kid_ages)) for tup in tuples
        )
        families.append(Family(id=fid, children=tuple(kids), preferences=mapped))

    ordering, grouped = gen_reference_ordering(families, cfg.n, cfg.epsilon, rng)

    daycares = _gen_daycares(phys, ordering, ages, cfg, rng)

    meta = {
        "generator": {
            **{f.name: getattr(cfg, f.name) for f in fields(cfg)},
            "capacity_profile": list(cfg.capacity_profile),
        },
        "physical_daycares": phys,
        "ages": ages,
        "reference_ordering": list(ordering),
        "grouped_families": grouped,
    }
    return Instance(families, daycares, meta=meta)
