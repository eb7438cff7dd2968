import hashlib
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sibmatch import _kernels
from sibmatch.diagnostics import diameter
from sibmatch.market import (
    MarketConfig,
    bounded_distribution,
    family_counts,
    gen_family_prefs,
    gen_individual_prefs,
    gen_instance,
    gen_reference_ordering,
    kendall_tau,
    mallows_sample,
    _gen_daycares,
)
from sibmatch.model import DUMMY_ID, Family, Instance, dump_instance


def rng_of(seed=0):
    return np.random.default_rng(seed)


# -- bounded distributions ----------------------------------------------------


def test_bounded_uniform_when_sigma_one():
    p = bounded_distribution(4, 1.0, rng_of())
    assert np.array_equal(p, np.full(4, 0.25))


def test_bounded_component_cap():
    for seed in range(50):
        p = bounded_distribution(10, 2.0, rng_of(seed))
        assert p.max() <= 2.0 / 10 + 1e-12
        assert math.isclose(p.sum(), 1.0, rel_tol=1e-12)


def test_bounded_ratio_band():
    for seed in range(50):
        p = bounded_distribution(2, 3.0, rng_of(seed))
        assert p.max() / p.min() <= 3.0 + 1e-12


def test_bounded_validation():
    with pytest.raises(ValueError):
        bounded_distribution(0, 1.0, rng_of())
    with pytest.raises(ValueError):
        bounded_distribution(3, 0.5, rng_of())


def test_bounded_rejects_a_weight_sum_past_the_float_range():
    # the sum of four weights near 1e308 would overflow to inf and every
    # probability would read 0
    with pytest.raises(ValueError, match="float range"):
        bounded_distribution(4, 1e308, rng_of())
    assert bounded_distribution(4, 1e306, rng_of()).sum() == pytest.approx(1.0)


# -- individual and family preferences ----------------------------------------


def test_individual_prefs_lengths():
    p = bounded_distribution(6, 1.0, rng_of(1))
    assert len(gen_individual_prefs(p, 1, rng_of(2))) == 1
    full = gen_individual_prefs(p, 6, rng_of(3))
    assert sorted(full) == list(range(6))


def test_individual_prefs_distinct_and_bounded():
    p = bounded_distribution(9, 2.0, rng_of(4))
    for seed in range(30):
        lst = gen_individual_prefs(p, 5, rng_of(seed))
        assert len(lst) == len(set(lst)) == 5
        assert all(0 <= d < 9 for d in lst)


def test_individual_prefs_rejects_overlong():
    p = bounded_distribution(3, 1.0, rng_of())
    with pytest.raises(ValueError):
        gen_individual_prefs(p, 4, rng_of())


def test_individual_prefs_rejects_too_few_drawable_daycares():
    # only daycare 1 can ever be drawn, so a second distinct one never comes
    with pytest.raises(ValueError, match="can be drawn"):
        gen_individual_prefs([0.0, 1.0], 2, rng_of())
    # daycare 1's step [0.25 + 2**-54, 0.25 + 2**-53) is positive but holds
    # no multiple of 2**-53, the values rng.random() returns
    with pytest.raises(ValueError, match="2 daycares can be drawn, 3 needed"):
        gen_individual_prefs([0.25 + 2**-54, 2**-54, 0.75 - 2**-53], 3, rng_of())
    assert gen_individual_prefs([0.0, 1.0], 1, rng_of()) == [1]


def test_individual_prefs_stops_when_a_drawable_daycare_never_comes():
    # daycare 0's step holds only the value 0 of rng.random(), so it passes
    # the drawable check but comes once in 2**53 draws: the call stops at
    # its draw cap (it used to run without end)
    with pytest.raises(ValueError, match="draws gave only 1 of 2 daycares"):
        gen_individual_prefs([1e-300, 1e-300, 1.0], 2, rng_of())


def test_individual_prefs_first_position_uniform():
    # chi-square against uniform over the first list entry
    from scipy.stats import chisquare

    m = 8
    p = bounded_distribution(m, 1.0, rng_of(5))
    rng = rng_of(6)
    counts = np.zeros(m, dtype=int)
    for _ in range(20_000):
        counts[gen_individual_prefs(p, 1, rng)[0]] += 1
    stat, pvalue = chisquare(counts)
    assert pvalue > 1e-3


def test_family_prefs_exhaustive_two_options():
    out = gen_family_prefs([["d1", "d2"]], 2, rng_of(7))
    assert sorted(out) == [("d1",), ("d2",)]


def test_family_prefs_samples_distinct_pairs():
    lists = [[f"a{i}" for i in range(10)], [f"b{i}" for i in range(10)]]
    out = gen_family_prefs(lists, 10, rng_of(8))
    assert len(out) == 10
    assert len(set(out)) == 10
    for a, b in out:
        assert a in lists[0] and b in lists[1]


def test_family_prefs_single_combination():
    assert gen_family_prefs([["d1"], ["d1"]], 10, rng_of(9)) == [("d1", "d1")]


def test_family_prefs_requires_nonempty_lists():
    with pytest.raises(ValueError):
        gen_family_prefs([["d1"], []], 3, rng_of())


# -- reference ordering --------------------------------------------------------


def fam(fid, kids):
    return Family(fid, tuple(kids), ())


def test_reference_ordering_singletons_only_uniform_permutation():
    families = [fam(f"f{i}", [f"c{i}"]) for i in range(20)]
    ordering, grouped = gen_reference_ordering(families, 20, 1.0, rng_of(10))
    assert sorted(ordering) == sorted(f"c{i}" for i in range(20))
    assert grouped == {}


def test_reference_ordering_grouped_block_contiguous():
    families = [fam("f1", ["c1", "c2", "c3"]), fam("f2", ["c4"]), fam("f3", ["c5"])]
    for seed in range(40):
        ordering, grouped = gen_reference_ordering(families, 5, 1.0, rng_of(seed))
        if grouped["f1"]:
            i = ordering.index("c1")
            assert ordering[i : i + 3] == ("c1", "c2", "c3")
            assert diameter(ordering, families[0]) == 3


def test_reference_ordering_split_probability_bound():
    # n=100, eps=1: splits occur w.p. 1e-4 per family, so the observed
    # fraction of family draws with diameter exceeding family size stays
    # at least an order of magnitude under 10/n^(1+eps)
    n, eps = 100, 1.0
    sib = [fam(f"f{i}", [f"c{i}a", f"c{i}b"]) for i in range(10)]
    singles = [fam(f"g{i}", [f"s{i}"]) for i in range(n - 20)]
    rng = rng_of(11)
    draws = 10_000
    spread = 0
    for _ in range(draws):
        ordering, _ = gen_reference_ordering(sib + singles, n, eps, rng)
        for f in sib:
            if diameter(ordering, f) > len(f.children):
                spread += 1
    assert spread / (draws * len(sib)) <= 10.0 / n ** (1 + eps)


# -- Mallows sampling ----------------------------------------------------------


def test_mallows_phi_zero_returns_reference():
    ref = [f"c{i}" for i in range(30)]
    rng = rng_of(12)
    for _ in range(100):
        assert mallows_sample(ref, 0.0, rng) == ref


def test_mallows_phi_validation():
    with pytest.raises(ValueError):
        mallows_sample(["a"], 1.5, rng_of())
    with pytest.raises(ValueError, match="phi"):
        mallows_sample(["a"], "x", rng_of())


def test_mallows_permutation_of_reference():
    ref = [f"c{i}" for i in range(12)]
    rng = rng_of(13)
    for phi in (0.2, 0.7, 1.0):
        for _ in range(50):
            out = mallows_sample(ref, phi, rng)
            assert sorted(out) == sorted(ref)


def test_mallows_mean_inversions_monotone_in_phi():
    ref = list(range(12))
    rng = rng_of(14)
    means = []
    for phi in (0.1, 0.5, 0.9, 1.0):
        total = 0
        for _ in range(400):
            total += kendall_tau(mallows_sample(ref, phi, rng), ref)
        means.append(total / 400)
    assert means == sorted(means)
    # phi=1 is uniform: mean inversions ~ n(n-1)/4
    assert abs(means[-1] - 12 * 11 / 4) < 3.0


def test_mallows_adjacent_swap_mass_ratio():
    # Pr[one adjacent swap] / Pr[reference] converges to phi
    ref = ["a", "b", "c"]
    swap = ["a", "c", "b"]
    rng = rng_of(15)
    counts = {"ref": 0, "swap": 0}
    draws, chunk = 1_000_000, 100_000
    # size=chunk consumes the stream exactly as chunk single draws do
    for _ in range(draws // chunk):
        for out in mallows_sample(ref, 0.5, rng, size=chunk):
            if out == ref:
                counts["ref"] += 1
            elif out == swap:
                counts["swap"] += 1
    ratio = counts["swap"] / counts["ref"]
    assert abs(ratio - 0.5) < 0.02


@pytest.mark.parametrize("phi", [0.0, 0.5, 1.0])
def test_mallows_size_equals_successive_single_draws(phi):
    ref = tuple(f"c{i}" for i in range(40))
    batched, single = rng_of(17), rng_of(17)
    draws = mallows_sample(ref, phi, batched, size=6)
    assert draws == [mallows_sample(ref, phi, single) for _ in range(6)]
    assert batched.bit_generator.state == single.bit_generator.state
    assert mallows_sample(ref, phi, batched, size=0) == []
    assert batched.bit_generator.state == single.bit_generator.state
    for size in (-1, 2.5, True):
        with pytest.raises(ValueError, match="size"):
            mallows_sample(ref, phi, batched, size=size)
    # 2,000 draws of 40 items: past 65,536 items laid end to end
    many = mallows_sample(ref, phi, batched, size=2000)
    assert many == [mallows_sample(ref, phi, single) for _ in range(2000)]
    # an ndarray reference gives the same draws as ndarrays
    positions = np.arange(40)
    for size in (None, 6, 2000):
        got = mallows_sample(positions, phi, batched, size=size)
        assert isinstance(got, np.ndarray)
        assert got.shape == ((40,) if size is None else (size, 40))
        named = [[ref[k] for k in row] for row in np.atleast_2d(got).tolist()]
        count = 1 if size is None else size
        assert named == [mallows_sample(ref, phi, single) for _ in range(count)]
    assert batched.bit_generator.state == single.bit_generator.state


# -- Kendall tau ----------------------------------------------------------------


def test_kendall_tau_examples():
    assert kendall_tau(["c1", "c2", "c3"], ["c1", "c2", "c3"]) == 0
    k = 7
    a = [f"c{i}" for i in range(k)]
    assert kendall_tau(a, list(reversed(a))) == k * (k - 1) // 2
    assert kendall_tau(["c1", "c2", "c3"], ["c2", "c1", "c3"]) == 1


def test_kendall_tau_mismatch():
    with pytest.raises(ValueError):
        kendall_tau(["a", "b"], ["a", "c"])
    with pytest.raises(ValueError):
        kendall_tau(["a", "a"], ["a", "a"])
    with pytest.raises(ValueError, match="ordering a contains duplicates"):
        kendall_tau(["a", "a"], ["a", "b"])
    # unhashable items raised a bare TypeError
    for a, b in (([[1]], [[1]]), (["a"], [["a"]]), ([["a"]], ["a"])):
        with pytest.raises(ValueError, match="hashable"):
            kendall_tau(a, b)


def test_kendall_tau_symmetry_random():
    rng = rng_of(16)
    items = [f"c{i}" for i in range(15)]
    for _ in range(30):
        a = list(rng.permutation(items))
        b = list(rng.permutation(items))
        assert kendall_tau(a, b) == kendall_tau(b, a)


# -- instance generation ----------------------------------------------------------


def test_family_counts_protocol_example():
    cfg = MarketConfig(n=500, phi=0.5, alpha=0.2)
    f2, f3, cs, co = family_counts(cfg)
    assert (f2, f3, cs, co) == (40, 6, 98, 402)


def test_gen_instance_structure_n500():
    cfg = MarketConfig(n=500, phi=0.5, seed=1)
    inst = gen_instance(cfg)
    f2, f3, cs, co = family_counts(cfg)
    assert len(inst.sibling_families) == f2 + f3
    assert len(inst.singleton_families) == co
    assert inst.num_children == 500
    phys = inst.meta["physical_daycares"]
    assert len(phys) == int(0.1 * (f2 + f3 + co))
    # six age units per physical daycare plus the dummy
    assert len(inst.daycares) == 6 * len(phys) + 1
    quotas = {d.id: d.quota for d in inst.daycares if d.id != DUMMY_ID}
    for p in phys:
        assert [quotas[f"{p}-a{k}"] for k in range(6)] == [5, 5, 1, 1, 1, 1]


def test_gen_instance_preferences_use_own_age_units():
    inst = gen_instance(MarketConfig(n=60, phi=0.5, seed=2))
    ages = inst.meta["ages"]
    for fam in inst.families:
        for tup in fam.preferences:
            for child, unit in zip(fam.children, tup):
                if unit == DUMMY_ID:
                    continue
                assert unit.endswith(f"-a{ages[child]}")


def test_gen_instance_priorities_cover_age_group():
    inst = gen_instance(MarketConfig(n=60, phi=0.5, seed=3))
    ages = inst.meta["ages"]
    by_age = {}
    for child, age in ages.items():
        by_age.setdefault(age, set()).add(child)
    for d in inst.daycares:
        if d.id == DUMMY_ID:
            continue
        age = int(d.id.rsplit("-a", 1)[1])
        assert set(d.priority) == by_age.get(age, set())


def test_gen_instance_sibling_counts_exact():
    for n, alpha in ((200, 0.2), (333, 0.3), (57, 0.5)):
        cfg = MarketConfig(n=n, phi=0.5, alpha=alpha, seed=4)
        f2, f3, cs, co = family_counts(cfg)
        inst = gen_instance(cfg)
        sizes = [f.size for f in inst.families]
        assert sizes.count(2) == f2
        assert sizes.count(3) == f3
        assert sum(s for s in sizes if s > 1) == cs == 2 * f2 + 3 * f3


def test_gen_instance_alpha_zero_all_singletons():
    inst = gen_instance(MarketConfig(n=40, phi=0.5, alpha=0.0, seed=5))
    assert inst.sibling_families == ()
    assert all(f.size == 1 for f in inst.families)


def test_gen_instance_deterministic():
    cfg = MarketConfig(n=120, phi=0.7, seed=6)
    a = dump_instance(gen_instance(cfg))
    b = dump_instance(gen_instance(cfg))
    assert a == b
    c = dump_instance(gen_instance(MarketConfig(n=120, phi=0.7, seed=7)))
    assert a != c


# sha256 of dump_instance(gen_instance(cfg)); a change to any generated byte,
# or to how the generator consumes its random stream, changes these
PINNED_MARKETS = [
    (MarketConfig(n=500, phi=0.0, seed=1), "68d764077d44da42458ba08560ea15daed4ca37a5fe49596b67a5f7db7d1bb2a"),
    (MarketConfig(n=500, phi=0.5, seed=2), "df2d8a30bc740a7dbb5c515d34d4c77c498e6e8d0073dcc93849c9b0c4831e87"),
    (MarketConfig(n=500, phi=1.0, seed=3), "3d3ae2a1a21cbce516e4f83bd1c7759c1540bf351251f7ae5092825cf3e066c8"),
    # mean displacement ~n/4 = 300 items shifted per insert
    (MarketConfig(n=1200, phi=1.0, seed=4), "14989cce04db619435fa4c91717b0d8c5c87ee95b74a5377a96b1f74c99b17ed"),
    # the size of the n3000 benchmark markets: 268 physical daycares, 1,608 units
    (MarketConfig(n=3000, phi=0.5, seed=0), "2db302ff160288890cc712eac19f7fc8ecf5b389eb48c68ec0eabed1bbb164e6"),
    # two markets of the criterion-3 oracle set (k = 0 and 1)
    (
        MarketConfig(n=6, phi=0.3, alpha=0.4, L=2, sigma=2.0, daycare_ratio=0.5,
                     sibling_pref_length=3, joint_pref_length=4, seed=10_000),
        "6727d01b1825c5066b085ccdb21a7b9a6ea36bce8db92dae7133e6ac5a0c11cb",
    ),
    (
        MarketConfig(n=7, phi=1.0, alpha=0.4, L=2, sigma=2.0, daycare_ratio=0.5,
                     sibling_pref_length=3, joint_pref_length=4, seed=10_001),
        "9490456570d316dd9c14b24c9512e36247844c3047e3d47d792f5327a333012b",
    ),
]


@pytest.mark.parametrize(
    "cfg, digest",
    PINNED_MARKETS,
    ids=[
        "n500-phi0", "n500-phi0.5", "n500-phi1", "n1200-phi1", "n3000-phi0.5",
        "oracle-0", "oracle-1",
    ],
)
def test_gen_instance_bytes_are_pinned(cfg, digest):
    text = dump_instance(gen_instance(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gen_instance_rejects_a_sigma_past_the_float_range():
    with pytest.raises(ValueError, match="float range"):
        gen_instance(MarketConfig(n=50, phi=0.5, sigma=1e308))


@pytest.mark.parametrize("epsilon", [2000.0, 1e308])
def test_gen_instance_groups_every_family_at_a_huge_epsilon(epsilon):
    # n ** (1 + epsilon) leaves the float range; it raised OverflowError
    grouped = gen_instance(MarketConfig(n=50, phi=0.5, epsilon=epsilon)).meta["grouped_families"]
    assert grouped and all(grouped.values())


@settings(max_examples=400, deadline=None)
@given(
    st.fixed_dictionaries({
        "n": st.integers(1, 40),
        "phi": st.floats(0.0, 1.0),
        "alpha": st.floats(0.0, 1.0),
        "K": st.integers(1, 3),
        "L": st.integers(1, 12),
        # each of these from a small range or from the whole float range
        "sigma": st.floats(1.0, 4.0) | st.floats(1.0, 1.7e308),
        "epsilon": st.floats(0.0, 4.0) | st.floats(0.0, 1.7e308),
        "daycare_ratio": st.floats(0.0, 1.0) | st.floats(0.0, 1.7e308),
        "capacity_profile": st.lists(st.integers(0, 5), min_size=1, max_size=6),
        "sibling_pref_length": st.integers(1, 12),
        "joint_pref_length": st.integers(1, 12),
        "seed": st.integers(0, 2**32),
    })
)
def test_gen_instance_returns_or_raises_value_error(params):
    try:
        cfg = MarketConfig(**params)
    except ValueError:
        return
    try:
        assert isinstance(gen_instance(cfg), Instance)
    except ValueError:
        pass


def _market_parts(cfg):
    inst = gen_instance(cfg)
    meta = inst.meta
    return meta["physical_daycares"], tuple(meta["reference_ordering"]), meta["ages"]


def _synthetic_parts(n, seed):
    """One physical daycare over n children in a random reference order."""
    rng = rng_of(seed)
    children = [f"c{k + 1}" for k in range(n)]
    ages = dict(zip(children, rng.integers(0, 6, size=n).tolist()))
    return ["d1"], tuple(children[k] for k in rng.permutation(n)), ages


@pytest.mark.parametrize(
    "cfg, synthetic",
    [
        # one block holds every unit of the market
        (MarketConfig(n=10, phi=1.0, alpha=0.4, L=2, sigma=2.0, daycare_ratio=0.5,
                      sibling_pref_length=3, joint_pref_length=4, seed=10_004), False),
        # 131 rows per block: block boundaries split a physical daycare's six units
        (MarketConfig(n=500, phi=0.5, seed=5), False),
        (MarketConfig(n=500, phi=1.0, seed=6), False),
        # one row per block, decoded into 4-byte items
        (MarketConfig(n=70_000, phi=0.5), True),
    ],
    ids=["oracle", "n500-phi0.5", "n500-phi1", "n70000-one-daycare"],
)
def test_daycare_priorities_equal_per_unit_draws(cfg, synthetic, monkeypatch):
    phys, reference, ages = _synthetic_parts(cfg.n, 7) if synthetic else _market_parts(cfg)
    n = len(reference)
    decoded = []
    decode = _kernels.decode_insertions

    def counting_decode(displacements):
        decoded.append(len(displacements))
        return decode(displacements)

    monkeypatch.setattr(_kernels, "decode_insertions", counting_decode)
    rng_blocks, rng_units = rng_of(99), rng_of(99)
    daycares = _gen_daycares(phys, reference, ages, cfg, rng_blocks)
    monkeypatch.setattr(_kernels, "decode_insertions", decode)

    units = [(p, age) for p in phys for age in range(len(cfg.capacity_profile))]
    rows = max(1, _kernels.SHORT_ITEMS // n)
    assert decoded == [n * len(units[s : s + rows]) for s in range(0, len(units), rows)]
    assert daycares[0].id == DUMMY_ID
    assert len(daycares) == 1 + len(units)
    for d, (p, age) in zip(daycares[1:], units):
        draw = mallows_sample(reference, cfg.phi, rng_units)
        assert (d.id, d.quota) == (f"{p}-a{age}", cfg.capacity_profile[age])
        assert d.priority == tuple(c for c in draw if ages[c] == age)
    assert rng_blocks.bit_generator.state == rng_units.bit_generator.state


def test_gen_instance_metadata_block():
    inst = gen_instance(MarketConfig(n=50, phi=0.3, seed=8))
    meta = inst.meta
    assert sorted(meta["reference_ordering"]) == sorted(inst.family_of)
    assert set(meta["grouped_families"]) == set(inst.sibling_families)
    assert set(meta["ages"]) == set(inst.family_of)
    assert meta["generator"]["n"] == 50


def test_gen_instance_generator_block_is_the_config():
    cfg = MarketConfig(n=50, phi=0.3, sigma=1.5, seed=8)
    generator = gen_instance(cfg).meta["generator"]
    assert generator == {**asdict(cfg), "capacity_profile": list(cfg.capacity_profile)}
    assert list(generator) == [f.name for f in fields(cfg)]


def test_gen_instance_singleton_preference_length():
    inst = gen_instance(MarketConfig(n=80, phi=0.5, seed=9))
    m_phys = len(inst.meta["physical_daycares"])
    for fid in inst.singleton_families:
        fam = inst.families_by_id[fid]
        assert len(fam.preferences) == min(5, m_phys)
    for fid in inst.sibling_families:
        fam = inst.families_by_id[fid]
        assert 1 <= len(fam.preferences) <= 10


def test_market_config_validation():
    with pytest.raises(ValueError):
        MarketConfig(n=0, phi=0.5)
    with pytest.raises(ValueError):
        MarketConfig(n=10, phi=1.5)
    with pytest.raises(ValueError):
        MarketConfig(n=10, phi=0.5, alpha=1.5)
    with pytest.raises(ValueError):
        MarketConfig(n=10, phi=0.5, sigma=0.9)
    with pytest.raises(ValueError):
        MarketConfig(n=500, phi=0.5, K=2)  # three-sibling families need K >= 3
    with pytest.raises(ValueError, match="two-sibling families but K < 2"):
        MarketConfig(n=10, phi=0.5, alpha=0.5, K=1)  # two two-sibling families, no three
    # only float rounding makes the sibling children outnumber n
    with pytest.raises(ValueError, match=r"sibling children \(100000000000000001024\) exceed n"):
        MarketConfig(n=10**20 + 7, phi=0.5, alpha=1.0)
    # at most one physical daycare per child: 10 only children, ratio up to 1
    assert MarketConfig(n=10, phi=0.5, alpha=0.0, daycare_ratio=1.0).daycare_ratio == 1.0
    with pytest.raises(ValueError, match="daycare_ratio"):
        MarketConfig(n=10, phi=0.5, alpha=0.0, daycare_ratio=1.1)
    # an infinite sigma made generation run without end
    for field in ("sigma", "epsilon", "daycare_ratio"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                MarketConfig(n=10, phi=0.5, **{field: value})
    for field in ("L", "sibling_pref_length", "joint_pref_length"):
        with pytest.raises(ValueError, match="preference lengths"):
            MarketConfig(n=10, phi=0.5, **{field: 0})
    for profile in ((), (5, -1)):
        with pytest.raises(ValueError, match="capacity_profile must be non-empty and non-negative"):
            MarketConfig(n=10, phi=0.5, capacity_profile=profile)


@pytest.mark.parametrize(
    "field, value",
    [("L", 2.5), ("n", "5"), ("n", 50.0), ("n", True), ("seed", -1), ("seed", 1.0),
     ("alpha", "0.2"), ("capacity_profile", [5, "a"]), ("capacity_profile", 5),
     ("n", 10**400), ("sigma", 10**400), ("daycare_ratio", 10**400),
     ("epsilon", -0.5), ("K", 0), ("daycare_ratio", 0.0),
     ("daycare_ratio", 1e7), ("daycare_ratio", 1e308)],
)
def test_market_config_rejects_wrong_types(field, value):
    # L=2.5 was accepted and gave only children lists of 4-8 daycares;
    # an integer past the float range raised a bare OverflowError
    with pytest.raises(ValueError, match=field):
        MarketConfig(**{"n": 50, "phi": 0.5, field: value})


def test_market_config_stores_a_list_profile_as_a_tuple():
    cfg = MarketConfig(n=10, phi=0.5, capacity_profile=[1, 1])
    assert cfg.capacity_profile == (1, 1)
    assert hash(cfg) == hash(MarketConfig(n=10, phi=0.5, capacity_profile=(1, 1)))
