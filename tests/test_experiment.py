import json
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sibmatch import experiment
from sibmatch.experiment import (
    ALGORITHMS,
    CellStats,
    ExperimentReport,
    SweepSpec,
    instance_seed,
    render_report,
    run_sweep,
    spec_from_json,
)
from sibmatch.market import MarketConfig

SMALL_BASE = {
    "alpha": 0.4,
    "L": 2,
    "sigma": 2.0,
    "daycare_ratio": 0.5,
    "sibling_pref_length": 3,
    "joint_pref_length": 4,
}


def small_spec(**overrides) -> SweepSpec:
    params = dict(
        sizes=(12,),
        phis=(0.5, 1.0),
        trials=4,
        algorithms=("esda", "sda", "sc"),
        base=SMALL_BASE,
        seed=7,
    )
    params.update(overrides)
    return SweepSpec(**params)


def strip_timing(csv_text: str) -> str:
    out = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        cells[4:6] = ["", ""]
        out.append(",".join(cells))
    return "\n".join(out)


def test_instance_seed_stable_values():
    a = instance_seed(0, 500, 0.5, 0)
    assert a == instance_seed(0, 500, 0.5, 0)
    assert a != instance_seed(0, 500, 0.5, 1)
    assert a != instance_seed(1, 500, 0.5, 0)
    assert a != instance_seed(0, 501, 0.5, 0)


def test_render_empty_report_header_only():
    spec = SweepSpec(sizes=(), phis=(), trials=1)
    report = ExperimentReport(spec=spec, cells={})
    text = render_report(report, "csv")
    assert text == "n,phi,algorithm,success,time_mean_s,time_std_s,failures\n"


def test_render_one_cell_da_always_succeeds():
    spec = SweepSpec(
        sizes=(10,), phis=(0.5,), trials=1, algorithms=("da",), base={"alpha": 0.0}
    )
    report = run_sweep(spec)
    lines = render_report(report, "csv").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("10,0.5,da,1/1")


def test_row_count_is_grid_product():
    spec = small_spec(sizes=(10, 14), phis=(0.0, 1.0), trials=1)
    report = run_sweep(spec)
    lines = render_report(report, "csv").splitlines()
    assert len(lines) == 1 + 2 * 2 * 3


def test_sweep_deterministic_modulo_timing():
    spec = small_spec()
    a = strip_timing(render_report(run_sweep(spec), "csv"))
    b = strip_timing(render_report(run_sweep(spec), "csv"))
    assert a == b


def test_exact_rows_skipped_above_cap():
    spec = small_spec(algorithms=("exact-ours",), exact_cap=10, trials=1)
    report = run_sweep(spec)
    lines = render_report(report, "csv").splitlines()
    assert all(",skipped," in line for line in lines[1:])


def test_exact_modes_agree_with_monotonicity():
    spec = small_spec(
        sizes=(10,), phis=(1.0,), trials=6, algorithms=("exact-ours", "exact-abh")
    )
    report = run_sweep(spec)
    ours = report.cells[(10, 1.0, "exact-ours")]
    abh = report.cells[(10, 1.0, "exact-abh")]
    assert ours.successes <= abh.successes
    assert ours.trials == abh.trials == 6


def test_markdown_rendering():
    spec = small_spec(sizes=(10,), phis=(0.5,), trials=1, algorithms=("da",))
    text = render_report(run_sweep(spec), "markdown")
    lines = text.splitlines()
    assert lines[0].startswith("| n | phi ")
    assert lines[2].startswith("| 10 | 0.5 | da | 1/1 ")
    # a failures cell with two kinds stays one markdown cell; CSV keeps the raw "|"
    two_kinds = CellStats(failures=Counter({"type-1b": 1, "type-1a": 1}))
    report = ExperimentReport(spec=spec, cells={(10, 0.5, "esda"): two_kinds})
    row = render_report(report, "markdown").splitlines()[2]
    assert row == "| 10 | 0.5 | esda | 0/2 | nan | nan | type-1a:1\\|type-1b:1 |"
    assert row.replace("\\|", "").count("|") == len(experiment.CSV_COLUMNS) + 1
    assert render_report(report, "csv").splitlines()[1] == "10,0.5,esda,0/2,nan,nan,type-1a:1|type-1b:1"


def test_success_counts_add_up():
    spec = small_spec(trials=5)
    report = run_sweep(spec)
    for cell in report.cells.values():
        assert cell.successes + sum(cell.failures.values()) == cell.trials == 5


def test_harness_errors_keep_their_text(monkeypatch):
    real = experiment._run_algorithm

    def flaky(algo, instance, spec, n):
        if algo == "sc":
            raise RuntimeError(f"boom at n={n}")
        return real(algo, instance, spec, n)

    monkeypatch.setattr(experiment, "_run_algorithm", flaky)
    spec = small_spec(trials=2)
    report = run_sweep(spec)
    for phi in spec.phis:
        sc = report.cells[(12, phi, "sc")]
        assert sc.failures == {"harness-error": 2}
        assert sc.errors == ["RuntimeError('boom at n=12')"] * 2
        assert report.cells[(12, phi, "esda")].errors == []
    csv = render_report(report, "csv")
    assert "\n12,0.5,sc,0/2,nan,nan,harness-error:2\n" in csv
    markdown = render_report(report, "markdown")
    for cell in report.cells.values():
        cell.errors.clear()
    # the error texts stay out of both report formats
    assert render_report(report, "csv") == csv
    assert render_report(report, "markdown") == markdown


def test_spec_validation():
    with pytest.raises(ValueError, match="trials"):
        SweepSpec(sizes=(10,), phis=(0.5,), trials=0)
    with pytest.raises(ValueError, match="phi"):
        SweepSpec(sizes=(10,), phis=(1.5,))
    with pytest.raises(ValueError, match="algorithm"):
        SweepSpec(sizes=(10,), phis=(0.5,), algorithms=("magic",))
    with pytest.raises(ValueError, match="override"):
        SweepSpec(sizes=(10,), phis=(0.5,), base={"n": 3})
    with pytest.raises(ValueError, match="unknown spec keys"):
        spec_from_json('{"sizes": [10], "phis": [0.5], "bogus": 1}')
    with pytest.raises(ValueError, match="invalid spec JSON"):
        spec_from_json("{nope")


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", "3"),
        ("trials", True),
        ("sizes", 5),
        ("sizes", ["a"]),
        ("sizes", [0]),
        ("phis", [None]),
        ("base", [1]),
        ("base", {"foo": 1}),
        ("base", {"K": 2.5}),
        ("base", {"capacity_profile": "abc"}),
        ("base", {"alpha": 2.0}),
        ("base", {"sigma": float("inf")}),
        ("exact_cap", None),
        ("exact_max_nodes", 0),
        ("exact_max_millis", -1),
        ("sizes", [10, 10]),
        ("phis", [1.0, 1]),
        ("phis", [0.5, 0.5000000001]),
        ("algorithms", ["esda", "sc", "esda"]),
    ],
)
def test_spec_rejects_wrong_fields(field, value):
    for sizes in ([10], []):
        data = {"sizes": sizes, "phis": [0.5], field: value}
        with pytest.raises(ValueError, match=field.rstrip("s")):
            spec_from_json(json.dumps(data))


def test_spec_rejects_a_non_object():
    with pytest.raises(ValueError, match="object"):
        spec_from_json("[1, 2]")


VALID_SPEC = dict(small_spec().to_dict(), base={**SMALL_BASE, "capacity_profile": [5, 5, 1]})
BASE_KEYS = sorted(f.name for f in fields(MarketConfig) if f.name not in ("n", "phi", "seed"))
SPEC_KEYS = st.sampled_from(sorted(VALID_SPEC) + BASE_KEYS + ["n", "x"])
SPEC_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3) | st.sampled_from(ALGORITHMS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SPEC_KEYS, inner, max_size=3),
    max_leaves=8,
)


def assert_spec_or_value_error(data):
    try:
        assert isinstance(SweepSpec.from_dict(data), SweepSpec)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=SPEC_VALUES)
def test_spec_total_on_any_json(data):
    assert_spec_or_value_error(data)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(VALID_SPEC)), base_key=SPEC_KEYS, value=SPEC_VALUES)
def test_spec_total_on_one_field_changes(key, base_key, value):
    assert_spec_or_value_error({**VALID_SPEC, key: value})
    assert_spec_or_value_error({**VALID_SPEC, "base": {**VALID_SPEC["base"], base_key: value}})


def test_spec_roundtrip():
    spec = small_spec()
    again = SweepSpec.from_dict(spec.to_dict())
    assert again == spec
    # lists are stored as tuples, phis as floats
    spec = spec_from_json('{"sizes": [10], "phis": [0, 1], "base": {"capacity_profile": [5, 1]}}')
    assert spec.sizes == (10,) and spec.phis == (0.0, 1.0)
    assert all(isinstance(phi, float) for phi in spec.phis)
    assert spec.to_dict()["phis"] == [0.0, 1.0]
    # a negative spec seed is valid: only the derived instance seeds reach MarketConfig
    assert SweepSpec(sizes=(10,), phis=(0.5,), seed=-1).seed == -1


def test_parallel_jobs_match_sequential():
    spec = small_spec(trials=3)
    seq = strip_timing(render_report(run_sweep(spec, jobs=1), "csv"))
    par = strip_timing(render_report(run_sweep(spec, jobs=2), "csv"))
    assert seq == par


def test_cell_counts_derive_from_times_and_failures():
    cell = CellStats(times=[0.1, 0.2, 0.3], failures=Counter({"type-1a": 2, "harness-error": 1}))
    assert (cell.successes, cell.trials) == (3, 6)
    assert (CellStats().successes, CellStats().trials) == (0, 0)
    with pytest.raises(AttributeError):
        cell.successes = 4


def test_render_report_renders_the_cells_it_is_given():
    # keys outside the spec's grid, in reverse grid order, are rendered as given
    cells = {
        (14, 1.0, "sc"): CellStats(failures=Counter({"sc-application-clash": 1})),
        (12, 0.5, "esda"): CellStats(times=[0.5]),
    }
    report = ExperimentReport(spec=small_spec(), cells=cells)
    assert render_report(report, "csv").splitlines()[1:] == [
        "14,1,sc,0/1,nan,nan,sc-application-clash:1",
        "12,0.5,esda,1/1,0.5000,0.0000,",
    ]


@pytest.mark.parametrize("jobs", [0, -3, 1.0, True, None])
def test_run_sweep_rejects_a_bad_job_count(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(small_spec(trials=1), jobs=jobs)
