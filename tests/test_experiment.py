import pytest

from sibmatch import experiment
from sibmatch.experiment import (
    ExperimentReport,
    SweepSpec,
    instance_seed,
    render_report,
    run_sweep,
    spec_from_json,
)

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


def test_spec_roundtrip():
    spec = small_spec()
    again = SweepSpec.from_dict(spec.to_dict())
    assert again == spec


def test_parallel_jobs_match_sequential():
    spec = small_spec(trials=3)
    seq = strip_timing(render_report(run_sweep(spec, jobs=1), "csv"))
    par = strip_timing(render_report(run_sweep(spec, jobs=2), "csv"))
    assert seq == par
