"""Self-tests of the benchmark, on tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import make_golden  # noqa: E402
import run  # noqa: E402
import sibmatch.experiment  # noqa: E402
import sibmatch.market  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_self_times, self_times  # noqa: E402


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and write a golden file for the tiny inputs."""
    monkeypatch.setattr(workloads, "SWEEP_N", 40)
    monkeypatch.setattr(workloads, "SWEEP_TRIALS", 1)
    monkeypatch.setattr(workloads, "N3000_N", 60)
    monkeypatch.setattr(workloads, "ORACLE_MARKETS", 6)
    monkeypatch.setattr(workloads, "GOLDEN_PATH", tmp_path / "golden.json")
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: 0.5)
    with redirect_stdout(io.StringIO()):
        make_golden.main()
    return workloads.load_golden()


def run_command(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


def metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_untraced_and_traced(tiny, workload):
    run_pass = workloads.make_pass(workload, 3, tiny)
    plain = run_pass()
    assert plain.failed == 0, plain.messages
    assert plain.instances == len(plain.instance_seconds) > 0
    traced, tracer = run.traced_pass(run_pass)
    assert traced.failed == 0, traced.messages
    assert traced.instances == plain.instances
    assert any(s.name == "market.gen" for s in tracer.spans)


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(tiny, trace):
    end_to_end, per_layer, names = metric_spec()
    assert names == list(workloads.WORKLOADS)
    for workload in names:
        code, result = run_command(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)])
        assert code == 0
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = per_layer if trace else end_to_end
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_perturbed_golden_fails_the_command(tiny):
    code, result = run_command(["--workload", "oracle-small", "--seed", "0", "--seconds", "0", "--trace", "0"])
    assert code == 0 and result["correct"]
    tiny["oracle-small"]["2"]["esda_matching"] = "0" * 64
    workloads.GOLDEN_PATH.write_text(json.dumps(tiny))
    code, result = run_command(["--workload", "oracle-small", "--seed", "0", "--seconds", "0", "--trace", "0"])
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_perturbed_sweep_report_fails_every_instance(tiny):
    tiny["sweep-n500"] = tiny["sweep-n500"].replace("esda", "ESDA")
    result = workloads.sweep_pass(workloads.SWEEP_PHIS, tiny)
    assert result.failed == result.instances
    assert "golden mismatch" in result.messages[0]


def test_swallowed_harness_error_is_named(tiny, monkeypatch):
    original = sibmatch.experiment.run_sc

    def flaky(instance, *args):
        if len(instance.families) % 2:
            raise RuntimeError("injected")
        return original(instance, *args)

    monkeypatch.setattr(sibmatch.experiment, "run_sc", flaky)
    monkeypatch.setattr(workloads, "SWEEP_TRIALS", 4)
    result = workloads.sweep_pass(workloads.SWEEP_PHIS, tiny)
    assert result.failed >= 1
    assert any("harness-error" in m and "trial=" in m and "injected" in m for m in result.messages)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_raising_instances_are_failures(tiny, monkeypatch, workload):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    for module in (sibmatch.market, sibmatch.experiment):
        monkeypatch.setattr(module, "gen_instance", broken)
    result = workloads.make_pass(workload, 0, tiny)()
    assert result.failed == result.instances > 0
    assert "injected" in result.messages[0]


def test_self_time_arithmetic():
    spans = [
        Span(0, "bench.timed", 0.0, 10.0, None, 1),
        Span(1, "market.gen", 1.0, 5.0, 0, 1),
        Span(2, "market.mallows", 2.0, 3.0, 1, 1),
        Span(3, "kernels.decode", 2.5, 2.75, 2, 1),
        Span(4, "algorithms.esda", 6.0, 9.0, 0, 1),
        Span(5, "solver.solve", 9.0, 9.5, 0, 1, inner=0.25),
    ]
    assert self_times(spans) == {0: 2.5, 1: 3.0, 2: 0.75, 3: 0.25, 4: 3.0, 5: 0.25}
    layers = layer_self_times(spans, {"solver.leaf_scan": (7, 0.25)})
    assert layers == {"bench": 2.5, "market": 3.75, "kernels": 0.25, "algorithms": 3.0, "solver": 0.5}
    assert sum(layers.values()) == 10.0


def test_overlapping_children_are_covered_once():
    spans = [
        Span(0, "a.x", 0.0, 4.0, None, 0),
        Span(1, "b.y", 1.0, 3.0, 0, 0),
        Span(2, "b.z", 2.0, 5.0, 0, 0),
    ]
    assert self_times(spans)[0] == 1.0


def patched_attributes():
    tracer = Tracer()
    tracer.install()
    names = [(module, attr) for module, attr, _ in tracer._patches]
    tracer.uninstall()
    return names


def test_wrappers_are_removed_before_untraced_runs(tiny):
    names = patched_attributes()
    before = {(id(m), a): getattr(m, a) for m, a in names}
    run_pass = workloads.make_pass("sweep-n500", 0, tiny)
    _, tracer = run.traced_pass(run_pass)
    assert {(id(m), a): getattr(m, a) for m, a in names} == before
    recorded = len(tracer.spans)
    assert run_pass().failed == 0
    assert len(tracer.spans) == recorded


def test_pause_restores_the_wrappers():
    tracer = Tracer()
    with tracer.installed():
        wrapped = tracing.sibmatch.market.gen_instance
        with tracer.paused():
            assert tracing.sibmatch.market.gen_instance is not wrapped
        assert tracing.sibmatch.market.gen_instance is wrapped


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "n3000", "--seed", "0", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
