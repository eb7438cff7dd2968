import io
import json

import pytest

import helpers
from sibmatch import experiment
from sibmatch.algorithms import run_da
from sibmatch.cli import main
from sibmatch.market import MarketConfig, gen_instance
from sibmatch.model import (
    InstanceError,
    Matching,
    MatchingError,
    dump_instance,
    dump_matching,
    load_instance,
    load_matching,
)
from sibmatch.trace import ExecutionTrace, replay_trace


@pytest.fixture
def seat_market_file(tmp_path):
    path = tmp_path / "seat_transfer_mkt.json"
    path.write_text(dump_instance(helpers.seat_transfer_market()))
    return path


def write_matching(tmp_path, instance, assignment, name="m.json"):
    path = tmp_path / name
    path.write_text(dump_matching(Matching(instance, assignment)))
    return path


def test_check_stable_and_unstable(tmp_path, capsys, seat_market_file):
    inst = helpers.seat_transfer_market()
    stable = write_matching(tmp_path, inst, {"c1": "d1", "c2": "d2"}, "stable.json")
    assert main(["check", "--instance", str(seat_market_file), "--matching", str(stable)]) == 0
    assert capsys.readouterr().out.strip() == "STABLE"

    shifted = write_matching(tmp_path, inst, {"c1": "d2", "c2": "d0"}, "shifted.json")
    code = main(["check", "--instance", str(seat_market_file), "--matching", str(shifted)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == "UNSTABLE"
    witness = json.loads(out[1])
    assert witness["family"] == "f1" and witness["tuple_index"] == 0

    code = main(
        ["check", "--instance", str(seat_market_file), "--matching", str(shifted), "--mode", "abh"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "STABLE"


def test_solve_esda_with_trace(tmp_path, capsys):
    inst_path = tmp_path / "restart_mkt.json"
    inst_path.write_text(dump_instance(helpers.restart_success_market()))
    trace_path = tmp_path / "trace.jsonl"
    code = main(
        ["solve", "--instance", str(inst_path), "--algo", "esda", "--trace", str(trace_path)]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "success"
    assert out["permutation_history"] == [[1, 2, 3], [3, 1, 2], [1, 3, 2]]
    assert out["matching"]["assignment"]["c1"] == "d1"
    lines = trace_path.read_text().strip().splitlines()
    assert all(json.loads(line)["kind"] for line in lines)


def test_solve_da_with_trace(tmp_path, capsys):
    inst = helpers.restart_success_market()
    inst_path = tmp_path / "restart_mkt.json"
    inst_path.write_text(dump_instance(inst))
    trace_path = tmp_path / "trace.jsonl"
    code = main(["solve", "--instance", str(inst_path), "--algo", "da", "--trace", str(trace_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    matching = run_da(inst).matching
    assert out == {
        "status": "success", "matching": {"assignment": matching.assignment}, "permutation_history": [[]]
    }
    # DA logs its one attempt: an empty order, the DA phase, success
    trace = ExecutionTrace.from_jsonl(trace_path.read_text())
    assert trace.pi_history == [()]
    assert replay_trace(inst, trace) == matching
    assert main(["inspect", "--instance", str(inst_path), "--trace", str(trace_path)]) == 0
    assert json.loads(capsys.readouterr().out)["failure"] is None


def test_gen_defaults_are_market_config_defaults(tmp_path):
    out_path = tmp_path / "gen.json"
    assert main(["gen", "--n", "40", "--phi", "0.5", "--out", str(out_path)]) == 0
    assert out_path.read_text() == dump_instance(gen_instance(MarketConfig(n=40, phi=0.5))) + "\n"


def test_gen_rejects_an_integer_past_the_float_range(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    assert main(["gen", "--n", "1" + "0" * 400, "--phi", "0.5", "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error: n must be")
    assert not out_path.exists()


def test_gen_rejects_a_sigma_past_the_float_range(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    assert main(["gen", "--n", "50", "--phi", "0.5", "--sigma", "1e308", "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error: sigma * m exceeds the float range")
    assert not out_path.exists()


def test_gen_groups_every_family_at_a_huge_epsilon(capsys):
    assert main(["gen", "--n", "50", "--phi", "0.5", "--epsilon", "2000", "--out", "-"]) == 0
    assert all(json.loads(capsys.readouterr().out)["meta"]["grouped_families"].values())


def test_gen_rejects_more_daycares_than_children(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    assert main(["gen", "--n", "50", "--phi", "0.5", "--daycare-ratio", "1e308", "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error: daycare_ratio * families exceeds n")
    assert not out_path.exists()


def test_solve_failure_payload(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "self_cycle_mkt.json"
    inst_path.write_text(dump_instance(helpers.self_cycle_market()))
    assert main(["solve", "--instance", str(inst_path), "--algo", "esda"]) == 0
    text = capsys.readouterr().out
    out = json.loads(text)
    assert out["status"] == "failure"
    assert out["failure"]["kind"] == "type-1a"
    assert out["failure"]["chain"] == ["c1", "c3", "c4", "c1"]
    # "-" reads the instance from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(inst_path.read_text()))
    assert main(["solve", "--instance", "-", "--algo", "esda"]) == 0
    assert capsys.readouterr().out == text


def test_exists_subcommand(tmp_path, capsys):
    inst_path = tmp_path / "weak_only_mkt.json"
    inst_path.write_text(dump_instance(helpers.weak_only_market()))
    assert main(["exists", "--instance", str(inst_path), "--mode", "ours"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "none-exists"
    assert main(["exists", "--instance", str(inst_path), "--mode", "abh"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "found"
    assert "matching" in out


def test_gen_solve_inspect_pipeline(tmp_path, capsys):
    inst_path = tmp_path / "gen.json"
    code = main(
        ["gen", "--n", "40", "--phi", "0.5", "--alpha", "0.4", "--seed", "3",
         "--daycare-ratio", "0.3", "--out", str(inst_path)]
    )
    assert code == 0
    inst = load_instance(inst_path.read_text())
    assert inst.num_children == 40
    assert inst.meta["generator"]["phi"] == 0.5

    trace_path = tmp_path / "t.jsonl"
    main(["solve", "--instance", str(inst_path), "--algo", "sda", "--trace", str(trace_path)])
    capsys.readouterr()
    code = main(
        ["inspect", "--instance", str(inst_path), "--trace", str(trace_path)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "diameter" in report and "chains" in report


PLACE_LIST = '{"kind": "place", "family": "f1", "tuple_index": 0, "placed": {"c1": [1]}, "evicted": []}'
EVICTED_PAIR = '{"kind": "place", "family": "f1", "tuple_index": 0, "placed": {}, "evicted": [["c1", "d1"]]}'


@pytest.mark.parametrize(
    "line", ["5", "[1]", "{}", '{"kind": "place"}', '{"kind": "attempt"}', PLACE_LIST, EVICTED_PAIR]
)
def test_inspect_rejects_a_malformed_trace(tmp_path, capsys, seat_market_file, line):
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text('{"kind": "success"}\n' + line + "\n")
    assert main(["inspect", "--instance", str(seat_market_file), "--trace", str(trace_path)]) == 2
    assert capsys.readouterr().err.startswith("error: trace line 2: ")


def test_inspect_reads_past_undeclared_fields_to_the_malformed_line(tmp_path, capsys, seat_market_file):
    # the first two lines carry a place event's fields on other kinds; they
    # ended the command in a bare TypeError before the third line was read
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text(
        '{"kind": "success", "evicted": 1.5}\n'
        '{"kind": "insert", "family": "f1", "position": 0, "placed": "d1"}\n'
        + EVICTED_PAIR + "\n"
    )
    assert main(["inspect", "--instance", str(seat_market_file), "--trace", str(trace_path)]) == 2
    assert capsys.readouterr().err == (
        "error: trace line 3: place event: each evicted entry must be a list of 3 ids\n"
    )


def test_inspect_rejects_a_move_no_run_could_make(tmp_path, capsys):
    # the second placement evicts c1 from d3, but c1 sits at d1
    inst_path = tmp_path / "restart_mkt.json"
    inst_path.write_text(dump_instance(helpers.restart_success_market()))
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text(ExecutionTrace([
        {"kind": "attempt", "index": 0, "pi": [1, 2, 3], "families": ["f1", "f2", "f3"]},
        {"kind": "place", "family": "f1", "tuple_index": 0,
         "placed": {"c1": "d1", "c2": "d2"}, "evicted": []},
        {"kind": "place", "family": "f2", "tuple_index": 0,
         "placed": {"c3": "d3", "c4": "d4"}, "evicted": [["c1", "d3", "c3"]]},
        {"kind": "success"},
    ]).to_jsonl())
    assert main(["inspect", "--instance", str(inst_path), "--trace", str(trace_path)]) == 2
    assert capsys.readouterr().err == "error: trace: 'c1' is moved from 'd3', where it is not seated\n"


@pytest.mark.parametrize("reference", [5, [["c1"], "c2"], "c1c2", {"c1": 0}, ["c1", "c2", "c1"]])
def test_inspect_rejects_a_reference_ordering_that_is_not_a_list_of_ids(tmp_path, capsys, reference):
    # 5 and [["c1"], "c2"] raised a bare TypeError; "c1c2" was read per
    # character; a repeated id moved its child to the later position
    inst = helpers.seat_transfer_market()
    data = json.loads(dump_instance(inst))
    data["meta"] = {"reference_ordering": reference}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    assert main(["inspect", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == "error: meta.reference_ordering: expected a list of distinct child ids\n"


def test_experiment_subcommand(tmp_path, capsys):
    spec = {
        "sizes": [12],
        "phis": [0.5],
        "trials": 2,
        "algorithms": ["esda", "sc"],
        "base": {"alpha": 0.4, "L": 2, "daycare_ratio": 0.5,
                 "sibling_pref_length": 3, "joint_pref_length": 4},
        "seed": 5,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "report.csv"
    code = main(["experiment", "--spec", str(spec_path), "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("n,phi,algorithm")
    assert len(lines) == 3


def test_experiment_config_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"sizes": [10], "phis": [2.0]}))
    code = main(["experiment", "--spec", str(spec_path), "--out", "-"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("base", {"foo": 1}), ("sizes", 5), ("trials", "3"), ("exact_cap", None),
     ("exact_max_nodes", 0), ("exact_max_millis", -1), ("phis", [0.5, 0.5]),
     ("algorithms", ["esda", "esda"])],
)
def test_experiment_wrong_spec_field_exits_2(tmp_path, capsys, field, value):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"sizes": [10], "phis": [0.5], field: value}))
    assert main(["experiment", "--spec", str(spec_path), "--out", "-"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_experiment_generation_failure_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"sizes": [50], "phis": [0.5], "trials": 1, "base": {"sigma": 1e308}}))
    assert main(["experiment", "--spec", str(spec_path), "--out", "-"]) == 2
    assert capsys.readouterr().err == (
        "error: generation failed for n=50 phi=0.5 trial=0: "
        "sigma * m exceeds the float range: 1e+308 * 4\n"
    )


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_bad_job_count_exits_2(tmp_path, capsys, jobs):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"sizes": [10], "phis": [0.5], "trials": 1}))
    assert main(["experiment", "--spec", str(spec_path), "--out", "-", "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: jobs must be an integer >= 1, got {jobs}\n"


def test_experiment_warns_of_harness_errors(tmp_path, capsys, monkeypatch):
    spec = {"sizes": [12], "phis": [0.5, 1.0], "trials": 2, "algorithms": ["esda", "sc"], "seed": 5,
            "base": {"alpha": 0.4, "L": 2, "daycare_ratio": 0.5,
                     "sibling_pref_length": 3, "joint_pref_length": 4}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    real = experiment._run_algorithm

    def flaky(algo, instance, spec, n):
        if algo == "sc":
            raise RuntimeError(f"boom at n={n}")
        return real(algo, instance, spec, n)

    monkeypatch.setattr(experiment, "_run_algorithm", flaky)
    out_path = tmp_path / "report.csv"
    assert main(["experiment", "--spec", str(spec_path), "--out", str(out_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: n=12 phi=0.5 sc: RuntimeError('boom at n=12')",
        "warning: n=12 phi=0.5 sc: RuntimeError('boom at n=12')",
        "warning: n=12 phi=1 sc: RuntimeError('boom at n=12')",
        "warning: n=12 phi=1 sc: RuntimeError('boom at n=12')",
    ]
    # the report still reads the errors as counts only
    assert "\n12,0.5,sc,0/2,nan,nan,harness-error:2\n" in out_path.read_text()


def test_missing_file_reports_error(capsys):
    assert main(["solve", "--instance", "/nonexistent.json", "--algo", "da"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_instance_reports_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["solve", "--instance", str(path), "--algo", "da"]) == 2
    err = capsys.readouterr().err
    assert "families" in err


DEEP_JSON = "[" * 1000 + "]" * 1000


@pytest.mark.parametrize(
    "load, error, message",
    [
        (load_instance, InstanceError, r"^\$: invalid JSON \("),
        (lambda text: load_matching(text, helpers.seat_transfer_market()), MatchingError, r"^\$: invalid JSON \("),
        (ExecutionTrace.from_jsonl, ValueError, "^trace line 1: "),
        (experiment.spec_from_json, ValueError, "^invalid spec JSON: "),
    ],
    ids=["instance", "matching", "trace", "spec"],
)
def test_deeply_nested_json_raises_the_documented_error(load, error, message):
    # a 2 KB file of nested lists raised a bare RecursionError
    with pytest.raises(error, match=message):
        load(DEEP_JSON)


def test_deeply_nested_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    assert main(["solve", "--instance", str(path), "--algo", "esda"]) == 2
    assert capsys.readouterr().err.startswith("error: $: invalid JSON (")
