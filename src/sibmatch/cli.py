"""Command-line interface.

Subcommands: ``check`` (stability of a given matching), ``solve`` (run a
matching algorithm), ``exists`` (exhaustive stable-matching search),
``gen`` (random market generation), ``inspect`` (structure report), and
``experiment`` (sweep harness).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from sibmatch.algorithms import run_da, run_esda, run_sc, run_sda
from sibmatch.diagnostics import structure_report
from sibmatch.experiment import render_report, run_sweep, spec_from_json
from sibmatch.market import MarketConfig, gen_instance
from sibmatch.model import dump_instance, load_instance, load_matching
from sibmatch.solver import SearchBudget, find_stable
from sibmatch.stability import MODES, find_blocking_coalition
from sibmatch.trace import ExecutionTrace


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _cmd_check(args) -> int:
    instance = load_instance(_read(args.instance))
    matching = load_matching(_read(args.matching), instance)
    witness = find_blocking_coalition(instance, matching, args.mode)
    if witness is None:
        print("STABLE")
        return 0
    print("UNSTABLE")
    print(
        json.dumps(
            {
                "family": witness.family,
                "tuple_index": witness.tuple_index,
                "accepted": {d: sorted(cs) for d, cs in witness.accepted.items()},
            },
            sort_keys=True,
        )
    )
    return 1


def _cmd_solve(args) -> int:
    instance = load_instance(_read(args.instance))
    if args.algo == "da":
        matching = run_da(instance)
        out = {"status": "success", "matching": {"assignment": matching.assignment}}
        trace = ExecutionTrace()
    else:
        runner = {"sc": run_sc, "sda": run_sda, "esda": run_esda}[args.algo]
        outcome = runner(instance)
        out = outcome.to_dict()
        trace = outcome.trace
    print(json.dumps(out, sort_keys=True))
    if args.trace:
        _write(args.trace, trace.to_jsonl() + "\n")
    return 0


def _cmd_exists(args) -> int:
    instance = load_instance(_read(args.instance))
    budget = SearchBudget(max_nodes=args.max_nodes, max_millis=args.max_millis)
    result = find_stable(instance, args.mode, budget)
    out: dict = {"status": result.status, "nodes": result.nodes}
    if result.matching is not None:
        out["matching"] = {"assignment": result.matching.assignment}
    print(json.dumps(out, sort_keys=True))
    return 0


# The MarketConfig fields ``gen`` sets besides n and phi, each an option
# defaulting to MarketConfig's default.
GEN_FIELDS = ("alpha", "L", "sigma", "epsilon", "daycare_ratio", "joint_pref_length", "seed")


def _cmd_gen(args) -> int:
    cfg = MarketConfig(n=args.n, phi=args.phi, **{name: getattr(args, name) for name in GEN_FIELDS})
    _write(args.out, dump_instance(gen_instance(cfg)) + "\n")
    return 0


def _cmd_inspect(args) -> int:
    instance = load_instance(_read(args.instance))
    trace = None
    if args.trace:
        trace = ExecutionTrace.from_jsonl(_read(args.trace))
    print(json.dumps(structure_report(instance, trace), sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    report = run_sweep(spec_from_json(_read(args.spec)), jobs=args.jobs)
    for (n, phi, algo), cell in report.cells.items():
        for error in cell.errors:
            print(f"warning: n={n} phi={phi:g} {algo}: {error}", file=sys.stderr)
    _write(args.out, render_report(report, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sibmatch",
        description="Daycare matching with siblings: checkers, solvers, generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a matching for stability")
    p.add_argument("--instance", required=True)
    p.add_argument("--matching", required=True)
    p.add_argument("--mode", choices=MODES, default="ours")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="run a matching algorithm")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", choices=("da", "sc", "sda", "esda"), required=True)
    p.add_argument("--trace", help="write the event log (JSON lines) here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exists", help="exhaustive stable-matching search")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=MODES, default="ours")
    p.add_argument("--max-nodes", type=int, default=SearchBudget.max_nodes)
    p.add_argument("--max-millis", type=int, default=SearchBudget.max_millis)
    p.set_defaults(func=_cmd_exists)

    p = sub.add_parser("gen", help="generate a random market")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--phi", type=float, required=True)
    for name in GEN_FIELDS:
        default = getattr(MarketConfig, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("inspect", help="emit a structure report")
    p.add_argument("--instance", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("experiment", help="run a sweep specification")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
