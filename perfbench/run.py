"""sibmatch benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload sweep-n500 --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/``.
A run sets up, then repeats the seed's pass (see ``workloads.py``),
starting another whole pass until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` makes the same untraced passes first, then one more pass
with every layer boundary wrapped (``tracing.py``), and reports the
per-layer metrics of that pass instead, with ``trace_overhead_ratio`` =
traced throughput / untraced throughput.

Every metric is printed as a ``metric`` line; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run also writes its result, with the environment it
ran in, to ``.perfbench/`` (and the spans of a traced run, gzipped).  It
exits 1 when any output is wrong: a golden mismatch, an instance that
raised, a solver budget overrun, a stability violation, or a harness
error swallowed by ``run_sweep``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
LAYERS = ("market", "kernels", "model", "algorithms", "stability", "solver", "experiment")

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_s.p50": "s",
    "instance_s.p90": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    import sibmatch._kernels

    return {
        "backend": sibmatch._kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(ROOT),
    }


def setup(workload: str, seed: int):
    """Import the layers and build the seed's inputs; returns the pass."""
    import workloads

    return workloads.make_pass(workload, seed, workloads.load_golden())


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter doing ``setup``."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(command, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_passes(run_pass, seconds: float) -> list:
    """Whole passes, starting another while ``seconds`` have not passed.

    A pass of n3000 or oracle-small takes 16-21 s here, so a run of 25 s
    makes two of each: twice the work of stopping at the deadline.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        if time.perf_counter() - start >= seconds:
            return passes


def throughput(passes) -> float:
    return sum(p.instances for p in passes) / sum(p.seconds for p in passes)


def end_to_end_metrics(passes, setup_s: float) -> dict:
    samples = [s for p in passes for s in p.instance_seconds]
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8] if len(samples) > 1 else samples[0]
    return {
        "setup_s": setup_s,
        "instances_per_s": throughput(passes),
        "instance_s.p50": statistics.median(samples),
        "instance_s.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(run_pass):
    """One pass with the layer wrappers installed; returns (result, tracer)."""
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        result = run_pass(tracer)
    return result, tracer


def per_layer_metrics(result, tracer, untraced_rate: float, error_share: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, as (values, units)."""
    from tracing import layer_self_times, self_times

    # only what ran inside the timed regions counts; pauses are benchmark work
    # and come off every span that encloses them
    timed, paused = set(), defaultdict(float)
    for span in tracer.spans:
        if span.name == "bench.timed" or span.parent in timed:
            timed.add(span.id)
            if span.name == "bench.pause":
                parent = span.parent
                while parent is not None:
                    paused[parent] += span.end - span.start
                    parent = tracer.spans[parent].parent
    spans = [s for s in tracer.spans if s.id in timed]

    def total(name):
        return sum(s.end - s.start - paused[s.id] for s in spans if s.name == name)

    counts = tracer.counts
    selfs = layer_self_times(spans, tracer.rollups)
    own = self_times(spans)
    experiment_glue = sum(own[s.id] for s in spans if s.name in ("experiment.sweep", "experiment.trial"))
    esda_s = sum(e for e, _, _ in tracer.esda_runs)
    leaves, leaf_scan_s = tracer.rollups.get("solver.leaf_scan", (0, 0.0))
    solve_s = total("solver.solve")
    seconds = {
        "market.gen_s": total("market.gen"),
        "market.mallows_s": total("market.mallows"),
        "market.prefs_s": total("market.prefs"),
        "kernels.decode_s": total("kernels.decode"),
        "model.instance_build_s": total("model.instance_build"),
        "algorithms.esda_s": total("algorithms.esda"),
        "algorithms.sc_s": total("algorithms.sc"),
        "algorithms.sda_s": total("algorithms.sda"),
        "algorithms.da_pass_s": (
            statistics.fmean(d for _, _, d in tracer.esda_runs) if tracer.esda_runs else 0.0
        ),
        "stability.verify_s": total("stability.verify"),
        "solver.solve_s": solve_s,
        "solver.leaf_scan_s": leaf_scan_s,
        "experiment.sweep_s": total("experiment.sweep"),
        "experiment.overhead_s": experiment_glue,
        "experiment.render_s": total("experiment.render"),
        "traced_pass_s": total("bench.timed"),
    }
    seconds.update({f"self.{layer}_s": selfs.get(layer, 0.0) for layer in LAYERS})
    counted = {
        "kernels.decode_items": counts["kernels.decode_items"],
        "algorithms.attempts": counts["algorithms.attempts"],
        "algorithms.restarts": counts["algorithms.restarts"],
        "algorithms.proposals": counts["algorithms.proposals"],
        "algorithms.rejections": counts["algorithms.rejections"],
        "algorithms.evictions": counts["algorithms.evictions"],
        "algorithms.select_calls": counts["algorithms.select_calls"],
        "trace.events": counts["trace.events"],
        "stability.select_calls": counts["stability.select_calls"],
        "solver.nodes": counts["solver.nodes"],
        "solver.leaves": leaves,
        "solver.budget_exceeded": counts["solver.budget_exceeded"],
    }
    ratios = {
        # base: algorithm runs over the attempts they made (one useful attempt per run)
        "algorithms.useful_attempt_ratio": (
            counts["algorithms.runs"] / counts["algorithms.attempts"] if counts["algorithms.attempts"] else 0.0
        ),
        "algorithms.da_replay_share": (
            sum(d * a for _, a, d in tracer.esda_runs) / esda_s if esda_s else 0.0
        ),
        "error_share": error_share,
        "trace_overhead_ratio": (result.instances / result.seconds) / untraced_rate,
    }
    rates = {"solver.nodes_per_s": counts["solver.nodes"] / solve_s if solve_s else 0.0}
    values = {**seconds, **counted, **ratios, **rates}
    units = {
        **{k: "s" for k in seconds},
        **{k: "count" for k in counted},
        **{k: "ratio" for k in ratios},
        **{k: "1/s" for k in rates},
    }
    return values, units


def write_results(name: str, record: dict, tracer) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        with gzip.open(RESULTS_DIR / f"{name}-spans.jsonl.gz", "wt") as out:
            for span in tracer.spans:
                out.write(json.dumps(list(span)) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sibmatch" / "__init__.py").is_file():
        print(f"perfbench: no sibmatch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    # The loop is single-threaded; keeping it (and the setup children) on one
    # CPU stops it drifting between CPUs that run at different speeds.  On a
    # 2-vCPU VM one n=3000 market ranged 3.8-4.7 s on CPU 0 and 4.77-4.86 s
    # on CPU 1; the last CPU is the one that serves fewer interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env_start = environment()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    run_pass = setup(args.workload, args.seed)
    passes = run_passes(run_pass, args.seconds)
    all_passes, tracer = passes, None
    if args.trace:
        traced, tracer = traced_pass(run_pass)
        all_passes = passes + [traced]
    attempted = sum(p.instances for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    if args.trace:
        values, units = per_layer_metrics(traced, tracer, throughput(passes), failed / attempted)
    else:
        values, units = end_to_end_metrics(passes, setup_s), END_TO_END_UNITS
    env_end = environment()

    messages = [m for p in all_passes for m in p.messages]
    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = {**env_start, "loadavg_end": env_end["loadavg"]}
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"traced pass: {traced.instances} instances, layers' self time "
              f"{sum(values[f'self.{layer}_s'] for layer in LAYERS):.4f}s of {values['traced_pass_s']:.4f}s; "
              f"useful_attempt_ratio base: {tracer.counts['algorithms.runs']} runs / "
              f"{tracer.counts['algorithms.attempts']} attempts")
    print(f"passes: {len(passes)}, instances timed: {sum(p.instances for p in passes)}")
    for key in sorted(values):
        print(f"metric {key} = {values[key]:.6g} {units[key]}")
    metrics = {key: {"value": values[key], "unit": units[key]} for key in values}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    write_results(name, {**result, "env": env, "messages": messages,
                         "instance_seconds": [p.instance_seconds for p in passes]}, tracer)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
