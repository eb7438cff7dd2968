"""Regenerate ``golden.json``, the expected outputs of every workload input.

Run from the repository root, only when a change is meant to alter the
program's outputs (and say so in that change):

    python3 perfbench/make_golden.py

It prints the pipeline time of each input as it goes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def timed(label: str, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    print(f"{label} {time.perf_counter() - start:.3f}s", flush=True)
    return out


def main() -> None:
    golden: dict = {"sweep-n500": timed("sweep-n500", workloads.sweep_report), "n3000": {}, "oracle-small": {}}
    for phi, seed in workloads.N3000_MARKETS:
        _, outcome, _ = timed(f"n3000 {phi:g}/{seed}", workloads.n3000_pipeline, phi, seed)
        golden["n3000"][f"{phi:g}/{seed}"] = workloads.n3000_record(outcome)
    for k in range(workloads.ORACLE_MARKETS):
        golden["oracle-small"][str(k)] = workloads.oracle_record(*workloads.oracle_pipeline(k))
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
