"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (``.perfbench/``
after a run), named ``<workload>-seed<n>-trace<0|1>.json``.  For every
workload and metric it prints the median of each side, with quartiles,
and flags a comparison whose two sides ran on different kernel backends:
the compiled decode alone is about twice as fast at n=3000 generation.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json$")


def load(directory: Path) -> dict:
    """(workload, trace) -> list of result records."""
    groups = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        match = NAME.match(path.name)
        if match:
            groups[(match["workload"], match["trace"])].append(json.loads(path.read_text()))
    return groups


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base: dict, new: dict) -> list[str]:
    lines = []
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        backends = {side: {r["env"]["backend"] for r in records} for side, records in (("base", base[key]), ("new", new[key]))}
        flag = "" if backends["base"] == backends["new"] else (
            f"  BACKENDS DIFFER: base {sorted(backends['base'])}, new {sorted(backends['new'])}"
        )
        lines.append(f"== {workload} trace={trace}: {len(base[key])} base runs, {len(new[key])} new runs{flag}")
        names = sorted(set(base[key][0]["metrics"]) & set(new[key][0]["metrics"]))
        for name in names:
            b = [r["metrics"][name]["value"] for r in base[key]]
            n = [r["metrics"][name]["value"] for r in new[key]]
            unit = base[key][0]["metrics"][name]["unit"]
            mb, mn = statistics.median(b), statistics.median(n)
            change = f"{(mn - mb) / mb:+.1%}" if mb else "n/a"
            lines.append(f"{name:34} {unit:6} base {summary(b):32} new {summary(n):32} {change}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(compare(load(Path(argv[0])), load(Path(argv[1])))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
