"""Run one workload of the FIS-ONE benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload label-hot --seed 1 --seconds 10 --trace 1

Workload names, metric names and units come from ``BENCHMARK.json`` at the
repository root.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The program is
imported from ``src/`` of the same checkout; without it the run fails
before printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads

    runner = getattr(workloads, "run_" + args.workload.replace("-", "_"))
    result = runner(ROOT, args.seed, args.seconds, bool(args.trace))

    spec = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    absent = [entry["name"] for entry in spec if entry["name"] not in result.metrics]
    if absent:
        result.notes.append(
            f"no work in {args.workload} for (reported as 0): {', '.join(absent)}"
        )
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        value = result.metrics.get(name, 0.0)
        if not math.isfinite(value):
            result.problems.append(f"{name} is not finite: {value}")
            value = 0.0
        metrics[name] = {"value": float(value), "unit": unit}
        print(f"{name:<30} {value:>14.6f} {unit}")
    for note in result.notes:
        print(f"note: {note}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not result.problems,
                "attempted": max(1, int(result.attempted)),
                "failed": int(result.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
