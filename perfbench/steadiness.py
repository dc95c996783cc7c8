"""Repeat the benchmark K times per workload and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 [--workload serve_mixed ...]
        [--first-seed 1] [--seconds N] [--save results.json]

Run *i* uses seed ``first_seed + i``.  For every end-to-end metric the
helper prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread -- the interquartile distance as a share of the
median -- next to the metric's bound from ``BENCHMARK.json``.  A spread
above a third of its bound is flagged ``WIDE``, one above the bound
``OVER`` (``setup_s`` is exempt from the spread bound; its median is what
later changes are held to).  ``--compare`` takes an earlier ``--save`` file
and flags every metric whose median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def summarise(workload: str, results: list[dict], spec: dict, earlier: dict | None) -> None:
    print(f"\n{workload}: {len(results)} runs, wall {sum(r['wall_s'] for r in results):.0f} s")
    for result in results:
        if not result["correct"] or result["failed"]:
            print(f"  run correct={result['correct']} failed={result['failed']}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share(s): {sorted(shares)}; attempted: {sorted({r['attempted'] for r in results})}")
    print(f"  {'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  flag")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = ""
        if name != "setup_s":
            flag = "OVER" if spread > bound else ("WIDE" if spread > bound / 3 else "")
        if earlier is not None and workload in earlier:
            before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
            change = (median - before) / before if before else 0.0
            worse = change if metric["better"] == "lower" else -change
            flag += f" vs earlier {change:+.1%}" + (" REGRESSED" if worse > bound else "")
        print(f"  {name:<20}{median:>12.4g}{q1:>12.4g}{q3:>12.4g}{spread:>9.1%}{bound:>7.2f}  {flag}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path, help="write every run's result here")
    parser.add_argument("--compare", type=Path, help="an earlier --save file")
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 to have quartiles")

    earlier = json.loads(args.compare.read_text()) if args.compare else None
    collected = {}
    for workload in args.workload or workloads:
        results = [
            run_once(workload, args.first_seed + i, args.seconds) for i in range(args.runs)
        ]
        collected[workload] = results
        summarise(workload, results, spec, earlier)
    if args.save:
        args.save.write_text(json.dumps(collected, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
