"""ActiveDP benchmark: two closed-loop workloads, checked and timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload activedp_long --seed 1 --seconds 48 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload untraced and then traced (span wrappers installed around the
program's public calls) and prints every per-layer metric, including the
tracing overhead.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it account for every operation by kind.

All spool, cache and session state lives in a temporary directory under
``.perfbench/`` that is removed at exit; traced runs leave their spans in
``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process: the benchmark process (client, server
# and service threads share one interpreter) plus the worker process stay
# within two busy threads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("activedp_long", "serve_mixed")


def run_workload(workload: str, seed: int, seconds: float, work_dir: Path, tracer=None) -> dict:
    work_dir.mkdir(parents=True)
    if workload == "serve_mixed":
        import serve

        return serve.run(seed, seconds, work_dir, tracer)
    import trials

    return trials.run(seed, seconds, work_dir, tracer)


def main() -> int:
    parser = argparse.ArgumentParser(description="ActiveDP benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no ActiveDP sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        runs = [run_workload(args.workload, args.seed, args.seconds, work_dir / "untraced")]
        if args.trace:
            from tracing import CLIENT_LAYERS, Tracer, install

            tracer = Tracer()
            install(tracer)
            runs.append(
                run_workload(args.workload, args.seed, args.seconds, work_dir / "traced", tracer)
            )
            tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = failed = 0
    for result in runs:
        result["ops"].report(args.workload)
        run_attempted, run_failed = result["ops"].totals()
        attempted += run_attempted
        failed += run_failed
    # Step medians are printed for reading, not gated (see the README's
    # "Properties"): on activedp_long the median step sits on the step-cost
    # ramp and spreads too widely across seeds for a bound.
    for name, value in runs[0]["info"].items():
        print(f"info {args.workload}: {name}={value:.4g}")
    if "polls" in runs[-1]:
        print(f"ops {args.workload}: GET /label/<key> polls={runs[-1]['polls']} (not counted)")
    correct = all(result["checks"].ok for result in runs)

    # BENCHMARK.json names every metric and its unit; a metric a run did
    # not produce is a KeyError, not a silent gap.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        untraced, traced = runs
        values = dict.fromkeys(CLIENT_LAYERS, 0.0)
        values.update(tracer.layer_metrics())
        values.update(traced.get("layers", {}))
        values["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
        print(f"trace {args.workload}: run_s untraced={untraced['run_s']:.3f} traced={traced['run_s']:.3f}")
        wanted = spec["per_layer"]
    else:
        (result,) = runs
        values = dict(result["metrics"])
        values["setup_s"] = statistics.median(result["setup"])
        values["run_s"] = result["run_s"]
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
