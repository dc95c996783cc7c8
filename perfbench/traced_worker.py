"""Worker launcher for traced runs of ``serve_mixed``.

Installs the benchmark's span wrappers, then serves the queue with
:func:`repro.runner.worker.run_worker` until interrupted (SIGINT), and
writes the process's spans to ``--trace-out``.  Untraced runs start the
plain ``python -m repro.runner.worker`` instead.
"""

from __future__ import annotations

import argparse

from tracing import Tracer, install


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spool", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--poll-interval", type=float, required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    install(tracer)
    from repro.runner.worker import run_worker

    try:
        run_worker(args.spool, args.cache_dir, poll_interval=args.poll_interval)
    except KeyboardInterrupt:
        pass
    finally:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
