"""One job of a workload in a fresh process; prints one JSON record.

Started by ``run.py``, never by hand.  Set-up runs from the spawn time the
parent passes in to ``import straightnet`` done plus inputs ready.  The
timed section is one call of ``workloads.run``; peak RSS is read right
after it, before any output check, which the parent does.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import straightnet
    import straightnet.cli  # noqa: F401 - the CLI entry point is called

    location = Path(straightnet.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"straightnet imported from {location}, not from {src}")
    return straightnet


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    try:
        straightnet = _import_program(args.root)
    except ImportError as exc:
        print(f"worker: cannot import the program: {exc}", file=sys.stderr)
        return 3
    job = workloads.prepare(args.workload, args.seed, args.tiny, args.workdir)
    record = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    import numpy

    threads = getattr(straightnet, "worker_count", None)
    record.update(
        numpy=numpy.__version__,
        threads_default=threads() if threads else None,
    )
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer(args.run_id)
        tracer.install()
    start = time.perf_counter()
    outcome = workloads.run(args.workload, job, straightnet, tracer)
    record["wall_s"] = time.perf_counter() - start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["outcome"] = outcome
    if tracer is not None:
        tracer.uninstall()
        record["spans"] = tracer.spans()
        record["counts"] = tracer.finish_counts()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
