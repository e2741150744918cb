"""straightnet benchmark: run one workload (or all) and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

A run is a closed loop: one job at a time, each in a fresh worker process
that imports straightnet from ``src/`` with ``STRAIGHTNESS_THREADS`` unset.
Jobs repeat until the next one would end after ``--seconds``; at least one
always runs.  Every job's output is checked against an oracle outside its
timed section, and each failed operation counts in ``failed_frac``.

``--trace 0`` reports the end-to-end metrics of untraced jobs.  ``--trace
1`` alternates untraced and traced jobs and reports per-layer self times
and counts from the traced ones, plus the tracing overhead.

Each run writes its record (commit, versions, nproc, thread setting, seed,
every job) to ``bench/out/``; a traced run also writes its spans there.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
THREADS_ENV_VAR = "STRAIGHTNESS_THREADS"

SETUP_PROBES = 5  # set-up-only spawns per run, besides each job's own set-up
JOB_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.self_s": "s",
    "sweeps.self_s": "s",
    "generators.busy_s": "s",
    "generators.self_s": "s",
    "generators.nodes": "count",
    "generators.edges": "count",
    "model.self_s": "s",
    "model.load_s": "s",
    "model.json_bytes": "bytes",
    "metrics.self_s": "s",
    "metrics.pairs": "count",
    "metrics.skipped_pairs": "count",
    "metrics.pair_records": "count",
    "shortest_paths.busy_s": "s",
    "shortest_paths.self_s": "s",
    "shortest_paths.sources": "count",
    "shortest_paths.all_pairs_per_graph": "ratio",
    "shortest_paths.matrix_bytes": "bytes",
    "tables.self_s": "s",
    "tables.rows": "count",
    "tables.bytes": "bytes",
    "svgplot.self_s": "s",
    "analytic.self_s": "s",
    "validation.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(name: str, seed: int, trace: bool, tiny: bool) -> dict:
    """What must match before two results are compared."""
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "tiny": tiny,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": "unset",  # removed from every worker's environment
    }


def spawn(name: str, seed: int, mode: str, workdir: Path, tiny: bool, run_id: str = "") -> dict:
    """Start one worker, wait for it and return its record."""
    env = dict(os.environ)
    env.pop(THREADS_ENV_VAR, None)
    spawned = time.monotonic()
    command = [
        sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
        "--mode", mode, "--root", str(ROOT), "--workdir", str(workdir),
        "--spawned", repr(spawned), "--run-id", run_id,
    ] + (["--tiny"] if tiny else [])
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} {mode} job exceeded {JOB_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(
            f"{name} {mode} job exited with {done.returncode}:\n{done.stderr.strip()}"
        )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{name} {mode} job printed no record") from exc


class _Checker:
    """Checks one workload's jobs; holds what is reused across jobs."""

    def __init__(self, name: str, tiny: bool) -> None:
        self.name = name
        self.tiny = tiny
        self._pairs_ref: tuple[str, checks.PairsReference] | None = None
        self.inputs: dict = {}
        if name == "grid_sweep":
            sizes = workloads.GRID_SIZES[tiny]
            self.inputs = {
                "graphs": len(sizes),
                "nodes": sum((s + 1) ** 2 for s in sizes),
                "pairs": checks.grid_pairs(tiny),
            }
        elif name == "radial_sweep":
            reference = checks.radial_reference(tiny)
            self.inputs = {"graphs": len(reference), "pairs": checks.radial_pairs(tiny)}

    def __call__(self, record: dict, workdir: Path) -> tuple[int, int]:
        outcome = record["outcome"]
        if self.name == "grid_sweep":
            return checks.check_grid(outcome, self.tiny)
        if self.name == "radial_sweep":
            return checks.check_radial(outcome, workdir, self.tiny)
        text = (workdir / "graph.json").read_text()
        if self._pairs_ref is None or self._pairs_ref[0] != text:
            reference = checks.PairsReference(text)
            self._pairs_ref = (text, reference)
            self.inputs = {
                "graphs": 1,
                "nodes": reference.nodes,
                "edges": reference.edges,
                "pairs": reference.pairs,
            }
        return checks.check_pairs(outcome, workdir, self._pairs_ref[1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer self/busy times and counts of one traced job."""
    spans = record["spans"]
    counts = record["counts"]
    out = tracing.layer_times(spans)
    out.update(counts)
    out["model.load_s"] = float(
        sum(s["busy"] for s in spans if s["name"] == "model.load_graph")
    )
    graphs = counts["shortest_paths.graphs"]
    out["shortest_paths.all_pairs_per_graph"] = (
        counts["shortest_paths.all_pairs_calls"] / graphs if graphs else 0.0
    )
    out["trace.wall_s"] = record["wall_s"]
    out["trace.self_sum_frac"] = (
        sum(out[f"{layer}.self_s"] for layer in tracing.LAYERS) / record["wall_s"]
    )
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload for about ``seconds``; return its result and record."""
    OUT.mkdir(exist_ok=True)
    meta = environment(name, seed, trace, tiny)
    checker = _Checker(name, tiny)
    setup = []
    for _ in range(SETUP_PROBES):
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            setup.append(spawn(name, seed, "setup", Path(workdir), tiny)["setup_s"])

    modes = ("untraced", "traced") if trace else ("untraced",)
    jobs, spans = [], []
    deadline = time.monotonic() + seconds
    while True:
        mode = modes[len(jobs) % len(modes)]
        run_id = f"{name}-seed{seed}-job{len(jobs)}"
        started = time.monotonic()
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            record = spawn(name, seed, mode, Path(workdir), tiny, run_id)
            attempted, failed = checker(record, Path(workdir))
        took = time.monotonic() - started
        setup.append(record["setup_s"])
        jobs.append({
            "mode": mode,
            "setup_s": record["setup_s"],
            "wall_s": record["wall_s"],
            "peak_rss_mb": record["peak_rss_mb"],
            "attempted": attempted,
            "failed": failed,
            "layers": layer_metrics(record) if mode == "traced" else None,
        })
        spans.extend(record.get("spans", []))
        meta["numpy_in_worker"] = record["numpy"]
        meta["threads_default"] = record["threads_default"]
        print(
            f"  {name} job {len(jobs)} ({mode}): wall {record['wall_s']:.3f} s, "
            f"failed {failed}/{attempted}",
            file=sys.stderr,
        )
        if len(jobs) >= len(modes) and time.monotonic() + took > deadline:
            break

    untraced = [j for j in jobs if j["mode"] == "untraced"]
    walls = [j["wall_s"] for j in untraced]
    wall = statistics.median(walls)
    q1, q3 = _quartiles(walls)
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    values = {
        "wall_s": wall,
        "pairs_per_s": checker.inputs["pairs"] / wall,
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in untraced),
        "setup_s": statistics.median(setup),
    }
    units = dict(END_TO_END)
    if trace:
        traced = [j["layers"] for j in jobs if j["mode"] == "traced"]
        layers = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        values = {key: layers[key] for key in PER_LAYER}
        units = dict(PER_LAYER)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    record = {
        "environment": meta,
        "inputs": checker.inputs,
        "seconds": seconds,
        "wall_s_quartiles": [q1, q3],
        "failed_frac": failed / attempted,
        "jobs": jobs,
        "result": result,
    }
    stem = f"{name}_seed{seed}_trace{int(trace)}" + ("_tiny" if tiny else "")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / f"{stem}.spans.jsonl").write_text(
            "".join(json.dumps(span) + "\n" for span in spans)
        )
    return record


def describe(record: dict) -> str:
    """Every metric by name with its unit, for people."""
    meta, result = record["environment"], record["result"]
    untraced = [j for j in record["jobs"] if j["mode"] == "untraced"]
    q1, q3 = record["wall_s_quartiles"]
    lines = [
        f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
        f"jobs {len(record['jobs'])}",
        f"  commit {meta['commit']}  src {meta['src_sha256'][:12]}  "
        f"python {meta['python']}  numpy {meta['numpy_in_worker']}  nproc {meta['nproc']}  "
        f"{THREADS_ENV_VAR} {meta['threads_env']} (library default {meta['threads_default']})",
        "  inputs " + "  ".join(f"{k} {v}" for k, v in record["inputs"].items()),
    ]
    for key, metric in result["metrics"].items():
        value = metric["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        line = f"  {key:<36} {shown} {metric['unit']}"
        if key == "wall_s":
            line += f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(untraced)})"
        lines.append(line)
    lines.append(
        f"  {'failed_frac':<36} {record['failed_frac']:.6g} ratio"
        f"  ({result['failed']} of {result['attempted']} operations)"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for self-tests")
    args = parser.parse_args(argv)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            print(describe(record), flush=True)
            results[name] = record["result"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    final = results[names[0]] if len(names) == 1 else {"workloads": results}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
