"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_tiny_and_prints_the_declared_metrics(workload, trace):
    done = _run_cli(
        BENCH.parent, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        coverage = result["metrics"]["trace.self_sum_frac"]["value"]
        assert 0.95 <= coverage <= 1.0 + 1e-9
    else:
        for name in ("wall_s", "pairs_per_s", "peak_rss_mb", "setup_s"):
            assert result["metrics"][name]["value"] > 0


def _corrupt(name: str, record: dict, workdir: Path) -> None:
    """Spoil one operation's output the way a wrong program would."""
    if name == "grid_sweep":
        record["outcome"]["cells"][-1][2] += 1e-6  # one cell's mean
    elif name == "radial_sweep":
        path = workdir / "sweep_radial.csv"
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = f"{float(fields[3]) + 1e-6:.9g}"  # one cell's mean
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
    else:
        path = workdir / "pairs.csv"
        lines = path.read_text().splitlines()
        fields = lines[7].split(",")
        fields[3] = f"{float(fields[3]) * 1.01:.12g}"  # one row's geodesic
        lines[7] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_counts_in_failed_frac(workload, monkeypatch):
    real_spawn = run.spawn

    def spawn_then_corrupt(name, seed, mode, workdir, tiny, run_id=""):
        record = real_spawn(name, seed, mode, workdir, tiny, run_id)
        if mode != "setup":
            _corrupt(name, record, workdir)
        return record

    monkeypatch.setattr(run, "spawn", spawn_then_corrupt)
    record = run.run_workload(workload, seed=4, seconds=0, trace=False, tiny=True)
    jobs = len(record["jobs"])
    result = record["result"]
    assert result["correct"] is False
    assert result["failed"] == jobs  # exactly one spoiled operation per job
    assert record["failed_frac"] == pytest.approx(jobs / result["attempted"])


def test_street_graph_is_seeded_connected_and_thinned():
    side = workloads.STREET_SIDE[False]
    graph = workloads.street_graph(1, side)
    assert graph == workloads.street_graph(1, side)
    assert graph != workloads.street_graph(2, side)
    assert len(graph["nodes"]) == 961 and len(graph["edges"]) == 1590
    ref = checks.PairsReference(json.dumps(graph))
    assert ref.pairs == 961 * 960 // 2
    assert bool((ref.d_geodesic < float("inf")).all())  # connected


def test_grid_oracle_matches_brute_force():
    size = 3
    points = [(i, j) for i in range(size + 1) for j in range(size + 1)]
    values = [
        math.hypot(a[0] - b[0], a[1] - b[1]) / (abs(a[0] - b[0]) + abs(a[1] - b[1]))
        for a, b in itertools.combinations(points, 2)
    ]
    mean = sum(values) / len(values)
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    pairs, o_mean, o_std = checks.grid_oracle(size)
    assert pairs == len(values)
    assert o_mean == pytest.approx(mean, abs=1e-12)
    assert o_std == pytest.approx(std, abs=1e-12)


def test_fails_without_the_program():
    """Only BENCHMARK.json and the benchmark: exit nonzero, print no result."""
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        shutil.copytree(
            BENCH, Path(bare) / "bench",
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        done = _run_cli(Path(bare), "--workload", "grid_sweep", "--seed", "1",
                        "--seconds", "1", "--trace", "0", "--tiny")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
