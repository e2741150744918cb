"""Every fenced ``python`` block of README.md runs to completion against src/."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
# the module of each constant README names with its value
CONSTANTS = {
    "BLOCK_ENTRIES": "metrics",
    "CHUNK_ENTRIES": "shortest_paths",
    "CHUNK_PAIRS": "tables",
    "MAX_CURVE_SAMPLES": "analytic",
    "MAX_NODES": "generators",
    "MAX_WORK": "metrics",
    "SOURCE_COST": "tables",
}


def test_blocks_found():
    assert BLOCKS, "no python block in README.md"


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(block, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", block],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_constants_match_the_code():
    # `NAME` = value, the value possibly wrapped onto the next line: 2^17, 1,000,000, 0.14
    found = re.findall(r"`([A-Z_]+)` =\s+(\d[\d,.^]*\d|\d)", README)
    assert sorted({name for name, _ in found}) == sorted(CONSTANTS)
    for name, text in found:
        base, _, power = text.replace(",", "").partition("^")
        value = int(base) ** int(power) if power else float(base)
        module = importlib.import_module(f"straightnet.{CONSTANTS[name]}")
        assert value == getattr(module, name), f"README: `{name}` = {text}"
