"""The suite's pytest settings still report a failing Hypothesis test in full."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5


def test_after():
    pass
"""


def test_failing_property_shows_its_example(tmp_path):
    # Hypothesis explains a failure through libcst, whose import warns: under
    # filterwarnings = ["error"] alone that ends the run with an INTERNALERROR
    (tmp_path / "test_failing.py").write_text(FAILING)
    config = ["-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *config, "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
