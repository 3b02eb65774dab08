"""The golden files are what their generators print today, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import python_3_10

DATA = Path(__file__).parent / "data"
ROOT = DATA.parent.parent


@pytest.mark.parametrize("name", ["parse", "diag", "sem", "cli"])
def test_the_golden_file_regenerates_byte_for_byte(name):
    out = subprocess.run(
        [sys.executable, str(DATA / f"gen_{name}_golden.py"), "--seed", "20261018"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(["src", "tests"])},
        capture_output=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (DATA / f"{name}_golden.jsonl").read_bytes()


def test_the_parse_golden_file_regenerates_byte_for_byte_on_python_3_10():
    """The scan's regular expression must mean the same on the oldest Python
    that pyproject.toml promises: 3.11-only syntax would pass every 3.11 test."""
    env = python_3_10({**os.environ, "PYTHONPATH": os.pathsep.join(["src", "tests"])})
    if env is None:
        pytest.skip("no interpreter reporting 3.10 starts")
    out = subprocess.run(
        ["python3.10", str(DATA / "gen_parse_golden.py"), "--seed", "20261018"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (DATA / "parse_golden.jsonl").read_bytes()
