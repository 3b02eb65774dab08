"""The golden files are what their generators print today, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
