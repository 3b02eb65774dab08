"""Write the golden file of `dcalc check` runs: what each prints and its exit code.

Usage, from anywhere:

    PYTHONPATH=src:tests python tests/data/gen_cli_golden.py --seed 20261018 \\
        > tests/data/cli_golden.jsonl

Each output line is one JSON object: the arguments of one `dcalc check` run
on one corpus file, its exit code, and what it printed to stdout and stderr.
The runs cover the ten corpus files, each with no flag, --json, --trace,
--json --trace, --fuel 3 and --fuel 3 --json, without an axiom gate and
with --axioms all. Elapsed times are masked, so the file stays the same from
run to run. The runs call dcalc.cli.main in this process from the repository
root, with DCALC_FUEL unset, and name each file by its path from there. The
runs take no randomness; --seed is taken so that every golden generator
shares one command line. tests/test_goldens.py regenerates the file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from dcalc import cli
from dcalc.corpus import corpus_names

ROOT = Path(__file__).resolve().parents[2]

FLAGS = (
    [], ["--json"], ["--trace"], ["--json", "--trace"], ["--fuel", "3"], ["--fuel", "3", "--json"]
)
GATES = ([], ["--axioms", "all"])

# A status line's "0.004s)" and a JSON report's "elapsed": 0.004123.
_TIMINGS = re.compile(r"\d+\.\d+(?=s\)$)|(?<=\"elapsed\": )[-+.\deE]+", re.MULTILINE)


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    masked = {k: _TIMINGS.sub("?", s.getvalue()) for k, s in (("stdout", out), ("stderr", err))}
    return {"args": argv, "exit": code, **masked}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.parse_args()
    os.chdir(ROOT)
    os.environ.pop("DCALC_FUEL", None)
    for name in corpus_names():
        for gate in GATES:
            for flags in FLAGS:
                argv = ["check", f"src/dcalc/corpus/{name}.dc", *flags, *gate]
                print(json.dumps(run(argv)))


if __name__ == "__main__":
    main()
