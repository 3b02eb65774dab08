"""The dcalc command-line front end, driven through main()."""

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from helpers import python_3_10, shared_conversion
from dcalc import cli
from dcalc.cli import main
from dcalc.corpus import CORPUS_AXIOMS, corpus_text

SRC = Path(cli.__file__).parents[1]

OMEGA = "([x:tau](x x) [x:tau](x x))"


@pytest.fixture
def corpus_file(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.dc"
        p.write_text(corpus_text(name))
        return str(p)

    return write


def test_check_reports_ok(corpus_file, capsys):
    path = corpus_file("logic")
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{path}: ok (")
    assert "declarations, " in out and "deductions, " in out


def test_check_multiple_files_with_gates(corpus_file, capsys):
    paths = [corpus_file("minimal"), corpus_file("classical"), corpus_file("casting")]
    assert main(["check", "--axioms", "neg,cast", *paths]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok (") == 3


def test_check_json_report(corpus_file, capsys):
    path = corpus_file("minimal")
    assert main(["check", "--json", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["file"] == path
    assert report["declarations_checked"] == 8
    assert report["deductions_checked"] == 2
    assert report["errors"] == []
    assert report["elapsed"] >= 0


def test_check_missing_file(tmp_path, capsys):
    path = str(tmp_path / "absent.dc")
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert "1 error(s)" in captured.out
    assert "IOError @ root" in captured.err


def test_check_parse_error(tmp_path, capsys):
    p = tmp_path / "broken.dc"
    p.write_text("context C { x : }\n")
    assert main(["check", str(p)]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_check_typing_error(tmp_path, capsys):
    p = tmp_path / "wrong.dc"
    p.write_text("context C { a : tau }\ncheck tau : a\n")
    assert main(["check", str(p)]) == 1
    captured = capsys.readouterr()
    assert "1 error(s)" in captured.out
    assert "Mismatch" in captured.err


def test_check_trace_prints_deduction_steps(tmp_path, capsys):
    p = tmp_path / "steps.dc"
    p.write_text("context C { a : tau }\ncheck ([x:tau]x a) : tau\n")
    assert main(["check", "--trace", str(p)]) == 0
    out = capsys.readouterr().out
    assert ": ok (" in out
    assert "beta1 @ root : a" in out


def test_type_command(capsys):
    assert main(["type", "[x:tau]x"]) == 0
    assert capsys.readouterr().out.strip() == "[x:tau]tau"


def test_type_reports_typing_errors(capsys):
    assert main(["type", "(tau tau)"]) == 1
    assert "NotAFunction" in capsys.readouterr().err
    assert main(["type", "--json", "(tau tau)"]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["kind"] == "NotAFunction"
    assert diag["path"] == "root"


def test_parse_errors_print_their_position_once(capsys):
    assert main(["type", "[x:tau]?b"]) == 1
    assert capsys.readouterr().err == "ParseError @ 1:8: unexpected character '?'\n"


def test_parse_errors_in_json_keep_the_position_out_of_the_message(capsys):
    assert main(["type", "--json", "[x:tau]?b"]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag == {"kind": "ParseError", "path": "1:8", "message": "unexpected character '?'"}


def test_type_with_context_file(tmp_path, capsys):
    p = tmp_path / "ctx.dc"
    p.write_text("context C { a : tau; x : a }\n")
    assert main(["type", "x", "--context", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "a"


def test_type_rejects_an_invalid_context_file(tmp_path, capsys):
    p = tmp_path / "ctx.dc"
    p.write_text("context C { x : y }\n")
    assert main(["type", "x", "--context", str(p)]) == 1
    assert "ContextError" in capsys.readouterr().err


def test_nf_command(capsys):
    assert main(["nf", "~[x:tau]x"]) == 0
    assert capsys.readouterr().out.strip() == "[x!tau]~x"


def test_trace_command(capsys):
    assert main(["trace", "~~tau"]) == 0
    assert capsys.readouterr().out.splitlines() == ["nu1 @ root : tau", "tau"]
    assert main(["trace", "tau"]) == 0
    assert capsys.readouterr().out.splitlines() == ["tau"]


def test_trace_json(capsys):
    assert main(["trace", "--json", "~~tau"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines == [{"axiom": "nu1", "path": "root", "term": "tau"}, {"nf": "tau"}]


def test_sem_command(capsys):
    assert main(["sem", "[x:tau][y:x]y"]) == 0
    assert capsys.readouterr().out.strip() == "\\x.\\y.y"
    assert main(["sem", "--strip", "[x:tau][y:x]y"]) == 0
    assert capsys.readouterr().out.strip() == "\\x.\\y.y"
    assert main(["sem", "--encode", "[x:tau][y:x]y"]) == 0
    assert capsys.readouterr().out.strip() == "\\z.((z pi^) \\x.\\z1.((z1 x) \\y.y))"


def test_norm_command(tmp_path, capsys):
    assert main(["norm", "[x:tau]x"]) == 0
    assert capsys.readouterr().out.strip() == "[*,*]"
    assert main(["norm", "x"]) == 0
    assert capsys.readouterr().out.strip() == "undefined"
    p = tmp_path / "ctx.dc"
    p.write_text("context C { a : tau; x : a }\n")
    assert main(["norm", "x", "--context", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "*"


def test_fuel_flag_bounds_reduction(capsys):
    assert main(["nf", "--fuel", "20", OMEGA]) == 1
    assert "FuelExhausted" in capsys.readouterr().err


def test_fuel_exhausted_shows_a_bounded_prefix_of_its_term(tmp_path, capsys):
    """d12 spells out 2^12 uses of f: the diagnostic prints 1,000 characters
    of the term and its full length, not all 131,047 characters."""
    p = tmp_path / "chain.dc"
    p.write_text(shared_conversion(12, "g({})"))
    assert main(["check", "--fuel", "100", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FuelExhausted @ root: line 16: no normal form within 100 steps: (P ")
    assert err.endswith("... (131047 characters)\n") and len(err) < 2000


def test_fuel_environment_fallback(monkeypatch, capsys):
    monkeypatch.setenv("DCALC_FUEL", "20")
    assert main(["nf", OMEGA]) == 1
    assert "FuelExhausted" in capsys.readouterr().err
    # an explicit flag wins over the environment
    monkeypatch.setenv("DCALC_FUEL", "1000000")
    assert main(["nf", "--fuel", "20", OMEGA]) == 1
    capsys.readouterr()


def test_axiom_gating(capsys):
    assert main(["nf", "negaxp{a,b}"]) == 1
    assert "is not enabled here" in capsys.readouterr().err
    assert main(["nf", "--axioms", "neg", "negaxp{a,b}"]) == 0
    assert capsys.readouterr().out.startswith("negaxp_")
    assert main(["nf", "--axioms", "all", "castin{a}"]) == 0
    assert capsys.readouterr().out.startswith("castin_")


def test_unknown_axiom_token(capsys):
    assert main(["nf", "--axioms", "bogus", "tau"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown axiom scheme: bogus")


def test_bad_fuel_environment_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("DCALC_FUEL", "abc")
    assert main(["nf", "tau"]) == 2
    assert capsys.readouterr().err.startswith("error: DCALC_FUEL must be an integer")


def test_pending_substitution_is_a_typing_diagnostic(tmp_path, capsys):
    assert main(["type", "[x:=tau]x"]) == 1
    assert capsys.readouterr().err.startswith("PendingSubstitution @ root: ")
    p = tmp_path / "pending.dc"
    p.write_text("context C { a : tau }\ncheck [x:=a]x : tau\n")
    assert main(["check", str(p)]) == 1
    captured = capsys.readouterr()
    assert "1 error(s)" in captured.out
    assert "PendingSubstitution @ root: line 2: " in captured.err


def test_pending_substitution_has_no_translation(capsys):
    for mode in ("--strip", "--encode"):
        assert main(["sem", mode, "[x:=tau]x"]) == 1
        err = capsys.readouterr().err
        assert err == "Untranslatable @ root: pending substitutions have no translation\n"


def test_input_files_are_closed(tmp_path, capsys):
    p = tmp_path / "ctx.dc"
    p.write_text("context C { a : tau; x : a }\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["check", str(p)]) == 0
        assert main(["type", "x", "--context", str(p)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_nf_and_trace_report_a_pending_substitution(capsys):
    for command in ("nf", "trace"):
        assert main([command, "[x:=tau]x"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("PendingSubstitution @ root: ")
        assert main([command, "[y:tau][x:=tau]x"]) == 1
        assert capsys.readouterr().err.startswith("PendingSubstitution @ 1: ")


def test_untranslatable_reports_the_pending_substitution_path(capsys):
    for mode in ("--strip", "--encode"):
        assert main(["sem", mode, "[y:tau][x:=tau]x"]) == 1
        err = capsys.readouterr().err
        assert err == "Untranslatable @ 1: pending substitutions have no translation\n"


def test_negative_fuel_is_a_usage_error(monkeypatch, capsys):
    assert main(["nf", "--fuel", "-1", "~~tau"]) == 2
    assert capsys.readouterr().err == "error: --fuel must be a non-negative integer, not -1\n"
    monkeypatch.setenv("DCALC_FUEL", "-3")
    assert main(["nf", "~~tau"]) == 2
    assert capsys.readouterr().err == "error: DCALC_FUEL must be a non-negative integer, not -3\n"
    # zero is a budget, not an error
    assert main(["nf", "--fuel", "0", "~~tau"]) == 1
    assert "FuelExhausted" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "(s " * 500 + "z" + ")" * 500],
        # past the reader (331 binders), synth and the searches alike
        ["type", "".join(f"[x{i}:tau]" for i in range(2000)) + "x0"],
    ],
    ids=["nf-500-deep-numeral", "type-2000-nested-binders"],
)
def test_deep_input_is_a_depth_diagnostic(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line, without the term: the parser may give up before there is one
    assert captured.err.startswith("DepthExceeded @ root: input nested too deeply")
    assert captured.err.count("\n") == 1
    assert main([*argv, "--json"]) == 1
    assert json.loads(capsys.readouterr().err)["kind"] == "DepthExceeded"


def test_check_goes_on_after_a_file_nested_too_deeply(tmp_path, corpus_file, capsys):
    deep = tmp_path / "deep.dc"
    numeral = "(s " * 600 + "z" + ")" * 600
    deep.write_text(f"context N {{ z : tau; s : [tau => tau] }}\ncheck {numeral} : tau\n")
    ok = corpus_file("logic")
    assert main(["check", str(deep), ok]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"{deep}: 1 error(s) (0 declarations, 0 deductions, ")
    assert lines[1].startswith(f"{ok}: ok (")
    assert captured.err.startswith("DepthExceeded @ root: input nested too deeply")
    assert captured.err.count("\n") == 1
    assert main(["check", "--json", str(deep), ok]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["file"] for r in reports] == [str(deep), ok]
    assert [e["kind"] for e in reports[0]["errors"]] == ["DepthExceeded"]
    assert reports[1]["errors"] == []


def test_a_file_that_is_not_utf8_is_an_input_diagnostic(tmp_path, corpus_file, capsys):
    bad = tmp_path / "latin1.dc"
    bad.write_bytes("context C { caf\xe9 : tau }\n".encode("latin-1"))
    ok = corpus_file("logic")
    assert main(["check", str(bad), ok]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith(f"{bad}: 1 error(s) (0 declarations, 0 deductions, ")
    assert lines[1].startswith(f"{ok}: ok (")
    assert captured.err.startswith("IOError @ root: 'utf-8' codec can't decode byte 0xe9")
    assert main(["type", "tau", "--context", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("IOError @ root: 'utf-8' codec can't decode")


BOM = b"\xef\xbb\xbf"


def test_a_file_that_starts_with_a_byte_order_mark_is_read_past_it(tmp_path, capsys):
    """Some editors start a UTF-8 file with U+FEFF; lines and columns count after it."""
    ok = tmp_path / "bom.dc"
    ok.write_bytes(BOM + corpus_text("logic").encode())
    assert main(["check", str(ok)]) == 0
    assert capsys.readouterr().out.startswith(f"{ok}: ok (")
    context = tmp_path / "context.dc"
    context.write_bytes(BOM + b"context C { a : tau }\n")
    assert main(["type", "a", "--context", str(context)]) == 0
    assert capsys.readouterr().out == "tau\n"
    bad = tmp_path / "bom-error.dc"
    bad.write_bytes(BOM + b"context C { a : tau }\ncheck a : %\n")
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().err == "ParseError @ 2:11: unexpected character '%'\n"
    # only a leading mark is dropped, and a file that is not UTF-8 stays an input error
    latin1 = tmp_path / "bom-latin1.dc"
    latin1.write_bytes(BOM + "context C { caf\xe9 : tau }\n".encode("latin-1"))
    assert main(["check", str(latin1)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IOError @ root: 'utf-8' codec can't decode byte 0xe9")


def test_the_cli_loads_neither_the_corpus_nor_the_explicit_engine():
    script = (
        "import sys, dcalc.cli; "
        "print([m for m in ('dcalc.corpus', 'dcalc.explicit') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"


def test_the_cli_imports_json_and_hashlib_only_when_asked():
    """Importing the cli leaves dataclasses (and inspect with it), json and hashlib
    unloaded; check --json and an axiom instance load them as they need them."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dcalc.cli\n"
        "late = ('dataclasses', 'inspect', 'json', 'hashlib')\n"
        "print([m for m in late if m in sys.modules and m not in before])\n"
        "code = dcalc.cli.main(sys.argv[1:])\n"
        "print(code, [m for m in late[2:] if m in sys.modules])\n"
    )
    corpus = SRC / "dcalc" / "corpus"
    paths = [str(corpus / "minimal.dc"), str(corpus / "classical.dc")]
    out = subprocess.run(
        [sys.executable, "-c", script, "check", "--json", "--axioms", "neg", *paths],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    first, *reports, last = out.stdout.splitlines()
    assert first == "[]"
    assert [json.loads(r)["errors"] for r in reports] == [[], []]
    assert last == "0 ['json', 'hashlib']"


def test_the_corpus_checks_on_python_3_10():
    env = python_3_10(dict(os.environ, PYTHONPATH=str(SRC)))
    if env is None:
        pytest.skip("no interpreter reporting 3.10 starts")
    corpus = SRC / "dcalc" / "corpus"
    for name, gate in sorted(CORPUS_AXIOMS.items()):
        path = str(corpus / f"{name}.dc")
        out = subprocess.run(
            ["python3.10", "-m", "dcalc.cli", "check", "--axioms", ",".join(gate), path],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (out.returncode, out.stderr) == (0, ""), name
        assert out.stdout.startswith(f"{path}: ok ("), name


def test_main_called_twice_in_one_process_prints_what_fresh_runs_do(capsys):
    """The argument parser is built once per process and reused: calls after
    the first, with other subcommands and options, print the same bytes as a
    fresh process does for each."""
    runs = [
        ["trace", "--json", "([x:tau]x tau)"],
        ["sem", "--encode", "[x:tau]x"],
        ["nf", "--fuel", "3", OMEGA],
        ["type", "tau"],
    ]
    in_process = []
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    fresh = []
    for argv in runs:
        out = subprocess.run(
            [sys.executable, "-m", "dcalc.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
        )
        fresh.append((out.returncode, out.stdout, out.stderr))
    assert in_process == fresh
    assert cli._build_parser() is cli._build_parser()
