"""Command-line front end.

Subcommands: check (proof files), type, nf, trace, sem, norm (expressions).
Axiom schemes are disabled unless --axioms lists them; --fuel bounds the
steps of each reduction call (DCALC_FUEL serves as the environment
fallback); --json switches diagnostics to JSON lines. Every failure reaches
the user through one mapping from exception to diagnostic (_diagnostic).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cache

from .axioms import resolve_axiom_gate
from .norms import norm, norm_to_text
from .parser import ParseError, parse_document, parse_term
from .reduction import DEFAULT_FUEL, FuelExhausted, reduce_nf, reduce_trace, render_trace
from .semantics import encode, strip
from .syntax import Context, ExprS, path_text, pending_path, to_text
from .typecheck import TypingError, check_document, synth


# The failures a command reports as a diagnostic; anything else is a bug.
# RecursionError is input nested deeper than the recursive kernel can follow;
# UnicodeDecodeError is an input file that is not text.
FAILURES = (ParseError, TypingError, FuelExhausted, RecursionError, OSError, UnicodeDecodeError)


def _diagnostic(err: Exception) -> dict:
    """The diagnostic that reports one of FAILURES."""
    match err:
        case TypingError():
            out = {"kind": err.kind, "path": path_text(err.path), "message": err.message}
            if err.expected is not None:
                out["expected"] = to_text(err.expected)
            if err.found is not None:
                out["found"] = to_text(err.found)
            return out
        case ParseError():
            return {"kind": "ParseError", "path": f"{err.line}:{err.col}", "message": err.message}
        case FuelExhausted():
            return {"kind": "FuelExhausted", "path": "root", "message": str(err)}
        case RecursionError():
            # the parser may give up before there is a term, so none is shown
            limit = sys.getrecursionlimit()
            message = f"input nested too deeply for the recursion limit ({limit})"
            return {"kind": "DepthExceeded", "path": "root", "message": message}
    return {"kind": "IOError", "path": "root", "message": str(err)}


def _dumps(obj: object) -> str:
    """json.dumps; json is imported on first use, since only --json needs it."""
    import json

    return json.dumps(obj)


def _emit_diag(diag: dict, as_json: bool) -> None:
    if as_json:
        print(_dumps(diag), file=sys.stderr)
        return
    line = f"{diag['kind']} @ {diag['path']}: {diag['message']}"
    print(line, file=sys.stderr)
    if "expected" in diag:
        print(f"  expected: {diag['expected']}", file=sys.stderr)
    if "found" in diag:
        print(f"  found:    {diag['found']}", file=sys.stderr)


def cmd_check(args: argparse.Namespace) -> int:
    failed = False
    for path in args.paths:
        started = time.monotonic()
        report = {"file": path, "declarations_checked": 0, "deductions_checked": 0, "errors": []}
        try:
            # utf-8-sig drops a leading byte-order mark, as some editors write one
            with open(path, encoding="utf-8-sig") as f:
                text = f.read()
            doc = parse_document(text, args.gate)
            report["declarations_checked"] = len(doc.context.entries)
            report["deductions_checked"] = len(doc.checks)
            report["errors"] = [_diagnostic(e) for e in check_document(doc, args.fuel)]
        except FAILURES as err:
            # the file's own failure; the next file is still checked
            report["errors"].append(_diagnostic(err))
        failed = failed or bool(report["errors"])
        _finish_report(report, started, args.json)
        if args.trace and not report["errors"]:
            for item in doc.checks:
                try:
                    steps = reduce_trace(item.term, args.fuel)
                except FuelExhausted:
                    continue
                if steps:
                    print(render_trace(steps))
    return 1 if failed else 0


def _finish_report(report: dict, started: float, as_json: bool) -> None:
    """Print check's report on one file, as a JSON line or as a status line."""
    elapsed = time.monotonic() - started
    if as_json:
        print(_dumps({**report, "elapsed": round(elapsed, 6)}))
        return
    errors = report["errors"]
    status = "ok" if not errors else f"{len(errors)} error(s)"
    print(
        f"{report['file']}: {status} "
        f"({report['declarations_checked']} declarations, "
        f"{report['deductions_checked']} deductions, {elapsed:.3f}s)"
    )
    for diag in errors:
        _emit_diag(diag, as_json=False)


def _load_context(args: argparse.Namespace) -> Context | None:
    """Parse and check the optional --context file; None if it does not check."""
    if not args.context:
        return Context()
    with open(args.context, encoding="utf-8-sig") as f:
        text = f.read()
    doc = parse_document(text, args.gate)
    errors = check_document(doc, args.fuel)
    for e in errors:
        _emit_diag(_diagnostic(e), args.json)
    return None if errors else doc.context


def cmd_type(args: argparse.Namespace) -> int:
    ctx = _load_context(args)
    if ctx is None:
        return 1
    e = parse_term(args.expr, args.gate)
    print(to_text(synth(ctx, e, args.fuel)))
    return 0


def _expr_arg(args: argparse.Namespace, kind: str, message: str) -> ExprS:
    """The expression argument; a diagnostic at its first pending substitution."""
    e = parse_term(args.expr, args.gate)
    at = pending_path(e)
    if at is not None:
        raise TypingError(kind, message, at)
    return e


def cmd_nf(args: argparse.Namespace) -> int:
    e = _expr_arg(args, "PendingSubstitution", "pending substitutions are not reduced")
    print(to_text(reduce_nf(e, args.fuel)))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    e = _expr_arg(args, "PendingSubstitution", "pending substitutions are not reduced")
    steps = reduce_trace(e, args.fuel)
    final = e if not steps else steps[-1][2]
    if args.json:
        for at, name, term in steps:
            print(_dumps({"axiom": name, "path": path_text(at), "term": to_text(term)}))
        print(_dumps({"nf": to_text(final)}))
    else:
        if steps:
            print(render_trace(steps))
        print(to_text(final))
    return 0


def cmd_sem(args: argparse.Namespace) -> int:
    e = _expr_arg(args, "Untranslatable", "pending substitutions have no translation")
    print(to_text(encode(e) if args.encode else strip(e)))
    return 0


def cmd_norm(args: argparse.Namespace) -> int:
    ctx = _load_context(args)
    if ctx is None:
        return 1
    e = parse_term(args.expr, args.gate)
    n = norm(ctx, e)
    print("undefined" if n is None else norm_to_text(n))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing keeps no state in it."""
    top = argparse.ArgumentParser(prog="dcalc", description="d-calculus proof checker")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str, *args, **kwargs) -> argparse.ArgumentParser:
        """The subcommand name, which fn runs, with its first argument."""
        p = sub.add_parser(name, help=help)
        p.add_argument(*args, **kwargs)
        p.set_defaults(fn=fn)
        return p

    check = command("check", cmd_check, "check proof files", "paths", nargs="+")
    check.add_argument("--trace", action="store_true", help="print reduction traces")
    command("type", cmd_type, "synthesize the type of an expression", "expr").add_argument(
        "--context", help="proof file supplying the context"
    )
    command("nf", cmd_nf, "print the normal form", "expr")
    command("trace", cmd_trace, "print every reduction step", "expr")
    sem = command("sem", cmd_sem, "translate to untyped lambda calculus", "expr")
    mode = sem.add_mutually_exclusive_group()
    mode.add_argument("--strip", action="store_true", help="type-stripping (default)")
    mode.add_argument("--encode", action="store_true", help="type-encoding")
    command("norm", cmd_norm, "print the norm of an expression", "expr").add_argument(
        "--context", help="proof file supplying the context"
    )
    for p in sub.choices.values():  # the options every subcommand takes, after its own
        p.add_argument(
            "--fuel",
            type=int,
            default=None,
            help=f"reduction step budget (default {DEFAULT_FUEL}, env DCALC_FUEL)",
        )
        p.add_argument(
            "--axioms",
            default="",
            help="comma-separated axiom schemes or families to enable (or 'all')",
        )
        p.add_argument("--json", action="store_true", help="JSON-lines diagnostics")
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        source = "--fuel" if args.fuel is not None else "DCALC_FUEL"
        if args.fuel is None:
            args.fuel = _env_fuel()
        if args.fuel < 0:
            raise ValueError(f"{source} must be a non-negative integer, not {args.fuel}")
        tokens = [t for t in args.axioms.split(",") if t.strip()]
        args.gate = resolve_axiom_gate(tokens)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except FAILURES as err:
        _emit_diag(_diagnostic(err), args.json)
        return 1


def _env_fuel() -> int:
    raw = os.environ.get("DCALC_FUEL", str(DEFAULT_FUEL))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DCALC_FUEL must be an integer, not {raw!r}") from None


if __name__ == "__main__":
    sys.exit(main())
