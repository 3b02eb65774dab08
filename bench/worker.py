"""Run one pass over a deck's distinct inputs and print what it saw as JSON.

    python3 bench/worker.py DECK.json [--offset K | --spans FILE]

The benchmark starts one worker per pass, one after another, so every
input meets a process that has not seen it before, as a user's dcalc check
does, and no cache kept across requests can answer a repeat. The process
holds only the deck (inputs as text) and the kernel, so its peak resident
memory is the workload's. The pass starts at input K and wraps around, so
the input that pays for the process's first call changes from pass to pass.
One request at a time, no threads; each verdict is checked against the
deck's known answer after the clock has stopped. Any exception inside a
request is a failed request, recorded by kind; the pass goes on. Each
latency comes with the time of a fixed reference job taken last before it
(see reference_s).

With --spans the pass starts at the first input with every dcalc layer
wrapped by the tracer; the output adds the per-layer figures and the work
counts, and the spans go to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from dcalc import cli, explicit, norms, parser, reduction, semantics, syntax, typecheck

import tracer as tracing
from workloads import distinct_inputs, sample_contexts


class WrongVerdict(Exception):
    """The request completed but its answer differs from the known one."""


CONTEXTS = sample_contexts()


def run_request(req: dict):
    """Make one request; the return value is checked by verify()."""
    kind = req["kind"]
    if kind == "check":
        argv = ["check", req["path"]]
        if req["axioms"]:
            argv += ["--axioms", req["axioms"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    if kind == "pool":
        ctx = CONTEXTS[req["ctx"]]
        e = parser.parse_term(req["text"])
        ty = typecheck.synth(ctx, e)
        nf = reduction.reduce_nf(e)
        mu = explicit.mu_nf(explicit.Env(), e)
        stripped = semantics.beta_nf(semantics.strip(e))
        encoded = semantics.beta_nf(semantics.encode(e))
        return nf, mu, stripped, encoded, norms.norm(ctx, e), norms.norm(ctx, ty)
    if kind == "brackets":
        e = parser.parse_term(req["text"])
        try:
            typecheck.check(syntax.Context(), e, e)
        except typecheck.TypingError as err:
            return err.kind
        return "ok"
    if kind == "chain":
        doc = parser.parse_document(req["text"])
        return norms.norm(doc.context, parser.parse_term(req["goal"]))
    if kind == "binders":
        return typecheck.synth(syntax.Context(), parser.parse_term(req["text"]))
    raise ValueError(f"unknown request kind: {kind}")


def verify(req: dict, answer) -> None:
    """Raise WrongVerdict unless answer is the known answer of req."""
    kind = req["kind"]
    if kind == "check":
        code, out, err = answer
        if req["expect"] == "ok":
            good = code == 0 and ": ok (" in out and not err
        else:
            good = code == 1 and f"{req['expect']} @" in err
        if not good:
            raise WrongVerdict(f"exit {code}, expected {req['expect']}: {err.strip()[:200]}")
    elif kind == "pool":
        nf, mu, stripped, encoded, norm_term, norm_type = answer
        if mu != nf:
            raise WrongVerdict("explicit-substitution normal form differs from reduce_nf")
        if norm_term != norm_type:
            raise WrongVerdict("norm of the term differs from the norm of its type")
        if not (_beta_normal(stripped) and _beta_normal(encoded)):
            raise WrongVerdict("translation did not reach a beta normal form")
    elif kind == "brackets":
        if answer != req["expect"]:
            raise WrongVerdict(f"verdict {answer}, expected {req['expect']}")
    elif kind == "chain":
        if answer != _full_tree(req["depth"]):
            raise WrongVerdict("norm is not the complete binary tree")
    elif kind == "binders":
        if answer != _binder_chain_type(req["depth"]):
            raise WrongVerdict("synthesized type differs from the binder chain's")


def _beta_normal(e) -> bool:
    """No application of a lambda anywhere, checked without the kernel."""
    todo = [e]
    while todo:
        t = todo.pop()
        if isinstance(t, semantics.Lam):
            todo.append(t.body)
        elif isinstance(t, semantics.LApp):
            if isinstance(t.fun, semantics.Lam):
                return False
            todo += [t.fun, t.arg]
    return True


def _full_tree(depth: int):
    tree = norms.Leaf()
    for _ in range(depth):
        tree = norms.Pair(tree, tree)
    return tree


def _binder_chain_type(depth: int):
    """[x1:tau][x2:x1]...[xn:x(n-1)]x(n-1) in de Bruijn form."""
    body = syntax.Bound(1) if depth > 1 else syntax.TAU
    for i in range(depth, 0, -1):
        dom = syntax.TAU if i == 1 else syntax.Bound(0)
        body = syntax.UnivAbs(dom, body)
    return body


def attempt(req: dict, failures: Counter, trace: tracing.Tracer | None = None, op: int = 0):
    """Time one request; returns its latency in seconds, or None if it failed."""
    if trace is not None:
        trace.begin(op, req["kind"])
    start = perf_counter()
    try:
        answer = run_request(req)
    except (Exception, SystemExit) as err:  # noqa: BLE001 - a failed request, not a crash
        answer, failure = None, err
    else:
        failure = None
    elapsed = perf_counter() - start
    if trace is not None:
        trace.end()
    if failure is None:
        try:
            verify(req, answer)
        except Exception as err:  # noqa: BLE001 - a wrong verdict, or a deep answer that failed to compare
            failure = err
    if failure is not None:
        failures[type(failure).__name__] += 1
        print(f"failed {req['kind']}: {type(failure).__name__}: {failure}"[:400], file=sys.stderr)
        if not isinstance(failure, WrongVerdict):
            traceback.print_exception(failure, limit=3, file=sys.stderr)
        return None
    return elapsed


def _write_spans(trace: tracing.Tracer, path: Path) -> None:
    with path.open("w") as fh:
        for span, parent, name, start, stop, op in trace.spans:
            fh.write(
                json.dumps(
                    {"id": span, "parent": parent, "name": name, "start": start, "end": stop, "op": op}
                )
                + "\n"
            )


# The host's speed swings by up to a factor of 1.8 over spells of seconds,
# for every process alike. A fixed job timed next to the requests tracks it:
# building and folding a tree of small frozen objects, then an integer
# loop, mixed because the swings slow allocation-heavy code (as dcalc is)
# more than plain arithmetic. It uses nothing from dcalc, so no change to
# the kernel moves it. Every REFERENCE_EVERY_S the pass times it again.
REFERENCE_EVERY_S = 0.1


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _tree(depth: int, k: int):
    if depth == 0:
        return k % 7
    return _Node("+" if k & 1 else "*", _tree(depth - 1, 3 * k + 1), _tree(depth - 1, 5 * k + 2))


def _fold(t):
    if not isinstance(t, _Node):
        return t
    left, right = _fold(t.left), _fold(t.right)
    return (left + right) % 97 if t.op == "+" else (left * right) % 97


def reference_s() -> float:
    start = perf_counter()
    _fold(_tree(11, 1))
    total = 0
    for i in range(60_000):
        total += i * i
    return perf_counter() - start


def one_pass(inputs: list[dict], offset: int, trace: tracing.Tracer | None = None) -> dict:
    """Each input once; with each latency, the reference time taken last before it."""
    failures: Counter[str] = Counter()
    latencies: list[float | None] = [None] * len(inputs)
    references: list[float] = [0.0] * len(inputs)
    first = offset % len(inputs)
    timed_at = -REFERENCE_EVERY_S
    for i in [*range(first, len(inputs)), *range(first)]:
        if perf_counter() - timed_at >= REFERENCE_EVERY_S:
            reference = reference_s()
            timed_at = perf_counter()
        latencies[i] = attempt(inputs[i], failures, trace, i)
        references[i] = reference
    return {
        "latencies": latencies,
        "references": references,
        "failures": dict(failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(inputs: list[dict], spans_path: Path) -> dict:
    # Tracer frames sit between the kernel's own, so deep recursion needs
    # the headroom the untraced run has.
    sys.setrecursionlimit(sys.getrecursionlimit() * 3)
    trace = tracing.Tracer()
    trace.install()
    try:
        result = one_pass(inputs, 0, trace)
    finally:
        trace.uninstall()
    _write_spans(trace, spans_path)
    result["metrics"] = tracing.layer_metrics(trace)
    result["counts"] = dict(sorted(trace.counts.items()))
    result["spans"] = len(trace.spans)
    result["spans_dropped"] = trace.dropped
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("deck")
    ap.add_argument("--offset", type=int, default=0)
    ap.add_argument("--spans", type=Path, help="trace every layer, writing spans here")
    args = ap.parse_args(argv)
    deck = json.loads(Path(args.deck).read_text())
    inputs = distinct_inputs(deck["requests"])
    if args.spans:
        result = traced_pass(inputs, args.spans)
    else:
        result = one_pass(inputs, args.offset)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
