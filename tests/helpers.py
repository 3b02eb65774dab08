"""Shared term generators and enumerators for the property suites.

Three families live here: a typing-rule-directed random generator whose
output always synthesizes a type, a negation-heavy generator for the
negation engine, and exhaustive size-bounded enumerators used for critical
pairs and for the consistency sweep.
"""

from __future__ import annotations

import functools
import gc
import random
import subprocess
import sys
from collections import Counter
from typing import Callable, Iterator

from dcalc import reduction, syntax
from dcalc.axioms import resolve_axiom_gate
from dcalc.corpus import corpus_names, load_corpus
from dcalc.explicit import Env, mu_trace
from dcalc.parser import parse_document, parse_term
from dcalc.reduction import DEFAULT_FUEL, FuelExhausted, NormalClass, classify_nf
from dcalc.semantics import beta_nf, encode, strip
from dcalc.syntax import (
    TAU,
    Appl,
    Bound,
    Case,
    Context,
    ExistAbs,
    Expr,
    ExprS,
    InjL,
    InjR,
    InternalSubst,
    Neg,
    ProjL,
    ProjR,
    ProtDef,
    Product,
    Sum,
    UnivAbs,
    Var,
    close_binder,
    free_vars,
    shift,
    to_text,
)
from dcalc.typecheck import TypingError, synth

ACCEPTANCE_LINES: list[str] = []


def calls_during(run: Callable[[], object], bound: int | None = None) -> int:
    """The Python calls run() makes, as sys.setprofile sees them: a work count.

    Past a bound, if one is given, the next call raises WorkBoundExceeded, so
    an exponential walk stops there. gc is off while it counts, and back in
    its previous state after: a collection would count the calls of the gc
    callbacks (hypothesis adds one), so a count would depend on test order.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"
        if bound is not None and calls > bound:
            raise WorkBoundExceeded

    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return calls


def shared_conversion(n: int, use: str = "{}") -> str:
    """check p(d(n)) : P(([x:tau]x d(n))), where d0 := tau, d(i) := f(d(i-1), d(i-1)).

    Conversion normalizes d(n), a normal term of n+1 shared nodes that
    spells out 2^n uses of f, on both sides. With use "g({})", each d(i)
    applies g := [x:tau]x to both uses of d(i-1), so d(n) must be reduced.
    """
    return (
        "context C { f : [tau => [tau => tau]]; P : [tau => tau]; p : [x:tau]P(x) }\n"
        + "def g := [x:tau]x\ndef d0 := tau\n"
        + "".join(
            "def d{i} := f({u}, {u})\n".format(i=i, u=use.format(f"d{i - 1}"))
            for i in range(1, n + 1)
        )
        + f"check p(d{n}) : P(([x:tau]x d{n}))\n"
    )


def doubling_chain(n: int) -> str:
    """def d(i) := f(d(i-1), d(i-1)): d(n) spells out 2^n uses of f, sharing them.

    d(n) is a check's term, and a declaration's type too.
    """
    return (
        "context C { f : [tau => [tau => tau]] }\ndef d0 := tau\n"
        + "".join(f"def d{i} := f(d{i - 1}, d{i - 1})\n" for i in range(1, n + 1))
        + f"context D {{ q : d{n} }}\ncheck d{n} : tau\ncheck q : d{n}\n"
    )


def python_3_10(env: dict[str, str]) -> dict[str, str] | None:
    """env for a python3.10 that starts, or None; PYENV_VERSION picks it where a
    pyenv shim stands in. pyproject.toml promises 3.10."""
    env = dict(env, PYENV_VERSION="3.10.13")
    try:
        probe = subprocess.run(
            ["python3.10", "-c", "import sys; print(sys.version_info[:2])"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return env if probe.stdout == "(3, 10)\n" else None


class WorkBoundExceeded(Exception):
    """Raised by a work-count guard, so an exponential walk stops at its bound."""


def count_fire(monkeypatch) -> Counter:
    """Counts of reduction._fire's calls ("visits") and of its hits ("contractions")."""
    fire = reduction._fire
    counts: Counter = Counter()

    def counted(*args):
        found = fire(*args)
        counts["visits"] += 1
        counts["contractions"] += found is not None
        return found

    monkeypatch.setattr(reduction, "_fire", counted)
    return counts


def report(tag: str, ok: bool, detail: str = "") -> None:
    """Emit one acceptance pass/fail line, keep it for the summary, assert."""
    status = "pass" if ok else "fail"
    line = f"[acceptance] {tag}: {status}" + (f" ({detail})" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def sample_contexts() -> list[Context]:
    """Well-formed declaration lists the random generator draws leaves from."""
    a, b = Var("a"), Var("b")
    small = Context((("a", TAU), ("b", TAU)))
    rich = Context(
        (
            ("a", TAU),
            ("b", TAU),
            ("x", a),
            ("y", b),
            ("f", UnivAbs(a, b, "z")),
            ("P", UnivAbs(a, TAU, "z")),
            ("p", Product(a, b)),
            ("s", Sum(a, b)),
            ("w", ExistAbs(a, TAU, "z")),
        )
    )
    return [small, rich]


_KINDS = (
    ("leaf", 3),
    ("univ", 2),
    ("exist", 1),
    ("appl", 3),
    ("product", 1),
    ("sum", 1),
    ("injl", 1),
    ("injr", 1),
    ("proj", 2),
    ("projdef", 1),
    ("protdef", 1),
    ("case", 2),
    ("neg", 2),
)
_KIND_NAMES = tuple(k for k, _ in _KINDS)
_KIND_WEIGHTS = tuple(w for _, w in _KINDS)


def _leaf(rng: random.Random, ctx: Context) -> Expr:
    pool: list[Expr] = [TAU]
    pool.extend(Var(name) for name, _ in ctx.entries)
    return rng.choice(pool)


def _gen_protdef(rng: random.Random, ctx: Context, depth: int) -> Expr:
    proof = gen_typed_term(rng, ctx, depth)
    ty = synth(ctx, proof)
    if rng.random() < 0.5:
        x = ctx.fresh("w")
        return ProtDef(ty, proof, close_binder(Var(x), x), x)
    witness = gen_typed_term(rng, ctx, depth)
    x = ctx.fresh("w", free_vars(ty))
    return ProtDef(witness, proof, close_binder(ty, x), x)


def gen_typed_term(rng: random.Random, ctx: Context, depth: int) -> Expr:
    """A random term that synthesizes a type under ctx.

    Every alternative mirrors one typing rule, building premises first, so
    the result is well typed by construction; applications, projections and
    case analyses are built around their introduction forms and therefore
    often contain redexes.
    """
    if depth <= 0:
        return _leaf(rng, ctx)
    kind = rng.choices(_KIND_NAMES, weights=_KIND_WEIGHTS)[0]
    match kind:
        case "leaf":
            return _leaf(rng, ctx)
        case "univ" | "exist":
            dom = gen_typed_term(rng, ctx, depth - 1)
            x = ctx.fresh("v")
            body = gen_typed_term(rng, ctx.extend(x, dom), depth - 1)
            scoped = close_binder(body, x)
            if kind == "univ":
                return UnivAbs(dom, scoped, x)
            return ExistAbs(dom, scoped, x)
        case "appl":
            arg = gen_typed_term(rng, ctx, depth - 1)
            dom = synth(ctx, arg)
            x = ctx.fresh("v")
            body = gen_typed_term(rng, ctx.extend(x, dom), depth - 1)
            scoped = close_binder(body, x)
            if rng.random() < 0.25:
                return Appl(ExistAbs(dom, scoped, x), arg)
            return Appl(UnivAbs(dom, scoped, x), arg)
        case "product":
            left = gen_typed_term(rng, ctx, depth - 1)
            return Product(left, gen_typed_term(rng, ctx, depth - 1))
        case "sum":
            left = gen_typed_term(rng, ctx, depth - 1)
            return Sum(left, gen_typed_term(rng, ctx, depth - 1))
        case "injl":
            val = gen_typed_term(rng, ctx, depth - 1)
            return InjL(val, gen_typed_term(rng, ctx, depth - 1))
        case "injr":
            tag = gen_typed_term(rng, ctx, depth - 1)
            return InjR(tag, gen_typed_term(rng, ctx, depth - 1))
        case "proj":
            left = gen_typed_term(rng, ctx, depth - 1)
            pair = Product(left, gen_typed_term(rng, ctx, depth - 1))
            return ProjL(pair) if rng.random() < 0.5 else ProjR(pair)
        case "projdef":
            pd = _gen_protdef(rng, ctx, depth - 1)
            return ProjL(pd) if rng.random() < 0.5 else ProjR(pd)
        case "protdef":
            return _gen_protdef(rng, ctx, depth - 1)
        case "case":
            shared = shift(gen_typed_term(rng, ctx, depth - 1), 1)
            if rng.random() < 0.4:
                left = gen_typed_term(rng, ctx, depth - 1)
                right = gen_typed_term(rng, ctx, depth - 1)
                return Case(UnivAbs(left, shared, "l"), UnivAbs(right, shared, "r"))
            val = gen_typed_term(rng, ctx, depth - 1)
            this = synth(ctx, val)
            other = gen_typed_term(rng, ctx, depth - 1)
            if rng.random() < 0.5:
                arms = Case(UnivAbs(this, shared, "l"), UnivAbs(other, shared, "r"))
                return Appl(arms, InjL(val, other))
            arms = Case(UnivAbs(other, shared, "l"), UnivAbs(this, shared, "r"))
            return Appl(arms, InjR(other, val))
        case "neg":
            return Neg(gen_typed_term(rng, ctx, depth - 1))
    raise AssertionError(kind)


def gen_neg_heavy(rng: random.Random, depth: int, scope: int = 0) -> ExprS:
    """Application-free terms biased toward nested negations."""
    leaves: list[ExprS] = [TAU, Var("a"), Var("b")]
    leaves.extend(Bound(k) for k in range(scope))
    if depth <= 0:
        return rng.choice(leaves)
    r = rng.random()
    if r < 0.40:
        return Neg(gen_neg_heavy(rng, depth - 1, scope))
    if r < 0.55:
        dom = gen_neg_heavy(rng, depth - 1, scope)
        return UnivAbs(dom, gen_neg_heavy(rng, depth - 1, scope + 1), "x")
    if r < 0.68:
        dom = gen_neg_heavy(rng, depth - 1, scope)
        return ExistAbs(dom, gen_neg_heavy(rng, depth - 1, scope + 1), "x")
    if r < 0.80:
        left = gen_neg_heavy(rng, depth - 1, scope)
        return Product(left, gen_neg_heavy(rng, depth - 1, scope))
    if r < 0.92:
        left = gen_neg_heavy(rng, depth - 1, scope)
        return Sum(left, gen_neg_heavy(rng, depth - 1, scope))
    if r < 0.95:
        val = gen_neg_heavy(rng, depth - 1, scope)
        return InjL(val, gen_neg_heavy(rng, depth - 1, scope))
    if r < 0.98:
        tag = gen_neg_heavy(rng, depth - 1, scope)
        return InjR(tag, gen_neg_heavy(rng, depth - 1, scope))
    witness = gen_neg_heavy(rng, depth - 1, scope)
    proof = gen_neg_heavy(rng, depth - 1, scope)
    return ProtDef(witness, proof, gen_neg_heavy(rng, depth - 1, scope + 1), "x")


def _subst_pool(
    n: int, scope: int, memo: dict[tuple[int, int], list[ExprS]]
) -> list[ExprS]:
    """All expressions with exactly n nodes, substitution nodes included.

    Free occurrences of x and dangling indices below scope stand for the
    surrounding environment and binders.
    """
    key = (n, scope)
    if key in memo:
        return memo[key]
    out: list[ExprS] = []
    if n == 1:
        out.append(TAU)
        out.append(Var("x"))
        out.extend(Bound(k) for k in range(scope))
        memo[key] = out
        return out
    for inner in _subst_pool(n - 1, scope, memo):
        out.append(Neg(inner))
        out.append(ProjL(inner))
        out.append(ProjR(inner))
    for i in range(1, n - 1):
        lefts = _subst_pool(i, scope, memo)
        rights = _subst_pool(n - 1 - i, scope, memo)
        scoped = _subst_pool(n - 1 - i, scope + 1, memo)
        for l in lefts:
            for r in rights:
                out.append(Appl(l, r))
                out.append(Product(l, r))
                out.append(Sum(l, r))
                out.append(InjL(l, r))
                out.append(InjR(l, r))
                out.append(Case(l, r))
            for s in scoped:
                out.append(UnivAbs(l, s, "y"))
                out.append(ExistAbs(l, s, "y"))
                out.append(InternalSubst(l, s, "y"))
    for i in range(1, n - 2):
        for j in range(1, n - 1 - i):
            k = n - 1 - i - j
            for w in _subst_pool(i, scope, memo):
                for p in _subst_pool(j, scope, memo):
                    for t in _subst_pool(k, scope + 1, memo):
                        out.append(ProtDef(w, p, t, "y"))
    memo[key] = out
    return out


def enumerate_subst_terms(max_size: int) -> Iterator[ExprS]:
    """Every expression of at most max_size nodes over leaves tau, x, and
    indices bound by enclosing binders."""
    memo: dict[tuple[int, int], list[ExprS]] = {}
    for n in range(1, max_size + 1):
        yield from _subst_pool(n, 0, memo)


def _normal_pool(
    n: int, scope: int, memo: dict[tuple[int, int], list[Expr]]
) -> list[Expr]:
    """All closed normal expressions with exactly n nodes.

    Subexpressions of normal forms are normal, so candidates combine smaller
    pool members and a classification filter on the result suffices.
    """
    key = (n, scope)
    if key in memo:
        return memo[key]
    candidates: list[Expr] = []
    if n == 1:
        candidates.append(TAU)
        candidates.extend(Bound(k) for k in range(scope))
        memo[key] = candidates
        return candidates
    for inner in _normal_pool(n - 1, scope, memo):
        candidates.append(Neg(inner))
        candidates.append(ProjL(inner))
        candidates.append(ProjR(inner))
    for i in range(1, n - 1):
        lefts = _normal_pool(i, scope, memo)
        rights = _normal_pool(n - 1 - i, scope, memo)
        scoped = _normal_pool(n - 1 - i, scope + 1, memo)
        for l in lefts:
            for r in rights:
                candidates.append(Appl(l, r))
                candidates.append(Product(l, r))
                candidates.append(Sum(l, r))
                candidates.append(InjL(l, r))
                candidates.append(InjR(l, r))
                candidates.append(Case(l, r))
            for s in scoped:
                candidates.append(UnivAbs(l, s, "y"))
                candidates.append(ExistAbs(l, s, "y"))
    for i in range(1, n - 2):
        for j in range(1, n - 1 - i):
            k = n - 1 - i - j
            for w in _normal_pool(i, scope, memo):
                for p in _normal_pool(j, scope, memo):
                    for t in _normal_pool(k, scope + 1, memo):
                        candidates.append(ProtDef(w, p, t, "y"))
    out = [c for c in candidates if classify_nf(c) is not NormalClass.REDUCIBLE]
    memo[key] = out
    return out


def enumerate_normal_closed(max_size: int) -> Iterator[Expr]:
    """Every closed normal form of at most max_size nodes."""
    memo: dict[tuple[int, int], list[Expr]] = {}
    for n in range(1, max_size + 1):
        for t in _normal_pool(n, 0, memo):
            if classify_nf(t) is NormalClass.NORMAL_FORM:
                yield t


# The axiom gates a golden parse record names.
GATES = {"": frozenset(), "all": resolve_axiom_gate(["all"])}


def parse_record(mode: str, gate: str, text: str) -> dict:
    """One line of tests/data/parse_golden.jsonl: the input and what parsing gives.

    mode is "term" or "document". The record holds "ok" with the printed
    result, or "error" with the class name of the exception raised.
    """
    out: dict = {"mode": mode, "gate": gate, "input": text}
    try:
        if mode == "term":
            out["ok"] = to_text(parse_term(text, GATES[gate]))
        else:
            doc = parse_document(text, GATES[gate])
            out["ok"] = {
                "context": [[n, to_text(ty)] for n, ty in doc.context.entries],
                "defs": [[n, to_text(d)] for n, d in doc.defs.items()],
                "checks": [[to_text(c.term), to_text(c.ty), c.line] for c in doc.checks],
            }
    except Exception as err:  # noqa: BLE001 - the class name is the record
        out["error"] = type(err).__name__
    return out


# Step budget of the engines in sem_record: the generated terms and corpus
# deductions need far fewer steps.
SEM_FUEL = 2000


def sem_record(text: str) -> dict:
    """One line of tests/data/sem_golden.jsonl: a term and what the oracles give.

    The term is parsed with every axiom scheme enabled. "strip" and "encode"
    hold the printed images, "beta_strip" and "beta_encode" their printed
    beta normal forms, and "mu_trace" the explicit-substitution trace as
    [rule, printed term] pairs. A failure is recorded as "Class: message".
    """
    e = parse_term(text, GATES["all"])
    out: dict = {"input": text}
    for name, image in (("strip", strip), ("encode", encode)):
        try:
            img = image(e)
        except ValueError as err:
            out[name] = f"ValueError: {err}"
            continue
        out[name] = to_text(img)
        try:
            out[f"beta_{name}"] = to_text(beta_nf(img, SEM_FUEL))
        except FuelExhausted as err:
            out[f"beta_{name}"] = f"FuelExhausted: {err}"
    try:
        out["mu_trace"] = [[rule, to_text(t)] for rule, t in mu_trace(Env(), e, SEM_FUEL)]
    except FuelExhausted as err:
        out["mu_trace"] = f"FuelExhausted: {err}"
    return out


def term_to_json(e: ExprS) -> list:
    """e as nested lists: the class name, then each field in constructor order
    (its __match_args__: the components, a binder's hint, a leaf's value),
    terms nested the same way."""
    return [type(e).__name__] + [
        term_to_json(v) if isinstance(v, syntax.Node) else v
        for v in (getattr(e, name) for name in e.__match_args__)
    ]


def term_from_json(data: list) -> ExprS:
    """The term term_to_json gave data for."""
    cls = getattr(syntax, data[0])
    return cls(*(term_from_json(v) if isinstance(v, list) else v for v in data[1:]))


@functools.cache
def diag_contexts() -> dict[str, Context]:
    """The contexts a golden diagnostic record names: the generator's, then each corpus file's."""
    small, rich = sample_contexts()
    out = {"small": small, "rich": rich}
    out.update((name, load_corpus(name)[0]) for name in corpus_names())
    return out


# The budgets each golden diagnostic record runs synth at.
DIAG_FUELS = (DEFAULT_FUEL, 1)


def diag_record(ctx_name: str, term: list) -> dict:
    """One line of tests/data/diag_golden.jsonl: a term and what synth gives.

    term is the term's term_to_json form, typed under the context
    diag_contexts() names ctx_name. "synth" holds, for each of DIAG_FUELS,
    the printed type, or "Class: message" of the error raised.
    """
    ctx = diag_contexts()[ctx_name]
    e = term_from_json(term)
    out: dict = {"ctx": ctx_name, "term": term, "synth": []}
    for fuel in DIAG_FUELS:
        try:
            out["synth"].append(to_text(synth(ctx, e, fuel)))
        except (TypingError, FuelExhausted) as err:
            out["synth"].append(f"{type(err).__name__}: {err}")
    return out
