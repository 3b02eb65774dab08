"""Seeded request decks for the four benchmark workloads.

A deck is the list of requests of one workload, each a JSON-able dict
that carries its input as text plus the known answer the benchmark derives
on its own (never from the code under test). A pass runs each distinct
input once; how often an input appears in the deck is its weight. The seed fixes every
input; the size schedule of each workload is fixed, so that two seeds load
the kernel alike and a run measures the code, not the draw.

corpus  the ten shipped files under their CORPUS_AXIOMS gates: real user
        traffic, many small deductions, fixed costs of cli/parser/typecheck.
pool    random well-typed terms built by the typing rules (the recipe of
        tests/helpers.py) through every kernel engine; the only workload
        that reaches explicit and semantics. Terms whose translations would
        capture a name are left out (a known defect, stated below).
arith   one-claim Church-numeral files checked by conversion, a quarter of
        them false by one: reduction-bound, parsing trivial.
deep    structure-bound terms with no reduction: nested brackets (parser
        backtracking), a context chain (norm), nested binders (synth).
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from dcalc.corpus import CORPUS_AXIOMS
from dcalc.reduction import reduce_nf
from dcalc.syntax import (
    TAU,
    Appl,
    Bound,
    Case,
    Context,
    ExistAbs,
    InjL,
    InjR,
    Neg,
    Prim,
    ProjL,
    ProjR,
    ProtDef,
    Product,
    Sum,
    UnivAbs,
    Var,
    close_binder,
    shift,
)
from dcalc.typecheck import synth

# Tail percentiles, highest first. A run reports the highest one that
# leaves at least ten of the deck's requests beyond it. Tying the choice to
# the deck rather than to the number of attempts keeps it fixed when the
# code gets faster and a run makes more passes.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count: int) -> float:
    for p in LADDER:
        if count * (100 - p) >= 1000 - 1e-9:
            return p
    return LADDER[-1]


def build(name: str, seed: int, out_dir: Path, root: Path) -> dict:
    """The deck of one workload; writes any generated files under out_dir.

    A deck lists requests with repeats: how often an input appears is its
    weight in the figures.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "corpus":
        requests = corpus_requests(rng, root)
    elif name == "pool":
        requests = pool_requests(rng)
    elif name == "arith":
        requests = arith_requests(rng, out_dir, root)
    elif name == "deep":
        requests = deep_requests(rng)
    else:
        raise ValueError(f"unknown workload: {name}")
    return {
        "workload": name,
        "seed": seed,
        "requests": requests,
        "tail_percentile": tail_percentile(len(requests)),
    }


def input_key(req: dict) -> str:
    return req.get("path") or req["text"] + req.get("goal", "")


def distinct_inputs(requests: list[dict]) -> list[dict]:
    """One request per input, in order of first appearance."""
    first: dict[str, dict] = {}
    for req in requests:
        first.setdefault(input_key(req), req)
    return list(first.values())


# corpus ---------------------------------------------------------------------

CORPUS_ROUNDS = 20


def corpus_requests(rng: random.Random, root: Path) -> list[dict]:
    """Every file once per round, each round in its own seeded order.

    A round is one request per file, so the deck counts 200 requests and
    the tail percentile lands inside the block of the costliest file.
    """
    corpus_dir = root / "src" / "dcalc" / "corpus"
    out = []
    for _ in range(CORPUS_ROUNDS):
        names = sorted(CORPUS_AXIOMS)
        rng.shuffle(names)
        for name in names:
            out.append(
                {
                    "kind": "check",
                    "path": str((corpus_dir / f"{name}.dc").relative_to(root)),
                    "axioms": ",".join(CORPUS_AXIOMS[name]),
                    "expect": "ok",
                }
            )
    return out


# pool -----------------------------------------------------------------------

# Requests per size class, class k holding terms of 2^k to 2^(k+1)-1 nodes.
# Terms of 64 nodes and more are left out: their cost spreads over orders of
# magnitude, so a handful of them would decide every figure of a run and two
# seeds would disagree by more than any bound worth setting. Terms that inject
# a value naming the context's x or y are left out too (known defect, see
# captures_in_translation). 300 per class
# keep the seed's draw from moving the median and tail by more than a few
# percent, and a pass short enough for several in a run.
POOL_QUOTA = {k: 300 for k in range(6)}


def sample_contexts() -> dict[str, Context]:
    """The two declaration lists of tests/helpers.py."""
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
    return {"small": small, "rich": rich}


def pool_requests(rng: random.Random) -> list[dict]:
    """Terms drawn by the acceptance-pool recipe until every size class is full."""
    contexts = sample_contexts()
    names = sorted(contexts)
    need = dict(POOL_QUOTA)
    out = []
    while any(need.values()):
        ctx_name = rng.choice(names)
        depth = rng.randint(0, 7)
        term = TermGen(rng).term(contexts[ctx_name], depth)
        if captures_in_translation(term):
            continue
        k = int(math.log2(node_count(term)))
        if need.get(k, 0) > 0:
            need[k] -= 1
            out.append({"kind": "pool", "ctx": ctx_name, "text": to_source(term)})
    rng.shuffle(out)
    return out


# strip and encode translate inl/inr to binders named literally x and y, so
# a free x or y in the injected value is captured. The rich context declares
# both; a captured image is wrong, and some loop (one drawn term's encode
# image reached an omega-like cycle and exhausted beta_nf's fuel). The change
# that makes those binders fresh adds these terms back as a new workload.
CAPTURED_NAMES = frozenset({"x", "y"})


def captures_in_translation(e) -> bool:
    """Whether some inl/inr of e injects a value with a free x or y."""
    match e:
        case InjL(val, _) | InjR(_, val) if _free_names(val) & CAPTURED_NAMES:
            return True
    return any(captures_in_translation(c) for c in _parts(e))


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


class TermGen:
    """gen_typed_term of tests/helpers.py, with types taken in normal form.

    Every alternative mirrors one typing rule and builds its premises
    first, so the result is well typed by construction. Domains and
    witnesses come from synth followed by reduce_nf: a normal form is
    unique, so a later change to how synth shapes its answer does not
    change the terms a seed draws.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _type(self, ctx: Context, e):
        return reduce_nf(synth(ctx, e))

    def _leaf(self, ctx: Context):
        pool = [TAU]
        pool.extend(Var(name) for name, _ in ctx.entries)
        return self.rng.choice(pool)

    def _protdef(self, ctx: Context, depth: int):
        rng = self.rng
        proof = self.term(ctx, depth)
        ty = self._type(ctx, proof)
        if rng.random() < 0.5:
            x = ctx.fresh("w")
            return ProtDef(ty, proof, close_binder(Var(x), x), x)
        witness = self.term(ctx, depth)
        x = ctx.fresh("w", _free_names(ty))
        return ProtDef(witness, proof, close_binder(ty, x), x)

    def term(self, ctx: Context, depth: int):
        rng = self.rng
        if depth <= 0:
            return self._leaf(ctx)
        d = depth - 1
        kind = rng.choices(_KIND_NAMES, weights=_KIND_WEIGHTS)[0]
        match kind:
            case "leaf":
                return self._leaf(ctx)
            case "univ" | "exist":
                dom = self.term(ctx, d)
                x = ctx.fresh("v")
                body = close_binder(self.term(ctx.extend(x, dom), d), x)
                return UnivAbs(dom, body, x) if kind == "univ" else ExistAbs(dom, body, x)
            case "appl":
                arg = self.term(ctx, d)
                dom = self._type(ctx, arg)
                x = ctx.fresh("v")
                body = close_binder(self.term(ctx.extend(x, dom), d), x)
                if rng.random() < 0.25:
                    return Appl(ExistAbs(dom, body, x), arg)
                return Appl(UnivAbs(dom, body, x), arg)
            case "product":
                left = self.term(ctx, d)
                return Product(left, self.term(ctx, d))
            case "sum":
                left = self.term(ctx, d)
                return Sum(left, self.term(ctx, d))
            case "injl":
                val = self.term(ctx, d)
                return InjL(val, self.term(ctx, d))
            case "injr":
                tag = self.term(ctx, d)
                return InjR(tag, self.term(ctx, d))
            case "proj":
                left = self.term(ctx, d)
                pair = Product(left, self.term(ctx, d))
                return ProjL(pair) if rng.random() < 0.5 else ProjR(pair)
            case "projdef":
                pd = self._protdef(ctx, d)
                return ProjL(pd) if rng.random() < 0.5 else ProjR(pd)
            case "protdef":
                return self._protdef(ctx, d)
            case "case":
                shared = shift(self.term(ctx, d), 1)
                if rng.random() < 0.4:
                    left = self.term(ctx, d)
                    right = self.term(ctx, d)
                    return Case(UnivAbs(left, shared, "l"), UnivAbs(right, shared, "r"))
                val = self.term(ctx, d)
                this = self._type(ctx, val)
                other = self.term(ctx, d)
                if rng.random() < 0.5:
                    arms = Case(UnivAbs(this, shared, "l"), UnivAbs(other, shared, "r"))
                    return Appl(arms, InjL(val, other))
                arms = Case(UnivAbs(other, shared, "l"), UnivAbs(this, shared, "r"))
                return Appl(arms, InjR(other, val))
            case "neg":
                return Neg(self.term(ctx, d))
        raise AssertionError(kind)


def _parts(e) -> tuple:
    match e:
        case UnivAbs(dom, body) | ExistAbs(dom, body):
            return (dom, body)
        case Appl(a, b) | Product(a, b) | Sum(a, b) | InjL(a, b) | InjR(a, b) | Case(a, b):
            return (a, b)
        case ProtDef(witness, proof, tag):
            return (witness, proof, tag)
        case ProjL(a) | ProjR(a) | Neg(a):
            return (a,)
    return ()


def node_count(e) -> int:
    return 1 + sum(node_count(c) for c in _parts(e))


def _free_names(e) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    out: set[str] = set()
    for c in _parts(e):
        out |= _free_names(c)
    return out


def to_source(e) -> str:
    """Concrete syntax for a closed-over-context term, in the layout dcalc
    prints, with binders named v<depth> so no name can be captured."""

    def go(e, env: list[str]) -> str:
        match e:
            case Prim():
                return "tau"
            case Var(name):
                return name
            case Bound(index):
                return env[index]
            case UnivAbs(dom, body) | ExistAbs(dom, body):
                x = f"v{len(env)}"
                sep = ":" if isinstance(e, UnivAbs) else "!"
                return f"[{x}{sep}{go(dom, env)}]{go(body, [x] + env)}"
            case Appl(fun, arg):
                return f"({go(fun, env)} {go(arg, env)})"
            case ProtDef(witness, proof, tag):
                x = f"v{len(env)}"
                return f"<{x}:={go(witness, env)}, {go(proof, env)} : {go(tag, [x] + env)}>"
            case ProjL(inner) | ProjR(inner):
                s = go(inner, env)
                if isinstance(inner, (UnivAbs, ExistAbs, Neg)):
                    s = f"({s})"
                return s + (".1" if isinstance(e, ProjL) else ".2")
            case Product(l, r):
                return f"[{go(l, env)},{go(r, env)}]"
            case Sum(l, r):
                return f"[{go(l, env)}+{go(r, env)}]"
            case InjL(a, b):
                return f"inl({go(a, env)},{go(b, env)})"
            case InjR(a, b):
                return f"inr({go(a, env)},{go(b, env)})"
            case Case(l, r):
                return f"case({go(l, env)},{go(r, env)})"
            case Neg(inner):
                return f"~{go(inner, env)}"
        raise ValueError(f"cannot print {e!r}")

    return go(e, [])


# arith ----------------------------------------------------------------------

ARITH_PRELUDE = """\
def N := [A:tau][[A=>A] => [A=>A]]
def mul := [m,n:N][A:tau][s:[A=>A]]m(A,n(A,s))
def add := [m,n:N][A:tau][s:[A=>A]][z:A]m(A,s,n(A,s,z))
def succ := [n:N][A:tau][s:[A=>A]][z:A]s(n(A,s,z))
def eq := [x,y:N][P:[N=>tau]][P(x) => P(y)]
def refl := [x:N][P:[N=>tau]][h:P(x)]h
"""

ARITH_LAWS = {
    "comm": ("mul(a,b)", "mul(b,a)"),
    "assoc": ("mul(mul(a,b),c)", "mul(a,mul(b,c))"),
    "dist": ("mul(a,add(b,c))", "add(mul(a,b),mul(a,c))"),
}

# The claims (law, a, b, c), from about 20 to 70 ms each on a 2-core
# virtual machine: cheap enough for a run to make some 25 passes, so every
# claim meets a quiet spell of the machine. Their sizes and sides are fixed,
# so every seed loads the reducer alike (which side of eq carries the added
# one moves a false claim's cost by up to half); the seed orders the deck.
# Every normal form stays far below about 300 nested applications, where
# dcalc raises RecursionError (a cube of 7 under assoc).
ARITH_CLAIMS = (
    ("comm", 2, 5, 0),
    ("comm", 4, 3, 0),
    ("comm", 3, 7, 0),
    ("comm", 5, 5, 0),
    ("assoc", 2, 2, 2),
    ("assoc", 2, 3, 2),
    ("assoc", 3, 3, 3),
    ("dist", 3, 3, 3),
    ("dist", 3, 4, 2),
)
# How often each claim enters the deck as stated and false by one: a
# quarter of the deck is false, and 108 requests put the tail at p90.
ARITH_WEIGHTS = {"ok": 9, "Mismatch": 3}


def numeral(k: int) -> str:
    body = "z"
    for _ in range(k):
        body = f"s({body})"
    return f"[A:tau][s:[A=>A]][z:A]{body}"


def arith_requests(rng: random.Random, out_dir: Path, root: Path) -> list[dict]:
    """Two files per claim: the claim, and the claim off by one."""
    folder = out_dir / "arith"
    folder.mkdir(parents=True, exist_ok=True)
    out = []
    for i, (law, a, b, c) in enumerate(ARITH_CLAIMS):
        lhs, rhs = ARITH_LAWS[law]
        defs = f"def a := {numeral(a)}\ndef b := {numeral(b)}\ndef c := {numeral(c)}\n"
        for expect, claim in (("ok", rhs), ("Mismatch", f"succ({rhs})")):
            path = folder / f"claim-{i:02d}-{expect.lower()}.dc"
            path.write_text(f"{ARITH_PRELUDE}{defs}check refl({lhs}) : eq({lhs}, {claim})\n")
            request = {"kind": "check", "path": str(path.relative_to(root)), "axioms": "", "expect": expect}
            out += [request] * ARITH_WEIGHTS[expect]
    rng.shuffle(out)
    return out


# deep -----------------------------------------------------------------------

# (family, size). Each class gets DEEP_VARIANTS seeded inputs (names, and
# which brackets are sums), each appearing DEEP_COPIES times. Sizes stay
# below the known limits: about 200 nested binders raise RecursionError,
# and parse time doubles per bracket.
DEEP_CLASSES = (
    ("brackets", 9),
    ("brackets", 10),
    ("brackets", 11),
    ("chain", 10),
    ("chain", 11),
    ("chain", 12),
    ("binders", 60),
    ("binders", 80),
    ("binders", 100),
)
DEEP_VARIANTS = 3
DEEP_COPIES = 4


def deep_requests(rng: random.Random) -> list[dict]:
    out = []
    for family, size in DEEP_CLASSES:
        for _ in range(DEEP_VARIANTS):
            out += [_DEEP[family](rng, size)] * DEEP_COPIES
    rng.shuffle(out)
    return out


def _brackets(rng: random.Random, depth: int) -> dict:
    """A left-nested bracket term; half are pure products.

    Checked against itself as its claimed type: a product of tau is its own
    type, while a sum has a product as its type, so any sum means Mismatch.
    """
    pure = rng.random() < 0.5
    text, has_sum = "tau", False
    for _ in range(depth):
        op = "," if pure or rng.random() < 0.5 else "+"
        has_sum = has_sum or op == "+"
        text = f"[{text}{op}tau]"
    return {"kind": "brackets", "text": text, "expect": "Mismatch" if has_sum else "ok"}


def _chain(rng: random.Random, depth: int) -> dict:
    """a0 : tau, a_i : [a_(i-1), a_(i-1)]; the norm of a_n is the complete
    binary tree of depth n."""
    stem = rng.choice("abcdeghkmnqrtu")
    names = [f"{stem}{i}" for i in range(depth + 1)]
    decls = [f"{names[0]} : tau"]
    decls += [f"{names[i]} : [{names[i - 1]},{names[i - 1]}]" for i in range(1, depth + 1)]
    text = "context Chain {\n  " + ";\n  ".join(decls) + "\n}\n"
    return {"kind": "chain", "text": text, "goal": names[-1], "depth": depth}


def _binders(rng: random.Random, depth: int) -> dict:
    """[x1:tau][x2:x1]...[xn:x(n-1)]xn, whose type ends in x(n-1)."""
    stem = rng.choice("abcdeghkmnqrtu")
    names = [f"{stem}{i}" for i in range(1, depth + 1)]
    doms = ["tau"] + names[:-1]
    text = "".join(f"[{x}:{d}]" for x, d in zip(names, doms)) + names[-1]
    return {"kind": "binders", "text": text, "depth": depth}


_DEEP = {"brackets": _brackets, "chain": _chain, "binders": _binders}
