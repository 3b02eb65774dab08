"""Write the golden parse file: seeded inputs and what the parser makes of them.

Usage, from the repository root:

    PYTHONPATH=src:tests python tests/data/gen_parse_golden.py --seed 20261018 \
        > tests/data/parse_golden.jsonl

Each output line is one JSON object: the parse mode ("term" or "document"),
the axiom gate ("" or "all"), the input text, and either "ok" with the
printed result or "error" with the exception's class name. The inputs cover
the corpus files (whole, and cut after eight seeded lines), the corpus terms
reprinted, hand-picked call/application forms, nested brackets and numerals,
generated terms in several spellings, and seeded token fuzz. The file pins
the accepted language: tests/test_parser.py replays every line.
"""

from __future__ import annotations

import argparse
import json
import random

from helpers import (
    GATES,
    enumerate_subst_terms,
    gen_neg_heavy,
    gen_typed_term,
    parse_record,
    sample_contexts,
)

from dcalc.corpus import CORPUS_AXIOMS, corpus_text
from dcalc.parser import parse_document, tokenize
from dcalc.syntax import (
    Appl,
    Bound,
    Case,
    ExistAbs,
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
    free_vars,
    fresh_name,
    to_text,
)

# Hand-picked forms where a parenthesised group follows an operand: a call,
# or an application that belongs to the enclosing '(e1 e2)'.
PUSHBACK = [
    "(f (a b).1)",
    "(f (a b)(c))",
    "f (a b)",
    "[f (a b), c]",
    "(f (a b))",
    "(f (a b).1.2(c, d))",
    "(f (a b)(c d))",
    "(~f (a b))",
    "([x:tau]f (a b))",
    "([x:=tau]f (x b))",
    "(f (g (a b)))",
    "(f(a) (b c))",
    "f(a)(b, c)",
    "f (a, b c)",
    "f(a",
    "(f (a b) c)",
    "<x:=a, b : P (x y)>",
    "(s (s (s z)))",
    "inl(f (a b), c)",
    "[a => f (a b)]",
]

# A '(e1 e2)' group pushed back out of a binder body takes the scope of the
# '(e1 e2)' that accepts it, where the binder's name is a def or a scheme again.
SHADOW = [
    ("document", "", "def x := tau\ncheck ([x:=a]f (x b)) : tau\n"),
    ("document", "", "def x := tau\ncheck ([x:=a]f (x)) : tau\n"),
    ("document", "", "def x := tau\ncheck ([x:=a]f (x b).1) : tau\n"),
    ("document", "", "def x := tau\ncheck ([x:=a][y:=x]f (x y)(x)) : tau\n"),
    ("document", "", "def x := tau\ncheck (~[x:=a]f (x b)) : [x:=a]x\n"),
    ("document", "", "def x := tau\ncheck <x:=a, b : ([x:=x]f (x x))> : tau\n"),
    ("term", "all", "([cast:=a]f (cast{a} b))"),
    ("term", "all", "([cast:=a]f (b cast{a}))"),
    ("term", "all", "([cast:=a][castin:=b]f (cast{a} castin{b}))"),
    ("term", "all", "([cast:=a]f (cast{a} b)(cast{b}))"),
    ("term", "all", "[cast:=a]f (cast)"),
]

FUZZ_TOKENS = (
    "[ ] ( ) , ; : ! := => + ~ . 1 2 a b f x tau inl case < > { } cast".split()
)


def call_text(e, env: list[str], rng: random.Random) -> str:
    """Print e as to_text does, but spell some applications f(a) or f(a,b)."""

    def go(e, env: list[str]) -> str:
        match e:
            case Appl(fun, arg) if _callable(fun) and rng.random() < 0.5:
                args = [arg]
                while isinstance(fun, Appl) and _callable(fun.fun) and rng.random() < 0.5:
                    args.insert(0, fun.arg)
                    fun = fun.fun
                return f"{go(fun, env)}({','.join(go(a, env) for a in args)})"
            case Appl(fun, arg):
                return f"({go(fun, env)} {go(arg, env)})"
            case UnivAbs(a, body, hint) | ExistAbs(a, body, hint) | InternalSubst(a, body, hint):
                x = fresh_name(hint, set(env) | free_vars(body))
                flag = {UnivAbs: ":", ExistAbs: "!", InternalSubst: ":="}[type(e)]
                return f"[{x}{flag}{go(a, env)}]{go(body, [x] + env)}"
            case ProtDef(witness, proof, tag, hint):
                x = fresh_name(hint, set(env) | free_vars(tag))
                return f"<{x}:={go(witness, env)}, {go(proof, env)} : {go(tag, [x] + env)}>"
            case ProjL(inner) | ProjR(inner):
                s = go(inner, env)
                s = s if _callable(inner) else f"({s})"
                return f"{s}.1" if isinstance(e, ProjL) else f"{s}.2"
            case Product(l, r):
                return f"[{go(l, env)},{go(r, env)}]"
            case Sum(l, r):
                return f"[{go(l, env)}+{go(r, env)}]"
            case InjL(a, b) | InjR(a, b) | Case(a, b):
                word = {InjL: "inl", InjR: "inr", Case: "case"}[type(e)]
                return f"{word}({go(a, env)},{go(b, env)})"
            case Neg(inner):
                return f"~{go(inner, env)}"
            case Bound(i) if i < len(env):
                return env[i]
        return to_text(e)

    return go(e, env)


def _callable(e) -> bool:
    """Can e take a call or projection suffix without parentheses?"""
    return not isinstance(e, (UnivAbs, ExistAbs, Neg, InternalSubst))


def spellings(text: str, rng: random.Random) -> list[str]:
    """The same tokens spaced out, squeezed, and split over lines with comments."""
    toks = [t.text for t in tokenize(text)[:-1]]
    spaced = " ".join(toks)
    parts = [toks[0]]
    for prev, tok in zip(toks, toks[1:]):
        gap = rng.choice(["", "", " ", "\n  ", " -- note\n"])
        trial = [t.text for t in tokenize(prev + gap + tok)[:-1]] if gap == "" else None
        parts.append((gap if trial in (None, [prev, tok]) else " ") + tok)
    return [spaced, "".join(parts)]


def mutate(text: str, rng: random.Random) -> str:
    toks = [t.text for t in tokenize(text)[:-1]]
    i = rng.randrange(len(toks))
    match rng.randrange(3):
        case 0:
            del toks[i]
        case 1:
            toks.insert(i, rng.choice(FUZZ_TOKENS))
        case _:
            j = rng.randrange(len(toks))
            toks[i], toks[j] = toks[j], toks[i]
    return " ".join(toks)


def inputs(seed: int):
    rng = random.Random(seed)
    for name in sorted(CORPUS_AXIOMS):
        gate = "all" if CORPUS_AXIOMS[name] else ""
        text = corpus_text(name)
        yield "document", gate, text
        lines = text.splitlines(keepends=True)
        for k in sorted(rng.sample(range(1, len(lines)), 8)):
            yield "document", gate, "".join(lines[:k])
        doc = parse_document(text, GATES["all"])
        for c in doc.checks:
            yield "term", "all", to_text(c.term)
            yield "term", "all", call_text(c.term, [], rng)
    for text in PUSHBACK:
        yield "term", "", text
    yield from SHADOW
    for depth in range(1, 12):
        for op in ",+":
            text = "tau"
            for _ in range(depth):
                text = f"[{text}{op}tau]"
            yield "term", "", text
    for depth in (1, 2, 3, 5, 10, 30, 100):
        yield "term", "", "(s " * depth + "z" + ")" * depth
        yield "term", "", "".join(f"[x{i}:tau]" for i in range(depth)) + "x0"
    contexts = sample_contexts()
    generated = []
    for _ in range(600):
        ctx = rng.choice(contexts)
        generated.append(gen_typed_term(rng, ctx, rng.randint(1, 4)))
    for _ in range(150):
        generated.append(gen_neg_heavy(rng, rng.randint(1, 4)))
    subst_terms = list(enumerate_subst_terms(4))
    generated += rng.sample(subst_terms, 150)
    for e in generated:
        text = to_text(e)
        yield "term", "", text
        yield "term", "", rng.choice(spellings(text, rng))
        yield "term", "", call_text(e, [], rng)
    for e in rng.sample(generated, 600):
        yield "term", rng.choice(["", "all"]), mutate(to_text(e), rng)
    for _ in range(500):
        toks = rng.choices(FUZZ_TOKENS, k=rng.randint(1, 12))
        yield "term", rng.choice(["", "all"]), " ".join(toks)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    seen = set()
    for mode, gate, text in inputs(args.seed):
        if (mode, gate, text) in seen:
            continue
        seen.add((mode, gate, text))
        print(json.dumps(parse_record(mode, gate, text)))


if __name__ == "__main__":
    main()
