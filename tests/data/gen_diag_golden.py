"""Write the golden diagnostics file: seeded terms and what synth says of them.

Usage, from the repository root:

    PYTHONPATH=src:tests python tests/data/gen_diag_golden.py --seed 20261018 \
        > tests/data/diag_golden.jsonl

Each output line is one JSON object made by helpers.diag_record: a context
name, a term in the nested-list form of helpers.term_to_json, and what synth
gives at the default fuel and at fuel 1, a printed type or "Class: message".
The inputs are hand-picked terms whose diagnostics name binders, generated
well-typed terms, their single-step reducts, and seeded ill-typed mutants of
generated and corpus terms. A mutant replaces one subterm by tau, a binder
index (in scope or dangling), an undeclared name, ~tau or an abstraction
over the subterm. Half of the mutants also give every binder one hint, so
that the names a diagnostic picks must step around each other, the declared
names and the free names. Each mutant m is also applied as (m e) to the
term e it came from. Terms are stored as trees, not texts, because a
dangling index has no surface syntax. tests/test_typecheck.py replays every
line.
"""

from __future__ import annotations

import argparse
import json
import random

from helpers import diag_contexts, diag_record, gen_typed_term, term_to_json

from dcalc.corpus import corpus_names, load_corpus
from dcalc.parser import parse_term
from dcalc.reduction import redexes
from dcalc.syntax import (
    TAU,
    Appl,
    Bound,
    Neg,
    UnivAbs,
    Var,
    children,
    plug,
    replace_child,
    scoped_index,
    shift,
)


def positions(e, path=(), depth=0):
    """Every (path, subterm, number of binders above it) in e, root first."""
    yield path, e, depth
    scoped = scoped_index(e)
    for i, c in enumerate(children(e)):
        yield from positions(c, path + (i,), depth + (i == scoped))


# Ill-typed terms whose expected or found type, or the term that runs out of
# fuel, refers to the binders the error is raised under. Each is also taken
# with every binder hint set to x, a (declared) and w (free in some scopes).
DEPENDENT = [
    "[x:tau][y:x](y x)",
    "[x:tau][y:tau][f:[z:x]tau][u:y](f u)",
    "[x:tau][y:x]((y tau) w)",
    "[x:tau][p:[x,x]]p.2.1",
    "[x:tau][y:x]case([u:x]y, [v:y]v)",
    "[x:tau][y:tau]case([u:x][w:u]w, [v:y]v)",
    "[x:tau][y:(([z:tau][u:tau]u x) tau)](y tau)",
    "[x:tau]<w:=x, x : [y:w]w>",
    "[x:tau][y:x]<w:=y, y : (w x)>",
    "[x:tau][f:[z:x]x][y:x]((f y) y)",
]


def one_hint(e, hint: str):
    """e with every binder hint set to hint."""
    for i, c in enumerate(children(e)):
        e = replace_child(e, i, one_hint(c, hint))
    return type(e)(*children(e), hint) if scoped_index(e) is not None else e


def mutants(rng: random.Random, e, count: int):
    """count seeded ill-typed variants of e, each followed by its application to e."""
    spots = list(positions(e))
    for _ in range(count):
        path, sub, depth = rng.choice(spots)
        new = rng.choice(
            [
                TAU,
                Bound(rng.randrange(depth + 2)),
                Var(rng.choice(["v", "w", "nope"])),
                Neg(TAU),
                UnivAbs(TAU, shift(sub, 1), "v"),
            ]
        )
        m = plug(e, path, new)
        if rng.random() < 0.5:
            m = one_hint(m, rng.choice(["v", "a"]))
        yield m
        yield Appl(m, e)


def inputs(seed: int):
    """(context name, term) pairs: hand-picked, generated, reduced and mutated terms."""
    rng = random.Random(seed)
    for text in DEPENDENT:
        e = parse_term(text)
        for hint in (None, "x", "a", "w"):
            yield "small", e if hint is None else one_hint(e, hint)
    for _ in range(200):
        name = rng.choice(["small", "rich"])
        e = gen_typed_term(rng, diag_contexts()[name], rng.randint(1, 4))
        yield name, e
        for _path, _rule, after in redexes(e):
            yield name, after
        for m in mutants(rng, e, 2):
            yield name, m
    for name in corpus_names():
        for term, ty in load_corpus(name)[1]:
            for e in (term, ty):
                for m in mutants(rng, e, 1):
                    yield name, m


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    seen = set()
    for name, e in inputs(args.seed):
        line = json.dumps(diag_record(name, term_to_json(e)))
        if line not in seen:
            seen.add(line)
            print(line)


if __name__ == "__main__":
    main()
