"""Write the golden oracle file: seeded terms and what strip, encode and mu give.

Usage, from the repository root:

    PYTHONPATH=src:tests python tests/data/gen_sem_golden.py --seed 20261018 \\
        > tests/data/sem_golden.jsonl

Each output line is one JSON object made by helpers.sem_record: the input
text, its strip and encode images printed by to_text, their beta normal
forms, and the explicit-substitution trace with every rule name and printed
term. The inputs cover hand-picked terms whose binder names clash with the
names the translations introduce (z, x, y, u, v), the corpus deductions and
their claimed types, and generated typed, negation-heavy and
pending-substitution terms. Only texts that parse back to the term they were
printed from are kept. tests/test_semantics.py replays every line.
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
    sample_contexts,
    sem_record,
)

from dcalc.corpus import CORPUS_AXIOMS, corpus_text
from dcalc.parser import ParseError, parse_document, parse_term
from dcalc.syntax import to_text

# Binder names that the translations' own binders must be kept apart from.
CLASHES = [
    "[z:tau][x:z]inl(x, z)",
    "[z:[tau,tau]]z.1",
    "[z:tau][z1:tau]<w:=z, z1 : w>",
    "inl([x:tau]x, tau)",
    "[y:tau]inr(tau, y)",
    "[x:tau][y:tau]inl([u:x][v:y]u, tau)",
    "[z!tau][z:z]case([x:z]x, [y:z]y)",
    "([z:tau][z:z]z tau)",
    "[x:tau](([u:tau][v:tau]v x) x)",
    "~[z:tau][x:z][tau,z]",
    "[p,q:tau][x:p;y:[p=>q]](y x)",
    "(case([x:[tau,tau]]x.1, [y:tau]y) inl([tau,tau], tau))",
    "[x:=tau]x",
    "[y:tau][x:=y][z:x]z",
]


def inputs(seed: int):
    rng = random.Random(seed)
    yield from CLASHES
    for name in sorted(CORPUS_AXIOMS):
        doc = parse_document(corpus_text(name), GATES["all"])
        for c in doc.checks:
            yield to_text(c.term)
            yield to_text(c.ty)
    contexts = sample_contexts()
    generated = [gen_typed_term(rng, rng.choice(contexts), rng.randint(1, 5)) for _ in range(400)]
    generated += [gen_neg_heavy(rng, rng.randint(1, 5)) for _ in range(150)]
    generated += rng.sample(list(enumerate_subst_terms(4)), 150)
    for e in generated:
        text = to_text(e)
        try:
            if parse_term(text, GATES["all"]) == e:
                yield text
        except ParseError:
            pass


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    seen = set()
    for text in inputs(args.seed):
        if text not in seen:
            seen.add(text)
            print(json.dumps(sem_record(text)))


if __name__ == "__main__":
    main()
