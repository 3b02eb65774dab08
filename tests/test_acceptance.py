"""Whole-package acceptance checks.

Covers corpus soundness through the CLI, metatheory properties over a
shared pool of generated terms, agreement between the two reducers, an
exhaustive small-term consistency sweep, the untyped-lambda translation
laws, and the minimal-logic adequacy experiment.  Each check prints one
tagged pass/fail line that pytest echoes in its terminal summary.
"""

from __future__ import annotations

import random
import time
from importlib import resources

from dcalc.cli import main
from dcalc.corpus import (
    CORPUS_AXIOMS,
    alpha_map,
    beta_map,
    corpus_names,
    load_corpus,
    proof_term,
    prove,
    random_formula,
)
from dcalc.explicit import Env, mu_nf, mu_redexes
from dcalc.norms import norm
from dcalc.parser import parse_term
from dcalc.reduction import (
    FuelExhausted,
    axiom_steps,
    conv,
    neg_nf,
    neg_trace,
    neg_weight,
    redexes,
    reduce_nf,
    reduce_trace,
)
from dcalc.semantics import (
    PI,
    Lam,
    LApp,
    LBound,
    beta_nf,
    beta_step,
    encode,
    strip,
)
from dcalc.syntax import (
    TAU,
    Appl,
    Case,
    Context,
    Expr,
    Product,
    children,
    plug,
    subtree_at,
    to_text,
)
from dcalc.typecheck import TypingError, check, synth

from helpers import (
    enumerate_normal_closed,
    enumerate_subst_terms,
    gen_neg_heavy,
    gen_typed_term,
    report,
    sample_contexts,
)

_pool: list[tuple[Context, Expr]] | None = None
_corpus: list[Expr] | None = None


def term_pool() -> list[tuple[Context, Expr]]:
    """1000 seeded random well-typed terms, shared by the property suites."""
    global _pool
    if _pool is None:
        rng = random.Random(20260814)
        ctxs = sample_contexts()
        _pool = []
        for _ in range(1000):
            ctx = rng.choice(ctxs)
            _pool.append((ctx, gen_typed_term(rng, ctx, rng.randint(0, 7))))
    return _pool


def corpus_items() -> list[Expr]:
    """Every deduction term and claimed type across the shipped corpus."""
    global _corpus
    if _corpus is None:
        _corpus = []
        for name in corpus_names():
            _ctx, pairs = load_corpus(name)
            for term, ty in pairs:
                _corpus.extend((term, ty))
    return _corpus


def redex_positions(e: Expr) -> list[tuple[tuple[int, ...], str]]:
    out = [((), name) for name, _ in axiom_steps(e)]
    for i, child in enumerate(children(e)):
        out.extend(((i, *path), name) for path, name in redex_positions(child))
    return out


def random_maximal(e: Expr, seed: int, cap: int = 100000) -> Expr:
    """Contract uniformly random redexes until none remain."""
    rng = random.Random(seed)
    cur = e
    for _ in range(cap):
        options = redex_positions(cur)
        if not options:
            return cur
        path, name = rng.choice(options)
        cur = plug(cur, path, dict(axiom_steps(subtree_at(cur, path)))[name])
    raise AssertionError("no normal form within the step cap")


def test_every_corpus_file_type_checks_through_the_cli(capsys):
    root = resources.files("dcalc") / "corpus"
    started = time.perf_counter()
    failing = []
    for name in corpus_names():
        argv = ["check", str(root / f"{name}.dc")]
        if CORPUS_AXIOMS[name]:
            argv += ["--axioms", ",".join(CORPUS_AXIOMS[name])]
        if main(argv) != 0:
            failing.append(name)
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    detail = f"{len(corpus_names())} files in {elapsed:.2f}s (budget 10s)"
    if failing:
        detail += f"; failing: {', '.join(failing)}"
    report("corpus-typecheck", not failing and elapsed < 10.0, detail)


def test_named_terms_synthesize_their_expected_types():
    empty = Context(())
    ident = parse_term("[x:tau]x")
    const = parse_term("[x:tau]tau")
    witness = parse_term("<x:=tau, tau : ~x>")
    exact = (
        synth(empty, TAU) == TAU
        and synth(empty, ident) == const
        and synth(empty, const) == const
        and synth(empty, witness) == parse_term("[x!tau]~x")
    )
    try:
        check(empty, witness, parse_term("~[x:tau]x"))
        negated = True
    except TypingError:
        negated = False
    try:
        synth(empty, Appl(ident, const))
        rejected = False
    except TypingError as err:
        rejected = err.kind == "DomainMismatch"
    report(
        "named-term-types",
        exact and negated and rejected,
        "alpha-exact; ill-domained application rejected",
    )


def test_every_single_step_preserves_the_type():
    steps = 0
    first_bad = None
    for ctx, e in term_pool():
        ty = synth(ctx, e)
        ty_nf = None
        for _path, name, after in redexes(e):
            steps += 1
            try:
                after_ty = synth(ctx, after)
            except TypingError:
                first_bad = first_bad or (to_text(e), name, "untypeable reduct")
                continue
            if after_ty == ty:
                continue
            if ty_nf is None:
                ty_nf = reduce_nf(ty)
            if reduce_nf(after_ty) != ty_nf:
                first_bad = first_bad or (to_text(e), name, "type changed")
    detail = f"{steps} single steps over {len(term_pool())} terms"
    if first_bad:
        detail += f"; first failure: {first_bad}"
    report("subject-reduction", first_bad is None, detail)


def test_independent_maximal_strategies_reach_the_same_normal_form():
    disagreements = 0
    for i, (_ctx, e) in enumerate(term_pool()):
        if random_maximal(e, 2 * i) != random_maximal(e, 2 * i + 1):
            disagreements += 1
    report(
        "random-confluence",
        disagreements == 0,
        f"two seeded maximal strategies on {len(term_pool())} terms",
    )


def test_generated_terms_normalize_within_fuel():
    longest = 0
    exhausted = 0
    for _ctx, e in term_pool():
        try:
            longest = max(longest, len(reduce_trace(e)))
        except FuelExhausted:
            exhausted += 1
    report(
        "strong-normalization",
        exhausted == 0,
        f"{len(term_pool())} terms, longest trace {longest} steps",
    )


def test_norms_survive_reduction_and_typing():
    after_rd = after_ty = 0
    for ctx, e in term_pool():
        expected = norm(ctx, e)
        after_rd += norm(ctx, reduce_nf(e)) != expected
        after_ty += norm(ctx, synth(ctx, e)) != expected
    n = len(term_pool())
    report("norm-after-reduction", after_rd == 0, f"{n} terms")
    report("norm-of-type", after_ty == 0, f"{n} terms")


def test_types_of_valid_terms_are_themselves_typeable():
    failures = 0
    for ctx, e in term_pool():
        try:
            synth(ctx, synth(ctx, e))
        except TypingError:
            failures += 1
    report("type-of-type", failures == 0, f"{len(term_pool())} terms")


def test_substitution_engine_agrees_with_the_plain_reducer():
    mismatches = 0
    for _ctx, e in term_pool():
        if mu_nf(Env(()), e) != reduce_nf(e):
            mismatches += 1
    report("oracle-agreement", mismatches == 0, f"{len(term_pool())} terms")


def test_nested_redex_pairs_join_within_one_step():
    # Pairs of plain steps at nested positions must join within one further
    # step each.  Aggregated negation steps and steps at disjoint positions
    # are excluded: the aggregate can hide a flattening axiom and a disjoint
    # use step can copy a definition before the other step rewrites it, so
    # both join only after two steps; their agreement at the normal form is
    # covered by the oracle tests.
    started = time.perf_counter()
    envs = [Env(()), Env((("x", Product(TAU, TAU)),))]
    terms = list(enumerate_subst_terms(6))
    pairs = 0
    unjoined = 0
    for env in envs:
        cache: dict[Expr, frozenset[Expr]] = {}

        def one_step(t, env=env, cache=cache):
            hit = cache.get(t)
            if hit is None:
                hit = frozenset(after for _p, _r, after in mu_redexes(env, t))
                cache[t] = hit
            return hit

        for e in terms:
            entries = mu_redexes(env, e)
            for i in range(len(entries)):
                p1, r1, b = entries[i]
                for j in range(i + 1, len(entries)):
                    p2, r2, c = entries[j]
                    if b == c or "nu" in (r1, r2):
                        continue
                    shorter = min(len(p1), len(p2))
                    if p1[:shorter] != p2[:shorter]:
                        continue
                    pairs += 1
                    if not (({b} | one_step(b)) & ({c} | one_step(c))):
                        unjoined += 1
    elapsed = time.perf_counter() - started
    report(
        "direct-confluence",
        unjoined == 0,
        f"{pairs} nested pairs over {len(terms)} terms of size <= 6, "
        f"{len(envs)} environments, {elapsed:.1f}s",
    )


def test_no_closed_normal_term_proves_every_proposition():
    started = time.perf_counter()
    empty = Context(())
    falsum = parse_term("[x:tau]x")
    total = typed = 0
    culprit = None
    for e in enumerate_normal_closed(8):
        total += 1
        try:
            ty = synth(empty, e)
        except TypingError:
            continue
        typed += 1
        if conv(ty, falsum):
            culprit = to_text(e)
    elapsed = time.perf_counter() - started
    detail = f"{total} closed normal terms, {typed} typed, {elapsed:.1f}s (budget 60s)"
    if culprit:
        detail += f"; inhabitant: {culprit}"
    report("consistency-sweep", culprit is None and elapsed < 60.0, detail)


def test_translation_images_join_along_corpus_traces():
    strip_ok = encode_ok = True
    consecutive = 0
    for e in corpus_items():
        chain = [e] + [after for _path, _name, after in reduce_trace(e)]
        consecutive += len(chain) - 1
        strip_nfs = [beta_nf(strip(t)) for t in chain]
        encode_nfs = [beta_nf(encode(t)) for t in chain]
        strip_ok = strip_ok and all(x == strip_nfs[0] for x in strip_nfs)
        encode_ok = encode_ok and all(x == encode_nfs[0] for x in encode_nfs)
    detail = (
        f"{consecutive} consecutive trace pairs over "
        f"{len(corpus_items())} deduction terms and types"
    )
    report("strip-trace-join", strip_ok, detail)
    report("encode-trace-join", encode_ok, detail)


def count_stuck_case_applications(e: Expr) -> int:
    stuck = 0
    match e:
        case Appl(Case(_, _), _):
            stuck = 1
    return stuck + sum(count_stuck_case_applications(c) for c in children(e))


def steps_to_beta_normal(img, cap: int = 1000) -> int:
    taken = 0
    while (nxt := beta_step(img)) is not None:
        img = nxt
        taken += 1
        if taken > cap:
            raise AssertionError("image did not normalize within the cap")
    return taken


def test_translations_of_corpus_normal_forms_are_beta_normal():
    # A case application stuck on a dead-end argument survives in a normal
    # form, but its image still carries the administrative application:
    # exactly 1 residual beta step under strip and 4 under encode per
    # occurrence.  Anything beyond that budget is a failure.
    items = residues = 0
    strip_ok = encode_ok = True
    for e in corpus_items():
        nf = reduce_nf(e)
        stuck = count_stuck_case_applications(nf)
        items += 1
        residues += stuck
        strip_ok = strip_ok and steps_to_beta_normal(strip(nf)) == stuck
        encode_ok = encode_ok and steps_to_beta_normal(encode(nf)) == 4 * stuck
    detail = (
        f"{items} normal forms; {residues} stuck case applications "
        "accounted at 1 strip / 4 encode steps each, 0 steps elsewhere"
    )
    report("strip-normal-images", strip_ok, detail)
    report("encode-normal-images", encode_ok, detail)


def test_worked_translations_reproduce_their_lambda_terms():
    ident = parse_term("[x:tau][y:x]y")
    ded = parse_term("[p:tau][q:tau][x:p][y:[z:p]q](y x)")
    enc = encode(ident)
    ok = strip(ident) == Lam(Lam(LBound(0)))
    ok = ok and to_text(strip(ident)) == "\\x.\\y.y"
    ok = ok and strip(ded) == Lam(Lam(Lam(Lam(LApp(LBound(0), LBound(1))))))
    ok = ok and to_text(strip(ded)) == "\\p.\\q.\\x.\\y.(y x)"
    ok = ok and encode(TAU) == PI
    ok = ok and enc == Lam(
        LApp(
            LApp(LBound(0), PI),
            Lam(Lam(LApp(LApp(LBound(0), LBound(1)), Lam(LBound(0))))),
        )
    )
    ok = ok and to_text(enc) == "\\z.((z pi^) \\x.\\z1.((z1 x) \\y.y))"
    ok = ok and beta_nf(encode(parse_term("<x:=tau, tau : ~x>.1"))) == PI
    report(
        "worked-translations",
        ok,
        "identity and modus ponens under both images; projected witness "
        "collapses to pi^",
    )


def test_negation_weight_strictly_decreases():
    rng = random.Random(97)
    regressions = 0
    longest = 0
    for _ in range(10000):
        e = gen_neg_heavy(rng, rng.randint(0, 6))
        weight = neg_weight(e)
        steps = neg_trace(e)
        longest = max(longest, len(steps))
        for _path, _name, after in steps:
            next_weight = neg_weight(after)
            if next_weight >= weight:
                regressions += 1
            weight = next_weight
    report(
        "neg-weight-descent",
        regressions == 0,
        f"10000 negation-heavy terms, longest trace {longest} steps",
    )


def test_negation_engine_joins_the_main_reducer():
    rng = random.Random(98)
    mismatches = 0
    for _ in range(10000):
        e = gen_neg_heavy(rng, rng.randint(0, 6))
        if reduce_nf(e) != reduce_nf(neg_nf(e)):
            mismatches += 1
    report("neg-reducer-agreement", mismatches == 0, "10000 negation-heavy terms")


def test_minimal_logic_deductions_check():
    ctx, pairs = load_corpus("minimal")
    ok = len(pairs) == 2
    try:
        for term, ty in pairs:
            check(ctx, term, ty)
    except TypingError:
        ok = False
    report("minimal-deductions", ok, f"{len(pairs)} deductions under the minimal context")


def test_random_derivations_produce_checking_proof_terms():
    rng = random.Random(2026)
    minimal, _ = load_corpus("minimal")
    found = attempts = failures = 0
    while found < 500 and attempts < 20000:
        attempts += 1
        hyps = tuple(random_formula(rng, 2) for _ in range(rng.randint(0, 2)))
        goal = random_formula(rng, rng.randint(1, 3))
        proof = prove(rng, hyps, goal, 4)
        if proof is None:
            continue
        found += 1
        names = tuple(f"h{i + 1}" for i in range(len(hyps)))
        ctx = Context(
            minimal.entries + tuple((n, alpha_map(h)) for n, h in zip(names, hyps))
        )
        try:
            check(ctx, proof_term(proof, hyps, goal, names), alpha_map(goal))
        except TypingError:
            failures += 1
    report(
        "sequent-adequacy",
        found >= 500 and failures == 0,
        f"{found} derivations from {attempts} attempts, {failures} failed checks",
    )


def test_formula_decoding_inverts_encoding():
    rng = random.Random(7)
    mismatches = 0
    for _ in range(1000):
        f = random_formula(rng, rng.randint(0, 6))
        if beta_map(alpha_map(f)) != f:
            mismatches += 1
    report("formula-roundtrip", mismatches == 0, "1000 random formulas")
