"""Shipped proof files and the minimal-logic encoding maps."""

import random

import pytest

from dcalc.axioms import resolve_axiom_gate
from dcalc.corpus import (
    CORPUS_AXIOMS,
    FF,
    FT,
    Ax,
    FVar,
    Imp,
    alpha_map,
    beta_map,
    corpus_names,
    corpus_text,
    in_M1,
    load_corpus,
    proof_term,
    prove,
    random_formula,
)
from dcalc.parser import ParseError, parse_document, parse_term
from dcalc.reduction import reduce_nf
from dcalc.syntax import TAU, Context, Var
from dcalc.typecheck import check, check_document


def _parse(name):
    return parse_document(corpus_text(name), resolve_axiom_gate(list(CORPUS_AXIOMS[name])))


def test_corpus_inventory():
    assert corpus_names() == sorted(CORPUS_AXIOMS)
    assert len(corpus_names()) == 10
    assert "context" in corpus_text("logic")
    with pytest.raises(KeyError):
        corpus_text("nonexistent")


@pytest.mark.parametrize("name", sorted(CORPUS_AXIOMS))
def test_corpus_file_checks_clean(name):
    assert check_document(_parse(name)) == []


def test_gates_are_required():
    with pytest.raises(ParseError, match="is not enabled here"):
        parse_document(corpus_text("classical"), frozenset())
    with pytest.raises(ParseError, match="is not enabled here"):
        parse_document(corpus_text("casting"), frozenset())
    # files that use no schemes parse with everything disabled
    parse_document(corpus_text("logic"), frozenset())


def test_load_corpus():
    ctx, pairs = load_corpus("minimal")
    assert [n for n, _ in ctx.entries] == ["F", "t", "f", "I", "i", "o", "p", "q"]
    assert len(pairs) == 2
    ctx, _ = load_corpus("casting")
    assert any(n.startswith("cast_") for n, _ in ctx.entries)
    with pytest.raises(KeyError):
        load_corpus("nonexistent")


def test_check_document_prefixes_definition_and_line_errors():
    doc = parse_document(
        "context C { a : tau }\ndef bad := (a a)\ncheck tau : a\n", frozenset()
    )
    errors = check_document(doc)
    assert [e.kind for e in errors] == ["NotAFunction", "Mismatch"]
    assert errors[0].message.startswith("definition bad:")
    assert errors[1].message.startswith("line 3:")


def test_check_document_stops_at_an_invalid_context():
    doc = parse_document("context C { x : y }\ncheck tau : tau\n", frozenset())
    errors = check_document(doc)
    assert [e.kind for e in errors] == ["ContextError"]


def test_alpha_map():
    assert alpha_map(FT()) == Var("t")
    assert alpha_map(FF()) == Var("f")
    assert alpha_map(FVar("p")) == Var("p")
    assert alpha_map(Imp(FT(), FF())) == parse_term("I(t,f)")
    assert alpha_map(Imp(Imp(FT(), FF()), FT())) == parse_term("I(I(t,f),t)")


def test_beta_map_clauses():
    assert beta_map(Var("t")) == FT()
    assert beta_map(Var("f")) == FF()
    assert beta_map(Var("p")) == FVar("p")
    assert beta_map(parse_term("I(t,f)")) == Imp(FT(), FF())
    # abstractions over the formula type add nothing; others read as arrows
    assert beta_map(parse_term("[x:F]t")) == FT()
    assert beta_map(parse_term("[t => f]")) == Imp(FT(), FF())
    assert beta_map(TAU) is None
    assert beta_map(parse_term("(t f)")) is None
    assert beta_map(parse_term("[[x:tau]x => f]")) is None


def test_beta_map_inverts_alpha_map():
    rng = random.Random(31)
    for _ in range(300):
        f = random_formula(rng, rng.randint(0, 6))
        assert beta_map(alpha_map(f)) == f


def test_prove_closes_goals_against_the_last_hypothesis():
    rng = random.Random(7)
    assert prove(rng, (FT(),), FT(), 0) == Ax()
    goal = Imp(FF(), Imp(FT(), FT()))
    proof = prove(rng, (), goal, 4)
    assert proof is not None
    minimal, _ = load_corpus("minimal")
    check(minimal, proof_term(proof, (), goal, ()), alpha_map(goal))
    # an atomic goal with no matching last hypothesis is out of reach
    assert prove(rng, (), FT(), 3) is None
    assert prove(rng, (FT(), FF()), FT(), 3) is None


def test_proof_terms_check_against_the_encoded_goal():
    rng = random.Random(13)
    minimal, _ = load_corpus("minimal")
    found = 0
    for _ in range(200):
        hyps = tuple(random_formula(rng, 2) for _ in range(rng.randint(0, 2)))
        goal = random_formula(rng, rng.randint(1, 3))
        proof = prove(rng, hyps, goal, 4)
        if proof is None:
            continue
        found += 1
        names = tuple(f"h{i + 1}" for i in range(len(hyps)))
        entries = minimal.entries + tuple(
            (n, alpha_map(h)) for n, h in zip(names, hyps)
        )
        term = proof_term(proof, hyps, goal, names)
        check(Context(entries), term, alpha_map(goal))
    assert found >= 50


def test_minimal_deduction_normal_forms_fit_the_image_shape():
    doc = _parse("minimal")
    assert len(doc.checks) == 2
    for item in doc.checks:
        assert in_M1(reduce_nf(item.term))


def test_in_M1_shape_filter():
    assert in_M1(Var("i"))
    assert in_M1(Var("o"))
    assert not in_M1(Var("t"))
    assert in_M1(parse_term("i(p,q)"))
    assert not in_M1(parse_term("(i ([x:F]x t))"))
    assert not in_M1(parse_term("~~i"))
    assert not in_M1(TAU)
