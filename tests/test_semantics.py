"""Untyped lambda images: the stripping and encoding translations."""

import json
from pathlib import Path

import pytest

from helpers import sem_record

from dcalc.parser import parse_term
from dcalc.semantics import (
    PI,
    LApp,
    LBound,
    LVar,
    Lam,
    beta_nf,
    beta_step,
    encode,
    is_beta_normal,
    strip,
)
from dcalc.reduction import FuelExhausted
from dcalc.syntax import TAU, Bound, ExistAbs, InternalSubst, UnivAbs, Var, to_text

la, lb = LVar("a"), LVar("b")
FST = Lam(Lam(LBound(1)))
SND = Lam(Lam(LBound(0)))


def test_leaves():
    assert strip(TAU) == PI
    assert encode(TAU) == PI
    assert strip(Var("a")) == la
    assert encode(Var("a")) == la
    assert to_text(PI) == "pi^"


def test_strip_forgets_domains():
    e = parse_term("[x:tau][y:x]y")
    assert strip(e) == Lam(Lam(LBound(0)))
    assert to_text(strip(e)) == "\\x.\\y.y"
    assert strip(parse_term("[x!tau]x")) == Lam(LBound(0))
    # the modus-ponens deduction strips to an application of its premises
    mp = parse_term("[x:a;y:[a => b]](y x)")
    assert strip(mp) == Lam(Lam(LApp(LBound(0), LBound(1))))
    assert to_text(strip(mp)) == "\\x.\\y.(y x)"


def test_encode_carries_domains():
    e = parse_term("[x:tau][y:x]y")
    inner = Lam(Lam(LApp(LApp(LBound(0), LBound(1)), Lam(LBound(0)))))
    assert encode(e) == Lam(LApp(LApp(LBound(0), PI), inner))
    assert to_text(encode(e)) == "\\z.((z pi^) \\x.\\z1.((z1 x) \\y.y))"


def test_encode_application_discards_the_operator_domain():
    e = parse_term("(f a)")
    assert encode(e) == LApp(LApp(LVar("f"), SND), la)
    assert strip(e) == LApp(LVar("f"), la)


def test_pair_images():
    pair_ab = Lam(LApp(LApp(LBound(0), la), lb))
    assert strip(parse_term("[a,b]")) == pair_ab
    assert strip(parse_term("[a+b]")) == pair_ab
    assert strip(parse_term("case(a,b)")) == pair_ab
    assert strip(parse_term("<x:=a, b : x>")) == pair_ab
    assert encode(parse_term("[a,b]")) == pair_ab


def test_projection_images_and_their_reducts():
    assert strip(parse_term("a.1")) == LApp(la, FST)
    assert strip(parse_term("a.2")) == LApp(la, SND)
    assert beta_nf(strip(parse_term("[a,b].1"))) == la
    assert beta_nf(encode(parse_term("[a,b].2"))) == lb


def test_injection_images():
    assert strip(parse_term("inl(a,b)")) == Lam(Lam(LApp(LBound(1), la)))
    assert strip(parse_term("inr(b,a)")) == Lam(Lam(LApp(LBound(0), la)))
    assert encode(parse_term("inl(a,b)")) == Lam(
        Lam(LApp(LApp(LBound(1), SND), la))
    )
    # a case image applied to an injection image selects the branch
    img = LApp(strip(parse_term("case(f,g)")), strip(parse_term("inl(a,b)")))
    assert beta_nf(img) == LApp(LVar("f"), la)


def test_injections_do_not_capture_free_x_or_y():
    lx, ly = LVar("x"), LVar("y")
    assert strip(parse_term("inl(x,tau)")) == Lam(Lam(LApp(LBound(1), lx)))
    assert strip(parse_term("inr(tau,y)")) == Lam(Lam(LApp(LBound(0), ly)))
    assert encode(parse_term("inl(x,tau)")) == Lam(Lam(LApp(LApp(LBound(1), SND), lx)))
    assert encode(parse_term("inr(tau,y)")) == Lam(Lam(LApp(LApp(LBound(0), SND), ly)))
    assert to_text(strip(parse_term("inl(x,tau)"))) == "\\x1.\\y.(x1 x)"


def test_negation_vanishes():
    assert strip(parse_term("~~a")) == la
    assert encode(parse_term("~[x:tau]x")) == encode(parse_term("[x:tau]x"))


def test_untranslatable_terms():
    with pytest.raises(ValueError, match="dangling binder reference"):
        strip(Bound(0))
    with pytest.raises(ValueError, match="dangling binder reference"):
        encode(Bound(2))
    # the index is reported as it dangles outside the term's own binders;
    # encode translates an abstraction's body before its domain
    with pytest.raises(ValueError, match=r"^dangling binder reference \?b2$"):
        strip(UnivAbs(TAU, ExistAbs(TAU, Bound(4))))
    with pytest.raises(ValueError, match=r"^dangling binder reference \?b0$"):
        encode(UnivAbs(Bound(3), Bound(1)))
    with pytest.raises(ValueError, match="pending substitutions"):
        strip(InternalSubst(TAU, Bound(0)))
    with pytest.raises(ValueError, match="pending substitutions"):
        encode(InternalSubst(TAU, Bound(0)))


def test_images_are_built_from_the_lambda_names():
    # bench/worker.py tells a beta normal image by these two names
    mp = parse_term("[x:a;y:[a => b]](y x)")
    for translate in (strip, encode):
        assert type(translate(mp)) is Lam
        assert type(translate(parse_term("(f a)"))) is LApp
        assert type(beta_nf(translate(mp))) is Lam
    assert type(beta_nf(LApp(la, LApp(Lam(LBound(0)), lb)))) is LApp


def test_beta_step_is_normal_order():
    redex = LApp(Lam(LBound(0)), PI)
    assert beta_step(redex) == PI
    assert beta_step(Lam(redex)) == Lam(PI)
    assert beta_step(PI) is None
    assert beta_step(LVar("a")) is None
    # leftmost redex first, in operator position before operand
    e = LApp(LApp(Lam(LBound(0)), la), redex)
    assert beta_step(e) == LApp(la, redex)


def test_beta_step_substitutes_with_shifting():
    e = LApp(Lam(Lam(LApp(LBound(1), LBound(0)))), LVar("a"))
    assert beta_step(e) == Lam(LApp(la, LBound(0)))


def test_is_beta_normal():
    assert is_beta_normal(PI)
    assert is_beta_normal(Lam(Lam(LApp(LBound(0), LBound(1)))))
    assert not is_beta_normal(LApp(Lam(LBound(0)), PI))
    assert not is_beta_normal(Lam(LApp(Lam(LBound(0)), PI)))


def test_beta_nf_fuel():
    lw = Lam(LApp(LBound(0), LBound(0)))
    with pytest.raises(FuelExhausted):
        beta_nf(LApp(lw, lw), fuel=20)


def test_lambda_terms_print_with_fresh_names_and_dangling_references():
    assert to_text(Lam(Lam(LApp(LBound(1), LBound(0))))) == "\\x.\\x1.(x x1)"
    assert to_text(Lam(LApp(LBound(0), la), "y")) == "\\y.(y a)"
    assert to_text(LBound(0)) == "?b0"
    assert to_text(Lam(LBound(1))) == "\\x.?b0"


GOLDEN = Path(__file__).parent / "data" / "sem_golden.jsonl"


def test_oracles_regenerate_the_golden_file():
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) > 700
    changed = [
        json.loads(line)["input"]
        for line in lines
        if json.dumps(sem_record(json.loads(line)["input"])) != line
    ]
    assert changed == []
