"""Rewrite axioms, strategies, normal-form classification, and negation."""

import gc
import random
import sys
import weakref

import pytest

from helpers import (
    WorkBoundExceeded,
    count_fire,
    gen_neg_heavy,
    gen_typed_term,
    sample_contexts,
)
from dcalc import syntax
from dcalc.parser import parse_document, parse_term
from dcalc.reduction import (
    FuelExhausted,
    NormalClass,
    axiom_steps,
    classify_nf,
    conv,
    first_redex,
    neg_nf,
    neg_redexes,
    neg_step,
    neg_trace,
    neg_weight,
    redexes,
    reduce_nf,
    reduce_trace,
    render_trace,
)
from dcalc.syntax import (
    TAU,
    Appl,
    Bound,
    Case,
    InjL,
    InjR,
    Neg,
    Product,
    ProjL,
    ProtDef,
    Sum,
    UnivAbs,
    Var,
    _rebuild,
    children,
    walk,
)

a, b = Var("a"), Var("b")


def test_beta_axioms():
    assert axiom_steps(parse_term("([x:tau]x a)")) == [("beta1", a)]
    assert axiom_steps(parse_term("([x!tau]x a)")) == [("beta2", a)]
    e = parse_term("(case(f,g) inl(a,t))")
    assert axiom_steps(e) == [("beta3", Appl(Var("f"), a))]
    e = parse_term("(case(f,g) inr(t,a))")
    assert axiom_steps(e) == [("beta4", Appl(Var("g"), a))]


def test_beta_instantiates_the_bound_variable():
    e = parse_term("([x:tau][y:x]x a)")
    assert reduce_nf(e) == parse_term("[y:a]a")
    # the replacement is shifted under inner binders
    f = UnivAbs(TAU, UnivAbs(TAU, Bound(1)))
    assert axiom_steps(Appl(f, a))[0][1] == UnivAbs(TAU, a)


def test_pi_axioms():
    assert axiom_steps(parse_term("<x:=a, b : x>.1")) == [("pi1", a)]
    assert axiom_steps(parse_term("<x:=a, b : x>.2")) == [("pi2", b)]
    assert axiom_steps(parse_term("[a,b].1")) == [("pi3", a)]
    assert axiom_steps(parse_term("[a,b].2")) == [("pi4", b)]
    assert axiom_steps(parse_term("[a+b].1")) == [("pi5", a)]
    assert axiom_steps(parse_term("[a+b].2")) == [("pi6", b)]


def test_nu_axioms():
    assert axiom_steps(parse_term("~~a")) == [("nu1", a)]
    assert axiom_steps(parse_term("~[a,b]")) == [("nu2", Sum(Neg(a), Neg(b)))]
    assert axiom_steps(parse_term("~[a+b]")) == [("nu3", Product(Neg(a), Neg(b)))]
    assert axiom_steps(parse_term("~[x:a]b")) == [("nu4", parse_term("[x!a]~b"))]
    assert axiom_steps(parse_term("~[x!a]b")) == [("nu5", parse_term("[x:a]~b"))]
    assert axiom_steps(parse_term("~tau")) == [("nu6", TAU)]
    pd = parse_term("<x:=a, b : x>")
    assert axiom_steps(Neg(pd)) == [("nu7", pd)]
    assert axiom_steps(parse_term("~inl(a,b)")) == [("nu8", InjL(a, b))]
    assert axiom_steps(parse_term("~inr(a,b)")) == [("nu9", InjR(a, b))]
    assert axiom_steps(parse_term("~case(a,b)")) == [("nu10", Case(a, b))]


def test_non_redex_roots_have_no_axiom_steps():
    for text in ("tau", "a", "[x:tau]x", "[a,b]", "(a b)", "a.1", "~a"):
        assert axiom_steps(parse_term(text)) == []


def test_first_redex_is_leftmost_outermost():
    e = parse_term("~~~~a")
    path, name, result = first_redex(e)
    assert (path, name) == ((), "nu1")
    assert result == parse_term("~~a")
    e = Product(parse_term("~~a"), parse_term("~~b"))
    path, name, _ = first_redex(e)
    assert path == (0,)
    assert first_redex(a) is None


def test_redexes_lists_whole_terms_in_strategy_order():
    e = Appl(UnivAbs(TAU, Bound(0)), parse_term("~~a"))
    steps = redexes(e)
    assert [(p, n) for p, n, _ in steps] == [((), "beta1"), ((1,), "nu1")]
    assert steps[0][2] == parse_term("~~a")
    assert steps[1][2] == Appl(UnivAbs(TAU, Bound(0)), a)


def test_reduce_trace_records_each_step():
    e = parse_term("(case([x:a]x,[y:b]y) inl(~~a,b))")
    steps = reduce_trace(e)
    assert [(p, n) for p, n, _ in steps] == [
        ((), "beta3"),
        ((), "beta1"),
        ((), "nu1"),
    ]
    assert steps[-1][2] == a
    assert reduce_trace(a) == []


def test_render_trace():
    text = render_trace(reduce_trace(parse_term("[~~a,b].1")))
    assert text.splitlines() == ["pi3 @ root : ~~a", "nu1 @ root : a"]


def test_reduce_nf_and_spec_displays():
    assert reduce_nf(parse_term("~[x:tau]x")) == parse_term("[x!tau]~x")
    assert reduce_nf(parse_term("([x:tau]x tau)")) == TAU
    assert reduce_nf(a) == a


def test_fuel_exhaustion():
    loop = parse_term("([x:tau](x x) [x:tau](x x))")
    with pytest.raises(FuelExhausted) as err:
        reduce_nf(loop, fuel=25)
    assert "within 25 steps" in str(err.value)
    with pytest.raises(FuelExhausted):
        reduce_trace(loop, fuel=25)


def _sharing(e):
    """Terms that share e: where the parent reads e's root, and where it does not."""
    self_apply = UnivAbs(TAU, Appl(Bound(0), Bound(0)))
    branch = UnivAbs(TAU, Bound(0))
    return [
        Appl(Case(branch, branch), e),
        Appl(e, e),
        ProjL(Product(e, e)),
        Neg(Product(e, Neg(e))),
        Appl(self_apply, e),
        Product(e, e),
    ]


def test_a_warm_memo_still_takes_the_steps_of_the_trace():
    """Nodes that hold their components' normal forms charge their steps, so
    fuel=N raises exactly when the trace takes more than N steps."""
    rng = random.Random(14)
    ctxs = sample_contexts()
    reused = 0
    for _ in range(120):
        e = gen_typed_term(rng, rng.choice(ctxs), rng.randint(1, 4))
        for t in _sharing(e):
            try:
                trace = reduce_trace(t, fuel=500)
            except FuelExhausted:
                continue
            steps, nf = len(trace), trace[-1][2] if trace else t
            for sub, _ in walk(t):
                if sub is not t:
                    reduce_nf(sub)
            reused += any(type(getattr(sub, "_reduce_nf", None)) is tuple for sub, _ in walk(t))
            for fuel in range(max(steps - 1, 0), steps + 2):
                # a fresh root over the warm components, then t, which keeps
                # its own entry once a fuel reaches its normal form
                for root in (_rebuild(t, children(t)), t):
                    try:
                        got = reduce_nf(root, fuel)
                    except FuelExhausted as err:
                        assert err.expr is root and fuel < steps
                    else:
                        assert fuel >= steps and got == nf
    assert reused > 200


def test_a_normalized_node_is_not_walked_again(monkeypatch):
    t = parse_term("[x:tau]((([f:[a=>a]]f g) ([y:a]y c)) [u,v])")
    steps = len(reduce_trace(t))
    nf = reduce_nf(t)
    counts = count_fire(monkeypatch)
    assert reduce_nf(t) is nf
    assert counts["visits"] == 0
    # a new root over the normalized body fires nothing at the body
    fresh = _rebuild(t, children(t))
    with pytest.raises(FuelExhausted):
        reduce_nf(fresh, steps - 1)
    assert reduce_nf(fresh, steps).body is nf.body
    assert counts["visits"] == 2  # the root's, once per call


def test_normalizing_leaves_no_reference_cycle():
    """A term, its subterms and its normal form die with their last reference."""
    gc.disable()
    try:
        t = parse_term("[x:tau]((([f:[a=>a]]f g) ([y:a]y c)) [u,v])")
        sub = t.body.fun
        nf = reduce_nf(t)
        refs = [weakref.ref(x) for x in (t, sub, nf)]
        del t, sub, nf
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_conv():
    assert conv(parse_term("[x:~[a+b]][~a,~b]"), parse_term("[x:[~a,~b]]~[a+b]"))
    assert conv(a, a)
    assert not conv(TAU, parse_term("[x:tau]x"))


def test_classify_nf():
    assert classify_nf(parse_term("x.1")) is NormalClass.DEAD_END
    assert classify_nf(parse_term("<x:=tau, tau : ~x>")) is NormalClass.NORMAL_FORM
    assert classify_nf(parse_term("~~x")) is NormalClass.REDUCIBLE
    assert classify_nf(TAU) is NormalClass.NORMAL_FORM
    assert classify_nf(parse_term("[x:tau](x tau)")) is NormalClass.NORMAL_FORM
    assert classify_nf(parse_term("(x a)")) is NormalClass.DEAD_END
    assert classify_nf(parse_term("~(x a)")) is NormalClass.DEAD_END
    assert classify_nf(parse_term("(case(f,g) x)")) is NormalClass.DEAD_END
    assert classify_nf(parse_term("(case(f,g) inl(a,b))")) is NormalClass.REDUCIBLE
    # stuck, but on no variable: no rule fires, so these are normal forms
    for text in ["(tau x)", "([a,b] x)", "inl(a,b).1", "(inl(a,b) c)", "<w:=a, b : c>(d)"]:
        assert classify_nf(parse_term(text)) is NormalClass.NORMAL_FORM


def test_classification_matches_redex_search_on_generated_terms():
    rng = random.Random(11)
    ctxs = sample_contexts()
    for _ in range(150):
        e = gen_typed_term(rng, rng.choice(ctxs), rng.randint(0, 5))
        assert (classify_nf(e) is not NormalClass.REDUCIBLE) == (redexes(e) == [])


def test_negation_axioms_stop_at_inert_constructors():
    # the negation engine knows nu1..nu5 only
    assert neg_step(parse_term("~tau")) is None
    assert neg_step(parse_term("~inl(a,b)")) is None
    assert neg_step(parse_term("~~a")) == ((), "nu1", a)


def test_negation_congruence_positions():
    # no descent into applications
    assert neg_redexes(parse_term("(~~a b)")) == []
    # no descent into abstraction domains, only bodies
    assert neg_redexes(parse_term("[x:~~a]x")) == []
    steps = neg_redexes(parse_term("[x:a]~~x"))
    assert [(p, n) for p, n, _ in steps] == [((1,), "nu1")]
    # products, sums, and negations are traversed
    e = Product(parse_term("~~a"), Sum(parse_term("~~b"), parse_term("~~~a")))
    assert len(neg_redexes(e)) == 4  # the last also reduces under its own Neg


def test_neg_nf_examples():
    assert neg_nf(parse_term("~~a")) == a
    assert neg_nf(parse_term("~[a,b]")) == parse_term("[~a+~b]")
    assert neg_nf(parse_term("~[x:a][b,c]")) == parse_term("[x!a][~b+~c]")
    assert neg_nf(parse_term("~tau")) == parse_term("~tau")


def test_neg_weight_decreases_along_neg_traces():
    rng = random.Random(5)
    for _ in range(200):
        e = gen_neg_heavy(rng, rng.randint(0, 6))
        w = neg_weight(e)
        for _, _, after in neg_trace(e):
            w2 = neg_weight(after)
            assert w2 < w
            w = w2


def test_neg_nf_joins_the_full_reducer():
    rng = random.Random(6)
    for _ in range(200):
        e = gen_neg_heavy(rng, rng.randint(0, 6))
        assert reduce_nf(e) == reduce_nf(neg_nf(e))


def test_a_shared_body_with_a_dangling_index_is_opened_in_linear_work():
    """([z:tau]d(n) tau), def d0 := z, def d(i) := [d(i-1), d(i-1)]: the body
    spells out 2^n uses of z over n + 1 shared nodes, and the beta step maps
    each node once, not once per path to it."""
    n = 40
    doc = parse_document(
        "def d0 := z\n"
        + "".join(f"def d{i} := [d{i - 1}, d{i - 1}]\n" for i in range(1, n + 1))
        + f"check ([z:tau]d{n} tau) : tau\n"
    )
    bound = 20 * (n + 1)  # some 10 calls into syntax per level
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == syntax.__file__:
            calls += 1
            if calls > bound:
                raise WorkBoundExceeded  # a walk of the 2^n paths stops here

    sys.setprofile(count)
    try:
        e = reduce_nf(doc.checks[0].term)
    finally:
        sys.setprofile(None)
    assert calls <= bound
    for _ in range(n):
        assert e.l is e.r
        e = e.l
    assert e == TAU
