"""Environments, pending substitutions, and the internalized reducer."""

import random
from collections import Counter
from functools import partial

import pytest

from helpers import calls_during, doubling_chain, gen_typed_term, sample_contexts
from dcalc import explicit, reduction
from dcalc.explicit import (
    Env,
    def_eval_nf,
    def_eval_step,
    def_eval_trace,
    def_weight,
    mu_axiom_steps,
    mu_nf,
    mu_redexes,
    mu_step,
    mu_trace,
)
from dcalc.parser import parse_document, parse_term
from dcalc.reduction import FuelExhausted, reduce_nf
from dcalc.syntax import TAU, Bound, Context, InternalSubst, Neg, Product, UnivAbs, Var, pending_path

a, b = Var("a"), Var("b")


def test_env_basics():
    assert Env is Context
    env = Env((("x", TAU), ("y", a)))
    assert "x" in env and "z" not in env
    assert env.lookup("y") == a
    assert env.lookup("z") is None
    assert env.extend("z", b).lookup("z") == b
    with pytest.raises(ValueError):
        Env((("x", TAU), ("x", a)))
    with pytest.raises(ValueError):
        env.extend("y", b)


def test_beta_rules_suspend_the_substitution():
    steps = mu_axiom_steps(Env(), parse_term("([x:tau]x a)"))
    assert steps == [("beta1_mu", parse_term("[x:=a]x"))]
    steps = mu_axiom_steps(Env(), parse_term("([x!tau]x a)"))
    assert steps == [("beta2_mu", parse_term("[x:=a]x"))]


def test_use_and_rem_axioms():
    env = Env((("x", TAU),))
    assert mu_axiom_steps(env, Var("x")) == [("use", TAU)]
    assert mu_axiom_steps(env, Var("y")) == []
    # rem fires only once the body no longer mentions the binder
    assert mu_axiom_steps(Env(), InternalSubst(a, TAU)) == [("rem", TAU)]
    assert mu_axiom_steps(Env(), parse_term("[x:=a]x")) == []


def test_projection_and_negation_axioms_carry_over():
    assert mu_axiom_steps(Env(), parse_term("[a,b].1")) == [("pi3", a)]
    assert mu_axiom_steps(Env(), parse_term("~tau")) == [("nu6", TAU)]
    pd = parse_term("<x:=a, b : x>")
    assert mu_axiom_steps(Env(), parse_term("~<x:=a, b : x>")) == [("nu7", pd)]


def test_substitution_resolves_through_the_environment():
    e = parse_term("[x:=tau]x")
    steps = mu_trace(Env(), e)
    assert steps == [("use", parse_term("[x:=tau]tau")), ("rem", TAU)]
    assert mu_nf(Env(), e) == TAU


def test_beta_then_use_then_rem():
    e = parse_term("([x:tau]x a)")
    steps = mu_trace(Env(), e)
    assert [name for name, _ in steps] == ["beta1_mu", "use", "rem"]
    assert steps[0][1] == parse_term("[x:=a]x")
    assert steps[-1][1] == a


def test_negation_steps_are_aggregated():
    e = parse_term("~~[a,b]")
    entries = mu_redexes(Env(), e)
    assert all(rule == "nu" for _, rule, _ in entries)
    at_root = {res for path, _, res in entries if path == ()}
    # one entry per nonempty chain of negation steps from the root
    assert Product(a, b) in at_root
    assert parse_term("~[~a+~b]") in at_root
    # a nonempty chain of negation steps is a single aggregated step
    assert mu_step(Env(), parse_term("~~~~a")) == ("nu", a)


def _negations_beside_redexes(pairings: int):
    """[L, R]: L is ~a paired with itself pairings times, with no negation step;
    R is twenty nested ([x:tau]x ...) around tau, some sixty mu steps."""
    left = "~a"
    for _ in range(pairings):
        left = f"[{left}, {left}]"
    return parse_term(f"[{left}, {'([x:tau]x ' * 20}tau{')' * 20}]")


def test_the_negation_probe_does_not_rescan_a_normal_term(monkeypatch):
    """Each of R's steps probes the root for a negation step. L keeps its
    negation normal form on its nodes, so a probe does not walk L again. R's
    steps leave L, to their left, as it is, so mu_nf tests L's nodes for a
    rule once, where a search from the root per step tests them once per step."""
    counts = {}
    for pairings in (6, 8):  # L has 191 and 767 nodes
        e = _negations_beside_redexes(pairings)
        expected = reduce_nf(e)
        calls = Counter()
        for module, name in ((reduction, "_neg_positions"), (explicit, "_mu_rule")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, partial(_counted, calls, name, fn))
        assert mu_nf(Env(), e) == expected
        counts[pairings] = calls
        monkeypatch.undo()
    for name in ("_neg_positions", "_mu_rule"):
        assert counts[8][name] - counts[6][name] <= 2 * (767 - 191), name


def _counted(calls, name, fn, *args):
    calls[name] += 1
    return fn(*args)


@pytest.mark.parametrize("run", [mu_nf, def_eval_nf], ids=["mu_nf", "def_eval_nf"])
def test_a_doubling_chain_normalizes_in_linear_work(run):
    """d(n) of helpers.doubling_chain is n + 1 shared nodes, normal, that spell
    out 2^n uses of f: the walk finishes each closed node once, not once per
    path to it."""
    n = 40
    bound = 25 * (n + 1)  # some 10 to 13 calls per level
    d = parse_document(doubling_chain(n)).defs[f"d{n}"]
    out = []
    calls = calls_during(lambda: out.append(run(Env(), d)), bound)
    assert out[0] is d
    assert calls <= bound


def test_mu_step_prefers_root_axioms_then_negation_then_children():
    env = Env((("x", TAU),))
    e = Product(Var("x"), parse_term("~~tau"))
    assert mu_trace(env, e) == [
        ("nu", Product(Var("x"), TAU)),
        ("use", Product(TAU, TAU)),
    ]


def test_mu_nf_agrees_with_the_plain_reducer():
    for text in (
        "(case([x:a]x,[y:b]y) inl(~~a,b))",
        "~[x:tau]x",
        "([p:tau][q:p]q a)",
        "<x:=[a,b].1, b : x>.2",
    ):
        e = parse_term(text)
        assert mu_nf(Env(), e) == reduce_nf(e)


def test_mu_nf_leaves_indices_dangling_past_the_root_alone():
    e = UnivAbs(TAU, Product(Bound(1), parse_term("([y:tau]y tau)")))
    assert mu_nf(Env(), e) == reduce_nf(e) == UnivAbs(TAU, Product(Bound(1), TAU))


def test_a_node_shared_under_different_binders_is_walked_under_each():
    """c's index is the universal binder's at its first occurrence and the
    pending substitution's at its second, where it unfolds: the walk skips
    only closed nodes that it finished as normal."""
    c = Neg(Bound(0))
    e = InternalSubst(a, Product(UnivAbs(TAU, c), c))
    expected = Product(UnivAbs(TAU, c), Neg(a))
    assert mu_trace(Env(), e)[-1][1] == mu_nf(Env(), e) == expected
    assert def_eval_trace(Env(), e)[-1] == def_eval_nf(Env(), e) == expected


def test_mu_nf_agrees_on_generated_terms():
    rng = random.Random(17)
    ctxs = sample_contexts()
    for _ in range(120):
        e = gen_typed_term(rng, rng.choice(ctxs), rng.randint(0, 4))
        assert mu_nf(Env(), e) == reduce_nf(e)


def test_mu_fuel_exhaustion():
    loop = parse_term("([x:tau](x x) [x:tau](x x))")
    with pytest.raises(FuelExhausted):
        mu_nf(Env(), loop, fuel=30)
    with pytest.raises(FuelExhausted):
        mu_trace(Env(), loop, fuel=30)


def test_def_eval_ignores_computation_rules():
    assert def_eval_step(Env(), parse_term("([x:tau]x a)")) is None
    assert def_eval_step(Env(), parse_term("~~a")) is None
    assert def_eval_step(Env((("x", TAU),)), Var("x")) == TAU


def test_def_eval_eliminates_pending_substitutions():
    e = InternalSubst(a, Product(Bound(0), Bound(0)))
    out = def_eval_nf(Env(), e)
    assert out == Product(a, a)
    assert pending_path(out) is None
    assert pending_path(def_eval_nf(Env(), parse_term("[x:=tau][y:=x][z:y]z"))) is None


def test_def_eval_weight_strictly_decreases():
    env = Env((("u", Product(TAU, TAU)),))
    for text in ("[x:=u][y:=x][x,y]", "[x:=tau]<y:=x, x : tau>", "(u [x:=u]x)"):
        e = parse_term(text)
        w = def_weight(env, e)
        for after in def_eval_trace(env, e):
            w2 = def_weight(env, after)
            assert w2 < w
            w = w2
