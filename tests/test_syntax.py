"""Structural operations on the locally nameless term representation."""

import os
import random
import subprocess
import sys
import weakref
from functools import partial
from pathlib import Path

import pytest
import hypothesis as hyp
import hypothesis.strategies as st

from helpers import calls_during, doubling_chain, gen_typed_term, sample_contexts

from dcalc import syntax
from dcalc.axioms import resolve_axiom_gate
from dcalc.corpus import CORPUS_AXIOMS, corpus_text
from dcalc.norms import LEAF, Pair, norm
from dcalc.parser import parse_document, parse_term
from dcalc.reduction import neg_weight
from dcalc.semantics import encode, strip
from dcalc.syntax import (
    _map_leaves,
    _names_free_in,
    TAU,
    Appl,
    Bound,
    Case,
    Context,
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
    Var,
    binder_used,
    children,
    close_binder,
    free_vars,
    fresh_name,
    open_binder,
    plug,
    replace_child,
    shift,
    size,
    subst,
    subtree_at,
    to_text,
    walk,
)
from dcalc.typecheck import synth

_names = st.sampled_from(["a", "b", "c"])
_leaves = st.sampled_from([TAU, Var("a"), Var("b"), Var("c")])


def _univ(nm, dom, body):
    return UnivAbs(dom, close_binder(body, nm), nm)


def _exist(nm, dom, body):
    return ExistAbs(dom, close_binder(body, nm), nm)


def _protdef(nm, w, p, tag):
    return ProtDef(w, p, close_binder(tag, nm), nm)


def _substnode(nm, defn, body):
    return InternalSubst(defn, close_binder(body, nm), nm)


def _extend(inner):
    return st.one_of(
        st.builds(Neg, inner),
        st.builds(ProjL, inner),
        st.builds(ProjR, inner),
        st.builds(Appl, inner, inner),
        st.builds(Product, inner, inner),
        st.builds(Sum, inner, inner),
        st.builds(InjL, inner, inner),
        st.builds(InjR, inner, inner),
        st.builds(Case, inner, inner),
        st.builds(_univ, _names, inner, inner),
        st.builds(_exist, _names, inner, inner),
        st.builds(_substnode, _names, inner, inner),
        st.builds(_protdef, _names, inner, inner, inner),
    )


terms = st.recursive(_leaves, _extend, max_leaves=20)


def test_alpha_equality_ignores_hints():
    a = UnivAbs(TAU, Bound(0), "x")
    b = UnivAbs(TAU, Bound(0), "renamed")
    assert a == b
    assert hash(a) == hash(b)
    assert ProtDef(TAU, TAU, Bound(0), "u") == ProtDef(TAU, TAU, Bound(0), "v")


def test_alpha_equality_is_structural():
    assert UnivAbs(TAU, Bound(0)) != UnivAbs(TAU, TAU)
    assert UnivAbs(TAU, TAU) != ExistAbs(TAU, TAU)
    assert Var("a") != Var("b")


def test_children_and_scoped_components():
    pd = ProtDef(Var("a"), Var("b"), Bound(0), "x")
    assert children(pd) == (Var("a"), Var("b"), Bound(0))
    assert children(TAU) == ()
    assert children(Appl(TAU, Var("a"))) == (TAU, Var("a"))


@hyp.given(terms)
def test_replace_child_with_itself_is_identity(e):
    for i, c in enumerate(children(e)):
        assert replace_child(e, i, c) == e


def test_plug_and_subtree():
    e = Product(Neg(Var("a")), Appl(TAU, Var("b")))
    assert subtree_at(e, (0, 0)) == Var("a")
    assert plug(e, (1, 0), Var("c")) == Product(Neg(Var("a")), Appl(Var("c"), Var("b")))
    assert plug(e, (), TAU) == TAU


def test_shift_only_touches_dangling_indices():
    assert shift(Bound(0), 2) == Bound(2)
    assert shift(UnivAbs(TAU, Bound(0)), 2) == UnivAbs(TAU, Bound(0))
    assert shift(UnivAbs(TAU, Bound(1)), 2) == UnivAbs(TAU, Bound(3))
    assert shift(ProtDef(Bound(0), TAU, Bound(0)), 1) == ProtDef(Bound(1), TAU, Bound(0))
    assert shift(Var("a"), 5) == Var("a")


@hyp.given(terms)
def test_shift_up_then_down_is_identity(e):
    assert shift(shift(e, 3), -3) == e


@hyp.given(_names, terms)
def test_close_then_open_restores_the_term(x, e):
    assert open_binder(close_binder(e, x), Var(x)) == e


@hyp.given(terms)
def test_open_then_close_with_a_fresh_name(e):
    scoped = close_binder(e, "a")
    x = fresh_name("q", free_vars(scoped))
    assert close_binder(open_binder(scoped, Var(x)), x) == scoped


@hyp.given(_names, terms, terms)
def test_subst_agrees_with_open_after_close(x, e, b):
    assert subst(e, x, b) == open_binder(close_binder(e, x), b)


@hyp.given(terms)
def test_subst_of_absent_variable_is_identity(e):
    assert subst(e, "zz", TAU) == e


def test_open_shifts_the_replacement_under_binders():
    # plugging b under one more binder must bump b's dangling indices
    scoped = UnivAbs(TAU, Bound(1))
    assert open_binder(scoped, Bound(0)) == UnivAbs(TAU, Bound(1))
    # and indices past the instantiated binder step down
    assert open_binder(UnivAbs(TAU, Bound(2)), TAU) == UnivAbs(TAU, Bound(1))


def _loose_by_walk(e):
    """The loose bound from every Bound and the binders above it."""
    return max([node.index - depth + 1 for node, depth in walk(e) if type(node) is Bound] + [0])


def _loose_bits_by_walk(e):
    """The mask of the indices that dangle out of e, from every Bound and the
    binders above it."""
    dangling = {node.index - depth for node, depth in walk(e) if type(node) is Bound}
    return sum(1 << k for k in dangling if k >= 0)


def _shift_by_full_walk(e, by, depth):
    def leaf(v, d):
        return Bound(v.index + by) if type(v) is Bound and v.index >= d else v

    return _map_leaves(e, leaf, depth)


def _open_by_full_walk(scoped, repl):
    def leaf(v, d):
        if type(v) is Var or v.index < d:
            return v
        return Bound(v.index - 1) if v.index > d else _shift_by_full_walk(repl, d, 0)

    return _map_leaves(scoped, leaf, 0)


REPLACEMENTS = (TAU, Var("a"), Bound(0), Appl(Bound(2), UnivAbs(TAU, Bound(1))))


def _open_one_at_a_time(scoped, args):
    """open_binder of args by single opens, innermost binder first: each
    argument is shifted past the binders still to be opened."""
    for i, arg in enumerate(reversed(args)):
        scoped = open_binder(scoped, shift(arg, len(args) - 1 - i))
    return scoped


def _assert_bounds_set(e):
    """Every node of e carries the loose bound that a walk finds."""
    for node, _ in walk(e):
        assert node._lb == _loose_by_walk(node), to_text(node)


def _assert_skipping_walks_match(e):
    """shift, open_binder and the mask behind binder_used, on every subterm of
    e, give what full walks give; open_binder of 2 or 3 arguments gives what
    single opens give; and shift and open_binder build nodes that carry their
    loose bound."""
    for node, _ in walk(e):  # every subterm: the scoped ones have dangling indices
        assert node._lb == _loose_by_walk(node)
        assert syntax._loose_bits(node) == _loose_bits_by_walk(node)
        for by, d in ((1, 0), (2, 1), (-1, 1)):
            assert shift(node, by, d) == _shift_by_full_walk(node, by, d)
        for repl in REPLACEMENTS:
            assert open_binder(node, repl) == _open_by_full_walk(node, repl)
        for args in (REPLACEMENTS[-2:], REPLACEMENTS[-3:]):
            opened = open_binder(node, *args)
            assert opened == _open_one_at_a_time(node, args)
            _assert_bounds_set(opened)
        _assert_bounds_set(shift(node, 1))
        _assert_bounds_set(open_binder(node, REPLACEMENTS[-1]))


@pytest.mark.parametrize("depth", range(8))
def test_the_loose_bound_and_the_walks_that_skip_by_it_match_full_walks(depth):
    """shift and open_binder leave a subterm with no dangling index unwalked; the
    parser, synth, strip and encode build nodes that carry their loose bound."""
    rng = random.Random(depth)
    for _ in range(30):
        ctx = rng.choice(sample_contexts())
        e = gen_typed_term(rng, ctx, depth)
        _assert_skipping_walks_match(e)
        assert e._lb == 0
        assert shift(e, 1) is e
        for built in (parse_term(to_text(e)), synth(ctx, e), strip(e), encode(e)):
            _assert_bounds_set(built)


@pytest.mark.parametrize("name", sorted(CORPUS_AXIOMS))
def test_the_corpus_parses_into_nodes_that_carry_their_loose_bound(name):
    """Splices of defs, captured or not, and axiom indices with bound names."""
    doc = parse_document(corpus_text(name), resolve_axiom_gate(list(CORPUS_AXIOMS[name])))
    for e in (*(ty for _, ty in doc.context.entries), *doc.defs.values()):
        _assert_bounds_set(e)
    for item in doc.checks:
        _assert_bounds_set(item.term)
        _assert_bounds_set(item.ty)


@hyp.given(terms)
def test_every_node_carries_the_loose_bound_a_walk_finds(e):
    _assert_skipping_walks_match(e)


def test_free_vars():
    e = Product(Var("a"), UnivAbs(Var("b"), Bound(0)))
    assert free_vars(e) == {"a", "b"}
    assert free_vars(close_binder(e, "a")) == {"b"}
    assert free_vars(TAU) == set()


@hyp.given(_names, terms)
def test_binder_used_tracks_the_closed_name(x, e):
    assert binder_used(close_binder(e, x)) == (x in free_vars(e))


def test_size_counts_nodes():
    assert size(TAU) == 1
    assert size(Product(TAU, Neg(Var("a")))) == 4
    assert size(ProtDef(TAU, TAU, Bound(0))) == 4


def test_fresh_name_picks_the_first_unused_suffix():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x", "x1", "x2"}) == "x3"


def test_context_basics():
    ctx = Context((("a", TAU), ("b", Var("a"))))
    assert "a" in ctx and "q" not in ctx
    assert ctx.lookup("b") == Var("a")
    assert ctx.lookup("q") is None
    assert ctx.position("b") == 1
    assert ctx.prefix("b") == Context((("a", TAU),))
    # a prefix hides the declarations from its cut on
    cut = ctx.prefix("b")
    assert "b" not in cut and cut.lookup("b") is None and cut.position("b") is None
    assert cut.names() == {"a"} and len(cut) == 1 and cut.prefix("a") == Context()
    with pytest.raises(KeyError):
        cut.prefix("b")
    assert len(ctx.extend("c", TAU)) == 3
    assert ctx.names() == {"a", "b"}
    assert ctx.fresh("a") == "a1"
    assert ctx.fresh("z", {"z"}) == "z1"


def test_context_rejects_duplicates():
    with pytest.raises(ValueError):
        Context((("a", TAU), ("a", TAU)))


def test_to_text_fixed_forms():
    assert to_text(TAU) == "tau"
    assert to_text(UnivAbs(TAU, Bound(0), "x")) == "[x:tau]x"
    assert to_text(ExistAbs(TAU, Bound(0), "x")) == "[x!tau]x"
    assert to_text(Appl(Var("f"), Var("a"))) == "(f a)"
    assert to_text(Product(Var("a"), Var("b"))) == "[a,b]"
    assert to_text(Sum(Var("a"), Var("b"))) == "[a+b]"
    assert to_text(InjL(Var("a"), Var("b"))) == "inl(a,b)"
    assert to_text(InjR(Var("a"), Var("b"))) == "inr(a,b)"
    assert to_text(Case(Var("f"), Var("g"))) == "case(f,g)"
    assert to_text(Neg(Neg(Var("a")))) == "~~a"
    assert to_text(ProtDef(TAU, TAU, Neg(Bound(0)), "x")) == "<x:=tau, tau : ~x>"
    assert to_text(InternalSubst(TAU, Bound(0), "x")) == "[x:=tau]x"


def test_to_text_projection_parenthesization():
    assert to_text(ProjL(Var("a"))) == "a.1"
    assert to_text(ProjR(ProjL(Var("a")))) == "a.1.2"
    assert to_text(ProjL(Neg(Var("a")))) == "(~a).1"
    assert to_text(ProjL(UnivAbs(TAU, Bound(0)))) == "([x:tau]x).1"
    assert to_text(ProjL(Appl(Var("f"), Var("a")))) == "(f a).1"


def test_to_text_freshens_colliding_hints():
    # the hint collides with a free variable of the body, so it is renamed
    e = UnivAbs(TAU, Var("a"), "a")
    assert to_text(e) == "[a1:tau]a"
    inner = UnivAbs(TAU, Bound(1), "x")
    assert to_text(UnivAbs(TAU, inner, "x")) == "[x:tau][x1:tau]x"


def test_to_text_dangling_index():
    assert to_text(Bound(0)) == "?b0"
    assert to_text(UnivAbs(TAU, Bound(2))) == "[x:tau]?b1"


@hyp.given(terms)
@hyp.example(Appl(TAU, ProjL(Neg(TAU))))
@hyp.example(Appl(_univ("a", TAU, TAU), ProjR(ProjL(Neg(TAU)))))
def test_printing_then_parsing_restores_the_term(e):
    assert parse_term(to_text(e)) == e


def test_printing_a_binder_chain_takes_linear_work():
    """[x1:tau][x2:x1]...[xn:x(n-1)]b: a binder's name needs no walk of its scope.

    The hints differ, so each binder keeps its own, except that x1 is renamed
    where b is a free x1. Binders that all share one hint still probe x, x1,
    x2, ... in turn, so that the names stay as they were; this test does not
    cover them.
    """

    def chain(n, body):
        e = body
        for i in range(n, 0, -1):
            e = UnivAbs(TAU if i == 1 else Bound(0), e, f"x{i}")
        return e

    assert to_text(chain(3, Bound(0))) == "[x1:tau][x2:x1][x3:x2]x3"
    assert to_text(chain(3, Var("x1"))) == "[x11:tau][x2:x11][x3:x2]x1"
    for body in (Bound(0), Var("x1")):
        calls = {n: calls_during(partial(to_text, chain(n, body))) for n in (200, 400, 800)}
        assert calls[800] <= 5 * calls[200]


# One node of each class, from distinct components, so that classes of one
# arity get the same ones; binders get hint "p".
_PARTS = (TAU, Var("a"), Bound(0))
_LEAF_NODES = {syntax.Prim: TAU, Var: Var("a"), Bound: Bound(3)}


def _node(cls, hint="p"):
    if cls in _LEAF_NODES:
        return _LEAF_NODES[cls]
    parts = _PARTS[: len(syntax._COMPONENTS[cls])]
    return cls(*parts, hint) if cls in syntax._SCOPED_INDEX else cls(*parts)


def _matched(node):
    """The components a positional class pattern of node's arity binds."""
    cls = type(node)
    match len(syntax._COMPONENTS[cls]), node:
        case 1, cls(a):
            return (a,)
        case 2, cls(a, b):
            return (a, b)
        case 3, cls(a, b, c):
            return (a, b, c)
    return ()


@pytest.mark.parametrize("cls", list(syntax._COMPONENTS), ids=lambda c: c.__name__)
def test_node_contract(cls):
    """==, hash, match and weakref behave as they did on frozen dataclasses."""
    node = _node(cls)
    assert node == _node(cls, hint="q") and not node != _node(cls, hint="q")
    assert hash(node) == hash(_node(cls, hint="q"))
    fields = {Var: ("a",), Bound: (3,), syntax.Prim: ()}.get(cls, children(node))
    assert hash(node) == hash(fields)
    assert _matched(node) == children(node)
    assert weakref.ref(node)() is node
    assert node.__eq__(object()) is NotImplemented and node != object()
    for other in syntax._COMPONENTS:
        if other is not cls:
            assert node != _node(other) and not node == _node(other)


def test_positional_patterns_bind_leaf_values_and_hints():
    match UnivAbs(TAU, Bound(0), "y"), Var("a"), Bound(2):
        case UnivAbs(dom, body, hint), Var(name), Bound(index):
            assert (dom, body, hint, name, index) == (TAU, Bound(0), "y", "a", 2)
        case _:
            pytest.fail("the patterns did not match")


def test_node_reprs_are_the_dataclass_reprs():
    assert repr(UnivAbs(TAU, Bound(0), "y")) == "UnivAbs(dom=Prim(), body=Bound(index=0), hint='y')"
    assert repr(Appl(Var("f"), ProjL(Bound(1)))) == (
        "Appl(fun=Var(name='f'), arg=ProjL(e=Bound(index=1)))"
    )
    assert repr(ProtDef(TAU, Var("p"), Neg(Bound(0)))) == (
        "ProtDef(witness=Prim(), proof=Var(name='p'), tag=Neg(e=Bound(index=0)), hint='x')"
    )
    assert repr(syntax.Lam(InjR(TAU, Bound(0)), "z")) == (
        "Lam(body=InjR(ltag=Prim(), val=Bound(index=0)), hint='z')"
    )


def test_equality_and_hash_reach_the_depths_they_did():
    """At the default recursion limit, == of two binder chains built apart reaches
    depth 331 and hash of one reaches 497, as on the frozen dataclasses."""
    script = (
        "from dcalc.syntax import TAU, Bound, UnivAbs\n"
        "def chain(n):\n"
        "    e = Bound(0)\n"
        "    for _ in range(n):\n"
        "        e = UnivAbs(TAU, e)\n"
        "    return e\n"
        "assert chain(331) == chain(331)\n"
        "assert chain(331) != chain(330)\n"
        "hash(chain(497))\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(Path(syntax.__file__).parents[1])),
        capture_output=True,
        text=True,
    )
    assert (out.stdout, out.stderr) == ("ok\n", "")


def test_repr_reaches_any_depth():
    """repr keeps its own stack: chains of 2,000 pairs and of 2,000 binders
    print the text a recursive repr would."""
    n = 2_000
    pairs, binders = LEAF, TAU
    for _ in range(n):
        pairs, binders = Pair(pairs, LEAF), UnivAbs(TAU, binders, "x")
    assert repr(pairs) == "Pair(left=" * n + "Leaf()" + ", right=Leaf())" * n
    assert repr(binders) == "UnivAbs(dom=Prim(), body=" * n + "Prim()" + ", hint='x')" * n


# Each pass on d(n) of helpers.doubling_chain, which is n + 1 shared nodes
# that spell out 2^n uses of f, and what it gives.
_DOUBLING_PASSES = {
    "free_vars": (lambda doc, d: free_vars(d), lambda out, n: out == {"f"}),
    "size": (lambda doc, d: size(d), lambda out, n: out == 4 * 2**n - 3),
    "neg_weight": (lambda doc, d: neg_weight(d), lambda out, n: out == 4 * 2**n - 3),
    "binder_used": (lambda doc, d: binder_used(d), lambda out, n: out is False),
    "_names_free_in": (
        lambda doc, d: _names_free_in(d)[id(d)],
        lambda out, n: out == {"f"},
    ),
    "close_binder": (
        lambda doc, d: close_binder(d, "f"),
        lambda out, n: out.arg is out.fun.arg and out.fun.fun == Bound(0),
    ),
    "norm": (lambda doc, d: norm(doc.context, Var("q")), lambda out, n: out == LEAF),
}


def _doubling_scope(d):
    """d(n) of helpers.doubling_chain with f made Bound(2), as one node that
    is both a binder's domain and its body: there f points at the outermost
    of three removed binders, here, one binder deeper, at the middle one."""
    chain = shift(close_binder(d, "f"), 2)
    return UnivAbs(chain, chain)


def test_opening_a_doubling_chain_maps_it_once_per_depth():
    """open_binder of three arguments, like a single open, maps a shared node
    once per depth it occurs at and puts in one copy of an argument per depth."""
    _assert_skipping_walks_match(_doubling_scope(parse_document(doubling_chain(3)).defs["d3"]))
    n = 40
    scope = _doubling_scope(parse_document(doubling_chain(n)).defs[f"d{n}"])
    bound = 25 * (n + 1)
    out = []
    calls = calls_during(lambda: out.append(open_binder(scope, *REPLACEMENTS[-3:])), bound)
    assert calls <= bound
    for level, f in ((out[0].dom, Var("a")), (out[0].body, Bound(1))):
        for _ in range(n):  # d(i) = ((f d(i-1)) d(i-1)), with both d(i-1) one node
            assert level.fun.fun == f and level.fun.arg is level.arg
            level = level.arg
        assert level == TAU


@pytest.mark.parametrize("name", list(_DOUBLING_PASSES))
def test_a_pass_over_a_doubling_chain_takes_linear_work(name):
    """walk and fold visit a shared node once per depth, not once per path."""
    n = 40
    bound = 25 * (n + 1)  # some 3 to 19 calls per level
    doc = parse_document(doubling_chain(n))
    run, check = _DOUBLING_PASSES[name]
    out = []
    calls = calls_during(lambda: out.append(run(doc, doc.defs[f"d{n}"])), bound)
    assert check(out[0], n)
    assert calls <= bound
