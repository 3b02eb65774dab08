"""Norm assignment: the binary-tree measure that reduction preserves."""

import random
import sys

from helpers import (
    WorkBoundExceeded,
    calls_during,
    doubling_chain,
    gen_typed_term,
    sample_contexts,
)
from dcalc import norms
from dcalc.norms import LEAF, Leaf, Pair, norm, norm_to_text, normable
from dcalc.parser import parse_document, parse_term
from dcalc.reduction import reduce_nf
from dcalc.syntax import TAU, Appl, Bound, Context, InternalSubst, Product, UnivAbs, Var
from dcalc.typecheck import synth

a = Var("a")
EMPTY = Context()
CTX = Context((("a", TAU), ("b", TAU), ("x", a), ("f", parse_term("[z:a]a"))))


def test_leaf_cases():
    assert norm(EMPTY, TAU) == LEAF
    assert norm_to_text(LEAF) == "*"


def test_variables_take_the_norm_of_their_declared_type():
    assert norm(CTX, a) == LEAF
    assert norm(CTX, Var("x")) == LEAF
    assert norm(CTX, Var("f")) == Pair(LEAF, LEAF)
    assert norm(EMPTY, a) is None


def test_variable_lookup_uses_only_the_preceding_context():
    # x is declared before a, so its type may not refer forward to a
    ctx = Context((("x", a), ("a", TAU)))
    assert norm(ctx, Var("x")) is None
    assert norm(ctx, a) == LEAF
    # so one node in two declarations' types may have a norm in only one
    shared = Product(a, TAU)
    ctx = Context((("x", shared), ("a", TAU), ("y", shared)))
    assert norm(ctx, Var("y")) == Pair(LEAF, LEAF)
    assert norm(ctx, Product(Var("y"), Var("x"))) is None


def test_abstraction_norms():
    assert norm(EMPTY, parse_term("[x:tau]x")) == Pair(LEAF, LEAF)
    assert norm_to_text(norm(EMPTY, parse_term("[x:tau]x"))) == "[*,*]"
    assert norm(EMPTY, parse_term("[x!tau][y:x]y")) == Pair(LEAF, Pair(LEAF, LEAF))
    assert norm(CTX, parse_term("[z:f]z")) == Pair(Pair(LEAF, LEAF), Pair(LEAF, LEAF))
    # one node with a loose index, under two binders, takes each binder's norm
    body, pair = Product(Bound(0), Bound(0)), Pair(LEAF, LEAF)
    e = Product(UnivAbs(TAU, body), UnivAbs(Product(TAU, TAU), body))
    assert norm(EMPTY, e) == Pair(Pair(LEAF, pair), Pair(pair, Pair(pair, pair)))


def test_application_consumes_the_domain_norm():
    assert norm(CTX, parse_term("(f x)")) == LEAF
    assert norm(CTX, parse_term("(f f)")) is None
    assert norm(EMPTY, Appl(TAU, TAU)) is None
    # norms see through typing: ill-typed but well-shaped applications pass
    assert norm(CTX, parse_term("(f tau)")) == LEAF


def test_protected_definition_requires_matching_tag_norm():
    assert norm(CTX, parse_term("<y:=x, x : y>")) == Pair(LEAF, LEAF)
    assert norm(CTX, parse_term("<y:=x, x : f>")) is None
    assert norm(CTX, parse_term("<y:=x, f : y>")) is None


def test_projections_select_a_component():
    assert norm(CTX, parse_term("f.1")) == LEAF
    assert norm(CTX, parse_term("f.2")) == LEAF
    assert norm(CTX, parse_term("x.1")) is None
    assert norm(CTX, parse_term("[a,f].2")) == Pair(LEAF, LEAF)


def test_pairs_sums_and_injections():
    assert norm(CTX, parse_term("[a,b]")) == Pair(LEAF, LEAF)
    assert norm(CTX, parse_term("[a+f]")) == Pair(LEAF, Pair(LEAF, LEAF))
    assert norm(CTX, parse_term("inl(a,b)")) == Pair(LEAF, LEAF)
    assert norm(CTX, parse_term("inr(f,x)")) == Pair(Pair(LEAF, LEAF), LEAF)


def test_case_pairs_the_domains_and_shares_the_codomain():
    e = parse_term("case([x:a]x, [y:f]a)")
    assert norm(CTX, e) == Pair(Pair(LEAF, Pair(LEAF, LEAF)), LEAF)
    # branch codomains must agree
    assert norm(CTX, parse_term("case([x:a]x, [y:a]f)")) is None
    assert norm(CTX, parse_term("case(a, [y:a]y)")) is None


def test_negation_is_transparent():
    assert norm(CTX, parse_term("~a")) == LEAF
    assert norm(CTX, parse_term("~~f")) == Pair(LEAF, LEAF)


def test_undefined_cases():
    assert norm(EMPTY, Bound(0)) is None
    assert norm(EMPTY, InternalSubst(TAU, Bound(0))) is None
    assert normable(CTX, a)
    assert not normable(EMPTY, Var("zzz"))


def test_norm_is_invariant_under_reduction_and_matches_the_type():
    rng = random.Random(23)
    ctxs = sample_contexts()
    for _ in range(150):
        ctx = rng.choice(ctxs)
        e = gen_typed_term(rng, ctx, rng.randint(0, 4))
        n = norm(ctx, e)
        assert n == norm(ctx, reduce_nf(e))
        assert n == norm(ctx, synth(ctx, e))


def test_norm_to_text_rejects_non_norms():
    try:
        norm_to_text(None)
    except ValueError as err:
        assert "not a norm" in str(err)
    else:
        raise AssertionError("expected ValueError")


def _chain(depth: int) -> Context:
    """a0 : tau and a_i : [a_(i-1), a_(i-1)]: each type uses the name before twice."""
    entries = [("a0", TAU)]
    for i in range(1, depth + 1):
        prev = Var(f"a{i - 1}")
        entries.append((f"a{i}", Product(prev, prev)))
    return Context(tuple(entries))


def _complete_depth(n, known: dict[int, int | None]) -> int | None:
    """The depth of n if it is a complete binary tree, else None.

    A norm shares equal subtrees, so each distinct node is checked once.
    """
    if isinstance(n, Leaf):
        return 0
    if id(n) not in known:
        left = _complete_depth(n.left, known)
        right = _complete_depth(n.right, known)
        known[id(n)] = left + 1 if left is not None and left == right else None
    return known[id(n)]


def test_norm_evaluates_each_declaration_once(monkeypatch):
    # three calls of the recursion per link: the name, its product, and the
    # second use of the name before, which that name's kept norm answers;
    # re-evaluating declarations would double the work per link
    bound = 3 * 30 + 2
    calls = 0
    counted = norms._norm

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        assert calls <= bound, "norm re-evaluates declarations"
        return counted(*args, **kwargs)

    monkeypatch.setattr(norms, "_norm", counting)
    assert _complete_depth(norms.norm(_chain(30), Var("a30")), {}) == 30
    monkeypatch.undo()
    assert _complete_depth(norm(_chain(60), Var("a60")), {}) == 60


def test_a_doubling_chain_of_definitions_takes_linear_work():
    """norm evaluates a definition's shared body once, not once per use."""
    n = 40
    bound = 10 * (n + 1)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == norms.__file__:
            calls += 1
            if calls > bound:
                raise WorkBoundExceeded  # an exponential walk stops here, not after 2^n

    doc = parse_document(doubling_chain(n))
    sys.setprofile(count)
    try:
        result = norm(doc.context, Var("q"))
    finally:
        sys.setprofile(None)
    assert result == LEAF
    assert calls <= bound


def test_equal_norms_built_under_different_declarations_compare_in_linear_work():
    """a's type and f's domain are one shared d(n); applying f to a compares
    the two norms of 2^n leaves. d(n) is evaluated under f's prefix first, and
    that kept norm does not serve a's shorter prefix, so the two are built
    apart and == compares them, once per distinct pair."""
    n = 40
    bound = 20 * (n + 1)  # some 13 calls per level
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if calls > bound:
                raise WorkBoundExceeded  # an exponential comparison stops here

    doc = parse_document(
        "def d0 := tau\n"
        + "".join(f"def d{i} := [d{i - 1}, d{i - 1}]\n" for i in range(1, n + 1))
        + f"context C {{ a : d{n}; f : [x:d{n}]tau }}\n"
    )
    goal = parse_term("f(a)")
    sys.setprofile(count)
    try:
        result = norm(doc.context, goal)
    finally:
        sys.setprofile(None)
    assert result == LEAF
    assert calls <= bound


def _doubling_norm(n):
    """The norm of a : d(n), def d(i) := [d(i-1), d(i-1)]: 2^n leaves, n distinct pairs."""
    doc = parse_document(
        "def d0 := tau\n"
        + "".join(f"def d{i} := [d{i - 1}, d{i - 1}]\n" for i in range(1, n + 1))
        + f"context C {{ a : d{n} }}\n"
    )
    return norm(doc.context, Var("a"))


def test_norms_from_separate_calls_compare_in_linear_work():
    """Each call builds its own pairs, so == meets no shared object across the
    two; it compares each pair of pairs once, not once per path to it."""
    n = 40
    first, second, smaller = _doubling_norm(n), _doubling_norm(n), _doubling_norm(n - 1)
    assert first is not second
    bound = 30 * (n + 1)  # some 16 traced events per level, both comparisons
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += 1
        if events > bound:
            raise WorkBoundExceeded  # an exponential comparison stops here
        return count

    sys.settrace(count)
    try:
        same = first == second
        differ = first == smaller
    finally:
        sys.settrace(None)
    assert same and not differ
    assert events <= bound


def test_norm_equality_reaches_any_depth():
    """== keeps its own stack: two chains of 2,000 pairs built apart compare."""

    def chain(bottom):
        n = bottom
        for _ in range(2_000):
            n = Pair(n, LEAF)
        return n

    assert chain(LEAF) == chain(LEAF)
    assert chain(LEAF) != chain(Pair(LEAF, LEAF))
    assert Pair(LEAF, LEAF) != LEAF and LEAF != Pair(LEAF, LEAF)


def test_a_norm_hashes_in_linear_work():
    """Each pair keeps the hash it made from its parts' kept hashes, so a
    norm of 2^n leaves hashes without walking them."""
    n = 40
    first, second = _doubling_norm(n), _doubling_norm(n)
    bound = n + 1
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if calls > bound:
                raise WorkBoundExceeded  # a walk of the 2^n paths stops here

    sys.setprofile(count)
    try:
        same = hash(first) == hash(second)
    finally:
        sys.setprofile(None)
    assert same
    assert calls <= bound


def test_norm_hash_reaches_any_depth():
    """A chain of 2,000 pairs built by a loop hashes and keys a set."""
    chain = LEAF
    for _ in range(2_000):
        chain = Pair(chain, LEAF)
    assert hash(chain) == hash(Pair(chain.left, LEAF))
    assert chain in {chain, LEAF}


def test_a_kept_norm_is_not_reused_under_a_prefix_that_lacks_a_name_it_needs():
    """[a,tau] keeps its norm under (x, a); under the prefix before a, a is
    not declared, so there it has none."""
    ctx, e = Context((("x", TAU), ("a", TAU))), Product(a, TAU)
    assert norm(ctx, e) == Pair(LEAF, LEAF)
    assert norm(ctx.prefix("a"), e) is None


def test_no_norm_is_kept_where_there_is_none():
    """[a,tau] has no norm under the prefix before a, and keeps nothing there,
    so the whole context still gives its norm."""
    ctx, e = Context((("x", TAU), ("a", TAU))), Product(a, TAU)
    assert norm(ctx.prefix("a"), e) is None
    assert norm(ctx, e) == Pair(LEAF, LEAF)


def _balanced(leaves):
    """A balanced tree of pairs over leaves, in order."""
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    return Product(_balanced(leaves[:half]), _balanced(leaves[half:]))


def test_a_chain_of_names_declared_by_names_takes_linear_work():
    """a0 : tau and a_i : a_(i-1); a term that names every a_i, the last
    first, resolves each declaration once, not once per use down the chain."""
    k = 200
    names = [f"a{i}" for i in range(k)]
    ctx = Context((("a0", TAU), *((names[i], Var(names[i - 1])) for i in range(1, k))))
    e = _balanced([Var(x) for x in reversed(names)])
    bound = 40 * k  # some 20 calls per name
    out = []
    calls = calls_during(lambda: out.append(norm(ctx, e)), bound)
    assert out[0] == norm(EMPTY, _balanced([TAU] * k))
    assert calls <= bound
