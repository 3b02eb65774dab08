"""Axiom scheme instantiation and the pure-type-system translation."""

import json
import random
from pathlib import Path

import pytest

from helpers import GATES, enumerate_subst_terms, gen_typed_term, sample_contexts

from dcalc import axioms
from dcalc.axioms import (
    FAMILIES,
    SCHEME_ARITY,
    SCHEMES,
    PApp,
    Pi,
    PLam,
    PVar,
    Star,
    TranslationError,
    canonical,
    closure_requests,
    declare,
    instance,
    instance_name,
    instantiate_axioms,
    normalize_scheme,
    pts_to_dcalc,
    resolve_axiom_gate,
)
from dcalc.parser import parse_document, parse_term
from dcalc.syntax import (
    TAU,
    Appl,
    Bound,
    Context,
    Neg,
    Prim,
    Sum,
    UnivAbs,
    Var,
    close_binder,
    fold,
    to_text,
)
from dcalc.typecheck import check_context, synth

a, b = Var("a"), Var("b")


def test_normalize_scheme_accepts_slugs_and_canonical_names():
    assert normalize_scheme("negaxp") == "negax+"
    assert normalize_scheme("negaxn") == "negax-"
    assert normalize_scheme("negax+") == "negax+"
    assert normalize_scheme("dcastin") == "dcastin"
    with pytest.raises(ValueError):
        normalize_scheme("frob")


def test_resolve_axiom_gate():
    assert resolve_axiom_gate(["neg"]) == frozenset({"negax+", "negax-"})
    assert resolve_axiom_gate(["cast"]) == frozenset(FAMILIES["cast"])
    assert resolve_axiom_gate(["all"]) == frozenset(SCHEME_ARITY)
    assert resolve_axiom_gate([" castin ", ""]) == frozenset({"castin"})
    assert resolve_axiom_gate(["negaxp", "negax+"]) == frozenset({"negax+"})
    with pytest.raises(ValueError):
        resolve_axiom_gate(["neg", "frob"])


def test_instance_names_are_stable_and_hint_insensitive():
    nm = instance_name("cast", (a,))
    assert nm == instance_name("cast", (a,))
    assert nm.startswith("cast_") and len(nm) == len("cast_") + 10
    assert instance_name("negax+", (a, b)).startswith("negaxp_")
    assert instance_name("negax-", (a, b)).startswith("negaxn_")
    # renaming a binder hint does not change the instance
    i1 = UnivAbs(TAU, Bound(0), "x")
    i2 = UnivAbs(TAU, Bound(0), "y")
    assert instance_name("cast", (i1,)) == instance_name("cast", (i2,))
    # swapping indices does
    assert instance_name("negax+", (a, b)) != instance_name("negax+", (b, a))
    assert instance_name("negaxp", (a, b)) == instance_name("negax+", (a, b))


# The tag of each compound node, by class name, as instance names have always hashed it.
_TAG_OF = {
    "UnivAbs": "U",
    "ExistAbs": "E",
    "Appl": "a",
    "ProtDef": "p",
    "ProjL": "l",
    "ProjR": "r",
    "Product": "prod",
    "Sum": "sum",
    "InjL": "il",
    "InjR": "ir",
    "Case": "c",
    "Neg": "n",
    "InternalSubst": "s",
}


def _canonical_by_fold(e):
    """canonical as a fold that builds each node's string from its parts' strings."""

    def serialize(node, depth, parts):
        t = type(node)
        if t is Prim:
            return "tau"
        if t is Var:
            return f"(v {node.name})"
        if t is Bound:
            return f"(b {node.index})"
        return f"({' '.join([_TAG_OF[t.__name__], *parts])})"

    return fold(e, serialize)


PARSE_GOLDEN = Path(__file__).parent / "data" / "parse_golden.jsonl"


def _pinned_terms():
    """The acceptance pool, pending substitutions, and every parse-golden term."""
    rng = random.Random(20260814)
    contexts = sample_contexts()
    for _ in range(1000):
        yield gen_typed_term(rng, rng.choice(contexts), rng.randint(0, 7))
    yield from enumerate_subst_terms(4)
    for line in PARSE_GOLDEN.read_text().splitlines():
        r = json.loads(line)
        if "ok" not in r:
            continue
        if r["mode"] == "term":
            yield parse_term(r["input"], GATES[r["gate"]])
            continue
        doc = parse_document(r["input"], GATES[r["gate"]])
        yield from (ty for _, ty in doc.context.entries)
        yield from doc.defs.values()
        for item in doc.checks:
            yield from (item.term, item.ty)


def test_canonical_writes_what_a_fold_over_the_parts_writes():
    """So axiom instance names, which hash it, stay as they were."""
    terms = list(_pinned_terms())
    assert len(terms) > 4000
    assert [canonical(e) for e in terms] == [_canonical_by_fold(e) for e in terms]
    assert canonical(UnivAbs(TAU, Appl(Bound(0), Var("a")))) == "(U tau (a (b 0) (v a)))"


def test_instance_arity_is_enforced():
    with pytest.raises(ValueError) as err:
        instance("cast", (a, b))
    assert "cast takes 1 indices, got 2" in str(err.value)


def test_negation_axiom_templates():
    assert instance("negax+", (a, b)).ty == parse_term("[[a+b] => [~a => b]]")
    assert instance("negax-", (a, b)).ty == parse_term("[[~a => b] => [a+b]]")


def test_cast_axiom_templates():
    cast_nm = instance_name("cast", (a,))
    assert instance("cast", (a,)).ty == parse_term("[a => tau]")
    assert instance("castin", (a,)).ty == parse_term(f"[x:a][x => ({cast_nm} x)]")
    assert instance("castout", (a,)).ty == parse_term(f"[x:a][({cast_nm} x) => x]")
    ci = instance_name("castin", (a,))
    co = instance_name("castout", (a,))
    assert instance("dcastin", (a, b)).ty == parse_term(
        f"[x:a][y:[x => b]][z:x][(y z) => (y {co}(x, {ci}(x, z)))]"
    )
    assert instance("dcastout", (a, b)).ty == parse_term(
        f"[x:a][y:[x => b]][z:x][(y {co}(x, {ci}(x, z))) => (y z)]"
    )


# The templates as they were built before they were written with de Bruijn
# indices: over placeholder names, each closed by close_binder.
def _univ(tmp, hint, dom, body):
    return UnivAbs(dom, close_binder(body, tmp), hint)


def _imp(a, b):
    return UnivAbs(a, b, "z")


def _app(f, *args):
    for arg in args:
        f = Appl(f, arg)
    return f


_X = Var("@1")


def _dcast(into, _cast, ci, co, a, b):
    x, y, z = _X, Var("@2"), Var("@3")
    plain = Appl(y, z)
    routed = Appl(y, _app(co, x, _app(ci, x, z)))
    core = _imp(plain, routed) if into else _imp(routed, plain)
    return _univ("@1", "x", a, _univ("@2", "y", _imp(x, b), _univ("@3", "z", x, core)))


CLOSED_OVER_NAMES = {
    "negax+": lambda a, b: _imp(Sum(a, b), _imp(Neg(a), b)),
    "negax-": lambda a, b: _imp(_imp(Neg(a), b), Sum(a, b)),
    "cast": lambda a: _imp(a, TAU),
    "castin": lambda cast, a: _univ("@1", "x", a, _imp(_X, Appl(cast, _X))),
    "castout": lambda cast, a: _univ("@1", "x", a, _imp(Appl(cast, _X), _X)),
    "dcastin": lambda *args: _dcast(True, *args),
    "dcastout": lambda *args: _dcast(False, *args),
}


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_each_template_is_the_one_closed_over_placeholder_names(scheme):
    row = SCHEMES[scheme]
    needs = [Var(f"{need}_0") for need in row.needs]
    for indices in [
        (a, b),
        (Var("x"), Var("z")),
        (parse_term("[x:tau][y:x]y"), parse_term("[z:tau](f [y:z]y)")),
    ]:
        args = (*needs, *indices[: row.arity])
        made, before = row.template(*args), CLOSED_OVER_NAMES[scheme](*args)
        assert made == before
        assert to_text(made) == to_text(before)


def test_declare_builds_only_the_instances_it_adds(monkeypatch):
    built = []
    for scheme, row in SCHEMES.items():

        def counted(*args, scheme=scheme, template=row.template):
            built.append(scheme)
            return template(*args)

        monkeypatch.setitem(SCHEMES, scheme, row._replace(template=counted))
    entries = {}
    for scheme in ("cast", "castin", "castout"):
        declare(entries, scheme, (a,))
    assert built == ["cast", "castin", "castout"]
    built.clear()
    declare(entries, "dcastin", (a, b))
    assert built == ["dcastin"]
    declare(entries, "dcastin", (a, b))
    assert built == ["dcastin"]
    assert list(entries) == [
        instance_name(s, (a, b)[: SCHEME_ARITY[s]]) for s in ("cast", "castin", "castout", "dcastin")
    ]


def test_closure_requests_order_dependencies_first():
    assert [i.scheme for i in closure_requests("cast", (a,))] == ["cast"]
    assert [i.scheme for i in closure_requests("castin", (a,))] == ["cast", "castin"]
    assert [i.scheme for i in closure_requests("dcastout", (a, b))] == [
        "cast",
        "castin",
        "castout",
        "dcastout",
    ]


def test_instantiate_axioms_orders_and_deduplicates():
    ctx = instantiate_axioms([("dcastin", [a, b]), ("cast", [a]), ("castin", [a])])
    assert [n for n, _ in ctx.entries] == [
        instance_name("cast", (a,)),
        instance_name("castin", (a,)),
        instance_name("castout", (a,)),
        instance_name("dcastin", (a, b)),
    ]


def test_instance_names_are_pinned():
    """The names every file and golden holds, at indices (a,) or (a, b)."""
    names = {s: instance_name(s, (a, b)[:n]) for s, n in SCHEME_ARITY.items()}
    assert names == {
        "negax+": "negaxp_6e826b019c",
        "negax-": "negaxn_8ee7f1eb69",
        "cast": "cast_bc93f07f49",
        "castin": "castin_f445b55546",
        "castout": "castout_a68efa81f3",
        "dcastin": "dcastin_758addce20",
        "dcastout": "dcastout_b76fa0ce3a",
    }


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_closure_requests_put_each_rows_needs_first_in_its_order(scheme):
    row = SCHEMES[scheme]
    indices = (a, b)[: row.arity]
    made = closure_requests(scheme, indices)
    assert [i.scheme for i in made] == [*row.needs, scheme]
    assert [i.indices for i in made] == [(a,)] * len(row.needs) + [indices]


def test_a_document_declares_the_instances_instantiate_axioms_does():
    doc = parse_document(
        "context C { a, b : tau }\naxiom dcastin{a,b}\naxiom cast{a}\n",
        resolve_axiom_gate(["all"]),
    )
    ctx = instantiate_axioms([("dcastin", [a, b]), ("cast", [a])])
    assert doc.context.entries[:2] == (("a", TAU), ("b", TAU))
    assert doc.context.entries[2:] == ctx.entries
    assert len(ctx.entries) == 4


def test_instantiated_axioms_typecheck_over_their_indices():
    ambient = (("a", TAU), ("b", TAU))
    for requests in (
        [("negax+", [a, b]), ("negax-", [a, b])],
        [("dcastin", [a, b]), ("dcastout", [a, b])],
    ):
        inst = instantiate_axioms(requests)
        check_context(Context(ambient + inst.entries))


def test_pts_identity_function_translates_and_typechecks():
    pctx = [("A", Star())]
    ctx, term = pts_to_dcalc(pctx, PLam("x", PVar("A"), PVar("x")))
    A = Var("A")
    cast_nm = instance_name("cast", (parse_term("[x:A]tau"),))
    castin_nm = instance_name("castin", (parse_term("[x:A]tau"),))
    assert [n for n, _ in ctx.entries] == ["A", cast_nm, castin_nm]
    assert term == parse_term(f"(({castin_nm} [x:A]A) [x:A]x)")
    check_context(ctx)
    assert synth(ctx, term) == Appl(Var(cast_nm), UnivAbs(A, A, "x"))


def test_pts_dependent_product_translates_to_a_cast():
    ctx, term = pts_to_dcalc([("A", Star())], Pi("x", PVar("A"), PVar("A")))
    cast_nm = instance_name("cast", (parse_term("[x:A]tau"),))
    assert term == parse_term(f"({cast_nm} [x:A]A)")
    assert synth(ctx, term) == TAU


def test_pts_application_routes_through_castout():
    pctx = [("A", Star()), ("f", Pi("x", PVar("A"), PVar("A"))), ("u", PVar("A"))]
    ctx, term = pts_to_dcalc(pctx, PApp(PVar("f"), PVar("u")))
    co = instance_name("castout", (parse_term("[x:A]tau"),))
    assert term == parse_term(f"((({co} [x:A]A) f) u)")
    check_context(ctx)
    assert synth(ctx, term) == Var("A")


def test_pts_unbound_variable():
    with pytest.raises(TranslationError) as err:
        pts_to_dcalc([], PVar("A"))
    assert "unbound variable: A" in str(err.value)


def test_pts_duplicate_declaration():
    with pytest.raises(TranslationError) as err:
        pts_to_dcalc([("A", Star()), ("A", Star())], Star())
    assert "duplicate declaration: A" in str(err.value)


def test_pts_application_needs_a_cast_typed_operator():
    with pytest.raises(TranslationError) as err:
        pts_to_dcalc([("A", Star())], PApp(PVar("A"), PVar("A")))
    assert "operator does not translate to a cast application" in str(err.value)


def test_pts_axiom_indices_may_not_capture_local_binders():
    pe = PLam("x", Star(), Pi("y", PVar("x"), PVar("x")))
    with pytest.raises(TranslationError) as err:
        pts_to_dcalc([], pe)
    assert "axiom index mentions names not in the translated context: x" in str(
        err.value
    )


def test_pts_reports_failed_side_conditions():
    pctx = [
        ("A", Star()),
        ("B", Star()),
        ("f", Pi("y", PVar("B"), PVar("B"))),
    ]
    pe = PLam("x", PVar("A"), PApp(PVar("f"), PVar("x")))
    with pytest.raises(TranslationError) as err:
        pts_to_dcalc(pctx, pe)
    assert "side condition failed" in str(err.value)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_declare_serializes_each_index_once(monkeypatch, scheme):
    """Every name declare makes, the instance's and its needs', comes from one
    canonical text per index."""
    indices = (parse_term("[x:a]x"), parse_term("[y:b](y a)"))[: SCHEMES[scheme].arity]
    calls = 0

    def counted(e):
        nonlocal calls
        calls += 1
        return canonical(e)

    monkeypatch.setattr(axioms, "canonical", counted)
    entries: dict = {}
    name = declare(entries, scheme, indices)
    assert calls == len(indices)
    assert list(entries) == [
        *(instance_name(need, indices[:1]) for need in SCHEMES[scheme].needs),
        name,
    ]
    assert name == instance_name(scheme, indices)
