"""Type synthesis, checking, and every diagnostic kind."""

import gc
import json
import sys
import weakref
from collections import Counter, defaultdict
from functools import partial
from pathlib import Path

import pytest

from helpers import (
    DIAG_FUELS,
    WorkBoundExceeded,
    calls_during,
    count_fire,
    diag_contexts,
    diag_record,
    doubling_chain,
    shared_conversion,
    term_from_json,
)

from dcalc import reduction, typecheck
from dcalc.axioms import resolve_axiom_gate
from dcalc.corpus import CORPUS_AXIOMS, corpus_names, corpus_text
from dcalc.parser import CheckItem, Document, parse_document, parse_term
from dcalc.reduction import DEFAULT_FUEL, FuelExhausted, conv
from dcalc.syntax import (
    TAU,
    Appl,
    Bound,
    Case,
    Context,
    ExistAbs,
    InjL,
    InjR,
    Neg,
    ProjL,
    ProjR,
    ProtDef,
    Product,
    Sum,
    UnivAbs,
    Var,
    to_text,
)
from dcalc.typecheck import TypingError, check, check_context, check_document, synth, valid

a, b = Var("a"), Var("b")
EMPTY = Context()
AB = Context((("a", TAU), ("b", TAU)))


def test_primitive_is_its_own_type():
    assert synth(EMPTY, TAU) == TAU


def test_variables_take_their_declared_type():
    ctx = Context((("a", TAU), ("x", a)))
    assert synth(ctx, Var("x")) == a
    with pytest.raises(TypingError) as err:
        synth(EMPTY, Var("x"))
    assert err.value.kind == "UnboundVariable"


def test_dangling_index_is_unbound():
    with pytest.raises(TypingError) as err:
        synth(EMPTY, Bound(0))
    assert err.value.kind == "UnboundVariable"


def test_abstraction_types():
    assert synth(EMPTY, parse_term("[x:tau]x")) == parse_term("[x:tau]tau")
    ctx = Context((("a", TAU),))
    assert synth(ctx, parse_term("[x:a]x")) == parse_term("[x:a]a")
    # dependency on the binder survives into the type
    assert synth(EMPTY, parse_term("[x:tau][y:x]y")) == parse_term("[x:tau][y:x]x")


def test_existential_abstraction_types_like_the_universal_one():
    assert synth(EMPTY, parse_term("[x!tau]x")) == parse_term("[x:tau]tau")
    assert synth(AB, parse_term("[x!a]x")) == parse_term("[x:a]a")


def test_application_substitutes_the_argument():
    ctx = Context((("a", TAU),))
    e = Appl(parse_term("[p:tau][q:p]q"), a)
    assert synth(ctx, e) == parse_term("[q:a]a")


def test_application_reduces_the_operator_type_first():
    # the operator type only becomes an abstraction after a pi step
    ctx = Context((("a", TAU), ("x", a)))
    e = parse_term("([f:[[a=>a],tau]](f.1 x) [[y:a]y,tau])")
    assert synth(ctx, e) == a


def test_application_failures():
    with pytest.raises(TypingError) as err:
        synth(EMPTY, Appl(TAU, TAU))
    assert err.value.kind == "NotAFunction"
    with pytest.raises(TypingError) as err:
        synth(EMPTY, parse_term("([x:tau]x [y:tau]y)"))
    assert err.value.kind == "DomainMismatch"
    assert err.value.expected == TAU


def test_protected_definition_types():
    e = parse_term("<x:=tau, tau : x>")
    assert synth(EMPTY, e) == ExistAbs(TAU, Bound(0))
    # the tag need not mention the binder
    e = parse_term("<x:=tau, [y:tau]y : [y:tau]tau>")
    assert synth(EMPTY, e) == ExistAbs(TAU, parse_term("[y:tau]tau"))


def test_protected_definition_tag_must_typecheck_over_the_witness():
    with pytest.raises(TypingError) as err:
        synth(EMPTY, ProtDef(TAU, TAU, Var("q")))
    assert err.value.kind == "InvalidTag"
    assert "not typeable" in err.value.message


def test_protected_definition_proof_must_establish_the_tag():
    with pytest.raises(TypingError) as err:
        synth(EMPTY, parse_term("<x:=tau, [y:tau]y : x>"))
    assert err.value.kind == "InvalidTag"
    assert "does not establish" in err.value.message


def test_projections_on_products_and_protected_definitions():
    ctx = Context((("a", TAU), ("x", a), ("p", Product(a, TAU))))
    assert synth(ctx, parse_term("p.1")) == a
    assert synth(ctx, parse_term("p.2")) == TAU
    pd = parse_term("<x:=tau, tau : x>")
    assert synth(EMPTY, ProjL(pd)) == TAU


def test_projections_on_existential_types():
    ctx = Context(
        (("a", TAU), ("P", parse_term("[z:a]tau")), ("w", parse_term("[z!a]P(z)")))
    )
    assert synth(ctx, parse_term("w.1")) == a
    assert synth(ctx, parse_term("w.2")) == parse_term("P(w.1)")


def test_projection_failures():
    with pytest.raises(TypingError) as err:
        synth(EMPTY, ProjL(TAU))
    assert err.value.kind == "NotProjectable"
    with pytest.raises(TypingError) as err:
        synth(AB, ProjR(Var("a")))
    assert err.value.kind == "NotProjectable"


def test_products_sums_and_injections():
    assert synth(AB, Product(a, b)) == Product(TAU, TAU)
    assert synth(AB, Sum(a, b)) == Product(TAU, TAU)
    ctx = Context((("a", TAU), ("b", TAU), ("x", a)))
    assert synth(ctx, InjL(Var("x"), b)) == Sum(a, b)
    assert synth(ctx, InjR(b, Var("x"))) == Sum(b, a)
    # both tags must be typeable
    with pytest.raises(TypingError):
        synth(ctx, InjL(Var("x"), Var("nope")))


def test_case_analysis_type():
    e = parse_term("case([x:a]x,[y:b]x)")
    ctx = Context((("a", TAU), ("b", TAU), ("x", a)))
    assert synth(ctx, e) == UnivAbs(Sum(a, b), a)
    applied = parse_term("(case([x:a]x,[y:b]x) inl(x,b))")
    assert synth(ctx, applied) == a


def test_case_branch_failures():
    with pytest.raises(TypingError) as err:
        synth(AB, Case(TAU, TAU))
    assert err.value.kind == "BranchTypeMismatch"
    with pytest.raises(TypingError) as err:
        synth(AB, parse_term("case([x:tau][y:x]y,[x:tau][y:x]y)"))
    assert "depend" in err.value.message
    with pytest.raises(TypingError) as err:
        synth(AB, parse_term("case([x:tau]x,[x:tau][y:tau]y)"))
    assert "differ" in err.value.message


def test_negation_is_transparent_to_typing():
    assert synth(AB, Neg(a)) == TAU
    assert synth(AB, parse_term("~[a,b]")) == Product(TAU, TAU)
    assert synth(AB, Neg(Neg(a))) == synth(AB, a)


def test_check_accepts_up_to_congruence():
    check(EMPTY, parse_term("<x:=tau, tau : ~x>"), parse_term("~[x:tau]x"))
    check(AB, parse_term("[x:~[a+b]]x"), parse_term("[[~a,~b] => ~[a+b]]"))


def test_check_requires_the_claimed_type_to_typecheck():
    with pytest.raises(TypingError) as err:
        check(EMPTY, TAU, Var("nope"))
    assert err.value.kind == "UnboundVariable"


def test_check_mismatch():
    with pytest.raises(TypingError) as err:
        check(EMPTY, TAU, parse_term("[x:tau]tau"))
    assert err.value.kind == "Mismatch"
    assert err.value.found == TAU


def test_check_context_validates_each_prefix():
    check_context(Context((("a", TAU), ("x", a), ("P", parse_term("[z:a]tau")))))
    with pytest.raises(TypingError) as err:
        check_context(Context((("x", Var("y")),)))
    assert err.value.kind == "ContextError"
    # declarations may only use names that came before
    with pytest.raises(TypingError):
        check_context(Context((("x", a), ("a", TAU))))


def test_check_context_names_binders_against_earlier_declarations_only():
    """A diagnostic's binder names avoid the declarations before, not after."""
    decl = ("P", parse_term("[y:tau][z:y](z z)"))
    shown = (
        "ContextError @ 1.1: declaration P: NotAFunction: "
        "operator type is not a universal abstraction; found "
    )
    for entries, name in (((decl, ("y", TAU)), "y"), ((("y", TAU), decl), "y1")):
        with pytest.raises(TypingError) as err:
            check_context(Context(entries))
        assert str(err.value) == shown + name


def test_check_context_takes_work_linear_in_its_length(monkeypatch):
    """Declarations a0 : tau, ai : a0: each is typed against a prefix that costs
    O(1) to make, so neither typing nor indexing names grows per declaration."""
    work = Counter()
    init = Context.__init__
    synth_one = typecheck._synth

    def indexed(self, entries=()):
        work["indexed"] += len(entries)
        init(self, entries)

    def typed(*args):
        work["typed"] += 1
        return synth_one(*args)

    per_declaration = {}
    for n in (1000, 2000, 4000):
        ctx = Context((("a0", TAU),) + tuple((f"a{i}", Var("a0")) for i in range(1, n)))
        work.clear()
        with monkeypatch.context() as m:
            m.setattr(Context, "__init__", indexed)
            m.setattr(typecheck, "_synth", typed)
            check_context(ctx)
        per_declaration[n] = work.total() / n
    assert per_declaration[4000] <= per_declaration[1000] <= 2


def test_a_kept_type_is_reused_only_where_a_fresh_one_would_be_found():
    """A node keeps its type for the same declarations, a context at least as
    long and a fuel at least as large."""
    ty = parse_term("[x:b]x")
    ctx = Context((("a", ty), ("b", TAU)))
    assert synth(ctx, ty) == parse_term("[x:b]b")
    with pytest.raises(TypingError) as err:
        synth(Context((("a", TAU), ("c", TAU))), ty)  # other declarations
    assert str(err.value) == "UnboundVariable @ 0: b is not declared"
    with pytest.raises(TypingError) as err:
        check_context(ctx)  # a's type under the prefix before a
    assert str(err.value) == "ContextError @ 0: declaration a: UnboundVariable: b is not declared"
    applied = parse_term("([y:~tau]y tau)")
    assert synth(EMPTY, applied) == TAU
    with pytest.raises(FuelExhausted):
        synth(EMPTY, applied, fuel=0)


def test_typing_leaves_no_reference_cycle():
    """A declaration's type keeps its own type and still dies with its last reference."""
    gc.disable()
    try:
        ty = parse_term("[x:tau][y:x]y")
        ctx = Context((("a", TAU), ("b", ty)))
        check_context(ctx)
        assert hasattr(ty, "_type")
        ref = weakref.ref(ty)
        del ty, ctx
        assert ref() is None
    finally:
        gc.enable()


def test_valid_is_the_boolean_view():
    assert valid(EMPTY, parse_term("[x:tau]x"))
    assert not valid(EMPTY, Var("x"))
    assert not valid(EMPTY, Appl(TAU, TAU))


def test_types_of_types_synthesize():
    for text in ("[x:tau]x", "[x!tau]x", "<x:=tau, tau : x>", "[x:tau][y:x]y"):
        ty = synth(EMPTY, parse_term(text))
        assert synth(EMPTY, ty) is not None


def test_fuel_exhaustion_propagates():
    with pytest.raises(FuelExhausted):
        check(EMPTY, TAU, Neg(TAU), fuel=0)


def test_conv_spec_examples():
    assert conv(parse_term("[x:~[a+b]][~a,~b]"), parse_term("[x:[~a,~b]]~[a+b]"))
    assert conv(a, a)
    assert not conv(TAU, parse_term("[x:tau]x"))


GOLDEN = Path(__file__).parent / "data" / "diag_golden.jsonl"


def test_diagnostics_regenerate_the_golden_file():
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) > 1500
    changed = []
    for n, line in enumerate(lines, 1):
        r = json.loads(line)
        if json.dumps(diag_record(r["ctx"], r["term"])) != line:
            changed.append(n)
    assert changed == []


def _failing_under_binders(n):
    """The error of [x0:tau]...[x(n-1):tau](tau tau), built without the parser."""
    e = Appl(TAU, TAU)
    for i in reversed(range(n)):
        e = UnivAbs(TAU, e, f"x{i}")
    try:
        synth(EMPTY, e)
    except TypingError as err:
        return err
    raise AssertionError("the chain typed")


def test_a_diagnostic_under_binders_takes_linear_work():
    """The names the binders get come from one fold of free names, not one per binder."""
    err = _failing_under_binders(3)
    assert str(err) == (
        "NotAFunction @ 1.1.1: operator type is not a universal abstraction; found tau"
    )
    calls = {n: calls_during(partial(_failing_under_binders, n)) for n in (200, 400, 800)}
    assert calls[800] <= 5 * calls[200]


@pytest.mark.parametrize("n", [20, 40])
def test_a_doubling_chain_of_definitions_checks_in_linear_work(n):
    """A definition's body is shared at each use and typed once, by
    check_document and by a bare synth or check alike."""
    bound = 10 * (n + 1)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is typecheck._synth.__code__:
            calls += 1
            if calls > bound:
                raise WorkBoundExceeded  # an exponential walk stops here, not after 2^n

    runs = (
        (check_document, []),
        (lambda doc: synth(doc.context, doc.defs[f"d{n}"]), TAU),
        (lambda doc: check(doc.context, doc.checks[1].term, doc.checks[1].ty), None),
    )
    for run, expected in runs:
        doc = parse_document(doubling_chain(n))  # nodes that keep no types yet
        assert len(doc.checks) == 2
        calls = 0
        sys.setprofile(count)
        try:
            result = run(doc)
        finally:
            sys.setprofile(None)
        assert result == expected
        assert calls <= bound


def test_conversion_of_a_doubling_chain_takes_linear_work(monkeypatch):
    """reduce_nf walks a normal node that several components share once."""
    counts = count_fire(monkeypatch)
    visits = {}
    for n in (8, 16):
        doc = parse_document(shared_conversion(n))
        counts.clear()
        assert check_document(doc) == []
        visits[n] = counts["visits"]
    assert visits[16] <= 3 * visits[8]


def test_a_shared_redex_is_reduced_once_per_file(monkeypatch):
    """Each node keeps the normal form it reached, with its steps."""
    counts = count_fire(monkeypatch)
    contractions = {}
    for n in (6, 12):
        doc = parse_document(shared_conversion(n, "g({})"))
        counts.clear()
        assert check_document(doc) == []
        contractions[n] = counts["contractions"]
    assert 0 < contractions[12] <= 3 * contractions[6]


def _error_record(err: TypingError) -> tuple:
    texts = [None if t is None else to_text(t) for t in (err.expected, err.found)]
    return (err.kind, err.path, err.message, *texts)


def _item_by_item(doc: Document, fuel: int) -> list[tuple]:
    """check_document's errors, from a fresh synth or check of each item.

    Each item runs under its own copy of the context, which shares no name
    index with another, so it reuses no type that another item found.
    """

    def own() -> Context:
        return Context(doc.context.entries)

    runs = [("", partial(check_context, own(), fuel))]
    runs += [
        (f"definition {name}: ", partial(synth, own(), body, fuel))
        for name, body in doc.defs.items()
    ] + [(f"line {c.line}: ", partial(check, own(), c.term, c.ty, fuel)) for c in doc.checks]
    out = []
    for prefix, run in runs:
        try:
            run()
        except TypingError as err:
            kind, path, message, *texts = _error_record(err)
            out.append((kind, path, prefix + message, *texts))
        except FuelExhausted as err:
            out.append(("FuelExhausted", (), f"{prefix}{err}", None, None))
        if not prefix and out:  # the context is wrong: nothing more is checked
            break
    return out


def _failing_documents() -> list[Document]:
    """One document per golden diagnostic context: each golden term as a
    definition, and checks that reuse those very nodes, as binder types too."""
    terms = defaultdict(list)
    for line in GOLDEN.read_text().splitlines():
        r = json.loads(line)
        terms[r["ctx"]].append(term_from_json(r["term"]))
    docs = []
    for name, ctx in diag_contexts().items():
        es = terms[name]
        defs = {f"t{i}": e for i, e in enumerate(es)}
        checks = []
        here = Bound(0)  # one node under binders of many types, so it keeps no type
        for i, (e, f) in enumerate(zip(es, es[1:] + es[:1])):
            checks += (
                CheckItem(e, TAU, 3 * i),
                CheckItem(Appl(e, f), f, 3 * i + 1),
                CheckItem(UnivAbs(e, Appl(here, f)), TAU, 3 * i + 2),
            )
        docs.append(Document(ctx, defs, checks))
    return docs


def _church(k: int) -> str:
    return "[A:tau][s:[A=>A]][z:A]" + "s(" * k + "z" + ")" * k


# Church numerals, as a file proves arithmetic by conversion: one true claim,
# and one off by one. refl copies its argument, the shared left side, twice
# into its type.
CHURCH_CLAIMS = f"""\
def N := [A:tau][[A=>A] => [A=>A]]
def mul := [m,n:N][A:tau][s:[A=>A]]m(A,n(A,s))
def succ := [n:N][A:tau][s:[A=>A]][z:A]s(n(A,s,z))
def eq := [x,y:N][P:[N=>tau]][P(x) => P(y)]
def refl := [x:N][P:[N=>tau]][h:P(x)]h
def a := {_church(2)}
def b := {_church(3)}
check refl(mul(a,b)) : eq(mul(a,b), mul(b,a))
check refl(mul(a,b)) : eq(mul(a,b), succ(mul(b,a)))
"""


def _documents() -> list[Document]:
    """The corpus under its gates and under every axiom, then _failing_documents()."""
    corpus = [
        parse_document(corpus_text(name), resolve_axiom_gate(gate))
        for name in corpus_names()
        for gate in (CORPUS_AXIOMS[name], ["all"])
    ]
    return corpus + _failing_documents()


def _church_documents() -> list[Document]:
    return [parse_document(CHURCH_CLAIMS)]


def test_check_document_reports_what_a_fresh_check_of_each_item_does():
    shared = len(reduction.reduce_trace(_church_documents()[0].checks[0].term.arg))
    assert shared >= 10
    runs = (
        (_documents, DIAG_FUELS),
        (_church_documents, (*DIAG_FUELS, shared - 1, shared, shared + 1)),
    )
    errors = 0
    kinds = set()
    for build, fuels in runs:
        docs = build()
        for fuel in fuels:
            # docs keep the types and normal forms of earlier fuels; a new
            # build holds none
            for doc, fresh in zip(docs, build(), strict=True):
                expected = _item_by_item(fresh, fuel)
                assert [_error_record(err) for err in check_document(doc, fuel)] == expected
                errors += len(expected)
                if build is _church_documents:
                    kinds.update((fuel, kind) for kind, *_ in expected)
    assert errors > 1000
    assert {(DEFAULT_FUEL, "Mismatch"), (shared - 1, "FuelExhausted")} <= kinds
