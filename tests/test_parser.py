"""Concrete syntax: expression grammar, directives, and failure modes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis as hyp
import hypothesis.strategies as st
import pytest
from helpers import WorkBoundExceeded, calls_during, parse_record

from dcalc import parser, syntax
from dcalc.axioms import instance_name, resolve_axiom_gate
from dcalc.corpus import CORPUS_AXIOMS, corpus_text
from dcalc.parser import ParseError, Token, _Parser, parse_document, parse_term, tokenize
from dcalc.syntax import (
    TAU,
    Appl,
    Bound,
    Case,
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
)
from dcalc.typecheck import check_document

ALL = resolve_axiom_gate(["all"])


def test_tokenize_names_and_punctuation():
    kinds = [(t.kind, t.text) for t in tokenize("f(a, b) := x2")]
    assert kinds == [
        ("NAME", "f"),
        ("PUNCT", "("),
        ("NAME", "a"),
        ("PUNCT", ","),
        ("NAME", "b"),
        ("PUNCT", ")"),
        ("PUNCT", ":="),
        ("NAME", "x2"),
        ("EOF", ""),
    ]
    # letters and digits of any script, as str.isalnum takes them
    assert [t.text for t in tokenize("é² ǅ_x٣")] == ["é²", "ǅ_x٣", ""]


def test_tokenize_negax_signs_are_single_tokens():
    toks = tokenize("negax+ negax-")
    assert [t.text for t in toks[:2]] == ["negax+", "negax-"]


def test_tokenize_comments_and_positions():
    toks = tokenize("a -- rest of the line\n  b")
    assert [t.text for t in toks[:2]] == ["a", "b"]
    assert (toks[1].line, toks[1].col) == (2, 3)
    # a comment takes no columns: end of input is where it starts
    assert [(t.kind, t.line, t.col) for t in tokenize("a -- c")] == [
        ("NAME", 1, 1),
        ("EOF", 1, 3),
    ]


def test_tokenize_rejects_stray_characters():
    with pytest.raises(ParseError) as err:
        tokenize("a\n  %")
    assert err.value.line == 2 and err.value.col == 3


# The tokenizer as it was before the scan made all tokens in one findall: one
# match, and one Python iteration, per token, blank run, newline and comment.
_SCAN = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>--.*)"
    r"|(?P<NAME>negax[+-]|\w+)|(?P<PUNCT>:=|=>|[][(){}<>,;:!~+.])|(?P<bad>.)"
)


def _tokenize_before(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    for m in _SCAN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", line, col)
        if kind == "NAME" or kind == "PUNCT":
            toks.append(Token(kind, m[0], line, col))
        if kind != "comment":
            col += len(m[0])
    toks.append(Token("EOF", "", line, col))
    return toks


def _tokens_or_error(tokenizer, text: str):
    try:
        return tokenizer(text)
    except ParseError as err:
        return (err.message, err.line, err.col)


_PIECES = [
    *["a", "x2", "tau", "_", "7", "é", "ǅ", "٣", "²"],  # names, any script, and digits
    *sorted(parser._PUNCT - {""}),
    *["negax+", "negax-", "negax", "--", "-- c", "-"],
    *[" ", "\t", "\r", "\n"],
    *["%", "@", "\x0b", "\ufeff"],  # characters no token takes
]


@hyp.given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_tokenize_gives_what_the_loop_before_the_scan_gave(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(_tokenize_before, text)


@pytest.mark.parametrize(
    "text",
    ["", "a -- c", "negax--", "a -- c\n  %", "negax--- c\n\r\tb -- d\n"],
    ids=["empty", "eof-after-a-comment", "negax-then-a-minus", "stray-after-a-comment", "mixed"],
)
def test_tokenize_edge_cases_match_the_loop_before_the_scan(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(_tokenize_before, text)


def test_simple_atoms():
    assert parse_term("tau") == TAU
    assert parse_term("a") == Var("a")
    assert parse_term("2") == Var("2")
    assert parse_term("(a)") == Var("a")


def test_abstractions_and_group_binders():
    assert parse_term("[x:tau]x") == UnivAbs(TAU, Bound(0))
    assert parse_term("[x!tau]x") == ExistAbs(TAU, Bound(0))
    assert parse_term("[x,y:tau]x") == UnivAbs(TAU, UnivAbs(TAU, Bound(1)))
    assert parse_term("[x:tau;y!x]y") == UnivAbs(TAU, ExistAbs(Bound(0), Bound(0)))
    # [a,b:A] is [a:A][b:A]: the second A is read in a's scope
    assert parse_term("[a,b:a]b") == UnivAbs(Var("a"), UnivAbs(Bound(0), Bound(0)))
    doc = parse_document("def a := tau\ncheck [a,b:a]b : tau")
    assert doc.checks[0].term == UnivAbs(TAU, UnivAbs(Bound(0), Bound(0)))


def test_implication_chains_nest_right():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert parse_term("[a => b]") == UnivAbs(a, b)
    assert parse_term("[a;b => c]") == UnivAbs(a, UnivAbs(b, c))
    assert parse_term("[a => [b => c]]") == parse_term("[a;b => c]")
    # an item's bound names count the implications above it
    assert parse_term("[x:tau][x;x => x]") == UnivAbs(
        TAU, UnivAbs(Bound(0), UnivAbs(Bound(1), Bound(2)))
    )


def test_products_and_sums_nest_right():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert parse_term("[a,b]") == Product(a, b)
    assert parse_term("[a,b,c]") == Product(a, Product(b, c))
    assert parse_term("[a+b+c]") == Sum(a, Sum(b, c))
    assert parse_term("[[a+b],c]") == Product(Sum(a, b), c)


def test_pending_substitution_brackets():
    assert parse_term("[x:=tau]x") == InternalSubst(TAU, Bound(0))
    assert parse_term("[x:=a][x,b]") == InternalSubst(
        Var("a"), Product(Bound(0), Var("b"))
    )


def test_protected_definition():
    e = parse_term("<x:=a, b : P(x)>")
    assert e == ProtDef(Var("a"), Var("b"), Appl(Var("P"), Bound(0)))


def test_injections_and_case():
    assert parse_term("inl(a,b)") == InjL(Var("a"), Var("b"))
    assert parse_term("inr(a,b)") == InjR(Var("a"), Var("b"))
    assert parse_term("case(f,g)") == Case(Var("f"), Var("g"))
    assert parse_term("(case(f,g) s)") == Appl(Case(Var("f"), Var("g")), Var("s"))


def test_negation_binds_looser_than_postfix():
    assert parse_term("~~a") == Neg(Neg(Var("a")))
    assert parse_term("~a.1") == Neg(ProjL(Var("a")))
    assert parse_term("(~a).1") == ProjL(Neg(Var("a")))


def test_projection_chains_and_call_sugar():
    g = Var("g")
    assert parse_term("k.2.1") == ProjL(ProjR(Var("k")))
    assert parse_term("f(a,b)") == Appl(Appl(Var("f"), Var("a")), Var("b"))
    assert parse_term("g.1(x,g.2.1)") == Appl(
        Appl(ProjL(g), Var("x")), ProjL(ProjR(g))
    )
    assert parse_term("(f a)") == Appl(Var("f"), Var("a"))
    assert parse_term("((f a) b)") == parse_term("f(a,b)")


def test_application_requires_parens_or_call_form():
    with pytest.raises(ParseError):
        parse_term("f a")


def test_scheme_references_resolve_to_instance_names():
    e = parse_term("cast{a}(x)", ALL)
    assert e == Appl(Var(instance_name("cast", (Var("a"),))), Var("x"))
    e = parse_term("negax-{a,~a}", ALL)
    assert e == Var(instance_name("negax-", (Var("a"), Neg(Var("a")))))
    # an index names the binders around it
    cast_x = Var(instance_name("cast", (Var("x"),)))
    assert parse_term("[x:tau]cast{x}", ALL) == UnivAbs(TAU, cast_x)


def test_scheme_reference_must_be_enabled():
    with pytest.raises(ParseError) as err:
        parse_term("cast{a}(x)")
    assert "not enabled" in str(err.value)
    gate = resolve_axiom_gate(["neg"])
    with pytest.raises(ParseError):
        parse_term("cast{a}(x)", gate)
    parse_term("negax+{a,b}", gate)


def test_scheme_reference_arity_is_checked():
    with pytest.raises(ParseError) as err:
        parse_term("cast{a,b}", ALL)
    assert "takes 1" in str(err.value)


def test_a_name_in_braces_without_scheme_status_stays_a_variable():
    # only scheme names consume a brace group
    assert parse_term("f") == Var("f")
    with pytest.raises(ParseError):
        parse_term("f{a}")


def test_bad_bracket_reports_the_deepest_alternative():
    with pytest.raises(ParseError) as err:
        parse_term("[a;b]")
    assert "expected '=>' in implication" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_term("[a=>b;c]")
    assert "';' may not follow '=>'" in str(err.value)
    with pytest.raises(ParseError):
        parse_term("[k:tau;P(k) => tau]")


def test_trailing_input_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_term("a b")
    assert "trailing" in str(err.value)


def test_document_contexts_defs_and_checks():
    doc = parse_document(
        """
        context C {
          a, b : tau;
          x : a
        }
        def id := [y:a]y
        check id(x) : a
        """
    )
    assert [n for n, _ in doc.context.entries] == ["a", "b", "x"]
    assert doc.context.lookup("x") == Var("a")
    assert doc.defs["id"] == UnivAbs(Var("a"), Bound(0))
    assert len(doc.checks) == 1
    item = doc.checks[0]
    assert item.term == Appl(UnivAbs(Var("a"), Bound(0)), Var("x"))
    assert item.ty == Var("a")
    assert item.line == 7


def test_definitions_splice_everywhere():
    doc = parse_document(
        """
        context C { a : tau }
        def ff := [x:tau]x
        context D { w : ff }
        check [y:ff]y : [ff => ff]
        """
    )
    ff = UnivAbs(TAU, Bound(0))
    assert doc.context.lookup("w") == ff
    assert doc.checks[0].ty == UnivAbs(ff, ff)
    # a def's free name is captured by a binder of that name where it is used
    doc = parse_document(
        """
        context C { a : tau; b : a }
        def f := b
        check [b:a]f : [b:a]a
        check [y:a][b:a][z:a]f : tau
        """
    )
    a = Var("a")
    assert doc.checks[0].term == UnivAbs(a, Bound(0))
    assert doc.checks[1].term == UnivAbs(a, UnivAbs(a, UnivAbs(a, Bound(1))))


def test_duplicate_names_are_rejected():
    with pytest.raises(ParseError):
        parse_document("context C { a : tau; a : tau }")
    with pytest.raises(ParseError):
        parse_document("context C { a : tau } def a := tau")
    with pytest.raises(ParseError):
        parse_document("def f := tau def f := tau")


def test_unknown_directive():
    with pytest.raises(ParseError) as err:
        parse_document("lemma x : tau")
    assert "expected a directive" in str(err.value)


def test_axiom_directive_and_first_use_splice_instances():
    doc = parse_document(
        "context C { a : tau } axiom castout{a}", resolve_axiom_gate(["cast"])
    )
    names = [n for n, _ in doc.context.entries]
    cast_nm = instance_name("cast", (Var("a"),))
    castout_nm = instance_name("castout", (Var("a"),))
    assert names == ["a", cast_nm, castout_nm]

    doc = parse_document(
        "context C { a : tau } def u := cast{a}(a)", resolve_axiom_gate(["cast"])
    )
    assert [n for n, _ in doc.context.entries] == ["a", cast_nm]
    # re-use does not duplicate the declaration
    doc = parse_document(
        "context C { a : tau } check [cast{a}(a) => cast{a}(a)] : tau",
        resolve_axiom_gate(["cast"]),
    )
    assert [n for n, _ in doc.context.entries] == ["a", cast_nm]


def test_axiom_directive_rejects_unknown_scheme():
    with pytest.raises(ParseError) as err:
        parse_document("axiom lift{a}", ALL)
    assert "unknown axiom scheme" in str(err.value)


def test_scheme_indices_must_use_declared_names_in_documents():
    with pytest.raises(ParseError) as err:
        parse_document("context C { a : tau } axiom cast{q}", ALL)
    assert "not declared in the context" in str(err.value)
    # term-local binders do not count as declarations
    with pytest.raises(ParseError) as err:
        parse_document("context C { a : tau } def u := [y:a]cast{y}(y)", ALL)
    assert "not declared" in str(err.value)


def test_multiline_directives_and_comments():
    doc = parse_document(
        """
        -- shapes split over lines parse like single-line ones
        context C { a : tau }
        check [x:a]
              x
            : [x:a]a  -- claimed type
        """
    )
    assert doc.checks[0].term == UnivAbs(Var("a"), Bound(0))


def test_binder_scope_ends_with_its_bracket():
    doc = parse_document(
        """
        def f := tau
        check [f:tau]f : [tau => tau]
        check f : tau
        """
    )
    assert doc.checks[1].term == TAU
    assert check_document(doc) == []
    # a '(e1 e2)' group after the body stands outside the bracket too
    doc = parse_document("def f := tau\ncheck ([f:tau]g (f b)) : tau")
    assert doc.checks[0].term == Appl(UnivAbs(TAU, Var("g")), Appl(TAU, Var("b")))
    cast_a = Var(instance_name("cast", (Var("a"),)))
    assert parse_term("([cast:tau]g cast{a})", ALL) == Appl(UnivAbs(TAU, Var("g")), cast_a)


def test_a_group_after_an_operand_is_a_call_or_the_next_operand():
    f, a, b, c = Var("f"), Var("a"), Var("b"), Var("c")
    assert parse_term("(f (a b).1)") == Appl(f, ProjL(Appl(a, b)))
    assert parse_term("(f (a b)(c))") == Appl(f, Appl(Appl(a, b), c))
    assert parse_term("(~f (a b))") == Appl(Neg(f), Appl(a, b))
    # the pushed-back group is read where it lands, outside the binder body
    doc = parse_document("def x := tau\ncheck ([x:=a]f (x b)) : tau")
    assert doc.checks[0].term == Appl(InternalSubst(a, f), Appl(TAU, b))
    cast_a = Var(instance_name("cast", (a,)))
    term = parse_term("([cast:=a]f (cast{a} b))", ALL)
    assert term == Appl(InternalSubst(a, f), Appl(cast_a, b))
    # an application no enclosing '(e1 e2)' takes is an error at its '('
    for text, col in [
        ("f (a b)", 3),
        ("[f (a b), c]", 4),
        ("(f (a b)(c d))", 9),
        ("<x:=a, b : P (x y)>", 14),
    ]:
        with pytest.raises(ParseError) as err:
            parse_term(text)
        assert (err.value.line, err.value.col) == (1, col)


def test_a_call_group_is_read_in_the_scope_of_its_operand():
    # a call after a binder body applies the body's last operand, so a scheme
    # name that the binder shadows names the bound variable there
    a, f = Var("a"), Var("f")
    assert parse_term("[cast:=a]f (cast)", ALL) == InternalSubst(a, Appl(f, Bound(0)))
    with pytest.raises(ParseError, match="1:13: cast is not an axiom scheme here"):
        parse_term("[cast:=a]f (cast{a})", ALL)


def _expr_calls(monkeypatch, text: str) -> int:
    calls = 0
    expr = _Parser.expr

    def counted(self):
        nonlocal calls
        calls += 1
        return expr(self)

    monkeypatch.setattr(_Parser, "expr", counted)
    parse_term(text)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("depth", [11, 16])
def test_nested_brackets_parse_in_linear_work(monkeypatch, depth):
    text = "tau"
    for i in range(depth):
        text = f"[{text}{'+,'[i % 2]}tau]"
    assert _expr_calls(monkeypatch, text) <= 2 * depth + 3


@pytest.mark.parametrize("depth", [100, 200])
def test_nested_applications_parse_in_linear_work(monkeypatch, depth):
    text = "(s " * depth + "z" + ")" * depth
    assert _expr_calls(monkeypatch, text) <= 2 * depth + 3


@pytest.mark.parametrize("n", [50, 100, 200])
def test_a_binder_chain_parses_without_walking_its_body(monkeypatch, n):
    # names resolve to indices where they are read, so no term is re-walked
    calls = 0

    def counting(walk):
        def counted(*args):
            nonlocal calls
            calls += 1
            return walk(*args)

        return counted

    # every walker that shift, open_binder and close_binder use
    for name in ("_map_leaves", "_map_indices"):
        walk = getattr(syntax, name)
        for module in (syntax, parser):
            monkeypatch.setattr(module, name, counting(walk), raising=False)
    e = parse_term("".join(f"[x{i}:tau]" for i in range(n)) + "x0")
    assert calls == 0
    for _ in range(n):
        assert e.dom == TAU
        e = e.body
    assert e == Bound(n - 1)


def test_scanning_makes_a_constant_number_of_python_calls():
    """One findall makes every token; the loop before made a Token per token,
    10,005 calls for these 10^4 tokens."""
    text = "f(a, b) " * 1667
    assert len(tokenize(text)) == 10_003
    few = calls_during(lambda: parser._Scan(text[:24]))
    assert calls_during(lambda: parser._Scan(text), bound=10) == few <= 3


def test_the_corpus_parses_in_fewer_python_calls_per_token():
    """5.22 calls per token over the ten corpus files; 8.41 before the scan, with
    a Token per token and one more frame per expression."""
    docs = [(corpus_text(n), resolve_axiom_gate(list(g))) for n, g in CORPUS_AXIOMS.items()]
    tokens = sum(len(tokenize(text)) - 1 for text, _ in docs)
    bound = int(5.4 * tokens)
    assert calls_during(lambda: [parse_document(*doc) for doc in docs], bound) <= bound


def test_a_document_of_many_checks_parses_in_linear_work(monkeypatch):
    """Each check's line comes from newline counts summed once per text; summing
    them again per check made it quadratic."""
    text = "context C { f : [tau => [tau => tau]]; a : tau }\n" + "check f(a, a) : tau\n" * 800
    bound = int(4.3 * (len(tokenize(text)) - 1))
    assert calls_during(lambda: parse_document(text), bound) <= bound
    sums = 0
    accumulate = parser.accumulate

    def counted(*args, **kwargs):
        nonlocal sums
        sums += 1
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(parser, "accumulate", counted)
    assert [c.line for c in parse_document(text).checks] == list(range(2, 802))
    assert sums == 1  # the newline counts, summed once; no offsets are summed


# The deepest binder chain and left-nested bracket that parse at the default
# recursion limit. Before the scan and the merge of the postfix loop into expr
# they were 248 and 198: one frame per level more.
READER_DEPTH = """
from dcalc.parser import parse_term

def deepest(make):
    lo, hi = 0, 2000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse_term(make(mid))
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo

print(deepest(lambda n: "".join(f"[x{i}:tau]" for i in range(n)) + "x0"))
print(deepest(lambda n: "[" * n + "tau" + ",tau]" * n))
"""


def test_the_reader_depth_at_the_default_recursion_limit():
    env = dict(os.environ, PYTHONPATH=str(Path(parser.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", READER_DEPTH], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["331", "248"]


GOLDEN = Path(__file__).parent / "data" / "parse_golden.jsonl"


def test_parses_match_the_golden_file():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(records) > 2000
    changed = [
        r["input"] for r in records if parse_record(r["mode"], r["gate"], r["input"]) != r
    ]
    assert changed == []


@pytest.mark.parametrize("leaf", ["a", "z"], ids=["free", "captured"])
def test_a_definition_used_under_a_binder_is_spliced_in_linear_work(monkeypatch, leaf):
    """def d(i) := [d(i-1), d(i-1)] spells out 2^n leaves sharing n nodes; under
    [z:tau] each of them is mapped once, whether z captures the leaf or not,
    and the splice stays one node per level."""
    n = 40
    bound = n + 1  # d0's one leaf takes one call; an unfolding takes 2^n
    calls = 0
    capture = parser._capture

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > bound:
            raise WorkBoundExceeded  # a walk of the unfolded tree stops here
        return capture(*args)

    monkeypatch.setattr(parser, "_capture", counted)
    doc = parse_document(
        f"def d0 := {leaf}\n"
        + "".join(f"def d{i} := [d{i - 1}, d{i - 1}]\n" for i in range(1, n + 1))
        + f"check [z:tau]d{n} : tau\n"
    )
    assert calls <= bound
    e = doc.checks[0].term.body
    for _ in range(n):
        assert e.l is e.r
        e = e.l
    assert e == (Var("a") if leaf == "a" else Bound(0))


def test_a_definition_no_binder_captures_is_spliced_as_its_own_node(monkeypatch):
    """Under binders that bind none of its free names, a def's use is the def's
    node, unfolded: no _capture call is made. A def that splices others has
    their free names too, and a binder of one of them still captures it."""
    calls = 0
    capture = parser._capture

    def counted(*args):
        nonlocal calls
        calls += 1
        return capture(*args)

    monkeypatch.setattr(parser, "_capture", counted)
    doc = parse_document(
        "context C { f : [tau => tau]; a : tau }\n"
        "def d := [x:tau](f a)\n"
        "def e := [d, [y:tau]d]\n"
        "check [z:tau][y:z]e : tau\n"
        "check [y:tau](e castin{[x:a]a}) : tau\n",
        ALL,
    )
    e = doc.defs["e"]
    assert e.l is e.r.body is doc.defs["d"]
    assert doc.checks[0].term.body.body is e
    assert doc.checks[1].term.body.fun is e
    assert calls == 0
    doc = parse_document(
        "context C { f : [tau => tau]; a : tau }\n"
        "def d := [x:tau](f a)\n"
        "def e := [d, [y:tau]d]\n"
        "check [a:tau]e : tau\n"
    )
    assert calls > 0
    captured = doc.checks[0].term.body
    assert captured.l.body.arg == Bound(1) and captured.r.body.body.arg == Bound(2)
