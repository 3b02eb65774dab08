"""Concrete syntax for terms and proof files.

Grammar sketch (predictive recursive descent: every choice is made from the
next tokens, and no token is read twice):

    expr     := '~' expr | postfix
    postfix  := atom ('.' ('1'|'2') | '(' expr (',' expr)* ')')*
    atom     := 'tau' | name | scheme '{' expr (',' expr)* '}' | bracket
              | '(' expr expr? ')' | ('inl'|'inr'|'case') '(' expr ',' expr ')'
              | '<' name ':=' expr ',' expr ':' expr '>'
    bracket  := '[' name ':=' expr ']' expr                 pending substitution
              | '[' group (';' group)* ']' expr             abstractions
              | '[' expr ((';'|'=>') expr)+ ']'             implication chain
              | '[' expr (',' expr)+ ']'                    product
              | '[' expr ('+' expr)+ ']'                    sum
    group    := name (',' name)* (':'|'!') expr

A bracket that opens with `name :=` or `name (',' name)* (':'|'!')` binds;
otherwise its first expression is parsed once and the separator after it
picks the form. Connectives nest to the right: [a;b=>c] is [a=>[b=>c]]. The
call form f(a,b) is sugar for ((f a) b). A '(' group after an operand is
parsed once: '(e)' and '(e, ...)' are calls, but '(e1 e2)' starts the next
operand, which only an enclosing '(e1 e2)' accepts. It waits in a one-slot
pushback where its '(' was, so (f (a b).1) is f applied to (a b).1, and
f (a b) alone is an error at '('. Names are resolved where each part lands,
from the names bound there, innermost first: a binder's name scopes over its
body only and reads as its de Bruijn index ([a,b:A] is [a:A][b:A]); a def's
name stands for its expansion, whose free names the binders there capture;
and a scheme reference such as negax-{a,~a} for an axiom instance, named
over its indices with bound names kept as names, whose declarations
(dependencies first) a document splices into the context right before the
enclosing item. One regular expression scans the text; '--' starts a line
comment.

Files hold directives: `context NAME { decls }`, `def NAME := expr`,
`check expr : expr`, and `axiom scheme{indices}`.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from typing import Callable, NamedTuple

from .axioms import SCHEME_ARITY, SCHEME_NAMES, declare, imp, instance_name
from .syntax import (
    TAU,
    Appl,
    Bound,
    Case,
    Context,
    ExistAbs,
    Expr,
    ExprS,
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
    _map_leaves,
    free_vars,
)


class ParseError(Exception):
    """A syntax error; str() prefixes the bare message with ``line:col``."""

    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


# One alternative per token class; "bad" takes any character no other does,
# so the matches tile the text.
_SCAN = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>--.*)"
    r"|(?P<NAME>negax[+-]|\w+)|(?P<PUNCT>:=|=>|[][(){}<>,;:!~+.])|(?P<bad>.)"
)


def tokenize(text: str) -> list[Token]:
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


class CheckItem(NamedTuple):
    term: Expr
    ty: Expr
    line: int


class Document(NamedTuple):
    context: Context
    defs: dict[str, Expr]
    checks: list[CheckItem]


# Parsing yields builders: functions from the names bound where a term lands,
# innermost first, to the term. What a name means (a binder's index, a def or
# an axiom instance) depends on that scope, and a '(e1 e2)' group learns it
# only after it is read.
_Build = Callable[[tuple[str, ...]], ExprS]

_INJECTIONS = {"inl": InjL, "inr": InjR, "case": Case}


def _node(make: Callable[..., ExprS], *parts: _Build) -> _Build:
    """make over the parts, built in the order written; it binds nothing."""
    return lambda bound: make(*[part(bound) for part in parts])


def _binder(make: Callable[..., ExprS], name: str, *parts: _Build) -> _Build:
    """make(*heads, body, name); name scopes over body only."""
    *heads, body = parts
    return lambda bound: make(*[head(bound) for head in heads], body((name, *bound)), name)


def _suffixed(steps: tuple[Callable[..., ExprS], ...], head: ExprS, *args: ExprS) -> ExprS:
    """head with the '.1', '.2' and call steps applied in order; calls take the args."""
    rest = iter(args)
    for step in steps:
        head = step(head, next(rest)) if step is Appl else step(head)
    return head


def _capture(bound: tuple[str, ...], v: Var | Bound, depth: int) -> ExprS:
    """v, with a free name bound in scope made that binder's index."""
    return Bound(bound.index(v.name) + depth) if type(v) is Var and v.name in bound else v


def _release(bound: tuple[str, ...], v: Var | Bound, depth: int) -> ExprS:
    """v, with an index of a binder in scope made that binder's name."""
    return Var(bound[v.index - depth]) if type(v) is Bound and v.index >= depth else v


def _fold_right(make: Callable[[ExprS, ExprS], ExprS], *items: ExprS) -> ExprS:
    return reduce(lambda out, item: make(item, out), reversed(items))


class _Parser:
    def __init__(self, toks: list[Token], allowed: frozenset[str], document: bool):
        self.toks = toks
        self.pos = 0
        self.tok = toks[0]
        self.allowed = allowed
        self.document = document
        self.entries: dict[str, Expr] = {}  # the context's declarations, in order
        self.defs: dict[str, Expr] = {}
        self.checks: list[CheckItem] = []
        # A '(e1 e2)' group read after an operand; until an atom takes it,
        # self.tok is the group's '('.
        self.pushed: _Build | None = None

    def at(self, text: str) -> bool:
        return self.tok.text == text  # EOF's text is "", which no caller asks for

    def take(self) -> Token:
        tok = self.tok
        if tok.kind != "EOF":
            self.pos += 1
            self.tok = self.toks[self.pos]
        return tok

    def expect(self, text: str) -> Token:
        tok = self.tok
        if tok.text != text:
            got = tok.text if tok.kind != "EOF" else "end of input"
            raise ParseError(f"expected {text!r}, got {got!r}", tok.line, tok.col)
        return self.take()

    def expect_name(self) -> Token:
        tok = self.tok
        if tok.kind != "NAME":
            got = tok.text if tok.kind != "EOF" else "end of input"
            raise ParseError(f"expected a name, got {got!r}", tok.line, tok.col)
        return self.take()

    def error(self, message: str) -> ParseError:
        tok = self.tok
        return ParseError(message, tok.line, tok.col)

    def term(self) -> ExprS:
        """An expression, built where no binder is in scope."""
        return self.expr()(())

    # expressions

    def expr(self) -> _Build:
        if self.at("~"):
            self.take()
            inner = self.expr()  # called directly: one frame for each '~'
            return lambda bound: Neg(inner(bound))
        return self.postfix()

    def postfix(self) -> _Build:
        head = self.atom()
        steps: list[Callable[..., ExprS]] = []
        args: list[_Build] = []
        while self.pushed is None:
            if self.at("."):
                self.take()
                tok = self.expect_name()
                if tok.text not in ("1", "2"):
                    raise ParseError("expected 1 or 2 after '.'", tok.line, tok.col)
                steps.append(ProjL if tok.text == "1" else ProjR)
            elif self.at("("):
                # '(e)' and '(e, ...)' are calls; '(e1 e2)' starts the next operand
                paren = self.take()
                call_args = [self.expr()]
                if not (self.at(")") or self.at(",")):
                    second = self.expr()
                    self.expect(")")
                    self.pushed, self.tok = _node(Appl, call_args[0], second), paren
                    break
                while self.at(","):
                    self.take()
                    call_args.append(self.expr())
                self.expect(")")
                steps += [Appl] * len(call_args)
                args += call_args
            else:
                break
        return _node(partial(_suffixed, tuple(steps)), head, *args) if steps else head

    def atom(self) -> _Build:
        if self.pushed is not None:
            e, self.pushed, self.tok = self.pushed, None, self.toks[self.pos]
            return e
        tok = self.tok
        if tok.kind == "NAME":
            self.take()
            if tok.text == "tau":
                return lambda bound: TAU
            if tok.text in _INJECTIONS and self.at("("):
                self.take()
                first = self.expr()
                self.expect(",")
                second = self.expr()
                self.expect(")")
                return _node(_INJECTIONS[tok.text], first, second)
            indices = self._indices(tok) if tok.text in SCHEME_NAMES and self.at("{") else None
            return partial(self._ref, tok, indices)
        if tok.text == "[":
            return self._bracket()
        if tok.text == "(":
            self.take()
            e1 = self.expr()
            e = e1 if self.at(")") else _node(Appl, e1, self.expr())
            self.expect(")")
            return e
        if tok.text == "<":
            self.take()
            name = self.expect_name().text
            self.expect(":=")
            witness = self.expr()
            self.expect(",")
            proof = self.expr()
            self.expect(":")
            tag = self.expr()
            self.expect(">")
            return _binder(ProtDef, name, witness, proof, tag)
        raise self.error("expected an expression")

    def _bracket(self) -> _Build:
        self.expect("[")
        toks, pos = self.toks, self.pos
        if toks[pos].kind == "NAME" and toks[pos + 1].text == ":=":
            name = self.take().text
            self.take()
            defn = self.expr()
            self.expect("]")
            return _binder(InternalSubst, name, defn, self.expr())
        # EOF ends the tokens, so a NAME always has a token after it
        i = pos
        while toks[i].kind == "NAME" and toks[i + 1].text == ",":
            i += 2
        if not (toks[i].kind == "NAME" and toks[i + 1].text in (":", "!")):
            return self._connective()
        groups: list[tuple[list[str], type, _Build]] = []
        while True:
            names = [self.expect_name().text]
            while self.at(","):
                self.take()
                names.append(self.expect_name().text)
            if not (self.at(":") or self.at("!")):
                raise self.error("expected ':' or '!' in binder group")
            cls = ExistAbs if self.take().text == "!" else UnivAbs
            groups.append((names, cls, self.expr()))
            if not self.at(";"):
                break
            self.take()
        self.expect("]")
        # [a,b:A]e is [a:A][b:A]e: A is read again in a's scope
        body = self.expr()
        for names, cls, dom in reversed(groups):
            for name in reversed(names):
                body = _binder(cls, name, dom, body)
        return body

    def _connective(self) -> _Build:
        """An implication, product or sum: the separator after the first item decides."""
        items = [self.expr()]
        kind = self.tok.text
        if kind not in (";", "=>", ",", "+", "]"):
            raise self.error("expected ',' or '+' in bracket")
        seps = (kind,) if kind in (",", "+") else (";", "=>")
        used: list[str] = []
        while self.tok.text in seps:
            used.append(self.take().text)
            items.append(self.expr())
        self.expect("]")
        if kind in (",", "+"):
            return _node(partial(_fold_right, Product if kind == "," else Sum), *items)
        if "=>" not in used:
            raise self.error("expected '=>' in implication")
        if ";" in used[used.index("=>") :]:
            raise self.error("';' may not follow '=>' in an implication")
        # item i lands under the i implications before it
        return lambda bound: _fold_right(
            imp, *(item(("",) * i + bound) for i, item in enumerate(items))
        )

    # names, resolved where their term lands

    def _ref(self, tok: Token, indices: list[_Build] | None, bound: tuple[str, ...]) -> ExprS:
        """A binder's index, a def's expansion, or with indices an axiom instance.

        The binders around a def's use capture its free names.
        """
        if tok.text in bound or tok.text in self.defs:
            if indices is not None:
                raise ParseError(
                    f"{tok.text} is not an axiom scheme here", tok.line, tok.col
                )
            if tok.text in bound:
                return Bound(bound.index(tok.text))
            body = self.defs[tok.text]
            return _map_leaves(body, partial(_capture, bound), 0) if bound else body
        return Var(tok.text) if indices is None else self._instance(tok, indices, bound)

    def _indices(self, tok: Token) -> list[_Build]:
        """The indices of the axiom scheme reference that tok starts."""
        scheme = SCHEME_NAMES[tok.text]
        if scheme not in self.allowed:
            raise ParseError(
                f"axiom scheme {scheme!r} is not enabled here", tok.line, tok.col
            )
        self.expect("{")
        indices = [self.expr()]
        while self.at(","):
            self.take()
            indices.append(self.expr())
        self.expect("}")
        if len(indices) != SCHEME_ARITY[scheme]:
            raise ParseError(
                f"{scheme} takes {SCHEME_ARITY[scheme]} indices, got {len(indices)}",
                tok.line,
                tok.col,
            )
        return indices

    def _instance(self, tok: Token, indices: list[_Build], bound: tuple[str, ...]) -> Var:
        """The axiom instance tok names; in a document, it joins the context.

        A bound name in an index stays a name, as the declaration reads it.
        """
        made = tuple(_map_leaves(idx(bound), partial(_release, bound), 0) for idx in indices)
        if not self.document:
            return Var(instance_name(tok.text, made))
        for idx in made:
            loose = free_vars(idx) - self.entries.keys()
            if loose:
                raise ParseError(
                    "axiom index uses names not declared in the context: "
                    + ", ".join(sorted(loose)),
                    tok.line,
                    tok.col,
                )
        return Var(declare(self.entries, tok.text, made))

    # directives

    def document_body(self) -> Document:
        while self.tok.kind != "EOF":
            tok = self.expect_name()
            match tok.text:
                case "context":
                    self._context_block()
                case "def":
                    name = self.expect_name()
                    self.expect(":=")
                    body = self.term()
                    self._fresh(name)
                    self.defs[name.text] = body
                case "check":
                    term = self.term()
                    self.expect(":")
                    ty = self.term()
                    self.checks.append(CheckItem(term, ty, tok.line))
                case "axiom":
                    ref = self.expect_name()
                    if ref.text not in SCHEME_NAMES:
                        raise ParseError(
                            f"unknown axiom scheme: {ref.text}", ref.line, ref.col
                        )
                    self._instance(ref, self._indices(ref), ())
                case _:
                    raise ParseError(
                        "expected a directive (context, def, check, axiom), got "
                        f"{tok.text!r}",
                        tok.line,
                        tok.col,
                    )
        return Document(Context(tuple(self.entries.items())), self.defs, self.checks)

    def _context_block(self) -> None:
        self.expect_name()
        self.expect("{")
        while not self.at("}"):
            names = [self.expect_name()]
            while self.at(","):
                self.take()
                names.append(self.expect_name())
            self.expect(":")
            ty = self.term()
            for tok in names:
                self._fresh(tok)
                self.entries[tok.text] = ty
            if not self.at(";"):
                break
            self.take()
        self.expect("}")

    def _fresh(self, tok: Token) -> None:
        if tok.text in self.entries or tok.text in self.defs:
            raise ParseError(f"duplicate name: {tok.text}", tok.line, tok.col)


def parse_term(text: str, allowed_schemes: frozenset[str] = frozenset()) -> ExprS:
    """Parse one standalone expression."""
    parser = _Parser(tokenize(text), allowed_schemes, document=False)
    build = parser.expr()
    tok = parser.tok
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input: {tok.text!r}", tok.line, tok.col)
    return build(())


def parse_document(text: str, allowed_schemes: frozenset[str] = frozenset()) -> Document:
    """Parse a proof file of directives into a context, definitions, and checks."""
    parser = _Parser(tokenize(text), allowed_schemes, document=True)
    return parser.document_body()
