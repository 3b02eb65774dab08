"""Concrete syntax for terms and proof files.

Grammar sketch (predictive recursive descent: every choice is made from the
next tokens, and no token is read twice):

    expr     := '~' expr | atom ('.' ('1'|'2') | '(' expr (',' expr)* ')')*
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
name stands for its expansion, whose free names the binders there capture:
the def's own node, unless one of those binders binds a name free in it
(each def's free names are kept as a bit mask, made from the masks of the
defs it splices, so no def is walked to find them); and a scheme reference
such as negax-{a,~a} for an axiom instance, named over its indices with
bound names kept as names, whose declarations (dependencies first) a
document splices into the context right before the enclosing item.

One findall of a regular expression scans the text: each match is a gap
(blanks, newlines and '--' line comments) and the token after it, and the
parser reads the token texts by index. No token carries a position: a
ParseError finds it from the index, through the lengths and newline counts
of the matches summed once per text, and a check's line through the newline
counts alone. A comment takes no columns, so end of input after one stands
where it starts.

Files hold directives: `context NAME { decls }`, `def NAME := expr`,
`check expr : expr`, and `axiom scheme{indices}`.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from itertools import accumulate, chain, repeat
from operator import itemgetter, or_
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


# One match per token: the gap before it (blanks, newlines and comments), then
# the token, EOF's "" at the end of the text, or in the third group a character
# that no token takes. Every match succeeds without backtracking, and findall
# may add one more empty match after EOF's.
_SCAN = re.compile(r"((?:[ \t\r\n]+|--.*)*)(?:(negax[+-]|\w+|:=|=>|[][(){}<>,;:!~+.]|\Z)|(.))")
# The punctuation tokens and EOF's "": every other token is a name.
_PUNCT = frozenset(["", ":=", "=>", *"[](){}<>,;:!~+."])


class _Scan:
    """The token texts of a text, EOF's "" last; positions are found on demand."""

    def __init__(self, text: str):
        self.text = text
        self.matches = _SCAN.findall(text)
        self.toks = list(map(itemgetter(1), self.matches))
        self.lines: list[int] = []
        self.starts: list[int] = []
        if any(map(itemgetter(2), self.matches)):
            i = next(i for i, m in enumerate(self.matches) if m[2])
            raise ParseError(f"unexpected character {self.matches[i][2]!r}", *self.where(i))

    def line(self, i: int) -> int:
        """The line of token i."""
        if not self.lines:  # the newlines up to each token, summed once per text
            gaps = map(itemgetter(0), self.matches)
            self.lines = list(accumulate(map(str.count, gaps, repeat("\n")), initial=1))
        return self.lines[i + 1]

    def where(self, i: int) -> tuple[int, int]:
        """The line and column of token i; EOF stands where a comment before it starts."""
        if not self.starts:  # the offsets up to each token, summed once per text
            self.starts = list(accumulate(map(len, chain.from_iterable(self.matches))))[::3]
        start = self.starts[i]
        if not self.toks[i]:  # a comment on EOF's line ends it
            gap = self.matches[i][0]
            tail = gap[gap.rfind("\n") + 1 :]
            start -= len(tail) - len(tail.partition("--")[0])
        return self.line(i), start - self.text.rfind("\n", 0, start)


def tokenize(text: str) -> list[Token]:
    """The tokens of text, EOF last, each with its kind, line and column."""
    scan = _Scan(text)
    toks = scan.toks[: scan.toks.index("")]
    out = [Token("PUNCT" if t in _PUNCT else "NAME", t, *scan.where(i)) for i, t in enumerate(toks)]
    return out + [Token("EOF", "", *scan.where(len(toks)))]


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
    def __init__(self, text: str, allowed: frozenset[str], document: bool):
        self.scan = _Scan(text)
        self.toks = self.scan.toks
        self.pos = 0
        self.tok = self.toks[0]
        self.allowed = allowed
        self.document = document
        self.entries: dict[str, Expr] = {}  # the context's declarations, in order
        self.defs: dict[str, Expr] = {}
        # Sets of names as masks: a bit for each name found free, and the
        # names free in each def and in the term last begun.
        self.bits: dict[str, int] = {}
        self.free: dict[str, int] = {}
        self.free_here = 0
        self.checks: list[CheckItem] = []
        # A '(e1 e2)' group read after an operand, and the position after it;
        # until an atom takes it, the parser stands at the group's '('.
        self.pushed: tuple[_Build, int] | None = None

    def take(self) -> str:
        """The token here; the parser moves past it. No caller takes EOF."""
        tok = self.tok
        self.pos += 1
        self.tok = self.toks[self.pos]
        return tok

    def expect(self, text: str) -> None:
        if self.tok != text:
            raise self.error(f"expected {text!r}, got {self.tok or 'end of input'!r}")
        self.pos += 1
        self.tok = self.toks[self.pos]

    def expect_name(self) -> int:
        """The position of the name here; the parser moves past it."""
        if self.tok in _PUNCT:
            raise self.error(f"expected a name, got {self.tok or 'end of input'!r}")
        self.pos += 1
        self.tok = self.toks[self.pos]
        return self.pos - 1

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token `at`, by default the one here."""
        return ParseError(message, *self.scan.where(self.pos if at is None else at))

    def term(self) -> ExprS:
        """An expression, built where no binder is in scope."""
        self.free_here = 0
        return self.expr()(())

    # expressions

    def expr(self) -> _Build:
        if self.tok == "~":
            self.take()
            inner = self.expr()  # called directly: one frame for each '~'
            return lambda bound: Neg(inner(bound))
        head = self.atom()
        if self.tok != "." and self.tok != "(" or self.pushed is not None:
            return head
        steps: list[Callable[..., ExprS]] = []
        args: list[_Build] = []
        while self.pushed is None:
            if self.tok == ".":
                self.take()
                at = self.expect_name()
                if self.toks[at] not in ("1", "2"):
                    raise self.error("expected 1 or 2 after '.'", at)
                steps.append(ProjL if self.toks[at] == "1" else ProjR)
            elif self.tok == "(":
                # '(e)' and '(e, ...)' are calls; '(e1 e2)' starts the next operand
                paren = self.pos
                self.take()
                call_args = [self.expr()]
                if self.tok != ")" and self.tok != ",":
                    second = self.expr()
                    self.expect(")")
                    self.pushed = (_node(Appl, call_args[0], second), self.pos)
                    self.pos, self.tok = paren, "("
                    break
                while self.tok == ",":
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
            e, self.pos = self.pushed
            self.pushed, self.tok = None, self.toks[self.pos]
            return e
        tok = self.tok
        if tok not in _PUNCT:
            at = self.pos
            self.take()
            if tok == "tau":
                return lambda bound: TAU
            if tok in _INJECTIONS and self.tok == "(":
                self.take()
                first = self.expr()
                self.expect(",")
                second = self.expr()
                self.expect(")")
                return _node(_INJECTIONS[tok], first, second)
            indices = self._indices(at) if tok in SCHEME_NAMES and self.tok == "{" else None
            return partial(self._ref, at, indices)
        if tok == "[":
            return self._bracket()
        if tok == "(":
            self.take()
            e1 = self.expr()
            e = e1 if self.tok == ")" else _node(Appl, e1, self.expr())
            self.expect(")")
            return e
        if tok == "<":
            self.take()
            name = self.toks[self.expect_name()]
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
        self.take()  # '['
        toks, pos = self.toks, self.pos
        if toks[pos] not in _PUNCT and toks[pos + 1] == ":=":
            name = self.take()
            self.take()
            defn = self.expr()
            self.expect("]")
            return _binder(InternalSubst, name, defn, self.expr())
        # EOF ends the tokens, so a name always has a token after it
        i = pos
        while toks[i] not in _PUNCT and toks[i + 1] == ",":
            i += 2
        if toks[i] in _PUNCT or toks[i + 1] not in (":", "!"):
            return self._connective()
        groups: list[tuple[list[str], type, _Build]] = []
        while True:
            names = [toks[self.expect_name()]]
            while self.tok == ",":
                self.take()
                names.append(toks[self.expect_name()])
            if self.tok != ":" and self.tok != "!":
                raise self.error("expected ':' or '!' in binder group")
            cls = ExistAbs if self.take() == "!" else UnivAbs
            groups.append((names, cls, self.expr()))
            if self.tok != ";":
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
        kind = self.tok
        if kind not in (";", "=>", ",", "+", "]"):
            raise self.error("expected ',' or '+' in bracket")
        seps = (kind,) if kind in (",", "+") else (";", "=>")
        used: list[str] = []
        while self.tok in seps:
            used.append(self.take())
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

    def _ref(self, at: int, indices: list[_Build] | None, bound: tuple[str, ...]) -> ExprS:
        """A binder's index, a def's expansion, or with indices an axiom instance.

        A def's expansion is the def's own node, unless the binders around
        its use bind some of its free names: then they capture them.
        """
        name = self.toks[at]
        if name in bound or name in self.defs:
            if indices is not None:
                raise self.error(f"{name} is not an axiom scheme here", at)
            if name in bound:
                return Bound(bound.index(name))
            free = self.free[name]
            captured = free & reduce(or_, map(self.bits.get, bound, repeat(0)), 0)
            self.free_here |= free & ~captured
            if not captured:
                return self.defs[name]
            return _map_leaves(self.defs[name], partial(_capture, bound), 0)
        if indices is not None:
            name = self._instance(at, indices, bound)
        bit = self.bits.get(name)
        if bit is None:
            bit = self.bits[name] = 1 << len(self.bits)
        self.free_here |= bit
        return Var(name)

    def _indices(self, at: int) -> list[_Build]:
        """The indices of the axiom scheme reference at token `at`."""
        scheme = SCHEME_NAMES[self.toks[at]]
        if scheme not in self.allowed:
            raise self.error(f"axiom scheme {scheme!r} is not enabled here", at)
        self.expect("{")
        indices = [self.expr()]
        while self.tok == ",":
            self.take()
            indices.append(self.expr())
        self.expect("}")
        if len(indices) != SCHEME_ARITY[scheme]:
            raise self.error(
                f"{scheme} takes {SCHEME_ARITY[scheme]} indices, got {len(indices)}", at
            )
        return indices

    def _instance(self, at: int, indices: list[_Build], bound: tuple[str, ...]) -> str:
        """The name of the axiom instance that token `at` names; in a document,
        the instance joins the context.

        A bound name in an index stays a name, as the declaration reads it.
        """
        made = tuple(idx(bound) for idx in indices)
        if any(idx._lb for idx in made):  # a bound name in an index dangles out of it
            made = tuple(_map_leaves(idx, partial(_release, bound), 0) for idx in made)
        if not self.document:
            return instance_name(self.toks[at], made)
        for idx in made:
            loose = free_vars(idx) - self.entries.keys()
            if loose:
                raise self.error(
                    "axiom index uses names not declared in the context: "
                    + ", ".join(sorted(loose)),
                    at,
                )
        return declare(self.entries, self.toks[at], made)

    # directives

    def document_body(self) -> Document:
        toks = self.toks
        while self.tok:
            at = self.expect_name()
            match toks[at]:
                case "context":
                    self._context_block()
                case "def":
                    name = self.expect_name()
                    self.expect(":=")
                    body = self.term()
                    self._fresh(name)
                    self.defs[toks[name]] = body
                    self.free[toks[name]] = self.free_here
                case "check":
                    term = self.term()
                    self.expect(":")
                    ty = self.term()
                    self.checks.append(CheckItem(term, ty, self.scan.line(at)))
                case "axiom":
                    ref = self.expect_name()
                    if toks[ref] not in SCHEME_NAMES:
                        raise self.error(f"unknown axiom scheme: {toks[ref]}", ref)
                    self._instance(ref, self._indices(ref), ())
                case _:
                    raise self.error(
                        f"expected a directive (context, def, check, axiom), got {toks[at]!r}",
                        at,
                    )
        return Document(Context(tuple(self.entries.items())), self.defs, self.checks)

    def _context_block(self) -> None:
        self.expect_name()
        self.expect("{")
        while self.tok != "}":
            names = [self.expect_name()]
            while self.tok == ",":
                self.take()
                names.append(self.expect_name())
            self.expect(":")
            ty = self.term()
            for at in names:
                self._fresh(at)
                self.entries[self.toks[at]] = ty
            if self.tok != ";":
                break
            self.take()
        self.expect("}")

    def _fresh(self, at: int) -> None:
        name = self.toks[at]
        if name in self.entries or name in self.defs:
            raise self.error(f"duplicate name: {name}", at)


def parse_term(text: str, allowed_schemes: frozenset[str] = frozenset()) -> ExprS:
    """Parse one standalone expression."""
    parser = _Parser(text, allowed_schemes, document=False)
    build = parser.expr()
    if parser.tok:
        raise parser.error(f"unexpected trailing input: {parser.tok!r}")
    return build(())


def parse_document(text: str, allowed_schemes: frozenset[str] = frozenset()) -> Document:
    """Parse a proof file of directives into a context, definitions, and checks."""
    return _Parser(text, allowed_schemes, document=True).document_body()
