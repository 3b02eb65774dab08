"""Concrete syntax for terms and proof files.

Grammar sketch (predictive: every choice is made from the next tokens):

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
otherwise the separator after its first expression picks the form, and
connectives nest to the right: [a;b=>c] is [a=>[b=>c]]. f(a,b) is ((f a) b).
After an operand, '(e)' and '(e, ...)' are calls, but '(e1 e2)' starts the
next operand, which only an enclosing '(e1 e2)' takes: (f (a b).1) is f
applied to (a b).1, and f (a b) alone is an error at '('.

One loop over a stack of the open constructions builds each node once its
parts are read, so no nesting takes a Python frame (precedence climbing on an
explicit stack, after Pratt, "Top down operator precedence", 1973). A name is
resolved where it is read: a binder's to its de Bruijn index ([a,b:A] is
[a:A][b:A]); a def's to the def's own node, or a copy when binders there bind
some of its free names; a scheme reference such as negax-{a,~a} to an axiom
instance named over its indices, bound names kept as names, which a document
declares (needs first) before the enclosing item. Resolution errors wait for
the end of the expression, so its syntax errors come first. A '(e1 e2)' whose
e2 ended binders it was read in reads e1 again without them.

One findall scans the text into gaps (blanks, newlines and '--' comments)
and tokens; a ParseError finds its line and column from the token's index.

Files hold directives: `context NAME { decls }`, `def NAME := expr`,
`check expr : expr`, and `axiom scheme{indices}`.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import NamedTuple

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
        i = self.toks.index("")  # EOF's, unless a character no token takes comes first
        if self.matches[i][2]:
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


_INJECTIONS = {"inl": InjL, "inr": InjR, "case": Case}

# The reader's stack holds the open constructions, each a list: its kind, the
# number of binders in scope where it opened, then what it has read so far:
#   _BIND   (class, domain, name)s, names (None: the body is next), next
#           name's index, class, first token of the domain
#   _SEQ    parts, the token after each (None: the expression's end), make,
#           hint, the part after which the hint binds: ~a [x:=a]b inl(a,b) <x:=a,b:c>
#   _CONN   items, separators, separators used, closing token, and for a scheme
#           reference's indices at and bad: name bound or a def (None: an axiom's)
#   _PAREN  e1, its first token, len(pending) and len(free_here) there
#   _CALL   head, '(' position, phase (0: the first argument, 1: the rest, 2: a
#           group's e2), its e1, len(pending), ('(', height) of the groups it ends
_BIND, _CONN, _CALL, _PAREN, _SEQ = range(5)


def _capture(levels: dict[str, int], height: int, v: Var | Bound, depth: int) -> ExprS:
    """v, with a free name bound in scope made that binder's index."""
    return Bound(height - 1 - levels[v.name] + depth) if type(v) is Var and v.name in levels else v


def _release(binds: list[tuple[str, int | None]], v: Var | Bound, depth: int) -> ExprS:
    """v, with an index of a binder in scope made that binder's name."""
    return Var(binds[depth - v.index - 1][0]) if type(v) is Bound and v.index >= depth else v


class _Parser:
    def __init__(self, text: str, allowed: frozenset[str], document: bool):
        self.scan = _Scan(text)
        self.toks = self.scan.toks
        self.pos, self.tok = 0, self.toks[0]
        self.allowed, self.document = allowed, document
        self.entries: dict[str, Expr] = {}  # the context's declarations, in order
        self.defs: dict[str, Expr] = {}
        self.checks: list[CheckItem] = []
        self.free: dict[str, frozenset[str]] = {}  # the names free in each def
        self.free_here: list[str] = []  # the names found free in the term last begun
        # The binders in scope, outermost first, as (name, the level the name
        # had before); and each bound name's level.
        self.binds: list[tuple[str, int | None]] = []
        self.levels: dict[str, int] = {}
        # For the term's end, in order: (at, message) errors, (at, indices) instances.
        self.pending: list[tuple[int, str | tuple[Expr, ...]]] = []
        # A '(e1 e2)' read after an operand, the position after it, the groups it
        # ends (as _CALL keeps them), len(pending) before it; the parser stands at its '('.
        self.pushed: tuple[ExprS, int, list[tuple[int, int]], int] | None = None
        # The '(' of each group that ends binders it is read in, and how many.
        self.groups: dict[int, int] = {}

    def take(self) -> str:
        """The token here; the parser moves past it. No caller takes EOF."""
        tok, self.pos = self.tok, self.pos + 1
        self.tok = self.toks[self.pos]
        return tok

    def expect(self, text: str) -> None:
        if self.tok != text:
            raise self.error(f"expected {text!r}, got {self.tok or 'end of input'!r}")
        self.take()

    def expect_name(self) -> int:
        """The position of the name here; the parser moves past it."""
        if self.tok in _PUNCT:
            raise self.error(f"expected a name, got {self.tok or 'end of input'!r}")
        self.take()
        return self.pos - 1

    def names(self) -> list[int]:
        """The positions of names separated by ','; the parser moves past them."""
        names = [self.expect_name()]
        while self.tok == ",":
            self.take()
            names.append(self.expect_name())
        return names

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token `at`, by default the one here."""
        return ParseError(message, *self.scan.where(self.pos if at is None else at))

    def term(self) -> ExprS:
        """An expression, built where no binder is in scope."""
        self.free_here = []
        e = self.expr()
        if self.pushed is not None:  # nothing takes it, so none of it is resolved
            del self.pending[self.pushed[3] :]
        self._resolve()
        return e

    def expr(self, stack: list | None = None) -> ExprS:
        """An expression, each node built once its parts are read; stack may hold some open."""
        toks, binds, levels, stack = self.toks, self.binds, self.levels, stack or []
        pending, free_here = self.pending, self.free_here
        while True:
            # an expression starts: open constructions up to an atom
            tok, at = self.tok, self.pos
            if self.pushed is not None:  # a '(e1 e2)' takes it as its e2
                v, self.pos, ends, _ = self.pushed
                self.pushed, self.tok, f = None, toks[self.pos], stack[-1]
                if f[0] == _CALL:
                    f[7] = ends
                elif ends[0][1] > f[1]:
                    # it ends binders it was read in: read e1 again without them
                    at = f[1]
                    for paren, height in reversed(ends):
                        self.groups[paren], at = height - at, height
                    del pending[f[4] :], free_here[f[5] :]
                    self.pos, self.tok, f[2] = f[3], toks[f[3]], None
                    continue
            elif tok not in _PUNCT:
                self.pos, self.tok = at + 1, toks[at + 1]
                if tok == "tau":
                    v = TAU
                elif self.tok == "(" and tok in _INJECTIONS:
                    self.take()
                    stack.append([_SEQ, len(binds), [], (",", ")"), _INJECTIONS[tok], (), 0])
                    continue
                elif self.tok == "{" and tok in SCHEME_NAMES:
                    self._scheme(stack, at, tok in levels or tok in self.defs)
                    continue
                elif tok in levels:
                    v = Bound(len(binds) - 1 - levels[tok])
                elif tok in self.defs:
                    v = self._def(tok)
                else:
                    free_here.append(tok)
                    v = Var(tok)
            elif tok not in ("[", "(", "~", "<"):
                raise self.error("expected an expression")
            else:
                self.pos, self.tok = at + 1, toks[at + 1]
                if tok == "(":
                    stack.append([_PAREN, len(binds), None, at + 1, len(pending), len(free_here)])
                elif tok == "~":
                    stack.append([_SEQ, len(binds), [], (None,), Neg, (), 0])
                elif tok == "<":
                    name = toks[self.expect_name()]
                    self.expect(":=")
                    stack.append([_SEQ, len(binds), [], (",", ":", ">"), ProtDef, (name,), 2])
                elif self.tok not in _PUNCT and toks[at + 2] == ":=":  # '[x:=': a substitution
                    stack.append([_SEQ, len(binds), [], ("]", None), InternalSubst, (self.tok,), 1])
                    self.pos, self.tok = at + 3, toks[at + 3]
                else:  # EOF ends the tokens, so a name always has a token after it
                    i = at = at + 1
                    while toks[i] not in _PUNCT and toks[i + 1] == ",":
                        i += 2
                    if toks[i] in _PUNCT or toks[i + 1] not in (":", "!"):
                        stack.append([_CONN, len(binds), [], None, [], "]"])
                    else:
                        cls = ExistAbs if toks[i + 1] == "!" else UnivAbs
                        stack.append([_BIND, len(binds), [], toks[at : i + 1 : 2], 0, cls, i + 2])
                        self.pos, self.tok = i + 2, toks[i + 2]
                continue
            # v is an atom: its suffixes, then the constructions it completes
            atom = True
            while True:
                if atom and self.pushed is None:
                    while self.tok == ".":
                        self.take()
                        at = self.expect_name()
                        if toks[at] != "1" and toks[at] != "2":
                            raise self.error("expected 1 or 2 after '.'", at)
                        v = ProjL(v) if toks[at] == "1" else ProjR(v)
                    if self.tok == "(":
                        if self.pos in self.groups:  # read without the binders it ends
                            self._unbind(len(binds) - self.groups[self.pos])
                        stack.append([_CALL, len(binds), v, self.pos, 0, None, len(pending), []])
                        self.take()
                        break
                if not stack:
                    return v
                f = stack[-1]
                atom = True
                if f[0] == _BIND:
                    if f[3] is not None:  # [a,b:A]e is [a:A][b:A]e: A is read again in a's scope
                        f[2].append((f[5], v, f[3][f[4]]))
                        self._bind(f[3][f[4]])
                        f[4] += 1
                        if f[4] < len(f[3]):
                            self.pos, self.tok, self.pushed = f[6], toks[f[6]], None
                        elif self.tok == ";":
                            self.take()
                            f[3:] = [toks[at] for at in self.names()], 0
                            if self.tok != ":" and self.tok != "!":
                                raise self.error("expected ':' or '!' in binder group")
                            f[5:] = ExistAbs if self.take() == "!" else UnivAbs, self.pos
                        else:
                            self.expect("]")
                            f[3] = None
                        break
                    for cls, dom, name in reversed(f[2]):
                        v = cls(dom, v, name)
                    atom = False
                elif f[0] == _CONN:
                    items, seps, used, close = f[2:6]
                    items.append(v)
                    if seps is None:
                        if self.tok not in (";", "=>", ",", "+", "]"):
                            raise self.error("expected ',' or '+' in bracket")
                        f[3] = seps = (self.tok,) if self.tok in (",", "+") else (";", "=>")
                    if self.tok in seps:
                        used.append(self.take())
                        if seps[0] == ";":  # item i lands under the i implications before it
                            self._bind("")
                        break
                    self.expect(close)
                    if close == "}":  # a scheme reference's indices
                        v = self._instance(f[6], items, f[7])
                        if f[7] is None:
                            return v
                    elif seps[0] == ";" and "=>" not in used:
                        raise self.error("expected '=>' in implication")
                    elif seps[0] == ";" and ";" in used[used.index("=>") :]:
                        raise self.error("';' may not follow '=>' in an implication")
                    else:
                        make = imp if seps[0] == ";" else Product if seps[0] == "," else Sum
                        for item in reversed(items[:-1]):
                            v = make(item, v)
                elif f[0] == _CALL:
                    if f[4] == 1 or f[4] == 0 and (self.tok == ")" or self.tok == ","):
                        f[2] = Appl(f[2], v)
                        if self.tok == ",":
                            self.take()
                            f[4] = 1
                            break
                        self.expect(")")
                        v = f[2]
                    elif f[4] == 0:  # '(e1 e2)' starts the next operand
                        f[4], f[5] = 2, v
                        break
                    else:
                        self.expect(")")
                        self.pushed = (Appl(f[5], v), self.pos, [*f[7], (f[3], f[1])], f[6])
                        self.pos, self.tok, v = f[3], "(", f[2]
                elif f[0] == _PAREN:
                    if f[2] is None and self.tok != ")":
                        f[2] = v
                        break
                    self.expect(")")
                    v = v if f[2] is None else Appl(f[2], v)
                else:  # _SEQ
                    f[2].append(v)
                    sep = f[3][len(f[2]) - 1]
                    if sep is not None:
                        self.expect(sep)
                    if len(f[2]) < len(f[3]):
                        if len(f[2]) == f[6]:
                            self._bind(f[5][0])
                        break
                    v = f[4](*f[2], *f[5])
                    atom = sep is not None
                self._unbind(f[1])
                stack.pop()

    def _bind(self, name: str) -> None:
        self.binds.append((name, self.levels.get(name)))
        self.levels[name] = len(self.binds) - 1

    def _unbind(self, height: int) -> None:
        """Take the binders past the first height out of scope."""
        while len(self.binds) > height:
            name, prev = self.binds.pop()
            if prev is None:
                del self.levels[name]
            else:
                self.levels[name] = prev

    def _def(self, name: str) -> ExprS:
        """A def's expansion: its own node, or binders in scope capture its free names."""
        free = self.free[name]
        self.free_here += free.difference(self.levels)
        if free.isdisjoint(self.levels):
            return self.defs[name]
        return _map_leaves(self.defs[name], partial(_capture, self.levels, len(self.binds)), 0)

    def _scheme(self, stack: list, at: int, bad: bool | None) -> list:
        """stack, with the scheme reference at token `at` opened on it."""
        scheme = SCHEME_NAMES[self.toks[at]]
        if scheme not in self.allowed:
            raise self.error(f"axiom scheme {scheme!r} is not enabled here", at)
        self.expect("{")
        if bad:
            self.pending.append((at, f"{self.toks[at]} is not an axiom scheme here"))
        stack.append([_CONN, len(self.binds), [], (",",), [], "}", at, bad])
        return stack

    def _instance(self, at: int, indices: list[ExprS], bad: bool | None) -> Var:
        """The axiom instance token `at` names over indices; a document declares it later."""
        scheme = SCHEME_NAMES[self.toks[at]]
        if len(indices) != (arity := SCHEME_ARITY[scheme]):
            raise self.error(f"{scheme} takes {arity} indices, got {len(indices)}", at)
        if bad:  # its error is pending
            return Var(self.toks[at])
        made = tuple(indices)
        if any(idx._lb for idx in made):  # a bound name in an index dangles out of it
            made = tuple(_map_leaves(idx, partial(_release, self.binds), 0) for idx in made)
        if self.document:
            self.pending.append((at, made))
        self.free_here.append(instance_name(self.toks[at], made))
        return Var(self.free_here[-1])

    def _resolve(self) -> None:
        """Raise the first error the term leaves, else declare its instances."""
        pending, self.pending = self.pending, []
        for at, made in pending:
            if type(made) is str:
                raise self.error(made, at)
            for idx in made:
                if loose := ", ".join(sorted(free_vars(idx) - self.entries.keys())):
                    message = "axiom index uses names not declared in the context: "
                    raise self.error(message + loose, at)
            declare(self.entries, self.toks[at], made)

    def document_body(self) -> Document:
        toks = self.toks
        while self.tok:
            at = self.expect_name()
            match toks[at]:
                case "context":
                    self.expect_name()
                    self.expect("{")
                    while self.tok != "}":
                        names = self.names()
                        self.expect(":")
                        ty = self.term()
                        for at in names:
                            self._fresh(at)
                            self.entries[toks[at]] = ty
                        if self.tok != ";":
                            break
                        self.take()
                    self.expect("}")
                case "def":
                    name = self.expect_name()
                    self.expect(":=")
                    body = self.term()
                    self._fresh(name)
                    self.defs[toks[name]] = body
                    self.free[toks[name]] = frozenset(self.free_here)
                case "check":
                    term = self.term()
                    self.expect(":")
                    ty = self.term()
                    self.checks.append(CheckItem(term, ty, self.scan.line(at)))
                case "axiom":
                    ref = self.expect_name()
                    if toks[ref] not in SCHEME_NAMES:
                        raise self.error(f"unknown axiom scheme: {toks[ref]}", ref)
                    self.expr(self._scheme([], ref, None))
                    self._resolve()
                case _:
                    message = f"expected a directive (context, def, check, axiom), got {toks[at]!r}"
                    raise self.error(message, at)
        return Document(Context(tuple(self.entries.items())), self.defs, self.checks)

    def _fresh(self, at: int) -> None:
        name = self.toks[at]
        if name in self.entries or name in self.defs:
            raise self.error(f"duplicate name: {name}", at)


def parse_term(text: str, allowed_schemes: frozenset[str] = frozenset()) -> ExprS:
    """Parse one standalone expression."""
    parser = _Parser(text, allowed_schemes, document=False)
    e = parser.expr()
    if parser.tok:
        raise parser.error(f"unexpected trailing input: {parser.tok!r}")
    parser._resolve()
    return e


def parse_document(text: str, allowed_schemes: frozenset[str] = frozenset()) -> Document:
    """Parse a proof file of directives into a context, definitions, and checks."""
    return _Parser(text, allowed_schemes, document=True).document_body()
