"""Axiom schemes and the pure-type-system bridge.

Seven schemes of typed constants, indexed by expressions: two that recover
classical reasoning over sums (negax+ / negax-) and five that let types be
demoted to and restored from tau (cast, castin, castout, dcastin, dcastout).
Each requested instance becomes one context declaration whose name is the
scheme slug plus a stable hash of the canonically serialized indices, so
re-instantiation is deterministic.

SCHEMES holds one row per scheme: its slug, its family, its arity, the
schemes instantiated at its first index that its template names (needs,
in the order they are declared), and the template, which writes the
variables of its binders as de Bruijn indices, so no placeholder name is
closed over. Every other fact about a scheme is read from its row. declare
adds an instance, after whichever of its needs are missing, to an ordered
dict of declarations, and builds only the instances it adds; the parser,
the translation and instantiate_axioms all add instances through it.

pts_to_dcalc translates a single-sorted pure type system into this calculus,
inserting the cast-family instances it needs as it goes.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from .reduction import DEFAULT_FUEL, reduce_nf
from .syntax import (
    TAU,
    Appl,
    Bound,
    Case,
    Context,
    ExistAbs,
    Expr,
    InjL,
    InjR,
    InternalSubst,
    Neg,
    Prim,
    ProjL,
    ProjR,
    ProtDef,
    Product,
    Record,
    Sum,
    UnivAbs,
    Var,
    children,
    close_binder,
    free_vars,
    fresh_name,
)
from .typecheck import TypingError, synth


class TranslationError(Exception):
    """A pure-type-system term that the casting translation cannot handle."""


def imp(a: Expr, b: Expr) -> Expr:
    """Implication: a universal abstraction whose body ignores the binder.

    b is read under the binder: its dangling indices count it, and none
    points at it.
    """
    return UnivAbs(a, b, "z")


def _app(f: Expr, *args: Expr) -> Expr:
    for a in args:
        f = Appl(f, a)
    return f


def _dcast(into: bool, _cast: Expr, ci: Expr, co: Expr, a: Expr, b: Expr) -> Expr:
    """[x:a][y:[x => b]][z:x] an implication between (y z) and (y co(x, ci(x, z))),
    the latter first unless into. plain and routed write theirs d binders
    inside z's."""

    def plain(d: int) -> Expr:
        return Appl(Bound(d + 1), Bound(d))

    def routed(d: int) -> Expr:
        x = Bound(d + 2)
        return Appl(Bound(d + 1), _app(co, x, _app(ci, x, Bound(d))))

    core = imp(plain(0), routed(1)) if into else imp(routed(0), plain(1))
    return UnivAbs(a, UnivAbs(imp(Bound(0), b), UnivAbs(Bound(1), core, "z"), "y"), "x")


class Scheme(NamedTuple):
    """One axiom scheme. The template takes the names of its needs' instances,
    as Vars in the order of needs, then the indices, which are locally closed;
    it writes its binders' variables as de Bruijn indices."""

    slug: str
    family: str
    arity: int
    needs: tuple[str, ...]
    template: Callable[..., Expr]


_DCAST_NEEDS = ("cast", "castin", "castout")  # castin and castout name cast

SCHEMES = {
    "negax+": Scheme("negaxp", "neg", 2, (), lambda a, b: imp(Sum(a, b), imp(Neg(a), b))),
    "negax-": Scheme("negaxn", "neg", 2, (), lambda a, b: imp(imp(Neg(a), b), Sum(a, b))),
    "cast": Scheme("cast", "cast", 1, (), lambda a: imp(a, TAU)),
    "castin": Scheme(
        "castin", "cast", 1, ("cast",),
        lambda cast, a: UnivAbs(a, imp(Bound(0), Appl(cast, Bound(1))), "x"),
    ),
    "castout": Scheme(
        "castout", "cast", 1, ("cast",),
        lambda cast, a: UnivAbs(a, imp(Appl(cast, Bound(0)), Bound(1)), "x"),
    ),
    "dcastin": Scheme("dcastin", "cast", 2, _DCAST_NEEDS, partial(_dcast, True)),
    "dcastout": Scheme("dcastout", "cast", 2, _DCAST_NEEDS, partial(_dcast, False)),
}

# Each scheme under its name and its slug.
SCHEME_NAMES = {name: s for s, row in SCHEMES.items() for name in (s, row.slug)}

SCHEME_ARITY = {s: row.arity for s, row in SCHEMES.items()}

FAMILIES = {
    row.family: tuple(s for s, r in SCHEMES.items() if r.family == row.family)
    for row in SCHEMES.values()
}


def normalize_scheme(name: str) -> str:
    if name not in SCHEME_NAMES:
        raise ValueError(f"unknown axiom scheme: {name}")
    return SCHEME_NAMES[name]


def resolve_axiom_gate(tokens: list[str]) -> frozenset[str]:
    """Expand CLI / directive gate tokens (families, schemes, 'all')."""
    out: set[str] = set()
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok == "all":
            out.update(SCHEMES)
        elif tok in FAMILIES:
            out.update(FAMILIES[tok])
        else:
            out.add(normalize_scheme(tok))
    return frozenset(out)


# The tag canonical writes before the parts of each compound node.
_TAGS = {
    UnivAbs: "U",
    ExistAbs: "E",
    Appl: "a",
    ProtDef: "p",
    ProjL: "l",
    ProjR: "r",
    Product: "prod",
    Sum: "sum",
    InjL: "il",
    InjR: "ir",
    Case: "c",
    Neg: "n",
    InternalSubst: "s",
}


def canonical(e: Expr) -> str:
    """Deterministic serialization ignoring binder hints.

    The pieces go into one list in pre-order and are joined once, so the
    work is linear in the size of e.
    """
    out: list[str] = []
    todo: list = [e]  # what is left to write, last first: nodes and text
    while todo:
        item = todo.pop()
        t = type(item)
        if t is str:
            out.append(item)
        elif t is Prim:
            out.append("tau")
        elif t is Var:
            out.append(f"(v {item.name})")
        elif t is Bound:
            out.append(f"(b {item.index})")
        elif t in _TAGS:
            out += "(", _TAGS[t]
            todo.append(")")
            for kid in reversed(children(item)):
                todo += kid, " "
        else:
            raise ValueError(f"unrecognized term: {item!r}")
    return "".join(out)


def instance_name(scheme: str, indices: tuple[Expr, ...], texts: list[str] | None = None) -> str:
    """texts, if given, are the indices as canonical writes them."""
    scheme = normalize_scheme(scheme)
    payload = scheme + "|" + "|".join(texts or map(canonical, indices))
    import hashlib  # here, not at import: only instances need it

    digest = hashlib.blake2b(payload.encode(), digest_size=5).hexdigest()
    return f"{SCHEMES[scheme].slug}_{digest}"


class AxiomScheme(NamedTuple):
    """One instantiated axiom: a declaration name plus its template type."""

    scheme: str
    indices: tuple[Expr, ...]
    name: str
    ty: Expr


def instance(
    scheme: str, indices: tuple[Expr, ...], texts: list[str] | None = None
) -> AxiomScheme:
    """Build one instance; its type may reference dependency instance names."""
    scheme = normalize_scheme(scheme)
    row = SCHEMES[scheme]
    if len(indices) != row.arity:
        raise ValueError(f"{scheme} takes {row.arity} indices, got {len(indices)}")
    texts = texts or [canonical(i) for i in indices]
    needs = [Var(instance_name(need, indices[:1], texts[:1])) for need in row.needs]
    name = instance_name(scheme, indices, texts)
    return AxiomScheme(scheme, indices, name, row.template(*needs, *indices))


def closure_requests(
    scheme: str, indices: tuple[Expr, ...], texts: list[str] | None = None
) -> list[AxiomScheme]:
    """The instance after the instances of its needs, in its row's order."""
    texts = texts or [canonical(i) for i in indices]
    made = instance(scheme, indices, texts)
    needs = SCHEMES[made.scheme].needs
    return [*(instance(need, indices[:1], texts[:1]) for need in needs), made]


def declare(entries: dict[str, Expr], scheme: str, indices: tuple[Expr, ...]) -> str:
    """Add the instance, after whichever of its needs are missing, to entries
    (declaration names to types, in order); return the instance's name.
    Each index is serialized once, for every name, and only the instances
    added are built."""
    texts = [canonical(i) for i in indices]
    name = instance_name(scheme, indices, texts)
    if name not in entries:  # else its needs are there too: it came after them
        for need in SCHEMES[normalize_scheme(scheme)].needs:
            need_name = instance_name(need, indices[:1], texts[:1])
            if need_name not in entries:
                entries[need_name] = instance(need, indices[:1], texts[:1]).ty
        entries[name] = instance(scheme, indices, texts).ty
    return name


def instantiate_axioms(requests: list[tuple[str, list[Expr]]]) -> Context:
    """A context declaring every requested instance in request order, needs first."""
    entries: dict[str, Expr] = {}
    for scheme, indices in requests:
        declare(entries, scheme, tuple(indices))
    return Context(tuple(entries.items()))


class Star(Record):
    __slots__ = ()


class PVar(Record):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Pi(Record):
    __slots__ = __match_args__ = ("var", "dom", "cod")

    def __init__(self, var: str, dom: PtsExpr, cod: PtsExpr):
        self.var, self.dom, self.cod = var, dom, cod


class PLam(Record):
    __slots__ = __match_args__ = ("var", "dom", "body")

    def __init__(self, var: str, dom: PtsExpr, body: PtsExpr):
        self.var, self.dom, self.body = var, dom, body


class PApp(Record):
    __slots__ = __match_args__ = ("fun", "arg")

    def __init__(self, fun: PtsExpr, arg: PtsExpr):
        self.fun, self.arg = fun, arg


PtsExpr = Star | PVar | Pi | PLam | PApp


class _Translator:
    def __init__(self, fuel: int):
        self.fuel = fuel
        self.entries: dict[str, Expr] = {}
        self.casts: dict[str, Expr] = {}  # each cast instance's name to its index

    def ensure(self, scheme: str, indices: tuple[Expr, ...]) -> str:
        """Declare an instance at one index, after its cast and other needs."""
        loose = free_vars(indices[0]) - self.entries.keys()
        if loose:
            raise TranslationError(
                f"axiom index mentions names not in the translated context: "
                f"{', '.join(sorted(loose))}"
            )
        self.casts[declare(self.entries, "cast", indices)] = indices[0]
        return declare(self.entries, scheme, indices)

    def ctx(self, locals_: list[tuple[str, Expr]]) -> Context:
        return Context(tuple(self.entries.items()) + tuple(locals_))

    def translate(
        self,
        pe: PtsExpr,
        scope: dict[str, str],
        locals_: list[tuple[str, Expr]],
    ) -> Expr:
        match pe:
            case Star():
                return TAU
            case PVar(name):
                if name in scope:
                    return Var(scope[name])
                if name in self.entries:
                    return Var(name)
                raise TranslationError(f"unbound variable: {name}")
            case Pi(var, dom, cod):
                ta = self.translate(dom, scope, locals_)
                x = self._pick(var, locals_)
                inner = locals_ + [(x, ta)]
                tb = self.translate(cod, {**scope, var: x}, inner)
                c = self._synth(tb, inner)
                index = UnivAbs(ta, close_binder(c, x), var)
                arg = UnivAbs(ta, close_binder(tb, x), var)
                cast_nm = self.ensure("cast", (index,))
                return Appl(Var(cast_nm), arg)
            case PLam(var, dom, body):
                ta = self.translate(dom, scope, locals_)
                x = self._pick(var, locals_)
                inner = locals_ + [(x, ta)]
                tb = self.translate(body, {**scope, var: x}, inner)
                c = self._synth(tb, inner)
                d = self._synth(c, inner)
                index = UnivAbs(ta, close_binder(d, x), var)
                castin_nm = self.ensure("castin", (index,))
                u = UnivAbs(ta, close_binder(c, x), var)
                t = UnivAbs(ta, close_binder(tb, x), var)
                return _app(Var(castin_nm), u, t)
            case PApp(fun, arg):
                tf = self.translate(fun, scope, locals_)
                tx = self.translate(arg, scope, locals_)
                ty = reduce_nf(self._synth(tf, locals_), self.fuel)
                match ty:
                    case Appl(Var(nm), c) if nm in self.casts:
                        d = self.casts[nm]
                    case _:
                        raise TranslationError(
                            "operator does not translate to a cast application"
                        )
                castout_nm = self.ensure("castout", (d,))
                return _app(Var(castout_nm), c, tf, tx)
        raise ValueError(f"unrecognized term: {pe!r}")

    def _pick(self, hint: str, locals_: list[tuple[str, Expr]]) -> str:
        return fresh_name(hint, self.entries, {n for n, _ in locals_})

    def _synth(self, e: Expr, locals_: list[tuple[str, Expr]]) -> Expr:
        try:
            return synth(self.ctx(locals_), e, self.fuel)
        except TypingError as err:
            raise TranslationError(f"side condition failed: {err}") from err


def pts_to_dcalc(
    pctx: list[tuple[str, PtsExpr]],
    pe: PtsExpr,
    fuel: int = DEFAULT_FUEL,
) -> tuple[Context, Expr]:
    """Translate a context and term of the single-sorted pure type system.

    Returns the translated context, with the cast-family instances each
    declaration needs inserted right before it, and the translated term.
    """
    tr = _Translator(fuel)
    for name, pty in pctx:
        ty = tr.translate(pty, {}, [])
        if name in tr.entries:
            raise TranslationError(f"duplicate declaration: {name}")
        tr.entries[name] = ty
    term = tr.translate(pe, {}, [])
    return Context(tuple(tr.entries.items())), term
