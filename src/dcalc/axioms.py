"""Axiom schemes and the pure-type-system bridge.

Seven schemes of typed constants, indexed by expressions: two that recover
classical reasoning over sums (negax+ / negax-) and five that let types be
demoted to and restored from tau (cast, castin, castout, dcastin, dcastout).
Each requested instance becomes one context declaration whose name is the
scheme slug plus a stable hash of the canonically serialized indices, so
re-instantiation is deterministic.

pts_to_dcalc translates a single-sorted pure type system into this calculus,
inserting the cast-family instances it needs as it goes.
"""

from __future__ import annotations

from typing import NamedTuple

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

SCHEME_ARITY = {
    "negax+": 2,
    "negax-": 2,
    "cast": 1,
    "castin": 1,
    "castout": 1,
    "dcastin": 2,
    "dcastout": 2,
}

FAMILIES = {
    "neg": ("negax+", "negax-"),
    "cast": ("cast", "castin", "castout", "dcastin", "dcastout"),
}

_SLUGS = {"negax+": "negaxp", "negax-": "negaxn"}


class CyclicIndices(Exception):
    """Axiom requests whose indices reference each other cyclically."""


class TranslationError(Exception):
    """A pure-type-system term that the casting translation cannot handle."""


def normalize_scheme(name: str) -> str:
    for canonical, slug in _SLUGS.items():
        if name in (canonical, slug):
            return canonical
    if name in SCHEME_ARITY:
        return name
    raise ValueError(f"unknown axiom scheme: {name}")


def resolve_axiom_gate(tokens: list[str]) -> frozenset[str]:
    """Expand CLI / directive gate tokens (families, schemes, 'all')."""
    out: set[str] = set()
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok == "all":
            out.update(SCHEME_ARITY)
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


def instance_name(scheme: str, indices: tuple[Expr, ...]) -> str:
    scheme = normalize_scheme(scheme)
    slug = _SLUGS.get(scheme, scheme)
    payload = scheme + "|" + "|".join(canonical(i) for i in indices)
    import hashlib  # here, not at import: only instances need it

    digest = hashlib.blake2b(payload.encode(), digest_size=5).hexdigest()
    return f"{slug}_{digest}"


class AxiomScheme(NamedTuple):
    """One instantiated axiom: a declaration name plus its template type."""

    scheme: str
    indices: tuple[Expr, ...]
    name: str
    ty: Expr


def imp(a: Expr, b: Expr) -> Expr:
    """Implication: a universal abstraction whose body ignores the binder.

    b is read under the binder: its dangling indices count it, and none
    points at it.
    """
    return UnivAbs(a, b, "z")


def _univ(tmp: str, hint: str, dom: Expr, body: Expr) -> Expr:
    return UnivAbs(dom, close_binder(body, tmp), hint)


def _app(f: Expr, *args: Expr) -> Expr:
    for a in args:
        f = Appl(f, a)
    return f


def instance(scheme: str, indices: tuple[Expr, ...]) -> AxiomScheme:
    """Build one instance; its type may reference dependency instance names."""
    scheme = normalize_scheme(scheme)
    if len(indices) != SCHEME_ARITY[scheme]:
        raise ValueError(
            f"{scheme} takes {SCHEME_ARITY[scheme]} indices, got {len(indices)}"
        )
    name = instance_name(scheme, indices)
    match scheme:
        case "negax+":
            a, b = indices
            ty = imp(Sum(a, b), imp(Neg(a), b))
        case "negax-":
            a, b = indices
            ty = imp(imp(Neg(a), b), Sum(a, b))
        case "cast":
            (a,) = indices
            ty = imp(a, TAU)
        case "castin":
            (a,) = indices
            cast_nm = instance_name("cast", indices)
            x = Var("@1")
            ty = _univ("@1", "x", a, imp(x, Appl(Var(cast_nm), x)))
        case "castout":
            (a,) = indices
            cast_nm = instance_name("cast", indices)
            x = Var("@1")
            ty = _univ("@1", "x", a, imp(Appl(Var(cast_nm), x), x))
        case "dcastin" | "dcastout":
            a, b = indices
            ci = Var(instance_name("castin", (a,)))
            co = Var(instance_name("castout", (a,)))
            x, y, z = Var("@1"), Var("@2"), Var("@3")
            plain = Appl(y, z)
            routed = Appl(y, _app(co, x, _app(ci, x, z)))
            core = imp(plain, routed) if scheme == "dcastin" else imp(routed, plain)
            ty = _univ(
                "@1", "x", a,
                _univ("@2", "y", imp(x, b), _univ("@3", "z", x, core)),
            )
        case _:
            raise ValueError(f"unknown axiom scheme: {scheme}")
    return AxiomScheme(scheme, indices, name, ty)


def closure_requests(scheme: str, indices: tuple[Expr, ...]) -> list[AxiomScheme]:
    """The instance plus its template dependencies, dependencies first."""
    scheme = normalize_scheme(scheme)
    out: list[AxiomScheme] = []
    match scheme:
        case "castin" | "castout":
            out.extend(closure_requests("cast", indices))
        case "dcastin" | "dcastout":
            a, _ = indices
            out.extend(closure_requests("cast", (a,)))
            out.extend(closure_requests("castin", (a,)))
            out.extend(closure_requests("castout", (a,)))
    out.append(instance(scheme, indices))
    kept: dict[str, AxiomScheme] = {}  # the first instance of each name
    for inst in out:
        kept.setdefault(inst.name, inst)
    return list(kept.values())


def instantiate_axioms(requests: list[tuple[str, list[Expr]]]) -> Context:
    """A context declaring every requested instance, dependencies ordered first."""
    kept: dict[str, AxiomScheme] = {}  # the first instance of each name
    for scheme, indices in requests:
        for inst in closure_requests(scheme, tuple(indices)):
            kept.setdefault(inst.name, inst)
    pending = list(kept.values())
    generated = {inst.name for inst in pending}
    entries: list[tuple[str, Expr]] = []
    placed: set[str] = set()
    while pending:
        progressed = False
        rest: list[AxiomScheme] = []
        for inst in pending:
            needs = (free_vars(inst.ty) & generated) - placed
            if needs:
                rest.append(inst)
            else:
                entries.append((inst.name, inst.ty))
                placed.add(inst.name)
                progressed = True
        if not progressed:
            names = ", ".join(inst.name for inst in rest)
            raise CyclicIndices(f"no dependency order for: {names}")
        pending = rest
    return Context(tuple(entries))


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
        self.entries: list[tuple[str, Expr]] = []
        self.created: dict[str, AxiomScheme] = {}

    def global_names(self) -> set[str]:
        return {name for name, _ in self.entries}

    def ensure(self, scheme: str, indices: tuple[Expr, ...]) -> str:
        """Declare an instance (and its dependencies) if not already present."""
        for inst in closure_requests(scheme, indices):
            if inst.name in self.created:
                continue
            loose = set().union(*(free_vars(i) for i in inst.indices)) - self.global_names()
            if loose:
                raise TranslationError(
                    f"axiom index mentions names not in the translated context: "
                    f"{', '.join(sorted(loose))}"
                )
            self.created[inst.name] = inst
            self.entries.append((inst.name, inst.ty))
        return instance_name(scheme, indices)

    def ctx(self, locals_: list[tuple[str, Expr]]) -> Context:
        return Context(tuple(self.entries) + tuple(locals_))

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
                if any(name == n for n, _ in self.entries):
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
                    case Appl(Var(nm), c) if (
                        nm in self.created and self.created[nm].scheme == "cast"
                    ):
                        (d,) = self.created[nm].indices
                    case _:
                        raise TranslationError(
                            "operator does not translate to a cast application"
                        )
                castout_nm = self.ensure("castout", (d,))
                return _app(Var(castout_nm), c, tf, tx)
        raise ValueError(f"unrecognized term: {pe!r}")

    def _pick(self, hint: str, locals_: list[tuple[str, Expr]]) -> str:
        return fresh_name(hint, self.global_names(), {n for n, _ in locals_})

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
        if any(name == n for n, _ in tr.entries):
            raise TranslationError(f"duplicate declaration: {name}")
        tr.entries.append((name, ty))
    term = tr.translate(pe, {}, [])
    return Context(tuple(tr.entries)), term
