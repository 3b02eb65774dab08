"""Terms, contexts, substitution and printing.

Terms are locally nameless: free variables are ``Var(name)``, references to
enclosing binders are ``Bound(k)`` de Bruijn indices. Binder nodes keep the
surface name as a hint that printing uses but equality ignores, so
alpha-equivalence is plain structural equality and substitution of named
variables can never capture.

Every binding operator scopes over exactly one component: abstractions over
their body, protected definitions over their tag, internal substitutions over
their body. Instantiating a binder shifts dangling indices of the replacement
so that terms plugged in under further binders stay well-formed.

One table states each node type's components, and children, replace_child
and the depth-tracking map ``_map_leaves`` read it, so every traversal is the
same binder-aware walk. The untyped lambda terms of ``semantics`` are built
from these nodes too, with ``Lam`` as one more binder.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter


@dataclass(frozen=True)
class Prim:
    """The primitive constant, written ``tau``. It is its own type."""


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bound:
    index: int


@dataclass(frozen=True)
class UnivAbs:
    """Universal abstraction ``[x:a]b``; both function and dependent product."""

    dom: "Expr"
    body: "Expr"
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class ExistAbs:
    """Existential abstraction ``[x!a]b``."""

    dom: "Expr"
    body: "Expr"
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class Appl:
    fun: "Expr"
    arg: "Expr"


@dataclass(frozen=True)
class ProtDef:
    """Protected definition ``<x:=a, b : c>``; the binder scopes over c only."""

    witness: "Expr"
    proof: "Expr"
    tag: "Expr"
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class ProjL:
    e: "Expr"


@dataclass(frozen=True)
class ProjR:
    e: "Expr"


@dataclass(frozen=True)
class Product:
    l: "Expr"
    r: "Expr"


@dataclass(frozen=True)
class Sum:
    l: "Expr"
    r: "Expr"


@dataclass(frozen=True)
class InjL:
    """Left injection ``inl(a,b)``: value a, with b the absent right tag."""

    val: "Expr"
    rtag: "Expr"


@dataclass(frozen=True)
class InjR:
    """Right injection ``inr(a,b)``: a the absent left tag, value b."""

    ltag: "Expr"
    val: "Expr"


@dataclass(frozen=True)
class Case:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    e: "Expr"


@dataclass(frozen=True)
class InternalSubst:
    """Pending substitution ``[x:=a]b``; binds in the body only.

    Not part of the surface calculus; produced by the explicit-substitution
    reduction engine's beta steps.
    """

    defn: "Expr"
    body: "Expr"
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class Lam:
    """Untyped lambda ``\\x.body``, for the images of semantics.strip/encode.

    Not part of the calculus: lambda terms are built from Prim, Var, Bound,
    Appl and Lam, so the binder handling here serves both.
    """

    body: "Prim | Var | Bound | Appl | Lam"
    hint: str = field(default="x", compare=False)


Expr = (
    Prim
    | Var
    | Bound
    | UnivAbs
    | ExistAbs
    | Appl
    | ProtDef
    | ProjL
    | ProjR
    | Product
    | Sum
    | InjL
    | InjR
    | Case
    | Neg
)

ExprS = Expr | InternalSubst

TAU = Prim()

# The components of every node type, in order. They come first among the
# constructor's arguments; a binder's hint follows them.
_COMPONENTS: dict[type, tuple[str, ...]] = {
    Prim: (),
    Var: (),
    Bound: (),
    UnivAbs: ("dom", "body"),
    ExistAbs: ("dom", "body"),
    Appl: ("fun", "arg"),
    ProtDef: ("witness", "proof", "tag"),
    ProjL: ("e",),
    ProjR: ("e",),
    Product: ("l", "r"),
    Sum: ("l", "r"),
    InjL: ("val", "rtag"),
    InjR: ("ltag", "val"),
    Case: ("left", "right"),
    Neg: ("e",),
    InternalSubst: ("defn", "body"),
    Lam: ("body",),
}

# (constructor, scoped-component-index) for the binding operators; every
# other constructor binds nothing.
_SCOPED_INDEX = {UnivAbs: 1, ExistAbs: 1, ProtDef: 2, InternalSubst: 1, Lam: 0}


def _getter(names: tuple[str, ...]) -> Callable[[ExprS], tuple[ExprS, ...]]:
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda e: (get(e),)
    return lambda e: ()


_CHILDREN = {t: _getter(names) for t, names in _COMPONENTS.items()}


def children(e: ExprS) -> tuple[ExprS, ...]:
    return _CHILDREN[type(e)](e)


def _rebuild(e: ExprS, parts) -> ExprS:
    """A node of e's type, with e's hint if it binds, from new components."""
    t = type(e)
    return t(*parts, e.hint) if t in _SCOPED_INDEX else t(*parts)


def replace_child(e: ExprS, i: int, new: ExprS) -> ExprS:
    parts = list(children(e))
    parts[i] = new
    return _rebuild(e, parts)


def scoped_index(e: ExprS) -> int | None:
    """Index of the component the node binds in, or None for non-binders."""
    return _SCOPED_INDEX.get(type(e))


def subtree_at(e: ExprS, path: tuple[int, ...]) -> ExprS:
    for i in path:
        e = children(e)[i]
    return e


def plug(e: ExprS, path: tuple[int, ...], new: ExprS) -> ExprS:
    if not path:
        return new
    i = path[0]
    return replace_child(e, i, plug(children(e)[i], path[1:], new))


def path_text(path: tuple[int, ...]) -> str:
    """A position as traces and diagnostics print it: ``0.1.2``, or ``root``."""
    return ".".join(map(str, path)) or "root"


def pending_path(e: ExprS) -> tuple[int, ...] | None:
    """The path of the leftmost-outermost pending substitution in e, or None."""
    if isinstance(e, InternalSubst):
        return ()
    for i, c in enumerate(children(e)):
        at = pending_path(c)
        if at is not None:
            return (i,) + at
    return None


def free_vars(e: ExprS) -> set[str]:
    match e:
        case Prim() | Bound():
            return set()
        case Var(name):
            return {name}
    out: set[str] = set()
    for c in children(e):
        out |= free_vars(c)
    return out


def _map_leaves(e: ExprS, leaf: Callable[[Var | Bound, int], ExprS], depth: int) -> ExprS:
    """Rebuild e with every Var and Bound replaced by ``leaf(node, d)``.

    ``d`` is ``depth`` plus the number of binders between e and the node.
    Unchanged subterms are shared, not copied.
    """
    t = type(e)
    if t is Var or t is Bound:
        return leaf(e, depth)
    scoped = _SCOPED_INDEX.get(t)
    kids = _CHILDREN[t](e)
    parts = None
    for i, c in enumerate(kids):
        nc = _map_leaves(c, leaf, depth + 1 if i == scoped else depth)
        if nc is not c:
            if parts is None:
                parts = list(kids)
            parts[i] = nc
    return e if parts is None else _rebuild(e, parts)


def shift(e: ExprS, by: int, depth: int = 0) -> ExprS:
    """Add ``by`` to every index that points past ``depth`` enclosing binders."""
    if by == 0:
        return e

    def leaf(v: Var | Bound, d: int) -> ExprS:
        return Bound(v.index + by) if type(v) is Bound and v.index >= d else v

    return _map_leaves(e, leaf, depth)


def subst(a: ExprS, x: str, b: ExprS) -> ExprS:
    """Replace every free occurrence of variable x in a by b.

    Occurrences of binders are indices, never names, so no renaming is needed;
    b's own dangling indices are shifted when it lands under binders. a is
    locally closed, as every term outside a binder is.
    """
    return open_binder(close_binder(a, x), b)


def open_binder(scoped: ExprS, repl: ExprS) -> ExprS:
    """Instantiate a binder's scoped component with repl.

    ``scoped`` is the one component a binder scopes over, taken out of its
    binder; indices pointing at the removed binder become repl (shifted under
    any inner binders) and indices pointing past it step down one level.
    repl is shifted once per binder depth, and the copies are shared.
    """
    shifted: dict[int, ExprS] = {}

    def leaf(v: Var | Bound, d: int) -> ExprS:
        if type(v) is Var or v.index < d:
            return v
        if v.index > d:
            return Bound(v.index - 1)
        if d not in shifted:
            shifted[d] = shift(repl, d)
        return shifted[d]

    return _map_leaves(scoped, leaf, 0)


def close_binder(scoped: ExprS, x: str) -> ExprS:
    """Abstract the free variable x out of a component going under a binder."""

    def leaf(v: Var | Bound, d: int) -> ExprS:
        return Bound(d) if type(v) is Var and v.name == x else v

    return _map_leaves(scoped, leaf, 0)


def binder_used(scoped: ExprS) -> bool:
    """True when a binder's scoped component actually references the binder."""

    def go(e: ExprS, depth: int) -> bool:
        match e:
            case Prim() | Var():
                return False
            case Bound(index):
                return index == depth
        scoped_i = scoped_index(e)
        return any(
            go(c, depth + 1 if i == scoped_i else depth) for i, c in enumerate(children(e))
        )

    return go(scoped, 0)


def size(e: ExprS) -> int:
    match e:
        case Prim() | Var() | Bound():
            return 1
    return 1 + sum(size(c) for c in children(e))


def fresh_name(hint: str, avoid: set[str]) -> str:
    if hint not in avoid:
        return hint
    i = 1
    while f"{hint}{i}" in avoid:
        i += 1
    return f"{hint}{i}"


class Context:
    """Ordered declarations with pairwise-distinct names, prefix-scoped.

    A prefix shares the declarations and name index of the context it was
    cut from and hides the declarations from its length on, so it costs
    O(1) to make.
    """

    __slots__ = ("_decls", "_index", "_len")

    def __init__(self, entries: tuple[tuple[str, Expr], ...] = ()):
        self._decls = entries
        self._index = {name: i for i, (name, _) in enumerate(entries)}
        if len(self._index) != len(entries):
            raise ValueError("duplicate declaration name in context")
        self._len = len(entries)

    @property
    def entries(self) -> tuple[tuple[str, Expr], ...]:
        return self._decls[: self._len]

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}:{to_text(ty)}" for name, ty in self.entries)
        return f"({inner})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Context) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, name: str) -> bool:
        i = self._index.get(name)
        return i is not None and i < self._len

    def names(self) -> set[str]:
        return {name for name, _ in self.entries}

    def lookup(self, name: str) -> Expr | None:
        i = self._index.get(name)
        return self._decls[i][1] if i is not None and i < self._len else None

    def position(self, name: str) -> int | None:
        i = self._index.get(name)
        return i if i is not None and i < self._len else None

    def prefix(self, name: str) -> "Context":
        """Declarations strictly before name's declaration."""
        i = self.position(name)
        if i is None:
            raise KeyError(name)
        cut = Context.__new__(Context)
        cut._decls, cut._index, cut._len = self._decls, self._index, i
        return cut

    def extend(self, name: str, ty: Expr) -> "Context":
        return Context(self.entries + ((name, ty),))

    def fresh(self, hint: str, avoid: set[str] | None = None) -> str:
        taken = self.names()
        if avoid:
            taken |= avoid
        return fresh_name(hint, taken)


# What separates the bound name from the first component in a bracket binder.
_BINDS = {UnivAbs: ":", ExistAbs: "!", InternalSubst: ":="}


def _postfix_safe(e: ExprS) -> bool:
    """Can e take a .1/.2 postfix when printed, without parentheses?"""
    return not isinstance(e, (UnivAbs, ExistAbs, Neg, InternalSubst))


def _reads_as_call(e: ExprS) -> bool:
    """Does e print as '(s)' plus postfixes? After an operand that is a call of it."""
    while isinstance(e, (ProjL, ProjR)):
        if not _postfix_safe(e.e):
            return True
        e = e.e
    return False


def to_text(e: ExprS) -> str:
    """Print a term; binder hints are freshened so reparsing gives the same term."""

    def go(e: ExprS, env: list[str]) -> str:
        match e:
            case Prim():
                return "tau"
            case Var(name):
                return name
            case Bound(index):
                if index < len(env):
                    return env[index]
                return f"?b{index - len(env)}"
            case UnivAbs(a, body, hint) | ExistAbs(a, body, hint) | InternalSubst(a, body, hint):
                x = fresh_name(hint, set(env) | free_vars(body))
                return f"[{x}{_BINDS[type(e)]}{go(a, env)}]{go(body, [x] + env)}"
            case Appl(fun, arg):
                f, a = go(fun, env), go(arg, env)
                if not _reads_as_call(arg):
                    return f"({f} {a})"
                # print the call f(a), with f closed so the call takes all of it
                return f"({f}({a}))" if _postfix_safe(fun) else f"(({f})({a}))"
            case ProtDef(witness, proof, tag, hint):
                x = fresh_name(hint, set(env) | free_vars(tag))
                w = go(witness, env)
                p = go(proof, env)
                return f"<{x}:={w}, {p} : {go(tag, [x] + env)}>"
            case ProjL(inner):
                s = go(inner, env)
                return f"{s}.1" if _postfix_safe(inner) else f"({s}).1"
            case ProjR(inner):
                s = go(inner, env)
                return f"{s}.2" if _postfix_safe(inner) else f"({s}).2"
            case Product(l, r):
                return f"[{go(l, env)},{go(r, env)}]"
            case Sum(l, r):
                return f"[{go(l, env)}+{go(r, env)}]"
            case InjL(val, rtag):
                return f"inl({go(val, env)},{go(rtag, env)})"
            case InjR(ltag, val):
                return f"inr({go(ltag, env)},{go(val, env)})"
            case Case(l, r):
                return f"case({go(l, env)},{go(r, env)})"
            case Neg(inner):
                return f"~{go(inner, env)}"
            case Lam(body, hint):
                x = fresh_name(hint, set(env) | free_vars(body))
                return f"\\{x}.{go(body, [x] + env)}"
        raise AssertionError(f"unreachable: {e!r}")

    return go(e, [])


for _cls in _COMPONENTS:
    _cls.__str__ = to_text  # type: ignore[method-assign]
