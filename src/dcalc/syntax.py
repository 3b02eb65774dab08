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

One table states each node type's components, and children, replace_child,
``walk``, ``fold``, ``_map_indices`` and ``_search`` read it. ``walk`` is
the read-only pre-order traversal and ``fold`` the one post-order pass:
``_map_leaves``, ``size`` and the sets of free names are folds. Both meet a
shared node once per depth, by ``(id(node), depth)``, so a definition
spliced into many uses costs its size, not its unfolding. ``_map_indices``
is the one substitution walker, behind both shift and open_binder. It stays
recursive and apart: it returns, unwalked, a subterm from which no index
dangles, where a fold would visit each of its nodes. It maps the indices
that dangle itself, with no function per leaf, and open_binder puts in the
arguments of k binders at once, so the k beta steps of an application
spine cost one walk of the body. ``_search``, the one redex search, goes in
pre-order with the path and the binders above each node. walk, fold and the
search keep stacks of their own, so the read-only walks, the printer and
every engine's search do not recurse. The untyped lambda terms of
``semantics`` are built from these nodes too, with ``Lam`` as one more
binder, and print through ``to_text`` as well.

Each node sets its loose bound, ``_lb``, when it is built, from those of its
components: 1 plus the largest index that dangles out of it, or 0 when it is
locally closed (the ``looseBVarRange`` that the Lean 4 kernel sets at
construction). Leaves take 0, ``Bound(k)`` takes k + 1, and a binder's
scoped component counts one less. shift and open_binder map only the
indices that dangle, so a subterm whose bound is within their depth comes
back as it is, unwalked. close_binder rewrites names, so it walks the whole
term. ``binder_used`` asks whether index 0 dangles out of a binder's scope:
a loose bound of 0 or 1 answers at once, and past that a node keeps a mask
of the indices that dangle out of it, made from its components' masks, so
asking again about a node rebuilt over them costs the new node only.

Nodes are plain classes with their fields, and ``_lb``, in ``__slots__``;
``Node`` gives them the ``==``, ``hash`` and ``repr`` that frozen dataclasses
did, without the dataclass import or its constructors, which set each field
through object.__setattr__. Nodes are immutable by convention only, since a
guard against assignment would slow every constructor. The caches the kernel
keeps on a node (normal forms in reduction, types in typecheck, norms in
norms, loose-index masks here) live in the instance ``__dict__``: a getattr
that misses a key there is cheap, where one that misses an unset slot raises
and catches an AttributeError.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Iterator, Set as AbstractSet
from operator import attrgetter, is_
from typing import TypeVar


class Record:
    """Fields in ``__match_args__`` (and in ``__slots__``), with the ``==``
    (same class, equal fields), hash and repr of a frozen dataclass."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or all(
            getattr(self, f) == getattr(other, f) for f in self.__match_args__
        )

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self.__match_args__))

    def __repr__(self) -> str:
        """Written on a stack of its own, so a deep record prints too."""
        out, todo = [], [self]  # the text, and what is left to print, last first
        while todo:
            item = todo.pop()
            if not isinstance(item, Record):
                out.append(item)
                continue
            todo.append(")")
            for i, f in reversed(list(enumerate(item.__match_args__))):
                v = getattr(item, f)
                todo += v if isinstance(v, Record) else repr(v), f"{', ' if i else ''}{f}="
            todo.append(f"{item.__class__.__name__}(")
        return "".join(out)


class Node(Record):
    """A term node: ``==`` compares the class and the components, ignoring a
    binder's hint, and ``hash`` hashes the tuple of the components. The
    leaves Var and Bound compare their own value. ``_lb`` is the loose
    bound, which each constructor sets."""

    __slots__ = ("__dict__", "__weakref__", "_lb")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = _CHILDREN[self.__class__]
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(_CHILDREN[self.__class__](self))


class Prim(Node):
    """The primitive constant, written ``tau``. It is its own type."""

    __slots__ = ()

    def __init__(self):
        self._lb = 0


class Var(Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._lb = 0

    def __eq__(self, other: object) -> bool:
        return self.name == other.name if other.__class__ is Var else NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Bound(Node):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        self.index = index
        self._lb = index + 1

    def __eq__(self, other: object) -> bool:
        return self.index == other.index if other.__class__ is Bound else NotImplemented

    def __hash__(self) -> int:
        return hash((self.index,))


class UnivAbs(Node):
    """Universal abstraction ``[x:a]b``; both function and dependent product."""

    __slots__ = __match_args__ = ("dom", "body", "hint")

    def __init__(self, dom: Expr, body: Expr, hint: str = "x"):
        self.dom, self.body, self.hint = dom, body, hint
        a, b = dom._lb, body._lb - 1
        self._lb = a if a > b else b


class ExistAbs(Node):
    """Existential abstraction ``[x!a]b``."""

    __slots__ = __match_args__ = ("dom", "body", "hint")

    def __init__(self, dom: Expr, body: Expr, hint: str = "x"):
        self.dom, self.body, self.hint = dom, body, hint
        a, b = dom._lb, body._lb - 1
        self._lb = a if a > b else b


class Appl(Node):
    __slots__ = __match_args__ = ("fun", "arg")

    def __init__(self, fun: Expr, arg: Expr):
        self.fun, self.arg = fun, arg
        a, b = fun._lb, arg._lb
        self._lb = a if a > b else b


class ProtDef(Node):
    """Protected definition ``<x:=a, b : c>``; the binder scopes over c only."""

    __slots__ = __match_args__ = ("witness", "proof", "tag", "hint")

    def __init__(self, witness: Expr, proof: Expr, tag: Expr, hint: str = "x"):
        self.witness, self.proof, self.tag, self.hint = witness, proof, tag, hint
        a, b, c = witness._lb, proof._lb, tag._lb - 1
        if b > a:
            a = b
        self._lb = a if a > c else c


class ProjL(Node):
    __slots__ = __match_args__ = ("e",)

    def __init__(self, e: Expr):
        self.e = e
        self._lb = e._lb


class ProjR(Node):
    __slots__ = __match_args__ = ("e",)

    def __init__(self, e: Expr):
        self.e = e
        self._lb = e._lb


class Product(Node):
    __slots__ = __match_args__ = ("l", "r")

    def __init__(self, l: Expr, r: Expr):
        self.l, self.r = l, r
        a, b = l._lb, r._lb
        self._lb = a if a > b else b


class Sum(Node):
    __slots__ = __match_args__ = ("l", "r")

    def __init__(self, l: Expr, r: Expr):
        self.l, self.r = l, r
        a, b = l._lb, r._lb
        self._lb = a if a > b else b


class InjL(Node):
    """Left injection ``inl(a,b)``: value a, with b the absent right tag."""

    __slots__ = __match_args__ = ("val", "rtag")

    def __init__(self, val: Expr, rtag: Expr):
        self.val, self.rtag = val, rtag
        a, b = val._lb, rtag._lb
        self._lb = a if a > b else b


class InjR(Node):
    """Right injection ``inr(a,b)``: a the absent left tag, value b."""

    __slots__ = __match_args__ = ("ltag", "val")

    def __init__(self, ltag: Expr, val: Expr):
        self.ltag, self.val = ltag, val
        a, b = ltag._lb, val._lb
        self._lb = a if a > b else b


class Case(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left, self.right = left, right
        a, b = left._lb, right._lb
        self._lb = a if a > b else b


class Neg(Node):
    __slots__ = __match_args__ = ("e",)

    def __init__(self, e: Expr):
        self.e = e
        self._lb = e._lb


class InternalSubst(Node):
    """Pending substitution ``[x:=a]b``; binds in the body only.

    Not part of the surface calculus; produced by the explicit-substitution
    reduction engine's beta steps.
    """

    __slots__ = __match_args__ = ("defn", "body", "hint")

    def __init__(self, defn: Expr, body: Expr, hint: str = "x"):
        self.defn, self.body, self.hint = defn, body, hint
        a, b = defn._lb, body._lb - 1
        self._lb = a if a > b else b


class Lam(Node):
    """Untyped lambda ``\\x.body``, for the images of semantics.strip/encode.

    Not part of the calculus: lambda terms are built from Var, Bound, Appl
    and Lam, so the binder handling and the printer here serve both.
    """

    __slots__ = __match_args__ = ("body", "hint")

    def __init__(self, body: Var | Bound | Appl | Lam, hint: str = "x"):
        self.body, self.hint = body, hint
        self._lb = body._lb - 1 if body._lb else 0


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

T = TypeVar("T")

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
_LEAVES = {t for t, names in _COMPONENTS.items() if not names}


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
    """e with the subterm at path replaced by new, rebuilt along the path."""
    spine = []
    for i in path:
        spine.append(e)
        e = children(e)[i]
    for i in reversed(path):
        new = replace_child(spine.pop(), i, new)
    return new


def path_text(path: tuple[int, ...]) -> str:
    """A position as traces and diagnostics print it: ``0.1.2``, or ``root``."""
    return ".".join(map(str, path)) or "root"


def walk(e: ExprS) -> Iterator[tuple[ExprS, int]]:
    """Every node of e in pre-order, with the number of binders whose scope it is in.

    A compound node met again at a depth it was yielded at is skipped, with
    all below it. The walk keeps its own stack, so it goes as deep as e does.
    """
    seen: set[tuple[int, int]] = set()
    todo = [(e, 0)]
    pop, push = todo.pop, todo.append
    while todo:
        node, depth = item = pop()
        t = type(node)
        if t not in _LEAVES:
            if (id(node), depth) in seen:
                continue
            seen.add((id(node), depth))
            scoped = _SCOPED_INDEX.get(t)
            kids = _CHILDREN[t](node)
            i = len(kids)
            for kid in reversed(kids):
                i -= 1
                push((kid, depth + 1 if i == scoped else depth))
        yield item


def fold(e: ExprS, f: Callable[[ExprS, int, list], T], depth: int = 0) -> T:
    """f(node, d, the values of its components in order), bottom-up; e's value.

    d is depth plus the number of binders between e and the node. A node met
    again at a depth it was folded at takes the value it got there. The fold
    goes left to right, on a stack of its own.
    """
    done: dict[tuple[int, int], T] = {}  # by (id(node), d)
    todo: list = [(e, depth, None)]
    while todo:
        node, d, kids = todo.pop()
        if kids is not None:  # its components are done
            done[id(node), d] = f(node, d, [done[id(kid), k] for kid, k in kids])
        elif (id(node), d) not in done:
            t = type(node)
            scoped = _SCOPED_INDEX.get(t)
            kids = [(kid, d + (i == scoped)) for i, kid in enumerate(_CHILDREN[t](node))]
            todo.append((node, d, kids))
            todo += [(kid, k, None) for kid, k in reversed(kids)]
    return done[id(e), depth]


# One entry per binder a node is under, innermost last: the definition of a
# pending substitution, None for any other binder.
Binders = list["ExprS | None"]


def _search(
    e: ExprS, hit: Callable[[ExprS, Binders], T | None], positions=None
) -> Iterator[tuple[tuple[int, ...], T]]:
    """(path, hit(node, binders)) at each node where hit is not None, in pre-order,
    left to right into the components positions(node) lists (all if None).

    It keeps its own stack, one entry per compound node it is inside, with
    the path and the binders of the node it is at; hit must not keep binders.
    """
    path: list[int] = []
    binders: Binders = []
    stack: list = []  # per open node: components, positions left, scoped index, entry
    node = e
    while True:
        found = hit(node, binders)
        if found is not None:
            yield tuple(path), found
        t = type(node)
        if t in _LEAVES:  # a leaf is left at once
            if path and path.pop() == stack[-1][2]:
                binders.pop()
        else:
            kids = _CHILDREN[t](node)
            rest = iter(range(len(kids)) if positions is None else positions(node))
            entry = node.defn if t is InternalSubst else None
            stack.append((kids, rest, _SCOPED_INDEX.get(t), entry))
        while stack:  # the next position of the innermost open node; leave those done
            kids, rest, scoped, entry = stack[-1]
            i = next(rest, None)
            if i is not None:
                break
            stack.pop()
            if path and path.pop() == stack[-1][2]:
                binders.pop()
        else:
            return
        path.append(i)
        if i == scoped:
            binders.append(entry)
        node = kids[i]


def pending_path(e: ExprS) -> tuple[int, ...] | None:
    """The path of the leftmost-outermost pending substitution in e, or None."""
    found = _search(e, lambda node, _: True if type(node) is InternalSubst else None)
    return next((path for path, _ in found), None)


def free_vars(e: ExprS) -> set[str]:
    return {node.name for node, _ in walk(e) if type(node) is Var}


def _map_leaves(e: ExprS, leaf: Callable[[Var | Bound, int], ExprS], depth: int) -> ExprS:
    """Rebuild e with every Var and Bound replaced by ``leaf(node, d)``, by a fold
    from ``depth``; unchanged subterms are shared, not copied."""

    def rebuild(node: ExprS, d: int, parts: list[ExprS]) -> ExprS:
        t = type(node)
        if t is Var or t is Bound:
            return leaf(node, d)
        if all(map(is_, parts, _CHILDREN[t](node))):
            return node
        return _rebuild(node, parts)

    return fold(e, rebuild, depth)


def _map_indices(e: ExprS, depth: int, args: tuple, by: int, done: dict) -> ExprS:
    """e with every index that dangles out of it put in, or moved by ``by``.

    An index dangles when it is at least ``d``, which is ``depth`` plus the
    number of binders between e and the node. ``Bound(d + i)`` becomes
    ``args[-1 - i]`` shifted by d when i < len(args), else ``Bound(d + i + by)``.
    Some index dangles out of e itself (its loose bound passes depth); a
    component from which none dangles is kept as it is, unwalked. A
    subterm shared in e is mapped once per depth it occurs at, and an
    argument shifted once per depth: ``done`` keeps both, by (id(node), d)
    and by (-1 - i, d), which no id takes.
    """
    t = type(e)
    if t is Bound:
        i = e.index - depth
        if i >= len(args):
            return Bound(e.index + by)
        out = done.get((-1 - i, depth))
        if out is None:
            out = done[-1 - i, depth] = shift(args[-1 - i], depth)
        return out
    out = done.get((id(e), depth))
    if out is None:
        scoped = _SCOPED_INDEX.get(t)
        parts = list(_CHILDREN[t](e))
        for j, c in enumerate(parts):
            d = depth + 1 if j == scoped else depth
            if c._lb > d:
                parts[j] = _map_indices(c, d, args, by, done)
        out = done[id(e), depth] = t(*parts) if scoped is None else t(*parts, e.hint)
    return out


def shift(e: ExprS, by: int, depth: int = 0) -> ExprS:
    """Add ``by`` to every index that points past ``depth`` enclosing binders."""
    if by == 0 or e._lb <= depth:
        return e
    return _map_indices(e, depth, (), by, {})


def subst(a: ExprS, x: str, b: ExprS) -> ExprS:
    """Replace every free occurrence of variable x in a by b.

    Occurrences of binders are indices, never names, so no renaming is needed;
    b's own dangling indices are shifted when it lands under binders. a is
    locally closed, as every term outside a binder is.
    """
    return open_binder(close_binder(a, x), b)


def open_binder(scoped: ExprS, *args: ExprS) -> ExprS:
    """Instantiate k nested binders at once, with k arguments, in one walk.

    ``scoped`` is the component the innermost of the binders scopes over,
    taken out of all k, and ``args`` fill them outermost first, as the
    arguments of an application spine do. Indices pointing at a removed
    binder become its argument (shifted under any inner binders), and indices
    pointing past them step down k levels. So the result is that of k single
    opens, innermost binder first, each argument shifted past the binders
    still to be opened. Each argument is shifted once per binder depth, and
    the copies are shared.
    """
    if not scoped._lb:
        return scoped
    return _map_indices(scoped, 0, args, -len(args), {})


def close_binder(scoped: ExprS, x: str) -> ExprS:
    """Abstract the free variable x out of a component going under a binder."""

    def leaf(v: Var | Bound, d: int) -> ExprS:
        return Bound(d) if type(v) is Var and v.name == x else v

    return _map_leaves(scoped, leaf, 0)


def _loose_bits(e: ExprS) -> int:
    """The indices that dangle out of e, as a mask: bit k for Bound(k).

    A node with a loose bound of 0 or 1 has its bound as its mask. Any other
    compound node keeps its mask once found, under ``_bits``. A mask is made
    from the components' masks, on a stack of its own that stops at nodes
    which keep one.
    """
    lb = e._lb
    if lb < 2:
        return lb
    if type(e) is Bound:
        return 1 << e.index
    todo = [e]
    while todo:
        node = todo[-1]
        if getattr(node, "_bits", None) is not None:  # shared, and made already
            todo.pop()
            continue
        t = type(node)
        kids = _CHILDREN[t](node)
        for k in kids:
            if k._lb > 1 and type(k) is not Bound and getattr(k, "_bits", None) is None:
                todo.append(k)
        if todo[-1] is node:  # every component's mask is at hand
            todo.pop()
            scoped = _SCOPED_INDEX.get(t)
            bits = 0
            for i, k in enumerate(kids):
                lb = k._lb
                b = lb if lb < 2 else 1 << k.index if type(k) is Bound else k._bits
                bits |= b >> 1 if i == scoped else b
            node._bits = bits
    return e._bits


def binder_used(scoped: ExprS) -> bool:
    """True when a binder's scoped component actually references the binder,
    that is, when index 0 dangles out of it."""
    return bool(_loose_bits(scoped) & 1)


def size(e: ExprS) -> int:
    """The number of nodes of e as a tree, each path to a shared node counted."""
    return fold(e, lambda node, d, kids: 1 + sum(kids))


def fresh_name(hint: str, *avoid: Container[str]) -> str:
    """hint, or hint with the least suffix 1, 2, ... that none of avoid holds."""
    name, i = hint, 0
    while True:
        for names in avoid:
            if name in names:
                break
        else:
            return name
        i += 1
        name = f"{hint}{i}"


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
        return fresh_name(hint, self, avoid or ())


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


def _application(e: Appl) -> tuple:
    if not _reads_as_call(e.arg):
        return "(", e.fun, " ", e.arg, ")"
    # print the call f(a), with f closed so the call takes all of it
    if _postfix_safe(e.fun):
        return "(", e.fun, "(", e.arg, "))"
    return "((", e.fun, ")(", e.arg, "))"


# What each compound node prints as, in order: text, components, and the
# scope of its binder, named x, between (x,) and None.
_LAYOUT: dict[type, Callable[[ExprS, str], tuple]] = {
    UnivAbs: lambda e, x: (f"[{x}:", e.dom, "]", (x,), e.body, None),
    ExistAbs: lambda e, x: (f"[{x}!", e.dom, "]", (x,), e.body, None),
    InternalSubst: lambda e, x: (f"[{x}:=", e.defn, "]", (x,), e.body, None),
    Lam: lambda e, x: (f"\\{x}.", (x,), e.body, None),
    ProtDef: lambda e, x: (f"<{x}:=", e.witness, ", ", e.proof, " : ", (x,), e.tag, None, ">"),
    Appl: lambda e, _: _application(e),
    ProjL: lambda e, _: (e.e, ".1") if _postfix_safe(e.e) else ("(", e.e, ").1"),
    ProjR: lambda e, _: (e.e, ".2") if _postfix_safe(e.e) else ("(", e.e, ").2"),
    Product: lambda e, _: ("[", e.l, ",", e.r, "]"),
    Sum: lambda e, _: ("[", e.l, "+", e.r, "]"),
    InjL: lambda e, _: ("inl(", e.val, ",", e.rtag, ")"),
    InjR: lambda e, _: ("inr(", e.ltag, ",", e.val, ")"),
    Case: lambda e, _: ("case(", e.left, ",", e.right, ")"),
    Neg: lambda e, _: ("~", e.e),
}


def _names_free_in(e: ExprS) -> dict[int, AbstractSet[str]]:
    """The names free in each node of e, keyed by the node's id."""
    free: dict[int, AbstractSet[str]] = {}

    def names(node: ExprS, d: int, kids: list[AbstractSet[str]]) -> AbstractSet[str]:
        if type(node) is Var:
            out: AbstractSet[str] = {node.name}
        else:
            out = frozenset()
            for k in kids:
                if k:
                    out = out | k if out else k  # a component's own set, while it is the only one
        free[id(node)] = out
        return out

    fold(e, names)
    return free


def to_text(e: ExprS) -> str:
    """Print a term; binder hints are freshened so reparsing gives the same term.

    A binder's name differs from those of the binders around it and from
    the names free in its scope; the latter are folded up only once a name
    free somewhere in e is picked. A dangling index prints as ?bK, K counted
    past the root.
    """
    free = free_vars(e)
    below: dict[int, AbstractSet[str]] = {}
    out: list[str] = []
    names: list[str] = []  # the enclosing binders' names, innermost last
    taken: set[str] = set()
    todo: list = [e]  # what is left to print, as _LAYOUT gives it, last first
    while todo:
        item = todo.pop()
        t = type(item)
        if t is str:
            out.append(item)
        elif t is Var:
            out.append(item.name)
        elif t is Bound:
            k = item.index
            out.append(names[-1 - k] if k < len(names) else f"?b{k - len(names)}")
        elif t is Prim:
            out.append("tau")
        elif t is tuple:
            names.append(item[0])
            taken.add(item[0])
        elif item is None:
            taken.remove(names.pop())
        else:
            x = ""
            if t in _SCOPED_INDEX:
                x = fresh_name(item.hint, taken)
                if x in free:  # x may be free in the scope: look there
                    below = below or _names_free_in(e)
                    scope = _CHILDREN[t](item)[_SCOPED_INDEX[t]]
                    x = fresh_name(item.hint, taken, below[id(scope)])
            todo += reversed(_LAYOUT[t](item, x))
    return "".join(out)


for _cls in _COMPONENTS:
    _cls.__str__ = to_text  # type: ignore[method-assign]
