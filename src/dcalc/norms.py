"""Norms: binary-tree shapes assigned to terms over a context.

A norm is a leaf or a pair of norms. Not every term has one; norm returns
None for undefined. Norms are invariant under reduction and connect a term
to its type: a typeable term's norm equals its type's norm with ambient
declarations accounted for.

A name and a locally closed compound node keep their norm under a context,
as a node keeps its type, so a declaration or a shared definition is
evaluated once. Norms are compared with ==, which is structural and linear
in their distinct pairs: equal norms are often one object, but nothing
relies on it.
"""

from __future__ import annotations

from .syntax import (
    Appl,
    Bound,
    Case,
    Context,
    ExistAbs,
    ExprS,
    InjL,
    InjR,
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
)


class Leaf(Record):
    __slots__ = ()


class Pair(Record):
    """Two norms. Equal norms are often one object, since a node keeps its
    norm, but need not be. == compares on a stack of its own and skips pairs
    that are one object or that it has compared already, so norms compare in
    time linear in their distinct pairs. The hash is made once, from the
    parts' kept hashes."""

    __slots__ = ("left", "right", "_hash")
    __match_args__ = ("left", "right")

    def __init__(self, left: Norm, right: Norm):
        self.left, self.right = left, right
        self._hash = hash((left, right))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Pair:
            return NotImplemented
        seen, todo = set(), [(self, other)]
        while todo:
            a, b = todo.pop()
            if a.__class__ is not b.__class__:
                return False
            if a.__class__ is Pair and a is not b and (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                todo += [(a.right, b.right), (a.left, b.left)]
        return True

    def __hash__(self) -> int:
        return self._hash


Norm = Leaf | Pair

LEAF = Leaf()


def norm(ctx: Context, e: ExprS) -> Norm | None:
    """The norm of e under ctx, or None where it has none.

    A name and a locally closed compound node keep their norm as ``_norm``,
    with the context's name index and length. As ``_synth`` does with a type,
    each reuses it under a context that shares the index and is no shorter.
    None is never kept."""
    return _norm(ctx, e, ())


def _norm(ctx: Context, e: ExprS, env: tuple[Norm, ...]) -> Norm | None:
    """norm's recursion. env holds the norms of the binders e sits under, innermost first."""
    t = type(e)
    if t is Prim:
        return LEAF
    if t is Bound:
        return env[e.index] if e.index < len(env) else None
    kept = getattr(e, "_norm", None)
    if kept and kept[0] is ctx._index and kept[1] <= ctx._len:
        return kept[2]
    if t is Var:  # its declared type's norm, under the declarations before it
        n = _norm(ctx.prefix(e.name), ctx.lookup(e.name), ()) if e.name in ctx else None
    else:
        n = _compound_norm(ctx, e, env)
    if n is not None and not e._lb:
        e._norm = (ctx._index, ctx._len, n)
    return n


def _compound_norm(ctx: Context, e: ExprS, env) -> Norm | None:
    match e:
        case UnivAbs(dom, body) | ExistAbs(dom, body):
            nd = _norm(ctx, dom, env)
            nb = None if nd is None else _norm(ctx, body, (nd,) + env)
            return None if nb is None else Pair(nd, nb)
        case Appl(fun, arg):
            nf = _norm(ctx, fun, env)
            if not isinstance(nf, Pair) or _norm(ctx, arg, env) != nf.left:
                return None
            return nf.right
        case ProtDef(witness, proof, tag):
            nw, np = _norm(ctx, witness, env), _norm(ctx, proof, env)
            if nw is None or np is None or _norm(ctx, tag, (nw,) + env) != np:
                return None
            return Pair(nw, np)
        case ProjL(operand) | ProjR(operand):
            n = _norm(ctx, operand, env)
            if not isinstance(n, Pair):
                return None
            return n.left if type(e) is ProjL else n.right
        case Product(a, b) | Sum(a, b) | InjL(a, b) | InjR(a, b):
            na, nb = _norm(ctx, a, env), _norm(ctx, b, env)
            return None if na is None or nb is None else Pair(na, nb)
        case Case(left, right):
            match _norm(ctx, left, env), _norm(ctx, right, env):
                case Pair(a, c1), Pair(b, c2) if c1 == c2:
                    return Pair(Pair(a, b), c1)
        case Neg(operand):
            return _norm(ctx, operand, env)
    return None  # a pending substitution has no norm


def normable(ctx: Context, e: ExprS) -> bool:
    return norm(ctx, e) is not None


def norm_to_text(n: Norm) -> str:
    match n:
        case Leaf():
            return "*"
        case Pair(left, right):
            return f"[{norm_to_text(left)},{norm_to_text(right)}]"
    raise ValueError(f"not a norm: {n!r}")
