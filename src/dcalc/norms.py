"""Norms: binary-tree shapes assigned to terms over a context.

A norm is a leaf or a pair of norms. Not every term has one; norm returns
None for undefined. Norms are invariant under reduction and connect a term
to its type: a typeable term's norm equals its type's norm with ambient
declarations accounted for.
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
    _loose,
)


class Leaf(Record):
    __slots__ = ()


class Pair(Record):
    """Two norms. One norm call builds each pair once (_pair), so equal norms
    from one call are one object. == compares on a stack of its own and skips
    pairs that are one object or that it has compared already, so norms from
    separate calls compare in time linear in their distinct pairs. The hash
    is made once, from the parts' kept hashes."""

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

    One call evaluates each declaration of ctx at most once, and each node
    of a definition spliced into many uses once. It builds each pair once,
    so the equal norms it meets are one object and compare by identity.
    """
    return _norm(ctx, e, (), {}, {})


def _norm(ctx: Context, e: ExprS, env: tuple[Norm, ...], seen: dict, closed: dict) -> Norm | None:
    """norm's recursion. env holds the norms of the binders e sits under,
    innermost first. seen keeps each declaration's norm, taken under the
    declarations before it, by name, and each pair, by the ids of its parts
    (_pair); closed keeps by id the norm under ctx of each locally closed
    compound node (env cannot change it), one table per ctx."""
    match e:
        case Prim():
            return LEAF
        case Var(name):
            if name not in ctx:
                return None
            if name not in seen:
                seen[name] = _norm(ctx.prefix(name), ctx.lookup(name), (), seen, {})
            return seen[name]
        case Bound(index):
            return env[index] if index < len(env) else None
    n = closed.get(id(e), closed)
    if n is closed:
        n = _compound_norm(ctx, e, env, seen, closed)
        if not _loose(e):
            closed[id(e)] = n
    return n


def _pair(left: Norm, right: Norm, seen: dict) -> Pair:
    """The one Pair(left, right) of a norm call; seen keeps it, and so its parts."""
    key = (id(left), id(right))
    p = seen.get(key)
    if p is None:
        p = seen[key] = Pair(left, right)
    return p


def _compound_norm(ctx: Context, e: ExprS, env, seen, closed) -> Norm | None:
    match e:
        case UnivAbs(dom, body) | ExistAbs(dom, body):
            nd = _norm(ctx, dom, env, seen, closed)
            if nd is None:
                return None
            nb = _norm(ctx, body, (nd,) + env, seen, closed)
            return None if nb is None else _pair(nd, nb, seen)
        case Appl(fun, arg):
            nf = _norm(ctx, fun, env, seen, closed)
            if not isinstance(nf, Pair):
                return None
            if _norm(ctx, arg, env, seen, closed) is not nf.left:
                return None
            return nf.right
        case ProtDef(witness, proof, tag):
            nw = _norm(ctx, witness, env, seen, closed)
            np = _norm(ctx, proof, env, seen, closed)
            if nw is None or np is None:
                return None
            if _norm(ctx, tag, (nw,) + env, seen, closed) is not np:
                return None
            return _pair(nw, np, seen)
        case ProjL(operand) | ProjR(operand):
            n = _norm(ctx, operand, env, seen, closed)
            if not isinstance(n, Pair):
                return None
            return n.left if type(e) is ProjL else n.right
        case Product(a, b) | Sum(a, b) | InjL(a, b) | InjR(a, b):
            na = _norm(ctx, a, env, seen, closed)
            nb = _norm(ctx, b, env, seen, closed)
            if na is None or nb is None:
                return None
            return _pair(na, nb, seen)
        case Case(left, right):
            nl = _norm(ctx, left, env, seen, closed)
            match nl, _norm(ctx, right, env, seen, closed):
                case Pair(a, c1), Pair(b, c2) if c1 is c2:
                    return _pair(_pair(a, b, seen), c1, seen)
            return None
        case Neg(operand):
            return _norm(ctx, operand, env, seen, closed)
        case InternalSubst():
            return None
    return None


def normable(ctx: Context, e: ExprS) -> bool:
    return norm(ctx, e) is not None


def norm_to_text(n: Norm) -> str:
    match n:
        case Leaf():
            return "*"
        case Pair(left, right):
            return f"[{norm_to_text(left)},{norm_to_text(right)}]"
    raise ValueError(f"not a norm: {n!r}")
