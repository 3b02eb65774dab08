"""Norms: binary-tree shapes assigned to terms over a context.

A norm is a leaf or a pair of norms. Not every term has one; norm returns
None for undefined. Norms are invariant under reduction and connect a term
to its type: a typeable term's norm equals its type's norm with ambient
declarations accounted for.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    Sum,
    UnivAbs,
    Var,
    _loose,
)


@dataclass(frozen=True)
class Leaf:
    pass


@dataclass(frozen=True)
class Pair:
    left: "Norm"
    right: "Norm"


Norm = Leaf | Pair

LEAF = Leaf()


def norm(ctx: Context, e: ExprS) -> Norm | None:
    """The norm of e under ctx, or None where it has none.

    One call evaluates each declaration of ctx at most once, and each node
    of a definition spliced into many uses once.
    """
    return _norm(ctx, e, (), {}, {})


def _norm(ctx: Context, e: ExprS, env: tuple[Norm, ...], decls: dict, closed: dict) -> Norm | None:
    """norm's recursion. env holds the norms of the binders e sits under,
    innermost first. decls keeps each declaration's norm, taken under the
    declarations before it, by name; closed keeps by id the norm under ctx of
    each locally closed compound node (env cannot change it), one table per ctx."""
    match e:
        case Prim():
            return LEAF
        case Var(name):
            if name not in ctx:
                return None
            if name not in decls:
                decls[name] = _norm(ctx.prefix(name), ctx.lookup(name), (), decls, {})
            return decls[name]
        case Bound(index):
            return env[index] if index < len(env) else None
    n = closed.get(id(e), closed)
    if n is closed:
        n = _compound_norm(ctx, e, env, decls, closed)
        if not _loose(e):
            closed[id(e)] = n
    return n


def _compound_norm(ctx: Context, e: ExprS, env, decls, closed) -> Norm | None:
    match e:
        case UnivAbs(dom, body) | ExistAbs(dom, body):
            nd = _norm(ctx, dom, env, decls, closed)
            if nd is None:
                return None
            nb = _norm(ctx, body, (nd,) + env, decls, closed)
            return None if nb is None else Pair(nd, nb)
        case Appl(fun, arg):
            nf = _norm(ctx, fun, env, decls, closed)
            if not isinstance(nf, Pair):
                return None
            if _norm(ctx, arg, env, decls, closed) != nf.left:
                return None
            return nf.right
        case ProtDef(witness, proof, tag):
            nw = _norm(ctx, witness, env, decls, closed)
            np = _norm(ctx, proof, env, decls, closed)
            if nw is None or np is None:
                return None
            if _norm(ctx, tag, (nw,) + env, decls, closed) != np:
                return None
            return Pair(nw, np)
        case ProjL(operand):
            n = _norm(ctx, operand, env, decls, closed)
            return n.left if isinstance(n, Pair) else None
        case ProjR(operand):
            n = _norm(ctx, operand, env, decls, closed)
            return n.right if isinstance(n, Pair) else None
        case Product(a, b) | Sum(a, b) | InjL(a, b) | InjR(a, b):
            na = _norm(ctx, a, env, decls, closed)
            nb = _norm(ctx, b, env, decls, closed)
            if na is None or nb is None:
                return None
            return Pair(na, nb)
        case Case(left, right):
            nl = _norm(ctx, left, env, decls, closed)
            match nl, _norm(ctx, right, env, decls, closed):
                case Pair(a, c1), Pair(b, c2) if c1 == c2:
                    return Pair(Pair(a, b), c1)
            return None
        case Neg(operand):
            return _norm(ctx, operand, env, decls, closed)
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
