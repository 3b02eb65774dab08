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


def norm(
    ctx: Context,
    e: ExprS,
    *,
    env: tuple[Norm, ...] = (),
    memo: dict[str, Norm | None] | None = None,
) -> Norm | None:
    """The norm of e under ctx, or None where it has none.

    env and memo belong to the recursion, and callers leave them out. env
    holds the norms of the binders e sits under, innermost first. memo keeps
    the norm of each declaration of the top-level ctx once evaluated, so one
    call evaluates every declaration at most once; a declaration's norm is
    taken under the declarations before it, where later names are unknown.
    A memo is only valid for the ctx it was filled under.
    """
    if memo is None:
        memo = {}
    match e:
        case Prim():
            return LEAF
        case Var(name):
            if name not in ctx:
                return None
            if name not in memo:
                memo[name] = norm(ctx.prefix(name), ctx.lookup(name), memo=memo)
            return memo[name]
        case Bound(index):
            return env[index] if index < len(env) else None
        case UnivAbs(dom, body) | ExistAbs(dom, body):
            nd = norm(ctx, dom, env=env, memo=memo)
            if nd is None:
                return None
            nb = norm(ctx, body, env=(nd,) + env, memo=memo)
            return None if nb is None else Pair(nd, nb)
        case Appl(fun, arg):
            nf = norm(ctx, fun, env=env, memo=memo)
            if not isinstance(nf, Pair):
                return None
            if norm(ctx, arg, env=env, memo=memo) != nf.left:
                return None
            return nf.right
        case ProtDef(witness, proof, tag):
            nw = norm(ctx, witness, env=env, memo=memo)
            np = norm(ctx, proof, env=env, memo=memo)
            if nw is None or np is None:
                return None
            if norm(ctx, tag, env=(nw,) + env, memo=memo) != np:
                return None
            return Pair(nw, np)
        case ProjL(operand):
            n = norm(ctx, operand, env=env, memo=memo)
            return n.left if isinstance(n, Pair) else None
        case ProjR(operand):
            n = norm(ctx, operand, env=env, memo=memo)
            return n.right if isinstance(n, Pair) else None
        case Product(a, b) | Sum(a, b) | InjL(a, b) | InjR(a, b):
            na = norm(ctx, a, env=env, memo=memo)
            nb = norm(ctx, b, env=env, memo=memo)
            if na is None or nb is None:
                return None
            return Pair(na, nb)
        case Case(left, right):
            nl = norm(ctx, left, env=env, memo=memo)
            match nl, norm(ctx, right, env=env, memo=memo):
                case Pair(a, c1), Pair(b, c2) if c1 == c2:
                    return Pair(Pair(a, b), c1)
            return None
        case Neg(operand):
            return norm(ctx, operand, env=env, memo=memo)
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
