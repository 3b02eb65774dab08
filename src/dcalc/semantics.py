"""Two mappings into untyped lambda calculus, with a beta reducer.

The stripping mapping erases types: both abstraction forms become lambdas,
pairing constructs become Church pairs, projections apply a selector, and
negation vanishes. The encoding mapping instead keeps domains as data,
pairing every abstraction with its domain; application first projects the
function component. Both map tau to the free name pi^, which no parsed term
can contain.

Both translate in one pass: a binder reference becomes the index of its
abstraction's lambda at once, from the lambda depth at which each enclosing
abstraction's image sits, so no binder is opened and no lambda closed.

Lambda terms are the kernel's own nodes: Var, Bound, Appl and syntax.Lam, so
syntax shifts, opens and prints them as it does any term, and their one rule,
beta, is the row (Appl, Lam) of reduction.RULES. beta_step, the normal-order
step and the executable specification, is first_redex plugged in; beta_nf is
reduce_nf, and takes the same steps.
"""

from __future__ import annotations

from collections.abc import Callable

from .reduction import first_redex, reduce_nf
from .syntax import (
    Appl,
    Bound,
    Case,
    ExistAbs,
    Expr,
    InjL,
    InjR,
    InternalSubst,
    Lam,
    Neg,
    Prim,
    ProjL,
    ProjR,
    ProtDef,
    Product,
    Sum,
    UnivAbs,
    Var,
    free_vars,
    fresh_name,
    plug,
)

# The lambda side's names for the kernel nodes it is built from; PI is the
# image of tau, a name the parser cannot produce.
LApp, LVar, LBound = Appl, Var, Bound
LambdaTerm = Var | Bound | Lam | Appl
PI = Var("pi^")


def beta_step(e: LambdaTerm) -> LambdaTerm | None:
    """One normal-order step: leftmost-outermost, including under lambdas."""
    found = first_redex(e)
    return None if found is None else plug(e, found[0], found[2])


# The normal form of a lambda term, reached by the steps beta_step takes.
beta_nf = reduce_nf


def is_beta_normal(e: LambdaTerm) -> bool:
    return first_redex(e) is None


def _lam2(body: LambdaTerm, x: str = "x", y: str = "y") -> Lam:
    """\\x.\\y.body for a body already in index form: x is Bound(1), y Bound(0)."""
    return Lam(Lam(body, y), x)


# The selectors of a Church pair's first and second component. encode also
# applies an injection's branch to the second, with hints u and v, as its
# image of an application does.
_FST = _lam2(Bound(1))
_SND = _lam2(Bound(0))
_UV = _lam2(Bound(0), "u", "v")

# _strip or _encode: go(component, avoid, depth, binders) as below.
Go = Callable[[Expr, set[str], int, tuple[int, ...]], LambdaTerm]


def _pair(a: LambdaTerm, b: LambdaTerm, avoid: set[str]) -> LambdaTerm:
    """\\z.((z a) b) for images a and b already translated under the lambda."""
    return Lam(Appl(Appl(Bound(0), a), b), fresh_name("z", avoid))


def _translate(
    e: Expr, avoid: set[str], depth: int, binders: tuple[int, ...], go: Go
) -> LambdaTerm:
    """The cases strip and encode share; go translates the components."""
    match e:
        case Prim():
            return PI
        case Var():
            return e
        case Bound(index):
            if index < len(binders):
                return Bound(depth - binders[index] - 1)
            raise ValueError(f"dangling binder reference ?b{index - len(binders)}")
        case ProtDef(witness, proof, _):
            d = depth + 1
            return _pair(go(witness, avoid, d, binders), go(proof, avoid, d, binders), avoid)
        case Product(l, r) | Sum(l, r) | Case(l, r):
            d = depth + 1
            return _pair(go(l, avoid, d, binders), go(r, avoid, d, binders), avoid)
        case ProjL(operand):
            return Appl(go(operand, avoid, depth, binders), _FST)
        case ProjR(operand):
            return Appl(go(operand, avoid, depth, binders), _SND)
        case Neg(operand):
            return go(operand, avoid, depth, binders)
        case InternalSubst():
            raise ValueError("pending substitutions have no translation")
    raise ValueError(f"unrecognized term: {e!r}")


def strip(e: Expr) -> LambdaTerm:
    """Type-stripping translation, in one pass over e."""
    return _strip(e, free_vars(e), 0, ())


def _strip(e: Expr, avoid: set[str], depth: int, binders: tuple[int, ...]) -> LambdaTerm:
    """strip's pass: avoid holds the names a hint is freshened against (the free
    names of the term and the hints chosen above), depth counts the lambdas
    above, and binders the lambda depth of the image of each enclosing
    abstraction, innermost first, so a binder reference becomes its index."""
    match e:
        case UnivAbs(_, body, hint) | ExistAbs(_, body, hint):
            x = fresh_name(hint, avoid)
            return Lam(_strip(body, avoid | {x}, depth + 1, (depth, *binders)), x)
        case Appl(fun, arg):
            return Appl(_strip(fun, avoid, depth, binders), _strip(arg, avoid, depth, binders))
        case InjL(val, _) | InjR(_, val):
            # \x.\y.(x val) or \x.\y.(y val), built on indices: the image
            # of val is locally closed, so its free x or y is not captured.
            k = Bound(1 if isinstance(e, InjL) else 0)
            return _lam2(Appl(k, _strip(val, avoid | {"x", "y"}, depth + 2, binders)))
    return _translate(e, avoid, depth, binders, _strip)


def encode(e: Expr) -> LambdaTerm:
    """Type-encoding translation: abstractions carry their domains."""
    return _encode(e, free_vars(e), 0, ())


def _encode(e: Expr, avoid: set[str], depth: int, binders: tuple[int, ...]) -> LambdaTerm:
    """encode's pass, with the arguments of _strip."""
    match e:
        case UnivAbs(dom, body, hint) | ExistAbs(dom, body, hint):
            # \z.((z dom) \x.body), the body translated first
            x = fresh_name(hint, avoid)
            inner = _encode(body, avoid | {x}, depth + 2, (depth + 1, *binders))
            dom_image = _encode(dom, avoid, depth + 1, binders)
            return _pair(dom_image, Lam(inner, x), avoid)
        case Appl(fun, arg):
            fun_image = Appl(_encode(fun, avoid, depth, binders), _SND)
            return Appl(fun_image, _encode(arg, avoid, depth, binders))
        case InjL(val, _) | InjR(_, val):
            k = Appl(Bound(1 if isinstance(e, InjL) else 0), _UV)
            return _lam2(Appl(k, _encode(val, avoid | {"x", "y"}, depth + 2, binders)))
    return _translate(e, avoid, depth, binders, _encode)
