"""Two mappings into untyped lambda calculus, with a beta reducer.

The stripping mapping erases types: both abstraction forms become lambdas,
pairing constructs become Church pairs, projections apply a selector, and
negation vanishes. The encoding mapping instead keeps domains as data,
pairing every abstraction with its domain; application first projects the
function component. Both leave the inert constant pi^ for tau.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .reduction import DEFAULT_FUEL, _drive
from .syntax import (
    Appl,
    Bound,
    Case,
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
    Sum,
    UnivAbs,
    Var,
    free_vars,
    fresh_name,
    open_binder,
)


@dataclass(frozen=True)
class PrimConst:
    pass


@dataclass(frozen=True)
class LVar:
    name: str


@dataclass(frozen=True)
class LBound:
    index: int


@dataclass(frozen=True)
class Lam:
    body: "LambdaTerm"
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class LApp:
    fun: "LambdaTerm"
    arg: "LambdaTerm"


LambdaTerm = PrimConst | LVar | LBound | Lam | LApp

PI = PrimConst()


def _lmap(
    e: LambdaTerm, leaf: Callable[[LVar | LBound, int], LambdaTerm], depth: int
) -> LambdaTerm:
    """Rebuild e with every LVar and LBound replaced by ``leaf(node, d)``.

    ``d`` is ``depth`` plus the number of lambdas between e and the node.
    """
    match e:
        case LVar() | LBound():
            return leaf(e, depth)
        case Lam(body, hint):
            return Lam(_lmap(body, leaf, depth + 1), hint)
        case LApp(fun, arg):
            return LApp(_lmap(fun, leaf, depth), _lmap(arg, leaf, depth))
    return e


def lclose(e: LambdaTerm, x: str, depth: int = 0) -> LambdaTerm:
    def leaf(v: LVar | LBound, d: int) -> LambdaTerm:
        return LBound(d) if type(v) is LVar and v.name == x else v

    return _lmap(e, leaf, depth)


def llam(x: str, body: LambdaTerm) -> Lam:
    return Lam(lclose(body, x), x)


def lshift(e: LambdaTerm, by: int, depth: int = 0) -> LambdaTerm:
    def leaf(v: LVar | LBound, d: int) -> LambdaTerm:
        return LBound(v.index + by) if type(v) is LBound and v.index >= d else v

    return _lmap(e, leaf, depth)


def lopen(scoped: LambdaTerm, repl: LambdaTerm, depth: int = 0) -> LambdaTerm:
    def leaf(v: LVar | LBound, d: int) -> LambdaTerm:
        if type(v) is LVar or v.index < d:
            return v
        return lshift(repl, d) if v.index == d else LBound(v.index - 1)

    return _lmap(scoped, leaf, depth)


def beta_step(e: LambdaTerm) -> LambdaTerm | None:
    """One normal-order step: leftmost-outermost, including under lambdas."""
    match e:
        case LApp(Lam(body), arg):
            return lopen(body, arg)
        case Lam(body, hint):
            r = beta_step(body)
            return None if r is None else Lam(r, hint)
        case LApp(fun, arg):
            r = beta_step(fun)
            if r is not None:
                return LApp(r, arg)
            r = beta_step(arg)
            return None if r is None else LApp(fun, r)
    return None


def beta_nf(e: LambdaTerm, fuel: int = DEFAULT_FUEL) -> LambdaTerm:
    return _drive(beta_step, e, fuel, show=lam_to_text)


def is_beta_normal(e: LambdaTerm) -> bool:
    match e:
        case LApp(Lam(_), _):
            return False
        case Lam(body):
            return is_beta_normal(body)
        case LApp(fun, arg):
            return is_beta_normal(fun) and is_beta_normal(arg)
    return True


def _pair(a: LambdaTerm, b: LambdaTerm, avoid: set[str]) -> LambdaTerm:
    z = fresh_name("z", avoid)
    return llam(z, LApp(LApp(LVar(z), a), b))


def _lam2(body: LambdaTerm, x: str = "x", y: str = "y") -> Lam:
    """\\x.\\y.body for a body already in index form: x is LBound(1), y LBound(0)."""
    return Lam(Lam(body, y), x)


def _selector(which: int) -> LambdaTerm:
    return _lam2(LBound(1 - which))


def _translate(e: Expr, avoid: set[str], go: Callable[[Expr, set[str]], LambdaTerm]) -> LambdaTerm:
    """The cases strip and encode share; go is the translation for components."""
    match e:
        case Prim():
            return PI
        case Var(name):
            return LVar(name)
        case ProtDef(witness, proof, _):
            return _pair(go(witness, avoid), go(proof, avoid), avoid)
        case Product(l, r) | Sum(l, r) | Case(l, r):
            return _pair(go(l, avoid), go(r, avoid), avoid)
        case ProjL(operand):
            return LApp(go(operand, avoid), _selector(0))
        case ProjR(operand):
            return LApp(go(operand, avoid), _selector(1))
        case Neg(operand):
            return go(operand, avoid)
        case Bound(index):
            raise ValueError(f"dangling binder reference ?b{index}")
        case InternalSubst():
            raise ValueError("pending substitutions have no translation")
    raise ValueError(f"unrecognized term: {e!r}")


def strip(e: Expr, _avoid: set[str] | None = None) -> LambdaTerm:
    """Type-stripping translation."""
    avoid = _avoid if _avoid is not None else free_vars(e)
    match e:
        case UnivAbs(dom, body, hint) | ExistAbs(dom, body, hint):
            x = fresh_name(hint, avoid)
            return llam(x, strip(open_binder(body, Var(x)), avoid | {x}))
        case Appl(fun, arg):
            return LApp(strip(fun, avoid), strip(arg, avoid))
        case InjL(val, _) | InjR(_, val):
            # \x.\y.(x val) or \x.\y.(y val), built on indices: the image
            # of val is locally closed, so its free x or y is not captured.
            k = LBound(1 if isinstance(e, InjL) else 0)
            return _lam2(LApp(k, strip(val, avoid | {"x", "y"})))
    return _translate(e, avoid, strip)


def encode(e: Expr, _avoid: set[str] | None = None) -> LambdaTerm:
    """Type-encoding translation: abstractions carry their domains."""
    avoid = _avoid if _avoid is not None else free_vars(e)
    match e:
        case UnivAbs(dom, body, hint) | ExistAbs(dom, body, hint):
            x = fresh_name(hint, avoid)
            inner = llam(x, encode(open_binder(body, Var(x)), avoid | {x}))
            z = fresh_name("z", avoid)
            return llam(z, LApp(LApp(LVar(z), encode(dom, avoid)), inner))
        case Appl(fun, arg):
            return LApp(LApp(encode(fun, avoid), _selector(1)), encode(arg, avoid))
        case InjL(val, _) | InjR(_, val):
            k = LApp(LBound(1 if isinstance(e, InjL) else 0), _lam2(LBound(0), "u", "v"))
            return _lam2(LApp(k, encode(val, avoid | {"x", "y"})))
    return _translate(e, avoid, encode)


def lam_to_text(e: LambdaTerm, _env: tuple[str, ...] = ()) -> str:
    match e:
        case PrimConst():
            return "pi^"
        case LVar(name):
            return name
        case LBound(index):
            if index < len(_env):
                return _env[index]
            return f"?b{index}"
        case Lam(body, hint):
            x = fresh_name(hint, set(_env) | _lam_free(body))
            return f"\\{x}.{lam_to_text(body, (x, *_env))}"
        case LApp(fun, arg):
            return f"({lam_to_text(fun, _env)} {lam_to_text(arg, _env)})"
    raise ValueError(f"unrecognized term: {e!r}")


def _lam_free(e: LambdaTerm) -> set[str]:
    match e:
        case LVar(name):
            return {name}
        case Lam(body):
            return _lam_free(body)
        case LApp(fun, arg):
            return _lam_free(fun) | _lam_free(arg)
    return set()
