"""Two mappings into untyped lambda calculus, with a beta reducer.

The stripping mapping erases types: both abstraction forms become lambdas,
pairing constructs become Church pairs, projections apply a selector, and
negation vanishes. The encoding mapping instead keeps domains as data,
pairing every abstraction with its domain; application first projects the
function component. Both leave the inert constant pi^ for tau.

Both translate in one pass: a binder reference becomes the index of its
abstraction's lambda at once, from the lambda depth at which each enclosing
abstraction's image sits, so no binder is opened and no lambda closed.
beta_step is the normal-order step and the executable specification;
beta_nf takes the same steps in one walk that resumes where it contracted,
as reduction._normalize does.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .reduction import DEFAULT_FUEL, FuelExhausted
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
    Unchanged subterms are shared, not copied.
    """
    match e:
        case LVar() | LBound():
            return leaf(e, depth)
        case Lam(body, hint):
            new = _lmap(body, leaf, depth + 1)
            return e if new is body else Lam(new, hint)
        case LApp(fun, arg):
            f, a = _lmap(fun, leaf, depth), _lmap(arg, leaf, depth)
            return e if f is fun and a is arg else LApp(f, a)
    return e


def lshift(e: LambdaTerm, by: int, depth: int = 0) -> LambdaTerm:
    if by == 0:
        return e

    def leaf(v: LVar | LBound, d: int) -> LambdaTerm:
        return LBound(v.index + by) if type(v) is LBound and v.index >= d else v

    return _lmap(e, leaf, depth)


def lopen(scoped: LambdaTerm, repl: LambdaTerm, depth: int = 0) -> LambdaTerm:
    """Instantiate the body of a lambda with repl, as syntax.open_binder does.

    repl is shifted once per lambda depth, and the copies are shared.
    """
    shifted: dict[int, LambdaTerm] = {}

    def leaf(v: LVar | LBound, d: int) -> LambdaTerm:
        if type(v) is LVar or v.index < d:
            return v
        if v.index > d:
            return LBound(v.index - 1)
        if d not in shifted:
            shifted[d] = lshift(repl, d)
        return shifted[d]

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


def beta_nf(e: LambdaTerm, fuel: int | None = DEFAULT_FUEL) -> LambdaTerm:
    """The normal form of e, reached by the steps beta_step takes.

    One walk that resumes where it contracted, as reduction._normalize does.
    A lambda normalizes its body. An application normalizes its operator,
    and contracts as soon as a root contraction of the operator leaves a
    lambda there; a normal operator is never a lambda, so the operand comes
    next. Every redex before the contracted one in normal order is then
    already normal, so the steps are exactly beta_step's. Fuel counts steps
    as reduction._drive does.
    """
    taken = 0

    def walk(t: LambdaTerm) -> tuple[LambdaTerm, bool]:
        """(normal form of t, True), or (contractum, False) after a root step."""
        nonlocal taken
        if type(t) is Lam:
            body, done = walk(t.body)
            while not done:
                body, done = walk(body)
            return (t if body is t.body else Lam(body, t.hint)), True
        if type(t) is not LApp:
            return t, True
        fun, done = t.fun, False
        while not done:
            if type(fun) is Lam:
                if fuel is not None and taken >= fuel:
                    raise FuelExhausted(e, fuel, lam_to_text(e))
                taken += 1
                return lopen(fun.body, t.arg), False
            fun, done = walk(fun)
        arg, done = walk(t.arg)
        while not done:
            arg, done = walk(arg)
        return (t if fun is t.fun and arg is t.arg else LApp(fun, arg)), True

    cur, done = walk(e)
    while not done:
        cur, done = walk(cur)
    return cur


def is_beta_normal(e: LambdaTerm) -> bool:
    match e:
        case LApp(Lam(_), _):
            return False
        case Lam(body):
            return is_beta_normal(body)
        case LApp(fun, arg):
            return is_beta_normal(fun) and is_beta_normal(arg)
    return True


def _lam2(body: LambdaTerm, x: str = "x", y: str = "y") -> Lam:
    """\\x.\\y.body for a body already in index form: x is LBound(1), y LBound(0)."""
    return Lam(Lam(body, y), x)


# The selectors of a Church pair's first and second component. encode also
# applies an injection's branch to the second, with hints u and v, as its
# image of an application does.
_FST = _lam2(LBound(1))
_SND = _lam2(LBound(0))
_UV = _lam2(LBound(0), "u", "v")

# strip or encode: go(component, avoid, depth, binders) as below.
Go = Callable[[Expr, set[str], int, tuple[int, ...]], LambdaTerm]


def _pair(a: LambdaTerm, b: LambdaTerm, avoid: set[str]) -> LambdaTerm:
    """\\z.((z a) b) for images a and b already translated under the lambda."""
    return Lam(LApp(LApp(LBound(0), a), b), fresh_name("z", avoid))


def _translate(
    e: Expr, avoid: set[str], depth: int, binders: tuple[int, ...], go: Go
) -> LambdaTerm:
    """The cases strip and encode share; go translates the components."""
    match e:
        case Prim():
            return PI
        case Var(name):
            return LVar(name)
        case Bound(index):
            if index < len(binders):
                return LBound(depth - binders[index] - 1)
            raise ValueError(f"dangling binder reference ?b{index - len(binders)}")
        case ProtDef(witness, proof, _):
            d = depth + 1
            return _pair(go(witness, avoid, d, binders), go(proof, avoid, d, binders), avoid)
        case Product(l, r) | Sum(l, r) | Case(l, r):
            d = depth + 1
            return _pair(go(l, avoid, d, binders), go(r, avoid, d, binders), avoid)
        case ProjL(operand):
            return LApp(go(operand, avoid, depth, binders), _FST)
        case ProjR(operand):
            return LApp(go(operand, avoid, depth, binders), _SND)
        case Neg(operand):
            return go(operand, avoid, depth, binders)
        case InternalSubst():
            raise ValueError("pending substitutions have no translation")
    raise ValueError(f"unrecognized term: {e!r}")


def strip(
    e: Expr, _avoid: set[str] | None = None, _depth: int = 0, _binders: tuple[int, ...] = ()
) -> LambdaTerm:
    """Type-stripping translation, in one pass over e.

    The private arguments carry the pass: _avoid holds the names a lambda's
    hint is freshened against (the free names of the whole term and the
    hints chosen above), _depth counts the lambdas above, and _binders holds
    the lambda depth of the image of each enclosing abstraction, innermost
    first, so a binder reference becomes its lambda's index at once.
    """
    avoid = _avoid if _avoid is not None else free_vars(e)
    match e:
        case UnivAbs(_, body, hint) | ExistAbs(_, body, hint):
            x = fresh_name(hint, avoid)
            return Lam(strip(body, avoid | {x}, _depth + 1, (_depth, *_binders)), x)
        case Appl(fun, arg):
            return LApp(strip(fun, avoid, _depth, _binders), strip(arg, avoid, _depth, _binders))
        case InjL(val, _) | InjR(_, val):
            # \x.\y.(x val) or \x.\y.(y val), built on indices: the image
            # of val is locally closed, so its free x or y is not captured.
            k = LBound(1 if isinstance(e, InjL) else 0)
            return _lam2(LApp(k, strip(val, avoid | {"x", "y"}, _depth + 2, _binders)))
    return _translate(e, avoid, _depth, _binders, strip)


def encode(
    e: Expr, _avoid: set[str] | None = None, _depth: int = 0, _binders: tuple[int, ...] = ()
) -> LambdaTerm:
    """Type-encoding translation: abstractions carry their domains.

    One pass over e, with the private arguments of strip.
    """
    avoid = _avoid if _avoid is not None else free_vars(e)
    match e:
        case UnivAbs(dom, body, hint) | ExistAbs(dom, body, hint):
            # \z.((z dom) \x.body), the body translated first
            x = fresh_name(hint, avoid)
            inner = encode(body, avoid | {x}, _depth + 2, (_depth + 1, *_binders))
            dom_image = encode(dom, avoid, _depth + 1, _binders)
            return _pair(dom_image, Lam(inner, x), avoid)
        case Appl(fun, arg):
            fun_image = LApp(encode(fun, avoid, _depth, _binders), _SND)
            return LApp(fun_image, encode(arg, avoid, _depth, _binders))
        case InjL(val, _) | InjR(_, val):
            k = LApp(LBound(1 if isinstance(e, InjL) else 0), _UV)
            return _lam2(LApp(k, encode(val, avoid | {"x", "y"}, _depth + 2, _binders)))
    return _translate(e, avoid, _depth, _binders, encode)


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
