"""Type synthesis and checking.

Every term has at most one type up to convertibility, so checking is
synthesis followed by a normal-form comparison. Failures raise TypingError
with a machine-readable kind, the path from the root of the offending term,
and the expected/found types where that makes sense.
"""

from __future__ import annotations

from .reduction import DEFAULT_FUEL, conv, reduce_nf
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
    Sum,
    UnivAbs,
    Var,
    binder_used,
    close_binder,
    free_vars,
    open_binder,
    path_text,
    shift,
    to_text,
)

Path = tuple[int, ...]


class TypingError(Exception):
    """A typing failure with enough structure to render diagnostics."""

    def __init__(
        self,
        kind: str,
        message: str,
        path: Path = (),
        expected: Expr | None = None,
        found: Expr | None = None,
    ):
        self.kind = kind
        self.message = message
        self.path = path
        self.expected = expected
        self.found = found
        super().__init__(message)

    def __str__(self) -> str:
        parts = [f"{self.kind} @ {path_text(self.path)}: {self.message}"]
        if self.expected is not None:
            parts.append(f"expected {to_text(self.expected)}")
        if self.found is not None:
            parts.append(f"found {to_text(self.found)}")
        return "; ".join(parts)


def synth(ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL) -> Expr:
    """The type of e under ctx, or raise TypingError."""
    return _synth(ctx, e, (), fuel)


def _synth(ctx: Context, e: Expr, path: Path, fuel: int) -> Expr:
    match e:
        case Prim():
            return TAU
        case Bound(index):
            raise TypingError(
                "UnboundVariable", f"dangling binder reference ?b{index}", path
            )
        case Var(name):
            ty = ctx.lookup(name)
            if ty is None:
                raise TypingError("UnboundVariable", f"{name} is not declared", path)
            return ty
        case UnivAbs(dom, body, hint) | ExistAbs(dom, body, hint):
            _synth(ctx, dom, path + (0,), fuel)
            x = ctx.fresh(hint, free_vars(body) | free_vars(dom))
            tb = _synth(ctx.extend(x, dom), open_binder(body, Var(x)), path + (1,), fuel)
            return UnivAbs(dom, close_binder(tb, x), hint)
        case Appl(fun, arg):
            tf = _synth(ctx, fun, path + (0,), fuel)
            ta = _synth(ctx, arg, path + (1,), fuel)
            nf_tf = reduce_nf(tf, fuel)
            if not isinstance(nf_tf, UnivAbs):
                raise TypingError(
                    "NotAFunction",
                    "operator type is not a universal abstraction",
                    path,
                    found=nf_tf,
                )
            if reduce_nf(ta, fuel) != nf_tf.dom:
                raise TypingError(
                    "DomainMismatch",
                    "argument type does not match the domain",
                    path,
                    expected=nf_tf.dom,
                    found=ta,
                )
            return open_binder(nf_tf.body, arg)
        case ProtDef(witness, proof, tag, hint):
            tw = _synth(ctx, witness, path + (0,), fuel)
            tp = _synth(ctx, proof, path + (1,), fuel)
            x = ctx.fresh(hint, free_vars(tag) | free_vars(tw))
            try:
                _synth(ctx.extend(x, tw), open_binder(tag, Var(x)), path + (2,), fuel)
            except TypingError as err:
                raise TypingError(
                    "InvalidTag",
                    f"tag is not typeable over the witness: {err.message}",
                    path,
                ) from err
            claimed = open_binder(tag, witness)
            if not conv(tp, claimed, fuel):
                raise TypingError(
                    "InvalidTag",
                    "proof does not establish the tag at the witness",
                    path,
                    expected=claimed,
                    found=tp,
                )
            return ExistAbs(tw, tag, hint)
        case ProjL(operand):
            t = reduce_nf(_synth(ctx, operand, path + (0,), fuel), fuel)
            match t:
                case ExistAbs(dom, _):
                    return dom
                case Product(l, _):
                    return l
            raise TypingError(
                "NotProjectable",
                "operand type supports no left projection",
                path,
                found=t,
            )
        case ProjR(operand):
            t = reduce_nf(_synth(ctx, operand, path + (0,), fuel), fuel)
            match t:
                case ExistAbs(_, body):
                    return open_binder(body, ProjL(operand))
                case Product(_, r):
                    return r
            raise TypingError(
                "NotProjectable",
                "operand type supports no right projection",
                path,
                found=t,
            )
        case Product(l, r) | Sum(l, r):
            return Product(
                _synth(ctx, l, path + (0,), fuel), _synth(ctx, r, path + (1,), fuel)
            )
        case InjL(val, rtag):
            _synth(ctx, rtag, path + (1,), fuel)
            return Sum(_synth(ctx, val, path + (0,), fuel), rtag)
        case InjR(ltag, val):
            _synth(ctx, ltag, path + (0,), fuel)
            return Sum(ltag, _synth(ctx, val, path + (1,), fuel))
        case Case(left, right):
            tl = reduce_nf(_synth(ctx, left, path + (0,), fuel), fuel)
            tr = reduce_nf(_synth(ctx, right, path + (1,), fuel), fuel)
            if not isinstance(tl, UnivAbs) or not isinstance(tr, UnivAbs):
                raise TypingError(
                    "BranchTypeMismatch",
                    "both branches must have universal abstraction types",
                    path,
                    found=tl if not isinstance(tl, UnivAbs) else tr,
                )
            if binder_used(tl.body) or binder_used(tr.body):
                raise TypingError(
                    "BranchTypeMismatch",
                    "branch codomains must not depend on the bound variable",
                    path,
                    found=tl if binder_used(tl.body) else tr,
                )
            if tl.body != tr.body:
                raise TypingError(
                    "BranchTypeMismatch",
                    "branch codomains differ",
                    path,
                    expected=shift(tl.body, -1),
                    found=shift(tr.body, -1),
                )
            _synth(ctx, shift(tl.body, -1), path, fuel)
            return UnivAbs(Sum(tl.dom, tr.dom), tl.body, "z")
        case Neg(operand):
            return _synth(ctx, operand, path + (0,), fuel)
        case InternalSubst():
            raise TypingError(
                "PendingSubstitution", "pending substitutions are not typeable terms", path
            )
    raise ValueError(f"unrecognized term: {e!r}")


def check(ctx: Context, e: Expr, ty: Expr, fuel: int = DEFAULT_FUEL) -> None:
    """Verify e has type ty under ctx; raise TypingError if not."""
    _synth(ctx, ty, (), fuel)
    found = _synth(ctx, e, (), fuel)
    if not conv(found, ty, fuel):
        raise TypingError(
            "Mismatch",
            "term does not have the claimed type",
            (),
            expected=ty,
            found=found,
        )


def check_context(ctx: Context, fuel: int = DEFAULT_FUEL) -> None:
    """Verify each declared type is typeable under the declarations before it."""
    for i, (name, ty) in enumerate(ctx.entries):
        prefix = Context(ctx.entries[:i])
        try:
            _synth(prefix, ty, (), fuel)
        except TypingError as err:
            raise TypingError(
                "ContextError",
                f"declaration {name}: {err.kind}: {err.message}",
                err.path,
                expected=err.expected,
                found=err.found,
            ) from err


def valid(ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL) -> bool:
    """Does e have any type under ctx?"""
    try:
        _synth(ctx, e, (), fuel)
        return True
    except TypingError:
        return False
