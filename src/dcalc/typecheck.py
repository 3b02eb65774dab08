"""Type synthesis and checking, of terms, contexts and whole documents.

Every term has at most one type up to convertibility, so checking is
synthesis followed by a normal-form comparison. Failures raise TypingError
with a machine-readable kind, the path from the root of the offending term,
and the expected/found types where that makes sense. check_document, the
checker behind dcalc check, collects them for a parsed file instead.

Binders are typed on a stack (Coquand's algorithm over the locally nameless
representation): _synth carries the types of the binders it is under, and
Bound(k) has the type of the k-th binder out, shifted past the k+1 binders
in between. An abstraction pushes its domain and types its scope as it
stands, so no binder is opened with a fresh name and no type is closed
again; open_binder runs only where a rule substitutes, in an application's
result and in the right projection of an existential. Names are picked only
when a diagnostic is raised: the error's terms still point into the binders
it was raised under, and synth opens them with the names a checker that
opened every binder with a fresh variable would pick.

A definition is spliced into each use as one shared node, so a document
can hold a term far larger than its text. A term has one type, so each
locally closed compound node keeps the type it was found to have, and a
shared subterm is typed once, in bare calls too. A type found under a
context holds under every longer one cut from the same declarations, so
check_document's declarations, each typed under the ones before it, its
definitions and its checks reuse one another's types. A type found at fuel
F is reused only at a fuel of F or more, and only successes are kept, so
every error is raised afresh, with its own path and text. Normal forms are
kept on the node too (reduction._normalize), and a reused one is charged
its steps, so each call runs out of fuel where a fresh one would.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import TYPE_CHECKING

from .reduction import DEFAULT_FUEL, FuelExhausted, conv, reduce_nf
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
    _LEAVES,
    _names_free_in,
    binder_used,
    fresh_name,
    open_binder,
    path_text,
    shift,
    to_text,
)

if TYPE_CHECKING:
    from .parser import Document

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


# A binder _synth is inside: the type of its variable (an abstraction's
# domain, a protected definition's witness type), its hint, and the
# component it scopes over.
Binder = tuple[Expr, str, Expr]

# The _type entry of a node not typed yet: no context's name index is None.
_UNTYPED = (None, 0, 0, None)


def synth(ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL) -> Expr:
    """The type of e under ctx, or raise TypingError."""
    binders: list[Binder] = []
    try:
        return _synth(ctx, binders, e, (), fuel)
    except (TypingError, FuelExhausted) as err:
        if not binders:
            raise
        raise _named(ctx, binders, err) from None


def _named(ctx: Context, binders: list[Binder], err: Exception) -> Exception:
    """err with the binders its terms dangle into opened as named variables.

    An error leaves its binders on the stack. They get the names a checker
    that opened every binder with a fresh variable would have picked,
    outermost first, so diagnostics print the same either way. The names
    free in a binder's scope and type come from one fold per term, since
    each scope holds the next binder's.
    """
    taken = ctx.names()
    free: dict[int, AbstractSet[str]] = {}

    def free_in(t: Expr) -> AbstractSet[str]:
        if id(t) not in free:
            free.update(_names_free_in(t))
        return free[id(t)]

    names = []
    for ty, hint, scope in binders:
        x = fresh_name(hint, taken, free_in(scope), free_in(ty))
        taken.add(x)
        names.append(x)

    def opened(t: Expr | None) -> Expr | None:
        if t is not None:
            for x in reversed(names):
                t = open_binder(t, Var(x))
        return t

    if isinstance(err, FuelExhausted):
        return FuelExhausted(opened(err.expr), err.fuel)
    return TypingError(err.kind, err.message, err.path, opened(err.expected), opened(err.found))


def _synth(ctx: Context, binders: list[Binder], e: Expr, path: Path, fuel: int) -> Expr:
    """The type of e under ctx, where e's dangling indices point into binders.

    binders lists the enclosing binders, innermost last, and the result's
    dangling indices point into them too. On success binders is as it was;
    an error leaves the binders it was raised under on it. A locally closed
    compound e keeps its type as ``_type``, with the context's name index,
    its length and the fuel, and the type is reused under a context that
    shares the index (a Context.prefix does) and is no shorter, at a fuel no
    smaller. The entry holds the index, not the declarations: their types
    would point back at their own nodes.
    """
    closed = not e._lb and type(e) not in _LEAVES
    if closed:
        index, length, typed_at, ty = getattr(e, "_type", _UNTYPED)
        if index is ctx._index and length <= len(ctx) and typed_at <= fuel:
            return ty
    match e:
        case Prim():
            return TAU
        case Bound(index):
            if index < len(binders):
                return shift(binders[-1 - index][0], index + 1)
            raise TypingError(
                "UnboundVariable",
                f"dangling binder reference ?b{index - len(binders)}",
                path,
            )
        case Var(name):
            ty = ctx.lookup(name)
            if ty is None:
                raise TypingError("UnboundVariable", f"{name} is not declared", path)
            return ty
        case UnivAbs(dom, body, hint) | ExistAbs(dom, body, hint):
            _synth(ctx, binders, dom, path + (0,), fuel)
            binders.append((dom, hint, body))
            tb = _synth(ctx, binders, body, path + (1,), fuel)
            binders.pop()
            ty = UnivAbs(dom, tb, hint)
        case Appl(fun, arg):
            tf = _synth(ctx, binders, fun, path + (0,), fuel)
            ta = _synth(ctx, binders, arg, path + (1,), fuel)
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
            ty = open_binder(nf_tf.body, arg)
        case ProtDef(witness, proof, tag, hint):
            tw = _synth(ctx, binders, witness, path + (0,), fuel)
            tp = _synth(ctx, binders, proof, path + (1,), fuel)
            depth = len(binders)
            binders.append((tw, hint, tag))
            try:
                _synth(ctx, binders, tag, path + (2,), fuel)
            except TypingError as err:
                del binders[depth:]
                raise TypingError(
                    "InvalidTag",
                    f"tag is not typeable over the witness: {err.message}",
                    path,
                ) from err
            binders.pop()
            claimed = open_binder(tag, witness)
            if not conv(tp, claimed, fuel):
                raise TypingError(
                    "InvalidTag",
                    "proof does not establish the tag at the witness",
                    path,
                    expected=claimed,
                    found=tp,
                )
            ty = ExistAbs(tw, tag, hint)
        case ProjL(operand) | ProjR(operand):
            t = reduce_nf(_synth(ctx, binders, operand, path + (0,), fuel), fuel)
            left = type(e) is ProjL
            match t:
                case ExistAbs(dom, body):
                    ty = dom if left else open_binder(body, ProjL(operand))
                case Product(l, r):
                    ty = l if left else r
                case _:
                    side = "left" if left else "right"
                    message = f"operand type supports no {side} projection"
                    raise TypingError("NotProjectable", message, path, found=t)
        case Product(l, r) | Sum(l, r):
            ty = Product(
                _synth(ctx, binders, l, path + (0,), fuel),
                _synth(ctx, binders, r, path + (1,), fuel),
            )
        case InjL(val, rtag):
            _synth(ctx, binders, rtag, path + (1,), fuel)
            ty = Sum(_synth(ctx, binders, val, path + (0,), fuel), rtag)
        case InjR(ltag, val):
            _synth(ctx, binders, ltag, path + (0,), fuel)
            ty = Sum(ltag, _synth(ctx, binders, val, path + (1,), fuel))
        case Case(left, right):
            tl = reduce_nf(_synth(ctx, binders, left, path + (0,), fuel), fuel)
            tr = reduce_nf(_synth(ctx, binders, right, path + (1,), fuel), fuel)
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
            _synth(ctx, binders, shift(tl.body, -1), path, fuel)
            ty = UnivAbs(Sum(tl.dom, tr.dom), tl.body, "z")
        case Neg(operand):
            ty = _synth(ctx, binders, operand, path + (0,), fuel)
        case InternalSubst():
            raise TypingError(
                "PendingSubstitution", "pending substitutions are not typeable terms", path
            )
        case _:
            raise ValueError(f"unrecognized term: {e!r}")
    if closed:
        e._type = (ctx._index, len(ctx), fuel, ty)
    return ty


def check(ctx: Context, e: Expr, ty: Expr, fuel: int = DEFAULT_FUEL) -> None:
    """Verify e has type ty under ctx; raise TypingError if not."""
    synth(ctx, ty, fuel)
    found = synth(ctx, e, fuel)
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
    for name, ty in ctx.entries:
        try:
            synth(ctx.prefix(name), ty, fuel)
        except TypingError as err:
            raise TypingError(
                "ContextError",
                f"declaration {name}: {err.kind}: {err.message}",
                err.path,
                expected=err.expected,
                found=err.found,
            ) from err


def _typing_error(prefix: str, run) -> TypingError | None:
    """What run() raises, as a TypingError whose message starts with prefix."""
    try:
        run()
    except TypingError as err:
        return TypingError(err.kind, prefix + err.message, err.path, err.expected, err.found)
    except FuelExhausted as err:
        return TypingError("FuelExhausted", f"{prefix}{err}")
    return None


def check_document(doc: Document, fuel: int = DEFAULT_FUEL) -> list[TypingError]:
    """All typing errors in a parsed file: context, definitions, then checks."""
    ctx = doc.context
    err = _typing_error("", lambda: check_context(ctx, fuel))
    if err is not None:
        return [err]
    found = [
        _typing_error(f"definition {name}: ", lambda: synth(ctx, body, fuel))
        for name, body in doc.defs.items()
    ] + [
        _typing_error(f"line {item.line}: ", lambda: check(ctx, item.term, item.ty, fuel))
        for item in doc.checks
    ]
    return [error for error in found if error is not None]


def valid(ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL) -> bool:
    """Does e have any type under ctx?"""
    try:
        synth(ctx, e, fuel)
        return True
    except TypingError:
        return False
