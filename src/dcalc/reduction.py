"""The rewrite rules, the redex searches, the fuel-bounded driver and negation.

The rewrite axioms come in three groups: beta (application meets abstraction
or case meets injection, and the untyped beta of the lambda terms that
``semantics`` builds), pi (projections meet introduction forms), and nu
(negation pushed through or absorbed by every constructor). ``RULES`` states
each of them once, keyed by the type of the redex and of its head component;
the negation engine here and the explicit-substitution engine select their
subsets from it. Structural congruence applies in every component of every
operator. The deterministic strategy is leftmost-outermost: every engine
finds its steps with one search (``syntax._search``), which keeps the path
and binders on its own stack and asks the engine only what fires at a node.

Every engine runs its single steps through one driver, ``_drive``, which
counts them against an optional fuel budget: ``fuel=N`` allows exactly N
steps and raises FuelExhausted when a further one is available. The traces
(``reduce_trace``, ``neg_trace``) search each step from the root and are the
executable specification; ``reduce_nf`` and ``neg_nf`` take the same steps
in one resuming walk (``_normalize``) that continues where it contracted.
Each node the walk finishes keeps its normal form, with the steps it took,
which is reused where the node comes back, in the same call or a later one:
always at a call's root, and inside the walk where the node's root never
contracted or its parent does not read it. A reused normal form is
charged its steps, so fuel still counts the trace's steps.

The walk takes a beta spine ``(((h a1) a2) ... ak)``, whose head h is k
nested binders or more, as one contraction charged k steps (a strong
Krivine machine's move: Crégut, HOSC 2007). That is exact: the trace
contracts the spine k times in a row, each contractum again a binder
applied to the next argument, and the walk keeps no entry on the terms
between. So one ``open_binder`` of the k arguments gives the term the k
steps reach, in one walk of h's k-th body where they would walk it k times.
``semantics.beta_nf`` is ``reduce_nf`` on a lambda term.
Whether a term is normal is decided by the same redex search: ``classify_nf``
calls a term with no redex a dead end when it is stuck on a variable.

Negation reduction is the sub-relation with axioms nu1..nu5 only and
congruence restricted to negations, both components of products and sums, and
the scoped component of binders; it terminates unconditionally with a
strictly decreasing weight and is confluent, so it runs without fuel.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from functools import partial

from .syntax import (
    Appl,
    Bound,
    Case,
    ExprS,
    InjL,
    InjR,
    InternalSubst,
    Lam,
    Neg,
    Prim,
    Product,
    ProjL,
    ProjR,
    ProtDef,
    Sum,
    UnivAbs,
    ExistAbs,
    Var,
    Binders,
    _search,
    children,
    fold,
    open_binder,
    path_text,
    plug,
    replace_child,
    scoped_index,
    to_text,
)

DEFAULT_FUEL = 100_000

Path = tuple[int, ...]
Step = tuple[Path, str, ExprS]
Rule = Callable[[ExprS, ExprS], "tuple[str, ExprS] | None"]
Hit = tuple[str, ExprS]  # a rule's name and the contractum that replaces its node
Fires = Callable[[ExprS, Binders], "Hit | None"]


# FuelExhausted prints at most this many characters of its term.
_SHOWN_CHARS = 1_000


class FuelExhausted(Exception):
    def __init__(self, e, fuel: int):
        text = to_text(e)
        if len(text) > _SHOWN_CHARS:
            text = f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"
        super().__init__(f"no normal form within {fuel} steps: {text}")
        self.expr = e
        self.fuel = fuel


def _beta_case(e: Appl, case: Case) -> tuple[str, ExprS] | None:
    match e.arg:
        case InjL(val, _):
            return "beta3", Appl(case.left, val)
        case InjR(_, val):
            return "beta4", Appl(case.right, val)
    return None


# (redex type, head type) -> rule(redex, head), giving (axiom, contractum).
# The head is the operator of an application and the operand of a
# projection or negation. Keys are disjoint, so at most one axiom fires.
RULES: dict[tuple[type, type], Rule] = {
    (Appl, UnivAbs): lambda e, f: ("beta1", open_binder(f.body, e.arg)),
    (Appl, ExistAbs): lambda e, f: ("beta2", open_binder(f.body, e.arg)),
    (Appl, Case): _beta_case,
    (Appl, Lam): lambda e, f: ("beta", open_binder(f.body, e.arg)),
    (ProjL, ProtDef): lambda _, p: ("pi1", p.witness),
    (ProjR, ProtDef): lambda _, p: ("pi2", p.proof),
    (ProjL, Product): lambda _, p: ("pi3", p.l),
    (ProjR, Product): lambda _, p: ("pi4", p.r),
    (ProjL, Sum): lambda _, s: ("pi5", s.l),
    (ProjR, Sum): lambda _, s: ("pi6", s.r),
    (Neg, Neg): lambda _, n: ("nu1", n.e),
    (Neg, Product): lambda _, p: ("nu2", Sum(Neg(p.l), Neg(p.r))),
    (Neg, Sum): lambda _, s: ("nu3", Product(Neg(s.l), Neg(s.r))),
    (Neg, UnivAbs): lambda _, a: ("nu4", ExistAbs(a.dom, Neg(a.body), a.hint)),
    (Neg, ExistAbs): lambda _, a: ("nu5", UnivAbs(a.dom, Neg(a.body), a.hint)),
    (Neg, Prim): lambda _, inner: ("nu6", inner),
    (Neg, ProtDef): lambda _, inner: ("nu7", inner),
    (Neg, InjL): lambda _, inner: ("nu8", inner),
    (Neg, InjR): lambda _, inner: ("nu9", inner),
    (Neg, Case): lambda _, inner: ("nu10", inner),
}

# nu1..nu5: the axioms of negation reduction.
NEG_RULES = {k: RULES[k] for k in [(Neg, t) for t in (Neg, Product, Sum, UnivAbs, ExistAbs)]}


def _fire(rules: dict[tuple[type, type], Rule], e: ExprS, binders=None) -> Hit | None:
    """The axiom of rules that applies at the root of e, with its contractum."""
    t = type(e)
    if t is Appl:
        head = e.fun
    elif t is ProjL or t is ProjR or t is Neg:
        head = e.e
    else:
        return None
    rule = rules.get((t, type(head)))
    return None if rule is None else rule(e, head)


# The Fires of the two tables here; a rule table's Fires ignores binders.
_RULES_FIRE = partial(_fire, RULES)
_NEG_FIRE = partial(_fire, NEG_RULES)


def _drive(step, e, fuel: int | None = None, trace: list | None = None):
    """Apply step from e until it returns None, and return the last term.

    step(cur) gives None at a normal form, else the next term or a tuple
    ending with it; trace, when given, collects what step gave. With fuel,
    at most fuel steps are taken, and FuelExhausted (naming e) is raised
    when a further step is available. Without fuel the caller guarantees
    termination.
    """
    cur, taken = e, 0
    while (found := step(cur)) is not None:
        if fuel is not None and taken >= fuel:
            raise FuelExhausted(e, fuel)
        taken += 1
        cur = found[-1] if type(found) is tuple else found
        if trace is not None:
            trace.append(found)
    return cur


def _plugged(find: Callable[[ExprS], Step | None]) -> Callable[[ExprS], Step | None]:
    """A driver step from a search for (path, axiom, contractum at path)."""

    def step(cur: ExprS) -> Step | None:
        found = find(cur)
        return None if found is None else (found[0], found[1], plug(cur, found[0], found[2]))

    return step


# A node's entry when _normalize found it normal. A normal node is not its
# own entry: that would be a reference cycle.
_NORMAL = object()


# The binders a beta rule opens.
_BETA_BINDERS = (UnivAbs, ExistAbs, Lam)


def _spare(e: Appl) -> int:
    """The nested beta binders of e's spine head less e's arguments, capped at 0.

    e is ``(((h a1) a2) ... ak)`` with h no application: at 0, h is at least
    k nested binders and k beta steps contract e at its root.
    """
    k, head = 1, e.fun
    while type(head) is Appl:
        k, head = k + 1, head.fun
    for spare in range(-k, 0):
        if type(head) not in _BETA_BINDERS:
            return spare
        head = head.body
    return 0


def _contract_spine(e: Appl) -> tuple[int, ExprS]:
    """(k, the contractum of e's k beta steps), when _spare(e) is 0: the k-th
    body of e's head, with the k arguments put in by one open_binder."""
    args = []
    while type(e) is Appl:
        args.append(e.arg)
        e = e.fun
    for _ in args:
        e = e.body
    return len(args), open_binder(e, *reversed(args))


def _reads(e: ExprS, i: int) -> bool:
    """Does whether a rule fires at e hang on the root of e's component i?

    An application reads its operator, and its argument under a case; a
    projection or negation reads its operand.
    """
    t = type(e)
    if t is Appl:
        return i == 0 or type(e.fun) is Case
    return t is ProjL or t is ProjR or t is Neg


def _normalize(e: ExprS, rules, positions, fuel: int | None, attr: str) -> ExprS:
    """The normal form of e, reached by the steps the trace of rules takes.

    positions is as for syntax._search. A node fires its rule, or else normalizes
    its components left to right. A component hands its root back to the
    node after each root contraction, and the node contracts if it now
    fires: a rule looks only at the root types of its node's components, so
    a contraction can only make a redex of its parent. Every other node
    before it in leftmost-outermost order is already normal, so the steps are
    exactly the trace's. Fuel counts steps, as _drive does.

    Under RULES, an application whose spine head is as many nested beta
    binders as the spine has arguments, or more (_spare), contracts them all
    in one open_binder, charged one step per argument. That is exact: one
    at a time, the innermost application contracts to a binder, which its
    parent reads and contracts at once, so the k steps come in a row and
    none of the terms between keeps an entry. An application with fewer
    head binders than arguments is no redex at its root: it descends as any
    node does, and hands its operator the count it found, so a spine is
    scanned once. Case heads take one step at a time.

    What a walk finds stays on each compound node, under the attribute attr
    (one per rule table): _NORMAL for a node found normal, else (normal form,
    steps taken, whether its root contracted) once its normalization
    finished. So a node shared by several components, or met again by a
    later call, is walked once. The call's root always reuses
    its entry, and a normal root is returned before the walk is built, so a
    probe of a kept normal form is one getattr. A component reuses its entry
    when its root never contracted, or when its parent does not read it
    (_reads): either way the walk would take the same steps with no say from
    the parent. A reused entry is charged its steps, and FuelExhausted (naming
    e) is raised if they pass the fuel, so fuel=N still means the N steps of
    the trace.
    """
    if getattr(e, attr, None) is _NORMAL:
        return e
    spines = rules is RULES
    taken = 0

    def charge(steps: int) -> None:
        nonlocal taken
        if fuel is not None and taken + steps > fuel:
            raise FuelExhausted(e, fuel)
        taken += steps

    def walk(sub: ExprS, read: bool, spare: int | None = None) -> tuple[ExprS, bool]:
        """(normal form of sub, True), or (contractum, False) after a root step.

        read is whether sub's parent reads it (_reads). spare, when given, is
        _spare(sub), which the parent knows from its own.
        """
        kids = children(sub)
        if not kids:
            return sub, True
        hit = getattr(sub, attr, None)
        if hit is not None:
            if hit is _NORMAL:
                return sub, True
            if not (read and hit[2]):
                charge(hit[1])
                return hit[0], True
        found = _fire(rules, sub)
        if found is not None:
            charge(1)
            return found[1], False
        below = None  # the operator's _spare
        if spines and type(sub) is Appl and type(sub.fun) is Appl:
            if spare is None:
                spare = _spare(sub)
            if spare == 0:
                steps, out = _contract_spine(sub)
                charge(steps)
                return out, False
            below = spare + 1
        node, start = sub, taken
        for i in range(len(kids)) if positions is None else positions(sub):
            reads = _reads(sub, i)
            mark = taken
            kid, done = walk(kids[i], reads, below if i == 0 else None)
            if not done:
                while not done:
                    sub = replace_child(sub, i, kid)
                    found = _fire(rules, sub)
                    if found is not None:
                        charge(1)
                        return found[1], False
                    kid, done = walk(kid, reads)
                setattr(kids[i], attr, (kid, taken - mark, True))
            if kid is not kids[i]:
                sub = replace_child(sub, i, kid)
        setattr(sub, attr, _NORMAL)
        if sub is not node:
            setattr(node, attr, (sub, taken - start, False))
        return sub, True

    try:
        cur, done = walk(e, False)
        if not done:
            while not done:
                cur, done = walk(cur, False)
            setattr(e, attr, (cur, taken, True))
        return cur
    finally:
        del walk  # walk calls itself through its closure: a reference cycle


def axiom_steps(e: ExprS) -> list[Hit]:
    """The axioms applicable at the root of e: at most one (axiom, contractum)."""
    found = _RULES_FIRE(e)
    return [] if found is None else [found]


def _first(e: ExprS, fires: Fires, positions=None) -> Step | None:
    """(path, axiom, contractum at path) at the first hit of fires, or None."""
    for path, (name, result) in _search(e, fires, positions):
        return path, name, result
    return None


def _every(e: ExprS, fires: Fires, positions=None) -> list[Step]:
    """(path, axiom, whole term after) at every hit of fires, in strategy order."""
    found = _search(e, fires, positions)
    return [(path, name, plug(e, path, after)) for path, (name, after) in found]


def redexes(e: ExprS) -> list[Step]:
    """Every (position, axiom, whole-term-after) triple, in strategy order."""
    return _every(e, _RULES_FIRE)


def first_redex(e: ExprS) -> Step | None:
    """Leftmost-outermost redex as (path, axiom, contractum-at-path)."""
    return _first(e, _RULES_FIRE)


def reduce_trace(e: ExprS, fuel: int = DEFAULT_FUEL) -> list[Step]:
    trace: list[Step] = []
    _drive(_plugged(first_redex), e, fuel, trace)
    return trace


def reduce_nf(e: ExprS, fuel: int = DEFAULT_FUEL) -> ExprS:
    return _normalize(e, RULES, None, fuel, "_reduce_nf")


def conv(a: ExprS, b: ExprS, fuel: int = DEFAULT_FUEL) -> bool:
    """Congruence test: common normal form, valid inputs assumed."""
    return a == b or reduce_nf(a, fuel) == reduce_nf(b, fuel)


def render_trace(steps: list[Step]) -> str:
    return "\n".join(f"{name} @ {path_text(path)} : {to_text(term)}" for path, name, term in steps)


class NormalClass(enum.Enum):
    NORMAL_FORM = "NormalForm"
    DEAD_END = "DeadEnd"
    REDUCIBLE = "Reducible"


def _dead_end(e: ExprS) -> bool:
    """Is e, which has no redex, stuck on a variable?

    Its spine of eliminations (an application's operator, or the argument
    of a case application; a projection's or negation's operand) ends at a
    Var or Bound.
    """
    while True:
        t = type(e)
        if t is Var or t is Bound:
            return True
        if t is Appl:
            e = e.arg if type(e.fun) is Case else e.fun
        elif t is ProjL or t is ProjR or t is Neg:
            e = e.e
        else:
            return False


def classify_nf(e: ExprS) -> NormalClass:
    """Sort an expression into reducible, dead ends, or other normal forms."""
    if first_redex(e) is not None:
        return NormalClass.REDUCIBLE
    return NormalClass.DEAD_END if _dead_end(e) else NormalClass.NORMAL_FORM


def neg_axiom(e: ExprS) -> tuple[str, ExprS] | None:
    """The negation-only axioms nu1..nu5 at the root."""
    return _NEG_FIRE(e)


def _neg_positions(e: ExprS) -> tuple[int, ...]:
    """Components negation reduction may descend into."""
    t = type(e)
    if t is Neg:
        return (0,)
    if t is Product or t is Sum:
        return (0, 1)
    if t is UnivAbs or t is ExistAbs or t is ProtDef or t is InternalSubst:
        return (scoped_index(e),)  # type: ignore[return-value]
    return ()


def neg_redexes(e: ExprS) -> list[Step]:
    return _every(e, _NEG_FIRE, _neg_positions)


def neg_step(e: ExprS) -> Step | None:
    return _first(e, _NEG_FIRE, _neg_positions)


def neg_trace(e: ExprS) -> list[Step]:
    trace: list[Step] = []
    _drive(_plugged(neg_step), e, trace=trace)
    return trace


def neg_nf(e: ExprS) -> ExprS:
    return _normalize(e, NEG_RULES, _neg_positions, None, "_neg_nf")


def _weigh(e: ExprS, depth: int, kids: list[int]) -> int:
    if type(e) is Neg:
        return (kids[0] + 1) ** 2
    return 1 + sum(kids)


def neg_weight(e: ExprS) -> int:
    """Termination weight for negation reduction; strictly drops per step."""
    return fold(e, _weigh)
