"""Reduction with internalized substitutions and environments.

This engine shares the plain reducer's rule table (``reduction.RULES``) but
makes beta steps produce a pending substitution node ``[x:=a]b`` instead of
substituting eagerly (``beta1_mu``/``beta2_mu``); environments hold named
definitions that variables unfold against (``use``), and spent binders are
dropped (``rem``). An environment is a ``syntax.Context`` whose entries are
definitions rather than declarations. Negation steps are aggregated: a
nonempty sequence of negation-reduction steps counts as one step here, so
nu1..nu5 are left out of the table. Multi-step runs go through the plain
reducer's fuel driver.

Definition evaluation is the sub-relation with only use/rem as axioms (all
structural rules retained); it terminates with a strictly decreasing weight
and eliminates every pending substitution, so it runs without fuel.

Binders are walked on a stack, as in the locally nameless representation
(Charguéraud) with de Bruijn-indexed explicit substitutions (Abadi,
Cardelli, Curien and Lévy): ``_components`` hands each component over as
it stands, and under a binder the walk pushes one entry, the definition of a
pending substitution or None for any other binder. No binder is named,
opened or closed. ``use`` fires on a variable defined in the environment and
on ``Bound(k)`` whose binder is a pending substitution, giving its
definition shifted past the k+1 binders in between; ``rem`` lowers the
indices of its body that point past the spent binder. A step probes a
component for a negation step only where its parent's probe did not already
cover it. Each step still searches from the root, so ``mu_trace`` is the
step sequence of ``mu_nf``.
"""

from __future__ import annotations

from .reduction import (
    DEFAULT_FUEL,
    NEG_RULES,
    RULES,
    _drive,
    _fire,
    _neg_positions,
    neg_nf,
    neg_redexes,
    neg_step,
)
from .syntax import (
    Appl,
    Bound,
    Context,
    ExistAbs,
    ExprS,
    InternalSubst,
    Prim,
    UnivAbs,
    Var,
    binder_used,
    children,
    pending_path,
    replace_child,
    scoped_index,
    shift,
)

Path = tuple[int, ...]
# One entry per binder a subterm is under, innermost last: the definition of
# a pending substitution, None for any other binder.
Stack = list[ExprS | None]

# The plain reducer's rules without nu1..nu5, with beta delayed.
MU_RULES = {
    **{key: rule for key, rule in RULES.items() if key not in NEG_RULES},
    (Appl, UnivAbs): lambda e, f: ("beta1_mu", InternalSubst(e.arg, f.body, f.hint)),
    (Appl, ExistAbs): lambda e, f: ("beta2_mu", InternalSubst(e.arg, f.body, f.hint)),
}


# Ordered definitions with pairwise-distinct names.
Env = Context


def _def_rule(env: Env, stack: Stack, e: ExprS) -> tuple[str, ExprS] | None:
    """use or rem at the root of e, under the binders of stack."""
    match e:
        case Var(x) if x in env:
            return "use", env.lookup(x)
        case Bound(k) if k < len(stack) and stack[-1 - k] is not None:
            return "use", shift(stack[-1 - k], k + 1)
        case InternalSubst(_, body) if not binder_used(body):
            return "rem", shift(body, -1)
    return None


def mu_axiom_steps(env: Env, e: ExprS) -> list[tuple[str, ExprS]]:
    """The non-structural rules applicable at the root: at most one (rule, result)."""
    found = _def_rule(env, [], e) or _fire(MU_RULES, e)
    return [] if found is None else [found]


def _neg_reachable_plus(e: ExprS) -> list[ExprS]:
    """Terms reachable from e by one or more negation-reduction steps."""
    seen: set[ExprS] = {e}
    queue = [e]
    out: list[ExprS] = []
    while queue:
        cur = queue.pop()
        for _, _, nxt in neg_redexes(cur):
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
                queue.append(nxt)
    return out


def _components(stack: list, e: ExprS):
    """Each component of e as (index, component), in order.

    While e's scoped component is out, stack holds one more entry: e's
    definition if e is a pending substitution, else None. The scoped
    component comes last, so a walk that stops there ends the whole search
    and may leave the entry behind.
    """
    scoped = scoped_index(e)
    for i, c in enumerate(children(e)):
        if i != scoped:
            yield i, c
            continue
        stack.append(e.defn if type(e) is InternalSubst else None)
        yield i, c
        stack.pop()


def mu_redexes(env: Env, e: ExprS, _stack: Stack | None = None) -> list[tuple[Path, str, ExprS]]:
    """Every single step available, as (path, rule, whole-term-after).

    The negation rule contributes one entry per term reachable by a nonempty
    sequence of negation steps from the subterm at the position.
    """
    stack = [] if _stack is None else _stack
    found = _def_rule(env, stack, e) or _fire(MU_RULES, e)
    out: list[tuple[Path, str, ExprS]] = [] if found is None else [((), *found)]
    for t in _neg_reachable_plus(e):
        out.append(((), "nu", t))
    for i, c in _components(stack, e):
        for p, name, res in mu_redexes(env, c, stack):
            out.append(((i, *p), name, replace_child(e, i, res)))
    return out


def mu_step(
    env: Env, e: ExprS, _stack: Stack | None = None, _neg_normal: bool = False
) -> tuple[str, ExprS] | None:
    """Deterministic single step: root rules, aggregated negation, then children.

    _stack has an entry per binder e is under, innermost last (see
    _components). _neg_normal says e is known to have no negation step: the
    components at the negation positions of a node without one have none
    either, so their probe is skipped.
    """
    stack = [] if _stack is None else _stack
    found = _def_rule(env, stack, e) or _fire(MU_RULES, e)
    if found is not None:
        return found
    if not _neg_normal and neg_step(e) is not None:
        return "nu", neg_nf(e)
    neg_at = _neg_positions(e)
    for i, c in _components(stack, e):
        found = mu_step(env, c, stack, i in neg_at)
        if found is not None:
            name, res = found
            return name, replace_child(e, i, res)
    return None


def mu_trace(env: Env, e: ExprS, fuel: int = DEFAULT_FUEL) -> list[tuple[str, ExprS]]:
    trace: list[tuple[str, ExprS]] = []
    _drive(lambda cur: mu_step(env, cur), e, fuel, trace)
    return trace


def mu_nf(env: Env, e: ExprS, fuel: int = DEFAULT_FUEL) -> ExprS:
    """The last term of mu_trace."""
    return _drive(lambda cur: mu_step(env, cur), e, fuel)


def def_eval_step(env: Env, e: ExprS, _stack: Stack | None = None) -> ExprS | None:
    """One use/rem step under full structural congruence, or None."""
    stack = [] if _stack is None else _stack
    found = _def_rule(env, stack, e)
    if found is not None:
        return found[1]
    for i, c in _components(stack, e):
        r = def_eval_step(env, c, stack)
        if r is not None:
            return replace_child(e, i, r)
    return None


def def_eval_trace(env: Env, e: ExprS) -> list[ExprS]:
    trace: list[ExprS] = []
    _drive(lambda cur: def_eval_step(env, cur), e, trace=trace)
    return trace


def def_eval_nf(env: Env, e: ExprS) -> ExprS:
    nf = _drive(lambda cur: def_eval_step(env, cur), e)
    assert pending_path(nf) is None
    return nf


def def_weight(env: Env, e: ExprS) -> int:
    """Termination weight for definition evaluation; strictly drops per step.

    A variable weighs one more than its definition, or 1 if it has none.
    The weights of the definitions of enclosing pending substitutions are
    kept on a stack, one entry per binder, None for any other binder.
    """
    weights: list[int | None] = []

    def go(e: ExprS) -> int:
        match e:
            case Prim():
                return 1
            case Bound(k):
                w = weights[-1 - k] if k < len(weights) else None
                return 1 if w is None else w + 1
            case Var(x):
                d = env.lookup(x)
                return 1 if d is None else def_weight(env, d) + 1
            case InternalSubst(defn, body):
                w = go(defn)
                weights.append(w)
                inner = go(body)
                weights.pop()
                return w + inner + 1
        return sum(go(c) for _, c in _components(weights, e))

    return go(e)
