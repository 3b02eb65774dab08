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

This module states only what fires at a node (``_mu_rule``, ``_def_rule``);
the one redex search, ``syntax._search``, walks binders on a stack, as in
the locally nameless representation (Charguéraud) with de Bruijn-indexed
explicit substitutions (Abadi, Cardelli, Curien and Lévy), and hands each
node one entry per binder above it: a pending substitution's definition, or
None. No binder is named, opened or closed. ``use`` fires on a variable
defined in the environment and on ``Bound(k)`` whose binder is a pending
substitution, giving its definition shifted past the k+1 binders in between;
``rem`` lowers the indices of its body that point past the spent binder. A
step probes a node for negation by asking for its negation normal form
(``reduction.neg_nf``), which the node keeps once found, so probing a node
already found normal costs one lookup. Each step searches from the root, so
``mu_trace`` is the step sequence of ``mu_nf``.
"""

from __future__ import annotations

from .reduction import (
    DEFAULT_FUEL,
    NEG_RULES,
    RULES,
    Hit,
    Path,
    _drive,
    _fire,
    _first,
    neg_nf,
    neg_redexes,
)
from .syntax import (
    Appl,
    Binders,
    Bound,
    Context,
    ExistAbs,
    ExprS,
    InternalSubst,
    Prim,
    UnivAbs,
    Var,
    _search,
    binder_used,
    children,
    pending_path,
    plug,
    scoped_index,
    shift,
)

# The plain reducer's rules without nu1..nu5, with beta delayed.
MU_RULES = {
    **{key: rule for key, rule in RULES.items() if key not in NEG_RULES},
    (Appl, UnivAbs): lambda e, f: ("beta1_mu", InternalSubst(e.arg, f.body, f.hint)),
    (Appl, ExistAbs): lambda e, f: ("beta2_mu", InternalSubst(e.arg, f.body, f.hint)),
}


# Ordered definitions with pairwise-distinct names.
Env = Context


def _def_rule(env: Env, binders: Binders, e: ExprS) -> Hit | None:
    """use or rem at the root of e, under binders."""
    t = type(e)
    if t is Var:
        defn = env.lookup(e.name)
        if defn is not None:
            return "use", defn
    elif t is Bound:
        k = e.index
        if k < len(binders) and (defn := binders[-1 - k]) is not None:
            return "use", shift(defn, k + 1)
    elif t is InternalSubst and not binder_used(e.body):
        return "rem", shift(e.body, -1)
    return None


def _mu_rule(env: Env, binders: Binders, e: ExprS) -> Hit | None:
    """use, rem or a rule of MU_RULES at the root of e, under binders."""
    return _def_rule(env, binders, e) or _fire(MU_RULES, e)


def mu_axiom_steps(env: Env, e: ExprS) -> list[tuple[str, ExprS]]:
    """The non-structural rules applicable at the root: at most one (rule, result)."""
    found = _mu_rule(env, [], e)
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


def mu_redexes(env: Env, e: ExprS) -> list[tuple[Path, str, ExprS]]:
    """Every single step available, as (path, rule, whole-term-after).

    The negation rule contributes one entry per term reachable by a nonempty
    sequence of negation steps from the subterm at the position.
    """

    def hits(sub: ExprS, binders: Binders) -> list[Hit]:
        found = _mu_rule(env, binders, sub)
        return ([] if found is None else [found]) + [("nu", t) for t in _neg_reachable_plus(sub)]

    found = _search(e, hits)
    return [(path, name, plug(e, path, after)) for path, at in found for name, after in at]


def mu_step(env: Env, e: ExprS) -> Hit | None:
    """Deterministic single step: root rules, aggregated negation, then children."""

    def fires(sub: ExprS, binders: Binders) -> Hit | None:
        found = _mu_rule(env, binders, sub)
        if found is not None:
            return found
        nf = neg_nf(sub)
        return None if nf is sub else ("nu", nf)

    found = _first(e, fires)
    return None if found is None else (found[1], plug(e, found[0], found[2]))


def mu_trace(env: Env, e: ExprS, fuel: int = DEFAULT_FUEL) -> list[tuple[str, ExprS]]:
    trace: list[tuple[str, ExprS]] = []
    _drive(lambda cur: mu_step(env, cur), e, fuel, trace)
    return trace


def mu_nf(env: Env, e: ExprS, fuel: int = DEFAULT_FUEL) -> ExprS:
    """The last term of mu_trace."""
    return _drive(lambda cur: mu_step(env, cur), e, fuel)


def def_eval_step(env: Env, e: ExprS) -> ExprS | None:
    """One use/rem step under full structural congruence, or None."""
    found = _first(e, lambda sub, binders: _def_rule(env, binders, sub))
    return None if found is None else plug(e, found[0], found[2])


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

    def under(entry: int | None, e: ExprS) -> int:
        weights.append(entry)
        w = go(e)
        weights.pop()
        return w

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
                return w + under(w, body) + 1
        scoped = scoped_index(e)
        return sum(under(None, c) if i == scoped else go(c) for i, c in enumerate(children(e)))

    return go(e)
