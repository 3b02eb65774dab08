"""Reduction with internalized substitutions and environments.

This engine shares the plain reducer's rule table (``reduction.RULES``) but
makes beta steps produce a pending substitution node ``[x:=a]b`` instead of
substituting eagerly (``beta1_mu``/``beta2_mu``); environments hold named
definitions that variables unfold against (``use``), and spent binders are
dropped (``rem``). An environment is a ``syntax.Context`` whose entries are
definitions rather than declarations. Negation steps are aggregated: a
nonempty sequence of negation-reduction steps counts as one step here, so
nu1..nu5 are left out of the table. The traces run through the plain
reducer's fuel driver (``_drive``), and ``mu_nf`` counts fuel as it does.

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
already found normal costs one lookup; only the node types negation
reduction enters are probed, since ``neg_nf`` returns any other as it is.
``_mu_fires`` states what a step takes at a node for both ``mu_step`` and
``mu_nf``.

The traces search each step from the root and, with ``mu_step``,
``mu_redexes`` and ``def_eval_step``, are the executable specification.
``mu_nf`` and ``def_eval_nf`` take the same steps in one resuming walk
(``_resume``), a leftmost-outermost machine (Accattoli and Dal Lago) over a
zipper (Huet), which never searches left of a step again.
"""

from __future__ import annotations

from collections.abc import Callable

from .reduction import (
    DEFAULT_FUEL,
    NEG_RULES,
    RULES,
    FuelExhausted,
    Hit,
    Path,
    _drive,
    _fire,
    _first,
    neg_nf,
    neg_redexes,
)
from .syntax import (
    _CHILDREN,
    _LEAVES,
    _SCOPED_INDEX,
    Appl,
    Binders,
    Bound,
    Context,
    ExistAbs,
    ExprS,
    InternalSubst,
    Neg,
    Prim,
    ProtDef,
    Product,
    Sum,
    UnivAbs,
    Var,
    _rebuild,
    _search,
    binder_used,
    children,
    plug,
    scoped_index,
    shift,
    walk,
)

# The plain reducer's rules without nu1..nu5, with beta delayed.
MU_RULES = {
    **{key: rule for key, rule in RULES.items() if key not in NEG_RULES},
    (Appl, UnivAbs): lambda e, f: ("beta1_mu", InternalSubst(e.arg, f.body, f.hint)),
    (Appl, ExistAbs): lambda e, f: ("beta2_mu", InternalSubst(e.arg, f.body, f.hint)),
}


# Ordered definitions with pairwise-distinct names.
Env = Context

# The node types negation reduction contracts at or enters
# (reduction._neg_positions); neg_nf returns a node of any other type as it is.
_NEG_PROBED = frozenset({Neg, Product, Sum, UnivAbs, ExistAbs, ProtDef, InternalSubst})


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


def _mu_fires(env: Env, binders: Binders, e: ExprS) -> Hit | None:
    """What a step takes at e: a rule of _mu_rule, else the aggregated negation steps."""
    found = _mu_rule(env, binders, e)
    if found is None and type(e) in _NEG_PROBED:
        nf = neg_nf(e)
        if nf is not e:
            return "nu", nf
    return found


def _resume(
    env: Env, e: ExprS, fires: Callable[[Env, Binders, ExprS], Hit | None], fuel: int | None
) -> ExprS:
    """The last term of the steps that _first takes with fires from e, in one walk.

    The walk keeps a stack of frames, one per node above the position: the
    node, its components as rebuilt so far, and the position in it; the
    binder entries of the frames are on a list of their own. After a step
    the spine is rebuilt and the ancestors are tested again, outermost first,
    each under the binders above it; the first that fires takes the next
    step, and if none does the walk goes on at the contractum. What lies
    left of the position is unchanged, under unchanged binders, and had no
    hit, so the first hit after it is the trace's next step. A pending
    substitution's entry is its defn as rebuilt, since a step in its defn
    comes before its body is entered. A closed node that the walk finished
    as normal is skipped where it comes back: no binder entry reaches it.
    Fuel counts steps, as _drive does.
    """
    taken = 0
    done: dict[int, ExprS] = {}  # the closed compound nodes finished as normal, by id
    stack: list[list] = []  # per node above the position: [node, components, position]
    binders: Binders = []
    cur = e
    while True:
        if id(cur) not in done:
            found = fires(env, binders, cur)
            if found is not None:
                while found is not None:
                    if fuel is not None and taken >= fuel:
                        raise FuelExhausted(e, fuel)
                    taken += 1
                    cur = new = found[1]
                    for frame in reversed(stack):
                        frame[1][frame[2]] = new
                        new = frame[0] = _rebuild(frame[0], frame[1])
                    above: Binders = []
                    found = None
                    for j, (node, parts, i) in enumerate(stack):
                        found = fires(env, above, node)
                        if found is not None:
                            del stack[j:], binders[len(above) :]
                            break
                        if i == _SCOPED_INDEX.get(type(node)):
                            above.append(parts[0] if type(node) is InternalSubst else None)
                continue  # test the contractum
            t = type(cur)
            if t not in _LEAVES:  # no hit at cur: go into it
                stack.append([cur, list(_CHILDREN[t](cur)), -1])
        while stack:  # the next position: into cur's first component, or past cur
            frame = stack[-1]
            node, parts, i = frame
            scoped = _SCOPED_INDEX.get(type(node))
            if i == scoped:
                binders.pop()
            i += 1
            if i < len(parts):
                frame[2] = i
                if i == scoped:
                    binders.append(parts[0] if type(node) is InternalSubst else None)
                cur = parts[i]
                break
            stack.pop()  # the node is finished, with no hit left in it
            cur = node
            if not cur._lb:
                done[id(cur)] = cur
        else:
            return cur


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
    found = _first(e, lambda sub, binders: _mu_fires(env, binders, sub))
    return None if found is None else (found[1], plug(e, found[0], found[2]))


def mu_trace(env: Env, e: ExprS, fuel: int = DEFAULT_FUEL) -> list[tuple[str, ExprS]]:
    trace: list[tuple[str, ExprS]] = []
    _drive(lambda cur: mu_step(env, cur), e, fuel, trace)
    return trace


def mu_nf(env: Env, e: ExprS, fuel: int = DEFAULT_FUEL) -> ExprS:
    """The last term of mu_trace."""
    return _resume(env, e, _mu_fires, fuel)


def def_eval_step(env: Env, e: ExprS) -> ExprS | None:
    """One use/rem step under full structural congruence, or None."""
    found = _first(e, lambda sub, binders: _def_rule(env, binders, sub))
    return None if found is None else plug(e, found[0], found[2])


def def_eval_trace(env: Env, e: ExprS) -> list[ExprS]:
    trace: list[ExprS] = []
    _drive(lambda cur: def_eval_step(env, cur), e, trace=trace)
    return trace


def def_eval_nf(env: Env, e: ExprS) -> ExprS:
    """The last term of def_eval_trace."""
    nf = _resume(env, e, _def_rule, None)
    assert all(type(node) is not InternalSubst for node, _ in walk(nf))
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
