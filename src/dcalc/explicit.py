"""Reduction with internalized substitutions and environments.

This engine shares the plain reducer's rule table (``reduction.RULES``) but
makes beta steps produce a pending substitution node ``[x:=a]b`` instead of
substituting eagerly (``beta1_mu``/``beta2_mu``); environments hold named
definitions that variables unfold against (``use``), and spent binders are
dropped (``rem``). Negation steps are aggregated: a nonempty sequence of
negation-reduction steps counts as one step here, so nu1..nu5 are left out
of the table. Multi-step runs go through the plain reducer's fuel driver.

Definition evaluation is the sub-relation with only use/rem as axioms (all
structural rules retained); it terminates with a strictly decreasing weight
and eliminates every pending substitution, so it runs without fuel.

Traversal (``_components``) opens every binder with a fresh name on the way
down and closes it again on the way up, so every term handled by a rule is
locally closed and environment definitions can be spliced in without index
adjustments. Fresh names avoid one set, the free names of the term and the
starting environment's pool, grown by each name opened on the way down;
``mu_nf`` computes it once for the whole run. A step probes a component for
a negation step only where its parent's probe did not already cover it.
Each step still searches from the root, so ``mu_trace`` is the step
sequence of ``mu_nf``.
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
    ExistAbs,
    ExprS,
    InternalSubst,
    Prim,
    UnivAbs,
    Var,
    binder_used,
    children,
    close_binder,
    free_vars,
    fresh_name,
    open_binder,
    replace_child,
    scoped_index,
)

Path = tuple[int, ...]

# The plain reducer's rules without nu1..nu5, with beta delayed.
MU_RULES = {
    **{key: rule for key, rule in RULES.items() if key not in NEG_RULES},
    (Appl, UnivAbs): lambda e, f: ("beta1_mu", InternalSubst(e.arg, f.body, f.hint)),
    (Appl, ExistAbs): lambda e, f: ("beta2_mu", InternalSubst(e.arg, f.body, f.hint)),
}


class Env:
    """Ordered definitions with pairwise-distinct names."""

    __slots__ = ("defs", "_index", "_pool")

    def __init__(self, defs: tuple[tuple[str, ExprS], ...] = ()):
        self.defs = defs
        self._index = {name: i for i, (name, _) in enumerate(defs)}
        if len(self._index) != len(defs):
            raise ValueError("duplicate definition name in environment")
        self._pool: set[str] | None = None

    def __repr__(self) -> str:
        return f"Env({self.defs!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Env) and self.defs == other.defs

    def __hash__(self) -> int:
        return hash(self.defs)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def lookup(self, name: str) -> ExprS | None:
        i = self._index.get(name)
        return None if i is None else self.defs[i][1]

    def extend(self, name: str, defn: ExprS) -> "Env":
        """This environment with one more definition, its index grown from this one's."""
        if name in self._index:
            raise ValueError("duplicate definition name in environment")
        env = Env()
        env.defs = self.defs + ((name, defn),)
        env._index = {**self._index, name: len(self.defs)}
        return env

    def pool(self) -> set[str]:
        """Names that fresh binders must avoid: defined names and their free vars.

        Computed on first use. A step asks only the environment it starts
        from: the definitions it adds on the way down bring in no name that
        its avoid set lacks.
        """
        if self._pool is None:
            self._pool = set(self._index).union(*(free_vars(d) for _, d in self.defs))
        return self._pool


def _def_rule(env: Env, e: ExprS) -> tuple[str, ExprS] | None:
    """use or rem at the root of e: the rules of definition evaluation."""
    match e:
        case Var(x) if x in env:
            return "use", env.lookup(x)
        case InternalSubst(_, body) if not binder_used(body):
            return "rem", body
    return None


def mu_axiom_steps(env: Env, e: ExprS) -> list[tuple[str, ExprS]]:
    """The non-structural rules applicable at the root: at most one (rule, result)."""
    found = _def_rule(env, e) or _fire(MU_RULES, e)
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


def _components(env: Env, e: ExprS, avoid: set[str]):
    """Each component of e as (index, env, term, avoid, rebuild), in order.

    avoid holds at least the free names of e and env.pool(), and so does the
    avoid set handed to each component. A scoped component comes opened with
    a name fresh for avoid, which the body of a pending substitution also
    gets as a definition; the definition's free names are already in avoid.
    rebuild(c) closes that name in c again and puts c in place of the
    component.
    """
    scoped = scoped_index(e)
    for i, c in enumerate(children(e)):
        if i != scoped:
            yield i, env, c, avoid, lambda r, i=i: replace_child(e, i, r)
            continue
        x = fresh_name(getattr(e, "hint", "x"), avoid)
        inner = env.extend(x, e.defn) if isinstance(e, InternalSubst) else env
        yield i, inner, open_binder(c, Var(x)), avoid | {x}, (
            lambda r, i=i, x=x: replace_child(e, i, close_binder(r, x))
        )


def mu_redexes(env: Env, e: ExprS, _avoid: set[str] | None = None) -> list[tuple[Path, str, ExprS]]:
    """Every single step available, as (path, rule, whole-term-after).

    The negation rule contributes one entry per term reachable by a nonempty
    sequence of negation steps from the subterm at the position.
    """
    avoid = _avoid if _avoid is not None else free_vars(e) | env.pool()
    out: list[tuple[Path, str, ExprS]] = [((), name, res) for name, res in mu_axiom_steps(env, e)]
    for t in _neg_reachable_plus(e):
        out.append(((), "nu", t))
    for i, inner, c, inner_avoid, rebuild in _components(env, e, avoid):
        for p, name, res in mu_redexes(inner, c, inner_avoid):
            out.append(((i, *p), name, rebuild(res)))
    return out


def mu_step(
    env: Env, e: ExprS, _avoid: set[str] | None = None, _neg_normal: bool = False
) -> tuple[str, ExprS] | None:
    """Deterministic single step: root rules, aggregated negation, then children.

    _avoid is the avoid set of _components, by default the free names of e
    and env.pool(). _neg_normal says e is known to have no negation step:
    the components at the negation positions of a node without one have none
    either, so their probe is skipped.
    """
    avoid = _avoid if _avoid is not None else free_vars(e) | env.pool()
    steps = mu_axiom_steps(env, e)
    if steps:
        return steps[0]
    if not _neg_normal and neg_step(e) is not None:
        return "nu", neg_nf(e)
    neg_at = _neg_positions(e)
    for i, inner, c, inner_avoid, rebuild in _components(env, e, avoid):
        found = mu_step(inner, c, inner_avoid, i in neg_at)
        if found is not None:
            name, res = found
            return name, rebuild(res)
    return None


def mu_trace(env: Env, e: ExprS, fuel: int = DEFAULT_FUEL) -> list[tuple[str, ExprS]]:
    trace: list[tuple[str, ExprS]] = []
    _drive(lambda cur: mu_step(env, cur), e, fuel, trace)
    return trace


def mu_nf(env: Env, e: ExprS, fuel: int = DEFAULT_FUEL) -> ExprS:
    """The last term of mu_trace, with the avoid set computed once.

    Every later term's free names stay among those of e and env.pool(): no
    rule brings in a name but use, which brings in a definition's, and a
    name opened on the way down is closed again on the way up.
    """
    avoid = free_vars(e) | env.pool()
    return _drive(lambda cur: mu_step(env, cur, avoid), e, fuel)


def def_eval_step(env: Env, e: ExprS, _avoid: set[str] | None = None) -> ExprS | None:
    """One use/rem step under full structural congruence, or None."""
    avoid = _avoid if _avoid is not None else free_vars(e) | env.pool()
    found = _def_rule(env, e)
    if found is not None:
        return found[1]
    for _, inner, c, inner_avoid, rebuild in _components(env, e, avoid):
        r = def_eval_step(inner, c, inner_avoid)
        if r is not None:
            return rebuild(r)
    return None


def def_eval_trace(env: Env, e: ExprS) -> list[ExprS]:
    trace: list[ExprS] = []
    _drive(lambda cur: def_eval_step(env, cur), e, trace=trace)
    return trace


def contains_subst(e: ExprS) -> bool:
    if isinstance(e, InternalSubst):
        return True
    return any(contains_subst(c) for c in children(e))


def def_eval_nf(env: Env, e: ExprS) -> ExprS:
    nf = _drive(lambda cur: def_eval_step(env, cur), e)
    assert not contains_subst(nf)
    return nf


def def_weight(env: Env, e: ExprS) -> int:
    """Termination weight for definition evaluation; strictly drops per step."""
    match e:
        case Prim() | Bound():
            return 1
        case Var(x):
            d = env.lookup(x)
            return 1 if d is None else def_weight(env, d) + 1
        case InternalSubst(defn, body, hint):
            x = fresh_name(hint, env.pool() | free_vars(body) | free_vars(defn))
            inner = def_weight(env.extend(x, defn), open_binder(body, Var(x)))
            return def_weight(env, defn) + inner + 1
    return sum(def_weight(env, c) for c in children(e))
