"""The reduction kernel the engines share: rule table, fuel driver, tooling names."""

import inspect
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    calls_during,
    enumerate_subst_terms,
    gen_neg_heavy,
    gen_typed_term,
    sample_contexts,
)
from dcalc import explicit, norms, parser, reduction, semantics, syntax
from dcalc.explicit import (
    Env,
    def_eval_nf,
    def_eval_step,
    mu_axiom_steps,
    mu_nf,
    mu_redexes,
    mu_step,
    mu_trace,
)
from dcalc.parser import parse_term
from dcalc.reduction import (
    DEFAULT_FUEL,
    NEG_RULES,
    FuelExhausted,
    axiom_steps,
    first_redex,
    neg_axiom,
    neg_nf,
    neg_redexes,
    neg_step,
    redexes,
    reduce_nf,
    reduce_trace,
)
from dcalc.semantics import beta_nf, beta_step, encode, strip
from dcalc.syntax import Context, children, plug, to_text
from dcalc.typecheck import synth

# Needs beta1, beta1 and nu1 in the plain reducer; seven steps with pending
# substitutions; its stripped image needs two beta steps.
TERM = parse_term("([x:tau]x ([y:tau]y ~~tau))")

NEG_ONLY = {"nu1", "nu2", "nu3", "nu4", "nu5"}


@pytest.mark.parametrize(
    "run, steps",
    [
        (reduce_nf, 3),
        (reduce_trace, 3),
        (lambda e, fuel: mu_nf(Env(), e, fuel), 7),
        (lambda e, fuel: mu_trace(Env(), e, fuel), 7),
        (lambda e, fuel: beta_nf(strip(e), fuel), 2),
    ],
    ids=["reduce_nf", "reduce_trace", "mu_nf", "mu_trace", "beta_nf"],
)
def test_fuel_allows_exactly_that_many_steps(run, steps):
    result = run(TERM, steps)
    if isinstance(result, list):
        assert len(result) == steps
    with pytest.raises(FuelExhausted, match=f"within {steps - 1} steps"):
        run(TERM, steps - 1)


def _subterms(e):
    yield e
    for c in children(e):
        yield from _subterms(c)


def _generated_subterms():
    rng = random.Random(31)
    ctxs = sample_contexts()
    for _ in range(150):
        yield from _subterms(gen_typed_term(rng, rng.choice(ctxs), rng.randint(0, 5)))
        yield from _subterms(gen_neg_heavy(rng, rng.randint(0, 6)))


def test_engine_rule_sets_are_subsets_of_the_one_table():
    fired = set()
    for sub in _generated_subterms():
        steps = axiom_steps(sub)
        fired.update(name for name, _ in steps)
        assert neg_axiom(sub) == next((s for s in steps if s[0] in NEG_ONLY), None)
        shared = [s for s in steps if s[0] not in NEG_ONLY | {"beta1", "beta2"}]
        mu = mu_axiom_steps(Env(), sub)
        assert [s for s in mu if s[0] not in {"beta1_mu", "beta2_mu"}] == shared
    # the generators reach every axiom of each group
    assert {"beta1", "beta3", "pi1", "pi3", "nu1", "nu4", "nu6", "nu8"} <= fired


# An environment that defines a name the generated terms use freely.
DEFINED = Env((("x", parse_term("[a,~~b]")),))


def _terms_on_mu_paths():
    """Generated terms and the first terms of their mu traces, which hold
    pending substitutions under binders."""
    rng = random.Random(53)
    ctxs = sample_contexts()
    for _ in range(100):
        for e in (
            gen_typed_term(rng, rng.choice(ctxs), rng.randint(0, 5)),
            gen_neg_heavy(rng, rng.randint(0, 5)),
        ):
            for _ in range(12):
                yield e
                found = mu_step(DEFINED, e)
                if found is None:
                    break
                e = found[1]


def test_the_first_hit_is_the_first_of_every_hit():
    """Each engine's deterministic step is one of the steps its every-hit search lists."""
    terms = 0
    for e in _terms_on_mu_paths():
        terms += 1
        for first, every in ((first_redex(e), redexes(e)), (neg_step(e), neg_redexes(e))):
            if first is None:
                assert every == []
            else:
                path, name, result = first
                assert every[0] == (path, name, plug(e, path, result))
        for env in (Env(), DEFINED):
            steps = {(name, after) for _path, name, after in mu_redexes(env, e)}
            found = mu_step(env, e)
            assert found in steps if found is not None else steps == set()
            defs = {after for name, after in steps if name in ("use", "rem")}
            after = def_eval_step(env, e)
            assert after in defs if after is not None else defs == set()
    assert terms > 500


# The functions bench/tracer.py counts work by; they must stay module-level
# functions of these modules for the traced benchmark to see them.
COUNTED = [
    (reduction, "axiom_steps"),
    (reduction, "first_redex"),
    (reduction, "reduce_nf"),
    (reduction, "conv"),
    (explicit, "mu_step"),
    (semantics, "beta_step"),
    (norms, "norm"),
    (syntax, "open_binder"),
    (syntax, "plug"),
    (parser, "parse_term"),
    (parser, "parse_document"),
    (parser, "tokenize"),
]


@pytest.mark.parametrize("module, name", COUNTED, ids=[f"{m.__name__}.{n}" for m, n in COUNTED])
def test_counted_functions_stay_module_level(module, name):
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__


# reduce_nf, neg_nf, beta_nf, mu_nf and def_eval_nf walk the term once; the
# traces search every step from the root and specify the strategy. The
# negation and definition pairs have no public fuel, so their fuelled forms
# are the kernel's own; beta_step's and def_eval_step's traces are the
# driver's. The explicit engines run under the empty environment and under
# DEFINED, on the generated terms and on every term of up to five nodes with
# pending substitutions.
def _neg_nf_fuel(e, fuel):
    return reduction._normalize(e, NEG_RULES, reduction._neg_positions, fuel, "_neg_nf")


def _neg_trace_fuel(e, fuel):
    trace = []
    reduction._drive(reduction._plugged(neg_step), e, fuel, trace)
    return trace


def _beta_trace(e, fuel):
    trace = []
    reduction._drive(beta_step, e, fuel, trace)
    return [("beta", t) for t in trace]


def _mu(env):
    """(public, nf, trace) of the mu engine under env."""

    def nf(e, fuel=DEFAULT_FUEL):
        return mu_nf(env, e, fuel)

    return nf, nf, lambda e, fuel: mu_trace(env, e, fuel)


def _def_eval(env):
    """(public, nf, trace) of definition evaluation under env."""

    def trace(e, fuel):
        terms = []
        reduction._drive(lambda cur: def_eval_step(env, cur), e, fuel, terms)
        return [("def", t) for t in terms]

    def nf(e, fuel):
        return explicit._resume(env, e, explicit._def_rule, fuel)

    return lambda e: def_eval_nf(env, e), nf, trace


def _generated():
    rng = random.Random(47)
    ctxs = sample_contexts()
    for _ in range(200):
        yield gen_typed_term(rng, rng.choice(ctxs), rng.randint(0, 5))
        yield gen_neg_heavy(rng, rng.randint(0, 7))


def _images():
    for e in _generated():
        yield from (strip(e), encode(e))


def _with_pending():
    yield from _generated()
    yield from enumerate_subst_terms(5)


@pytest.mark.parametrize(
    "public, nf, trace, inputs",
    [
        (reduce_nf, reduce_nf, reduce_trace, _generated),
        (neg_nf, _neg_nf_fuel, _neg_trace_fuel, _generated),
        (beta_nf, beta_nf, _beta_trace, _images),
        (reduce_nf, reduce_nf, reduce_trace, _images),
        (*_mu(Env()), _with_pending),
        (*_mu(DEFINED), _with_pending),
        (*_def_eval(Env()), _with_pending),
        (*_def_eval(DEFINED), _with_pending),
    ],
    ids=["reduce", "neg", "beta", "beta-in-rules", "mu", "mu-defined", "def_eval", "def_eval-defined"],
)
def test_normal_form_takes_the_steps_of_the_trace(public, nf, trace, inputs):
    for e in inputs():
        steps = trace(e, None)
        if inputs is _images:  # the one table's beta row takes beta_step's steps
            assert [s[-2:] for s in steps] == _beta_trace(e, None)
        last = steps[-1][-1] if steps else e
        if steps:  # first, while e keeps no normal form of its own
            with pytest.raises(FuelExhausted) as spec:
                trace(e, len(steps) - 1)
            with pytest.raises(FuelExhausted, match=f"^{re.escape(str(spec.value))}$"):
                nf(e, len(steps) - 1)
        assert public(e) == last
        assert nf(e, len(steps)) == last


def _common_size(a, b):
    """The node count of a when b equals it, else None. Iterative: these normal
    forms nest deeper than == can recurse under pytest."""
    count, todo = 0, [(a, b)]
    while todo:
        x, y = todo.pop()
        kx, ky = children(x), children(y)
        if type(x) is not type(y) or len(kx) != len(ky) or (not kx and x != y):
            return None
        count += 1
        todo.extend(zip(kx, ky))
    return count


def _church(k):
    return "[A:tau][s:[A=>A]][z:A]" + "(s " * k + "z" + ")" * k


def _mul(k):
    """mul(k,k) of Church numerals: k times k applications of s."""
    return parse_term(f"[A:tau][s:[A=>A]](({_church(k)} A) (({_church(k)} A) s))")


@pytest.mark.parametrize("k", [10, 20])
def test_normal_form_takes_work_linear_in_its_size_and_steps(k, monkeypatch):
    e = _mul(k)
    trace = reduce_trace(e)

    def forbidden(*args):
        raise AssertionError("reduce_nf searched from the root")

    monkeypatch.setattr(reduction, "first_redex", forbidden)
    monkeypatch.setattr(reduction, "plug", forbidden)
    calls = 0

    def counted(sub):
        nonlocal calls
        calls += 1
        return children(sub)

    monkeypatch.setattr(reduction, "children", counted)
    nf_size = _common_size(reduce_nf(e), trace[-1][2])
    assert nf_size is not None
    assert calls <= 5 * (nf_size + len(trace))


# Spines of beta redexes, which reduce_nf contracts k steps at a time: under
# mixed universal and existential heads; with more arguments than head
# binders; behind a case head; and the lambda images of Church arithmetic.
SPINES = {
    "mul(3,3)": lambda: _mul(3),
    "mul(5,5)": lambda: _mul(5),
    "mixed-heads": lambda: parse_term(
        "[u:tau]((([x:tau][y!tau][z:tau]((x y) z) u) ([w:tau]w u)) ([w!tau]w [v:tau]v))"
    ),
    "more-arguments": lambda: parse_term(
        "(((([x:tau][y:tau]x [p:tau][q!tau]q) b) c) ([w:tau]w d))"
    ),
    "case-head": lambda: parse_term(
        "((case([x:tau][y:tau]x, [x:tau][y:tau]y) inl(([w:tau]w a),tau)) b)"
    ),
    "strip-mul(3,3)": lambda: strip(_mul(3)),
    "encode-mul(3,3)": lambda: encode(_mul(3)),
}


@pytest.mark.parametrize("name", list(SPINES))
def test_every_fuel_stops_where_the_trace_does_inside_a_spine(name):
    """At every fuel short of the trace's L steps, reduce_nf raises what the
    trace raises; at L it gives the trace's last term. Each call keeps what
    it found on the nodes, and the second round reuses it."""
    e = SPINES[name]()
    steps = reduce_trace(e)
    assert len(steps) > 1
    for _ in range(2):
        for fuel in range(len(steps)):
            with pytest.raises(FuelExhausted) as spec:
                reduce_trace(e, fuel)
            with pytest.raises(FuelExhausted, match=f"^{re.escape(str(spec.value))}$"):
                reduce_nf(e, fuel)
        assert reduce_nf(e, len(steps)) == steps[-1][2]


# reduce_nf of mul(k,k): (Python calls, substitution-walker calls) allowed,
# 10% over what contracting each beta spine in one open_binder takes. One
# open per beta step took 3,125 and 566 calls at k = 10, 10,735 and 1,916 at
# k = 20.
MUL_WORK = {10: (1_987, 262), 20: (7_410, 955)}


@pytest.mark.parametrize("k", list(MUL_WORK))
def test_a_beta_spine_is_put_in_by_one_walk(k, monkeypatch):
    calls, walks = MUL_WORK[k]
    expected = reduce_trace(_mul(k))[-1][2]
    e = _mul(k)
    assert calls_during(lambda: reduce_nf(e), calls) <= calls
    walker_calls = Counter()
    _counting_walkers(monkeypatch, walker_calls)
    assert _common_size(reduce_nf(_mul(k)), expected) is not None
    assert sum(walker_calls.values()) <= walks


def test_a_spine_is_scanned_once_and_its_binders_opened_at_once(monkeypatch):
    """A spine with more arguments than head binders is scanned at its top
    only, since each operator below learns from its parent what the scan
    found; the head's two binders take their arguments in one open_binder,
    and the one step after in another."""
    neutral = parse_term("(" * 50 + "x" + "".join(f" a{i})" for i in range(50)))
    mixed = parse_term("(((([x:tau][y:tau]x [p:tau]p) b) c) d)")
    calls = Counter()
    for name in ("_spare", "open_binder"):
        _counting(monkeypatch, calls, reduction, name)
    assert reduce_nf(neutral) is neutral
    assert calls == Counter({"_spare": 1})
    calls.clear()
    assert to_text(reduce_nf(mixed, 3)) == "(c d)"
    assert calls == Counter({"_spare": 1, "open_binder": 2})


def _counting(monkeypatch, calls, module, name):
    """Count the calls made through module.name."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


# Every walker that shift, open_binder and close_binder use: the full map,
# and the map that skips locally closed subterms.
WALKERS = ("_map_leaves", "_map_indices")


def _counting_walkers(monkeypatch, calls):
    for name in WALKERS:
        _counting(monkeypatch, calls, syntax, name)


BINDER_CHAIN = "".join(f"[x{i}:tau]" for i in range(100)) + "[x0,inl(x99,tau)].1"


@pytest.mark.parametrize("translate", [strip, encode], ids=["strip", "encode"])
def test_translations_map_indices_in_one_pass(translate, monkeypatch):
    """No binder is opened, and no image is walked again to close a lambda."""
    e = parse_term(BINDER_CHAIN)
    expected = to_text(translate(e))
    calls = Counter()
    for module in (syntax, semantics):
        if hasattr(module, "open_binder"):
            _counting(monkeypatch, calls, module, "open_binder")
    _counting_walkers(monkeypatch, calls)
    assert to_text(translate(e)) == expected
    assert calls == Counter()


def test_beta_nf_does_not_step_from_the_root(monkeypatch):
    e = parse_term(f"[A:tau][s:[A=>A]](({_church(4)} A) (({_church(4)} A) s))")
    images = [strip(e), encode(e)]
    expected = [reduction._drive(beta_step, img) for img in images]
    calls = Counter()
    _counting(monkeypatch, calls, semantics, "beta_step")
    assert [beta_nf(img) for img in images] == expected
    assert calls == Counter()


# [x0:tau]...[x(n-1):tau]([y:tau]y x0): three mu steps under n binders.
def _mu_chain(n):
    return "".join(f"[x{i}:tau]" for i in range(n)) + "([y:tau]y x0)"


def test_mu_nf_takes_work_independent_of_binder_depth(monkeypatch):
    """mu_nf walks binders on a stack: it names, opens and closes none of them."""
    env = Env((("d", parse_term("(a b)")),))
    terms = {n: parse_term(_mu_chain(n)) for n in (50, 100, 200)}
    expected = {n: reduce_nf(e) for n, e in terms.items()}
    calls = Counter()
    for module in (syntax, explicit):
        for name in (*WALKERS, "open_binder", "close_binder", "free_vars", "fresh_name"):
            if hasattr(module, name):
                _counting(monkeypatch, calls, module, name)
    leaf_maps = {}
    for n, e in terms.items():
        calls.clear()
        assert mu_nf(env, e) == expected[n]
        leaf_maps[n] = sum(calls.pop(name, 0) for name in WALKERS)
        assert calls == Counter()
    assert len(set(leaf_maps.values())) == 1


# Binder chains [x0:tau]...[x(n-1):tau]x0, and [x0:tau][x1:x0]...x(n-1) whose
# every domain is the binder before it.
SYNTH_CHAINS = {
    "tau": lambda n: "".join(f"[x{i}:tau]" for i in range(n)) + "x0",
    "previous": lambda n: "[x0:tau]"
    + "".join(f"[x{i}:x{i - 1}]" for i in range(1, n))
    + f"x{n - 1}",
}


@pytest.mark.parametrize("n", [50, 100, 200])
@pytest.mark.parametrize("doms", sorted(SYNTH_CHAINS))
def test_synth_takes_work_linear_in_binder_depth(doms, n, monkeypatch):
    """synth opens and closes no binder, so no scope is walked once per binder."""
    e = parse_term(SYNTH_CHAINS[doms](n))
    expected = synth(Context(), e)
    calls = Counter()
    _counting_walkers(monkeypatch, calls)
    assert synth(Context(), e) == expected
    assert calls.total() <= 2 * n + 10


DEEPEST = """
from dcalc.reduction import reduce_nf
from dcalc.syntax import Appl, Var

def nested(depth, left):
    e = Var("a")
    for _ in range(depth):
        e = Appl(e, Var("a")) if left else Appl(Var("f"), e)
    return e

for left in (True, False):
    lo, hi = 0, 4000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            reduce_nf(nested(mid, left))
            lo = mid
        except RecursionError:
            hi = mid - 1
    print(lo)
"""


def _fresh_interpreter(script):
    env = dict(os.environ, PYTHONPATH=str(Path(reduction.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_nested_applications_normalize_to_the_old_depth():
    """At the default recursion limit, as deep as the root-searching reducer went."""
    left, right = map(int, _fresh_interpreter(DEEPEST).split())
    assert left >= 986 and right >= 986


# Each oracle engine on a binder chain [x0:tau]...x0 and on left- and
# right-nested applications, at depths a few levels below the deepest that
# the engines which re-walked the term took at the default recursion limit
# (strip 991/993/993, encode 331/993/993, beta_nf 995/995/995, mu_nf
# 988/991/991). mu_nf and def_eval_nf walk on a stack of their own: only
# mu_nf's negation probe of a binder chain recurses (991 binders), and the
# nested applications take 10^4. Lambda terms stand in for beta_nf.
ORACLE_DEPTHS = """
from dcalc.explicit import Env, def_eval_nf, mu_nf
from dcalc.semantics import LApp, LBound, LVar, Lam, beta_nf, encode, strip
from dcalc.syntax import TAU, Appl, Bound, UnivAbs, Var

def chain(n, top, var):
    e = var(n - 1)
    for _ in range(n):
        e = top(e)
    return e

def nested(n, app, a, f, left):
    e = a
    for _ in range(n):
        e = app(e, a) if left else app(f, e)
    return e

def term(shape, n):
    if shape == "chain":
        return chain(n, lambda e: UnivAbs(TAU, e), Bound)
    return nested(n, Appl, Var("a"), Var("f"), shape == "left")

def lam(shape, n):
    if shape == "chain":
        return chain(n, Lam, LBound)
    return nested(n, LApp, LVar("a"), LVar("f"), shape == "left")

RUNS = {
    "strip": lambda shape, n: strip(term(shape, n)),
    "encode": lambda shape, n: encode(term(shape, n)),
    "beta_nf": lambda shape, n: beta_nf(lam(shape, n)),
    "mu_nf": lambda shape, n: mu_nf(Env(), term(shape, n)),
    "def_eval_nf": lambda shape, n: def_eval_nf(Env(), term(shape, n)),
}
FLOORS = {
    "strip": (986, 988, 988),
    "encode": (326, 988, 988),
    "beta_nf": (990, 990, 990),
    "mu_nf": (987, 10_000, 10_000),
    "def_eval_nf": (10_000, 10_000, 10_000),
}
for name, run in RUNS.items():
    for shape, n in zip(("chain", "left", "right"), FLOORS[name]):
        try:
            run(shape, n)
            print(name, shape, "ok")
        except RecursionError:
            print(name, shape, "RecursionError at", n)
"""


def test_oracle_engines_take_the_old_depths():
    lines = _fresh_interpreter(ORACLE_DEPTHS).splitlines()
    assert len(lines) == 15
    assert [line for line in lines if not line.endswith(" ok")] == []


# synth on a chain [x0:tau]...[x(n-1):tau]x0 built without the parser, a few
# levels below the deepest that the checker which opened every binder typed
# at the default recursion limit (992 in this form).
SYNTH_DEPTH = """
from dcalc.syntax import TAU, Bound, Context, UnivAbs
from dcalc.typecheck import synth

e = Bound(984)
for _ in range(985):
    e = UnivAbs(TAU, e)
print(type(synth(Context(), e)).__name__)
"""


def test_synth_types_binders_to_the_old_depth():
    assert _fresh_interpreter(SYNTH_DEPTH).split() == ["UnivAbs"]


# A spent substitution [x:=tau] over a body 900 binders deep: the body's
# loose bound shows that it does not use x, and rem then drops the binder.
SPENT_SUBST_DEPTH = """
from dcalc.explicit import Env, def_eval_nf, mu_nf
from dcalc.syntax import TAU, Bound, InternalSubst, UnivAbs, to_text

body = Bound(0)
for i in range(900):
    body = UnivAbs(TAU, body, f"x{i}")
e = InternalSubst(TAU, body)
for run in (lambda: mu_nf(Env(), e), lambda: def_eval_nf(Env(), e)):
    print(to_text(run()) == to_text(body))
"""


def test_engines_drop_a_spent_substitution_over_deep_binders():
    assert _fresh_interpreter(SPENT_SUBST_DEPTH).split() == ["True", "True"]


# The read-only walks and the printer on a chain of 10^4 binders built
# without the parser, at the default recursion limit: none of them recurses.
# Only ints, strings and sets are compared, since == and hash of the nodes
# recurse.
READ_ONLY_DEPTH = """
from dcalc.axioms import canonical
from dcalc.reduction import neg_weight
from dcalc.semantics import PI, LApp, LBound, Lam
from dcalc.syntax import (
    TAU, Bound, InternalSubst, UnivAbs, Var, binder_used, free_vars, pending_path, size,
    to_text,
)

n = 10_000
e = InternalSubst(Var("a"), Bound(n))
for i in range(n - 1, -1, -1):
    e = UnivAbs(TAU, e, f"x{i}")
lam = LApp(LBound(n - 1), PI)
for i in range(n - 1, -1, -1):
    lam = Lam(lam, f"y{i}")
print(free_vars(e) == {"a"})
print(size(e) == neg_weight(e) == 2 * n + 3)
print(binder_used(e.body), not binder_used(e.body.body))
print(pending_path(e) == (1,) * n)
print(canonical(e) == "(U tau " * n + f"(s (v a) (b {n}))" + ")" * n)
print(to_text(e) == "".join(f"[x{i}:tau]" for i in range(n)) + "[x:=a]x0")
print(to_text(lam) == "".join(f"\\\\y{i}." for i in range(n)) + "(y0 pi^)")
"""


def test_read_only_walks_and_the_printer_take_any_depth():
    lines = _fresh_interpreter(READ_ONLY_DEPTH).split()
    assert lines == ["True"] * 8


# The redex searches and plug on a chain of 10^4 binders built without the
# parser, at the default recursion limit. Below the chain sit a beta redex, a
# negation redex and a pending substitution; a step found there is plugged
# back into the whole chain. Only paths, names and strings are compared.
SEARCH_DEPTH = """
from dcalc.reduction import (
    NormalClass, classify_nf, first_redex, neg_redexes, neg_step, redexes,
)
from dcalc.syntax import (
    TAU, Appl, Bound, InternalSubst, Neg, Product, UnivAbs, Var, pending_path, to_text,
)

n = 10_000
beta = Appl(UnivAbs(TAU, Bound(0), "y"), Var("a"))
e = Product(beta, Product(Neg(Neg(Var("a"))), InternalSubst(Var("a"), Bound(0))))
for i in range(n - 1, -1, -1):
    e = UnivAbs(TAU, e, f"x{i}")
chain = (1,) * n
path, name, result = first_redex(e)
print(path == chain + (0,), name == "beta1", to_text(result) == "a")
print([(p, m) for p, m, _ in redexes(e)] == [(chain + (0,), "beta1"), (chain + (1, 0), "nu1")])
after = redexes(e)[0][2]
print(first_redex(after)[:2] == (chain + (1, 0), "nu1"))
path, name, result = neg_step(e)
print(path == chain + (1, 0), name == "nu1", to_text(result) == "a")
[(path, name, after)] = neg_redexes(e)
print(neg_step(after) is None, path == chain + (1, 0))
print(classify_nf(e) is NormalClass.REDUCIBLE, pending_path(e) == chain + (1, 1))
"""


def test_the_redex_searches_and_plug_take_any_depth():
    lines = _fresh_interpreter(SEARCH_DEPTH).split()
    assert lines == ["True"] * 12
