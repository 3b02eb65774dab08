"""The reduction kernel the engines share: rule table, fuel driver, tooling names."""

import inspect
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import gen_neg_heavy, gen_typed_term, sample_contexts
from dcalc import explicit, norms, parser, reduction, semantics, syntax
from dcalc.explicit import Env, mu_axiom_steps, mu_nf, mu_trace
from dcalc.parser import parse_term
from dcalc.reduction import (
    NEG_RULES,
    FuelExhausted,
    axiom_steps,
    neg_axiom,
    neg_nf,
    neg_step,
    reduce_nf,
    reduce_trace,
)
from dcalc.semantics import beta_nf, strip
from dcalc.syntax import children

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


# reduce_nf and neg_nf walk the term once; their traces search every step from
# the root and specify the strategy. The negation pair has no public fuel, so
# its fuelled forms are the kernel's own.
def _neg_nf_fuel(e, fuel):
    return reduction._normalize(e, NEG_RULES, reduction._neg_positions, fuel)


def _neg_trace_fuel(e, fuel):
    trace = []
    reduction._drive(reduction._plugged(neg_step), e, fuel, trace)
    return trace


@pytest.mark.parametrize(
    "public, nf, trace",
    [(reduce_nf, reduce_nf, reduce_trace), (neg_nf, _neg_nf_fuel, _neg_trace_fuel)],
    ids=["reduce", "neg"],
)
def test_normal_form_takes_the_steps_of_the_trace(public, nf, trace):
    rng = random.Random(47)
    ctxs = sample_contexts()
    for _ in range(200):
        for e in (
            gen_typed_term(rng, rng.choice(ctxs), rng.randint(0, 5)),
            gen_neg_heavy(rng, rng.randint(0, 7)),
        ):
            steps = trace(e, None)
            last = steps[-1][2] if steps else e
            assert public(e) == last
            assert nf(e, len(steps)) == last
            if steps:
                with pytest.raises(FuelExhausted) as spec:
                    trace(e, len(steps) - 1)
                with pytest.raises(FuelExhausted, match=f"^{re.escape(str(spec.value))}$"):
                    nf(e, len(steps) - 1)


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


@pytest.mark.parametrize("k", [10, 20])
def test_normal_form_takes_work_linear_in_its_size_and_steps(k, monkeypatch):
    e = parse_term(f"[A:tau][s:[A=>A]](({_church(k)} A) (({_church(k)} A) s))")
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


def test_nested_applications_normalize_to_the_old_depth():
    """At the default recursion limit, as deep as the root-searching reducer went."""
    env = dict(os.environ, PYTHONPATH=str(Path(reduction.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", DEEPEST], env=env, capture_output=True, text=True, check=True
    )
    left, right = map(int, out.stdout.split())
    assert left >= 986 and right >= 986
