"""The reduction kernel the engines share: rule table, fuel driver, tooling names."""

import inspect
import random

import pytest

from helpers import gen_neg_heavy, gen_typed_term, sample_contexts
from dcalc import explicit, norms, parser, reduction, semantics, syntax
from dcalc.explicit import Env, mu_axiom_steps, mu_nf, mu_trace
from dcalc.parser import parse_term
from dcalc.reduction import FuelExhausted, axiom_steps, neg_axiom, reduce_nf, reduce_trace
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
