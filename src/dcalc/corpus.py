"""Shipped proof files plus the minimal-logic encoding maps.

The corpus directory holds checked formalizations (logic laws, minimal
logic, equality, cartesian products, naturals, sets, groups). This module
names them, gives their axiom gates and loads them (typecheck.check_document
checks them, as dcalc check does), and implements the two mappings between
minimal-logic formulas and terms over the Minimal context, together with a
small sequent prover used to exercise the completeness direction of the
encoding. The dcalc command does not import it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources

from .axioms import _app, resolve_axiom_gate
from .parser import parse_document
from .reduction import NormalClass, classify_nf
from .syntax import Appl, Context, Expr, Neg, UnivAbs, Var, close_binder, open_binder

CORPUS_AXIOMS = {
    "logic": (),
    "classical": ("neg",),
    "casting": ("cast",),
    "minimal": (),
    "equality": (),
    "cartesian": (),
    "cartesian_casting": ("cast",),
    "naturals": (),
    "sets": ("cast",),
    "group": (),
}


def corpus_names() -> list[str]:
    return sorted(CORPUS_AXIOMS)


def corpus_text(name: str) -> str:
    if name not in CORPUS_AXIOMS:
        raise KeyError(f"no such corpus file: {name}")
    return (
        resources.files("dcalc").joinpath("corpus").joinpath(f"{name}.dc").read_text()
    )


def load_corpus(name: str) -> tuple[Context, list[tuple[Expr, Expr]]]:
    """The parsed context and (deduction, claimed type) pairs of one file."""
    doc = parse_document(corpus_text(name), resolve_axiom_gate(["all"]))
    return doc.context, [(item.term, item.ty) for item in doc.checks]


@dataclass(frozen=True)
class FT:
    pass


@dataclass(frozen=True)
class FF:
    pass


@dataclass(frozen=True)
class FVar:
    name: str


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


Formula = FT | FF | FVar | Imp


def alpha_map(f: Formula) -> Expr:
    """Encode a formula as a term over the Minimal context."""
    match f:
        case FT():
            return Var("t")
        case FF():
            return Var("f")
        case FVar(name):
            return Var(name)
        case Imp(left, right):
            return Appl(Appl(Var("I"), alpha_map(left)), alpha_map(right))
    raise ValueError(f"not a formula: {f!r}")


def beta_map(e: Expr) -> Formula | None:
    """Partial inverse of alpha_map; None where no clause applies."""
    match e:
        case Var("t"):
            return FT()
        case Var("f"):
            return FF()
        case Var(name):
            return FVar(name)
        case Appl(Appl(Var("I"), c), b):
            bc = beta_map(c)
            bb = beta_map(b)
            if bc is None or bb is None:
                return None
            return Imp(bc, bb)
        case UnivAbs(dom, body, hint):
            opened = open_binder(body, Var(f"{hint}_"))
            if dom == Var("F"):
                return beta_map(opened)
            bd = beta_map(dom)
            bb = beta_map(opened)
            if bd is None or bb is None:
                return None
            return Imp(bd, bb)
    return None


@dataclass(frozen=True)
class Ax:
    pass


@dataclass(frozen=True)
class Intro:
    premise: Formula
    sub: "Proof"


@dataclass(frozen=True)
class Mp:
    premise: Formula
    fun: "Proof"
    arg: "Proof"


Proof = Ax | Intro | Mp


def random_formula(rng: random.Random, depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.4:
        return FT() if rng.random() < 0.5 else FF()
    return Imp(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def _subformulas(f: Formula, out: list[Formula]) -> None:
    if f not in out:
        out.append(f)
    if isinstance(f, Imp):
        _subformulas(f.left, out)
        _subformulas(f.right, out)


def prove(
    rng: random.Random,
    hyps: tuple[Formula, ...],
    goal: Formula,
    depth: int,
) -> Proof | None:
    """Search for a sequent derivation of hyps |- goal.

    The axiom rule closes a goal equal to the last hypothesis only; the other
    rules are implication introduction and modus ponens over a candidate pool
    of subformulas.
    """
    options = []
    if hyps and hyps[-1] == goal:
        options.append("ax")
    if isinstance(goal, Imp):
        options.append("intro")
    if depth > 0:
        options.append("mp")
    rng.shuffle(options)
    for opt in options:
        if opt == "ax":
            return Ax()
        if opt == "intro":
            assert isinstance(goal, Imp)
            sub = prove(rng, hyps + (goal.left,), goal.right, depth - 1)
            if sub is not None:
                return Intro(goal.left, sub)
        if opt == "mp":
            pool: list[Formula] = []
            for h in hyps + (goal,):
                _subformulas(h, pool)
            rng.shuffle(pool)
            for a in pool[:4]:
                fun = prove(rng, hyps, Imp(a, goal), depth - 1)
                if fun is None:
                    continue
                arg = prove(rng, hyps, a, depth - 1)
                if arg is not None:
                    return Mp(a, fun, arg)
    return None


def proof_term(
    proof: Proof,
    hyps: tuple[Formula, ...],
    goal: Formula,
    names: tuple[str, ...],
) -> Expr:
    """Mirror a sequent derivation as a term over Minimal plus hypotheses."""
    match proof:
        case Ax():
            return Var(names[-1])
        case Intro(premise, sub):
            assert isinstance(goal, Imp) and goal.left == premise
            x = f"h{len(names) + 1}"
            body = proof_term(sub, hyps + (premise,), goal.right, names + (x,))
            lam = UnivAbs(alpha_map(premise), close_binder(body, x), x)
            return _app(Var("i"), alpha_map(premise), alpha_map(goal.right), lam)
        case Mp(premise, fun, arg):
            ft = proof_term(fun, hyps, Imp(premise, goal), names)
            at = proof_term(arg, hyps, premise, names)
            return _app(Var("o"), alpha_map(premise), alpha_map(goal), ft, at)
    raise ValueError(f"not a proof: {proof!r}")


def in_M1(e: Expr) -> bool:
    """Shape filter for Minimal-corpus deduction normal forms."""
    match e:
        case Var(name):
            return name in ("i", "o")
        case Appl(fun, arg):
            return in_M1(fun) and classify_nf(arg) != NormalClass.REDUCIBLE
        case Neg(operand):
            return in_M1(operand) and not isinstance(operand, Neg)
    return False
