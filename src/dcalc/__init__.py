"""A proof-checker kernel for a lambda-typed lambda calculus.

One abstraction operator serves as both function former and dependent
product; a second, existential abstraction is introduced by protected
definitions and eliminated by projections. Products, sums, injections, and
case distinction give the finite counterparts, and negation reduces to a
normal form through De Morgan and quantifier dualities.

Import what you use from its module (dcalc.syntax, dcalc.parser,
dcalc.typecheck, ...): the package re-exports nothing, so importing it
loads none of them.
"""

__version__ = "0.1.0"
