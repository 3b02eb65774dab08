"""Call tracing for the per-layer run.

Every public function of the dcalc modules is replaced, on every module
attribute that refers to it, by a wrapper that keeps a frame stack. Patching
the attribute where a function is looked up, not only where it is defined,
means calls between modules and recursive calls inside one (norm, mu_step,
beta_step, first_redex) are seen too.

A layer is a module. Its self time is the time its frames are on top of the
stack; a call whose caller sits in another layer is an entry into the layer
and gets a span (name, start, end, parent span, operation id). Spans stay in
memory until the run writes them out. Work the tracer does for itself, such
as counting tokens, is excluded from every layer's self time.

The node accessors children, replace_child and scoped_index are not wrapped:
every traversal calls them once per node, so wrapping them would multiply the
cost of tracing without naming any layer's work. Their time counts to the
caller.
"""

from __future__ import annotations

import inspect
import itertools
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "cli",
    "corpus",
    "parser",
    "axioms",
    "typecheck",
    "reduction",
    "explicit",
    "semantics",
    "norms",
    "syntax",
)

UNWRAPPED = {("syntax", "children"), ("syntax", "replace_child"), ("syntax", "scoped_index")}

# Context methods the checker calls per binder and norm calls per variable.
CONTEXT_METHODS = ("extend", "fresh", "prefix")

# A pass keeps at most this many spans (some 45 MB) and counts the rest as dropped.
SPAN_CAP = 300_000


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, function, start, child time, span id]
        self.counts: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []
        self._tokenize = None
        self._ids = itertools.count()

    # installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [sys.modules[f"dcalc.{name}"] for name in LAYERS]
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and (layer, attr) not in UNWRAPPED
                ):
                    originals[id(fn)] = fn
                    wrappers[id(fn)] = self._wrap(layer, attr, fn)
        self._tokenize = sys.modules["dcalc.parser"].tokenize
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    self._patch(module, attr, wrappers[id(value)])
        context = sys.modules["dcalc.syntax"].Context
        for name in CONTEXT_METHODS:
            fn = vars(context)[name]
            self._patch(context, name, self._wrap("syntax", f"Context.{name}", fn))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # recording ------------------------------------------------------------

    def reset(self) -> None:
        self.counts.clear()
        self.self_s.clear()
        self.spans.clear()
        self.dropped = 0

    def begin(self, op: int, name: str) -> None:
        """Open the root frame of one operation."""
        self.op = op
        self.stack.append(["bench", name, perf_counter(), 0.0, next(self._ids)])

    def end(self) -> None:
        layer, name, start, child, span = self.stack.pop()
        stop = perf_counter()
        self.self_s[layer] += stop - start - child
        self._record(span, None, name, start, stop)

    def _record(self, span, parent, name, start, stop) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span, parent, name, start, stop, self.op))
        else:
            self.dropped += 1

    def _exclude(self, started: float) -> None:
        """Charge time since started to no layer."""
        if self.stack:
            self.stack[-1][3] += perf_counter() - started

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        stack = self.stack
        counts = self.counts
        self_s = self.self_s
        key = f"{layer}.{name}"
        hook = _HOOKS.get(key)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            entry = parent is None or parent[0] != layer
            counts[key] += 1
            span = None
            if entry:
                counts[f"{layer}.calls"] += 1
                span = next(tracer._ids)
            frame = [layer, name, 0.0, 0.0, span]
            stack.append(frame)
            start = frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = perf_counter()
                stack.pop()
                elapsed = stop - start
                self_s[layer] += elapsed - frame[3]
                if parent is not None:
                    parent[3] += elapsed
                if entry:
                    tracer._record(span, parent[4] if parent else None, key, start, stop)
            if hook is not None:
                began = perf_counter()
                hook(tracer, parent, args, result)
                tracer._exclude(began)
            return result

        traced.__wrapped__ = fn
        return traced


# Counters that need a look at arguments or results; they run after the
# call returns and their time is charged to no layer.


def _count_tokens(tracer: Tracer, parent, args, result) -> None:
    tracer.counts["parser.tokens"] += len(tracer._tokenize(args[0])) - 1


def _count_contraction(tracer: Tracer, parent, args, result) -> None:
    if result is not None and (parent is None or parent[1] != "first_redex"):
        tracer.counts["reduction.contractions"] += 1


def _count_typecheck_nf(tracer: Tracer, parent, args, result) -> None:
    if parent is not None and parent[0] == "typecheck":
        tracer.counts["typecheck.nf_calls"] += 1


def _count_typecheck_conv(tracer: Tracer, parent, args, result) -> None:
    if parent is not None and parent[0] == "typecheck":
        tracer.counts["typecheck.conv_calls"] += 1
        if args[0] == args[1]:
            tracer.counts["typecheck.conv_equal"] += 1


_HOOKS = {
    "parser.parse_term": _count_tokens,
    "parser.parse_document": _count_tokens,
    "reduction.first_redex": _count_contraction,
    "reduction.reduce_nf": _count_typecheck_nf,
    "reduction.conv": _count_typecheck_conv,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of BENCHMARK.json from one traced pass."""
    c, s = tracer.counts, tracer.self_s

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "parser.calls": c["parser.calls"],
        "parser.self_s": s["parser"],
        "parser.tokens": c["parser.tokens"],
        "parser.us_per_token": ratio(s["parser"] * 1e6, c["parser.tokens"]),
        "axioms.calls": c["axioms.calls"],
        "axioms.self_s": s["axioms"],
        "typecheck.calls": c["typecheck.calls"],
        "typecheck.self_s": s["typecheck"],
        "typecheck.nf_calls": c["typecheck.nf_calls"],
        "typecheck.conv_calls": c["typecheck.conv_calls"],
        "typecheck.conv_equal": c["typecheck.conv_equal"],
        "reduction.nf_calls": c["reduction.reduce_nf"],
        "reduction.self_s": s["reduction"],
        "reduction.contractions": c["reduction.contractions"],
        "reduction.nodes_visited": c["reduction.axiom_steps"],
        "reduction.visits_per_contraction": ratio(
            c["reduction.axiom_steps"], c["reduction.contractions"]
        ),
        "explicit.calls": c["explicit.calls"],
        "explicit.self_s": s["explicit"],
        "explicit.step_visits": c["explicit.mu_step"],
        "semantics.calls": c["semantics.calls"],
        "semantics.self_s": s["semantics"],
        "semantics.beta_visits": c["semantics.beta_step"],
        "norms.calls": c["norms.calls"],
        "norms.visits": c["norms.norm"],
        "norms.self_s": s["norms"],
        "syntax.open_binder_calls": c["syntax.open_binder"],
        "syntax.plug_calls": c["syntax.plug"],
        "syntax.self_s": s["syntax"],
        "cli.self_s": s["cli"],
        "corpus.self_s": s["corpus"],
    }
