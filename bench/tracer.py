"""Per-layer tracing of krcubic, installed from outside the package.

``install()`` wraps the kernel's public functions and methods in every place
they are bound: a function imported into another module (``reduce`` into
``morphism`` and ``derivation``, ``exact_divide`` into ``claims``, ``parser``
and ``derivation``) and a class attribute aliased under a second name
(``Eisenstein.__rmul__ = __mul__``) are the same object, so each binding is
replaced.  A binding left unwrapped would silently lose spans, so installing
fails if any krcubic module or class still holds an original afterwards.

Each wrapper records a span: its duration, minus the time of the wrapped
calls it made, is that layer's self time.  Counts and term sizes are taken
at the same boundary.  Spans are aggregated per layer in memory; nothing is
written until the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from importlib import import_module


class Stat:
    """Aggregate of every span of one layer within one pass."""

    __slots__ = ("calls", "self_s", "child_s", "size", "hits", "seen")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.child_s = 0.0  # time of wrapped calls made directly from this layer
        self.size = 0       # summed term counts, or iterations
        self.hits = 0       # rational products
        self.seen = set()   # distinct ideals handed to buchberger


def _rational(value) -> bool:
    return getattr(value, "om", 0) == 0


def _observe_coeff_mul(stat, args, result):
    if result is NotImplemented:
        stat.calls -= 1  # Python retries with the other operand's method
    elif _rational(args[0]) and _rational(args[1]):
        stat.hits += 1


def _observe_out_terms(stat, args, result):
    stat.size += len(result.terms)


def _observe_dividend(stat, args, result):
    stat.size += len(args[0].terms)


def _observe_ideal(stat, args, result):
    order = args[1] if len(args) > 1 else None
    stat.seen.add((frozenset(args[0]), order))


def _observe_iterations(stat, args, result):
    stat.size += sum(result.orders.values())


# (layer, module, attribute path, observer).  Several attributes may feed one
# layer; aliases of each attribute are found by identity, not listed here.
# smooth_everywhere, singular_at, jacobian and graph_variable_check report no
# metric of their own; they are spans so that claims.eval_s counts their time
# as kernel time.
TARGETS = (
    ("coeff.mul", "krcubic.coeff", "Eisenstein.__mul__", _observe_coeff_mul),
    ("coeff.add", "krcubic.coeff", "Eisenstein.__add__", None),
    ("coeff.add", "krcubic.coeff", "Eisenstein.__sub__", None),
    ("coeff.inverse", "krcubic.coeff", "Eisenstein.inverse", None),
    ("poly.construct", "krcubic.poly", "Polynomial.__init__", None),
    ("poly.mul", "krcubic.poly", "Polynomial.__mul__", _observe_out_terms),
    ("poly.add", "krcubic.poly", "Polynomial.__add__", None),
    ("poly.pow", "krcubic.poly", "Polynomial.__pow__", None),
    ("poly.substitute", "krcubic.poly", "Polynomial.substitute", None),
    ("groebner.reduce", "krcubic.groebner", "reduce", _observe_dividend),
    ("groebner.buchberger", "krcubic.groebner", "buchberger", _observe_ideal),
    ("groebner.member", "krcubic.groebner", "member", None),
    ("groebner.smooth_everywhere", "krcubic.groebner", "smooth_everywhere", None),
    ("groebner.singular_at", "krcubic.groebner", "singular_at", None),
    ("morphism.apply", "krcubic.morphism", "RingMap.apply", None),
    ("morphism.compose", "krcubic.morphism", "compose", None),
    ("morphism.verify_inverse_pair", "krcubic.morphism", "verify_inverse_pair", None),
    ("morphism.jacobian", "krcubic.morphism", "jacobian", None),
    ("morphism.exact_divide", "krcubic.morphism", "exact_divide", _observe_dividend),
    ("morphism.normal_form", "krcubic.morphism", "normal_form", None),
    ("morphism.extend", "krcubic.morphism", "extend_to_quotient_automorphism", None),
    ("derivation.apply", "krcubic.derivation", "Derivation.apply", None),
    ("derivation.nilpotency", "krcubic.derivation", "nilpotency_certificate",
     _observe_iterations),
    ("derivation.conjugate", "krcubic.derivation", "conjugate", None),
    ("derivation.theta_extract", "krcubic.derivation", "theta_extract", None),
    ("derivation.substitute_parameter", "krcubic.derivation", "substitute_parameter", None),
    ("geometry.tangent_cone", "krcubic.geometry", "tangent_cone", None),
    ("geometry.classify_quadric", "krcubic.geometry", "classify_quadric", None),
    ("geometry.graph_variable_check", "krcubic.geometry", "graph_variable_check", None),
    ("parser.parse_unit", "krcubic.parser", "parse_unit", None),
    ("claims.run_unit", "krcubic.claims", "run_unit", None),
    ("claims.to_json", "krcubic.claims", "Report.to_json", None),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.tokens = 0
        self._stack: list[list[float]] = []  # child time of each open span

    def stat(self, layer: str) -> Stat:
        return self.stats.setdefault(layer, Stat())

    def span(self, layer: str, fn, observe):
        stat = self.stat(layer)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                stat.child_s += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(stat, args, result)
            return result

        return wrapper

    def counting_tokens(self, fn):
        """tokenize() is syntax work: count its output but open no span, so its
        time stays in parse_unit's self time."""

        @functools.wraps(fn)
        def wrapper(text):
            tokens = fn(text)
            self.tokens += len(tokens)
            return tokens

        return wrapper


def _resolve(module: str, path: str):
    owner = import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _bindings():
    """Every (namespace, name, value) slot of the loaded krcubic modules and
    of the classes they define."""
    for name, module in list(sys.modules.items()):
        if name != "krcubic" and not name.startswith("krcubic."):
            continue
        for attr, value in vars(module).items():
            yield module, attr, value
            if isinstance(value, type) and value.__module__.startswith("krcubic"):
                for cattr, cvalue in vars(value).items():
                    yield value, cattr, cvalue


def install() -> Tracer:
    """Wrap every target at every binding; return the tracer collecting spans."""
    tracer = Tracer()
    replace = {}
    for layer, module, path, observe in TARGETS:
        fn = _resolve(module, path)
        replace[id(fn)] = (fn, tracer.span(layer, fn, observe))
    tokenize = _resolve("krcubic.parser", "tokenize")
    replace[id(tokenize)] = (tokenize, tracer.counting_tokens(tokenize))

    found = set()
    for owner, attr, value in list(_bindings()):
        hit = replace.get(id(value))
        if hit is not None and hit[0] is value:
            setattr(owner, attr, hit[1])
            found.add(id(value))
    missing = [fn.__qualname__ for key, (fn, _) in replace.items() if key not in found]
    if missing:
        raise RuntimeError(f"trace targets not bound anywhere: {missing}")
    left = [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, value in _bindings()
            if id(value) in replace and replace[id(value)][0] is value]
    if left:
        raise RuntimeError(f"unwrapped aliases remain: {left}")
    return tracer


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one pass, named <module>.<function>.<stat>."""
    s = tracer.stats
    out: dict[str, float] = {}
    for layer in ("coeff.mul", "coeff.add", "coeff.inverse", "poly.mul",
                  "poly.substitute", "groebner.reduce", "groebner.buchberger",
                  "morphism.exact_divide", "morphism.normal_form",
                  "derivation.apply"):
        out[f"{layer}.calls"] = s[layer].calls
    for layer in ("coeff.mul", "coeff.add", "coeff.inverse", "poly.mul",
                  "poly.add", "poly.pow", "poly.substitute", "groebner.reduce",
                  "groebner.buchberger", "groebner.member", "morphism.apply",
                  "morphism.compose", "morphism.verify_inverse_pair",
                  "morphism.extend", "morphism.exact_divide",
                  "morphism.normal_form", "derivation.apply",
                  "derivation.nilpotency", "derivation.conjugate",
                  "derivation.theta_extract", "derivation.substitute_parameter",
                  "geometry.tangent_cone", "geometry.classify_quadric"):
        out[f"{layer}.self_s"] = s[layer].self_s
    mul = s["coeff.mul"]
    out["coeff.mul.rational_share"] = mul.hits / mul.calls if mul.calls else 0.0
    out["poly.construct.calls"] = s["poly.construct"].calls
    pmul = s["poly.mul"]
    out["poly.mul.out_terms"] = pmul.size / pmul.calls if pmul.calls else 0.0
    for layer in ("groebner.reduce", "morphism.exact_divide"):
        st = s[layer]
        out[f"{layer}.dividend_terms"] = st.size / st.calls if st.calls else 0.0
    bb = s["groebner.buchberger"]
    out["groebner.buchberger.distinct_share"] = (len(bb.seen) / bb.calls
                                                 if bb.calls else 0.0)
    out["derivation.nilpotency.iterations"] = s["derivation.nilpotency"].size
    out["parser.tokens"] = tracer.tokens
    out["parser.syntax_s"] = s["parser.parse_unit"].self_s
    out["parser.elaborate_s"] = s["parser.parse_unit"].child_s
    out["claims.eval_s"] = s["claims.run_unit"].child_s
    out["claims.report_s"] = s["claims.to_json"].self_s + s["claims.to_json"].child_s
    return out
