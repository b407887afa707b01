"""Span tracer for the benchmark's traced run.

The tracer wraps the package's public functions and the oracle and cube
methods from outside the package.  Each call records one span (name, start,
end, parent) in memory, and ``uninstall`` restores every original.  A
``from .x import y`` copies the name, so every ``poremetrics`` module
namespace that binds a traced function gets the wrapper.  Oracle methods are
wrapped on each concrete class, inherited or not.

A layer's self time is its spans' duration minus the part covered by child
spans, so the self times of one pass sum to the time spent inside the ops.
``calls`` counts spans whose parent has another name, so a method that calls
itself through another traced name (``meets_cube`` -> ``meets_interval``)
counts once per query.
"""

from __future__ import annotations

import sys
import time
from array import array
from fractions import Fraction

# (metric prefix, module, attribute)
FUNCTIONS = (
    ("cli.main", "poremetrics.cli", "main"),
    ("rationals.rational_pow", "poremetrics.rationals", "rational_pow"),
    ("rationals.format_rational", "poremetrics.rationals", "format_rational"),
    ("setmodels.generate", "poremetrics.setmodels", "generate"),
    ("pores.enumerate_pores", "poremetrics.pores", "enumerate_pores"),
    ("pores.fraction_length", "poremetrics.pores", "fraction_length"),
    ("weights.profile_integral", "poremetrics.weights", "profile_integral"),
    ("weights.ap_product", "poremetrics.weights", "ap_product"),
    ("weights.a1_quotient", "poremetrics.weights", "a1_quotient"),
    ("porestats.moment_closed_form", "poremetrics.porestats", "moment_closed_form"),
    ("porestats.tilde_quantiles", "poremetrics.porestats", "tilde_quantiles"),
    ("porestats.length_law", "poremetrics.porestats", "length_law"),
    ("porestats.binomial_check", "poremetrics.porestats", "binomial_check"),
)
# Generator functions: one span per resumption, counting the items yielded.
GENERATORS = (
    ("pores.enumerate_pore_cubes", "poremetrics.pores", "enumerate_pore_cubes"),
)
# (metric prefix, module, base class, method): wrapped on every concrete class.
METHODS = (
    ("dyadic.children", "poremetrics.dyadic", "Cube", "children"),
    ("setmodels.distance", "poremetrics.setmodels", "SetOracle", "distance"),
    ("setmodels.components", "poremetrics.setmodels", "SetOracle", "components"),
    ("setmodels.meets", "poremetrics.setmodels", "SetOracle", "meets_interval"),
    ("setmodels.meets", "poremetrics.setmodels", "SetOracle", "meets_cube"),
    ("setmodels.points_in_window", "poremetrics.setmodels", "SetOracle", "points_in_window"),
)


def _level(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["level"]


# prefix -> [(counter, count(args, kwargs, result))]
COUNTERS = {
    "setmodels.components": [("returned", lambda a, k, r: len(r))],
    "setmodels.generate": [("points", lambda a, k, r: len(r[0]))],
    "rationals.rational_pow": [("exact", lambda a, k, r: r is not None)],
    "weights.ap_product": [("exact", lambda a, k, r: r.product.exact)],
    "porestats.moment_closed_form": [("factors", lambda a, k, r: _level(a, k))],
    "porestats.tilde_quantiles": [
        ("exact", lambda a, k, r: sum(isinstance(v, Fraction) for v in r)),
        ("answers", lambda a, k, r: len(r)),
    ],
    "porestats.length_law": [("atoms", lambda a, k, r: len(r.masses))],
    "pores.enumerate_pore_cubes": [("yielded", None)],
}

TIMED = tuple(dict.fromkeys(
    [p for p, *_ in FUNCTIONS] + [p for p, *_ in GENERATORS] + [p for p, *_ in METHODS]
))
COUNTED = ("cli.main", "rationals.rational_pow", "rationals.format_rational",
           "setmodels.generate", "pores.enumerate_pores", "pores.fraction_length",
           "weights.profile_integral", "weights.ap_product", "weights.a1_quotient",
           "porestats.moment_closed_form", "porestats.tilde_quantiles",
           "porestats.length_law", "dyadic.children", "setmodels.distance",
           "setmodels.components", "setmodels.meets", "setmodels.points_in_window")

# Per-layer metrics derived from one traced pass, in output order.
PER_LAYER = (
    [(f"{p}.calls", "count") for p in COUNTED]
    + [(f"{p}.self_s", "s") for p in TIMED]
    + [
        ("setmodels.components.returned", "count"),
        ("setmodels.generate.points", "count"),
        ("rationals.rational_pow.exact_ratio", "ratio"),
        ("weights.ap_product.exact_ratio", "ratio"),
        ("porestats.moment_closed_form.factors", "count"),
        ("porestats.tilde_quantiles.exact_ratio", "ratio"),
        ("porestats.length_law.atoms", "count"),
        ("pores.pore_yield", "ratio"),
    ]
)


def concrete_classes(base: type) -> list:
    """``base`` itself when it has no subclasses, else its public descendants."""
    subs = base.__subclasses__()
    if not subs:
        return [base]
    out = []
    for sub in subs:
        if not sub.__name__.startswith("_"):
            out.append(sub)
        out.extend(c for c in concrete_classes(sub) if c is not sub and c not in out)
    return out


class Tracer:
    """Records spans while installed; ``drain`` turns them into per-layer metrics."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(TIMED)}
        self._patches = []
        # The wrappers hold references to these containers: clear, never replace.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = {(p, c): 0 for p, rules in COUNTERS.items() for c, _ in rules}

    def _clear(self):
        del self.span_name[:], self.span_parent[:], self.span_start[:], self.span_end[:]
        del self.stack[1:]
        for key in self.counts:
            self.counts[key] = 0

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, prefix, fn):
        nid = self.ids[prefix]
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counts, clock = self.stack, self.counts, time.perf_counter
        rules = [((prefix, c), f) for c, f in COUNTERS.get(prefix, ())]

        def traced(*args, **kwargs):
            i = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            for key, count in rules:
                counts[key] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.bench_traced = True
        return traced

    def _wrap_generator(self, prefix, fn):
        nid = self.ids[prefix]
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counts, clock = self.stack, self.counts, time.perf_counter
        key = (prefix, "yielded")

        def iterate(it):
            while True:
                i = len(ends)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[i] = clock()
                    stack.pop()
                counts[key] += 1
                yield item

        def traced(*args, **kwargs):
            return iterate(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall --------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._clear()
        modules = [m for name, m in list(sys.modules.items())
                   if name == "poremetrics" or name.startswith("poremetrics.")]
        by_original = {}
        for table, wrap in ((FUNCTIONS, self._wrap), (GENERATORS, self._wrap_generator)):
            for prefix, modname, attr in table:
                original = getattr(sys.modules[modname], attr, None)
                if original is not None:
                    by_original[id(original)] = (original, wrap(prefix, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in by_original and by_original[id(value)][0] is value:
                    self._patches.append((module, attr, value, True))
                    setattr(module, attr, by_original[id(value)][1])
        for prefix, modname, basename, method in METHODS:
            base = getattr(sys.modules[modname], basename)
            for cls in concrete_classes(base):
                original = getattr(cls, method, None)
                if original is None:
                    continue
                # A subclass of an already wrapped class must not wrap twice.
                original = original.__wrapped__ if getattr(original, "bench_traced", False) else original
                self._patches.append((cls, method, original, method in vars(cls)))
                setattr(cls, method, self._wrap(prefix, original))

    def uninstall(self):
        for obj, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._patches = []

    # -- aggregation ----------------------------------------------------------

    def drain(self) -> tuple[dict, float]:
        """Per-layer metrics of the spans recorded since install, and the summed
        duration of the root spans (the time spent inside ops); then forget them."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(ends)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(TIMED)
        calls = [0] * len(TIMED)
        meets, bfs = self.ids["setmodels.meets"], self.ids["pores.enumerate_pore_cubes"]
        bfs_queries = 0
        roots_s = 0.0
        for i in range(n):
            nid = names[i]
            p = parents[i]
            dur = ends[i] - starts[i]
            self_s[nid] += dur - child[i]
            if p < 0:
                roots_s += dur
                calls[nid] += 1
            elif names[p] != nid:
                calls[nid] += 1
                if nid == meets and names[p] == bfs:
                    bfs_queries += 1
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"{p}.calls": calls[self.ids[p]] for p in COUNTED}
        out.update({f"{p}.self_s": self_s[self.ids[p]] for p in TIMED})
        out.update({
            "setmodels.components.returned": c[("setmodels.components", "returned")],
            "setmodels.generate.points": c[("setmodels.generate", "points")],
            "rationals.rational_pow.exact_ratio": ratio(
                c[("rationals.rational_pow", "exact")], calls[self.ids["rationals.rational_pow"]]),
            "weights.ap_product.exact_ratio": ratio(
                c[("weights.ap_product", "exact")], calls[self.ids["weights.ap_product"]]),
            "porestats.moment_closed_form.factors": c[("porestats.moment_closed_form", "factors")],
            "porestats.tilde_quantiles.exact_ratio": ratio(
                c[("porestats.tilde_quantiles", "exact")], c[("porestats.tilde_quantiles", "answers")]),
            "porestats.length_law.atoms": c[("porestats.length_law", "atoms")],
            "pores.pore_yield": ratio(c[("pores.enumerate_pore_cubes", "yielded")], bfs_queries),
        })
        self._clear()
        return out, roots_s
