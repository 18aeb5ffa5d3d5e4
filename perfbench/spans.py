"""Layer-by-layer tracing of transgress from outside the package.

``Tracer.install`` replaces public functions and methods at the layer
boundaries with wrappers that record spans (name, start, end, parent span,
config id) or only count calls.  A module-level function is replaced in
every ``transgress`` module that holds it, so ``transgress.cli.tp_integral``
and ``transgress.transgression.evaluate`` are traced as well as the
definitions.  ``uninstall`` puts the originals back.

Only coarse calls get spans.  Hot calls (``Scalar`` arithmetic, ``mono_mul``,
element products) run millions of times per pass, so they are counted at
their wrappers but carry no span: a span each would cost more memory and
time than the work it measures.  Their time lands in the self time of the
enclosing span.  The wrappers only observe; arguments and results pass
through unchanged.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  Each entry's span is timed; the
# per-layer metrics below are computed from these names.
SPANNED = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
    ("cli", "Report.to_json", "cli.render"),
    ("lie", "named_algebra", "lie.named_algebra"),
    ("lie", "validate", "lie.validate"),
    ("lie", "named_split", "lie.named_split"),
    ("lie", "validate_split", "lie.validate_split"),
    ("lie", "bracket", "lie.bracket"),
    ("weil", "UniversalSetup.__init__", "weil.setup"),
    ("weil", "UniversalSetup.d_squared_witness", "weil.d_squared"),
    ("algebra", "Derivation.__call__", "algebra.derivation"),
    ("invariants", "pfaffian", "invariants.poly_build"),
    ("invariants", "symmetrized_trace", "invariants.poly_build"),
    ("invariants", "invariant_from_dict", "invariants.poly_build"),
    ("invariants", "InvariantPolynomial.ad_invariance_witness", "invariants.ad_gate"),
    ("invariants", "evaluate", "invariants.evaluate"),
    ("transgression", "tp_integral", "transgression.route.integral"),
    ("transgression", "tp_johnson", "transgression.route.johnson"),
    ("transgression", "tp_chern_euler", "transgression.route.chern"),
    ("transgression", "verify_transgression", "transgression.verify"),
    ("transgression", "derivative_identity_check", "transgression.identity_check"),
    ("transgression", "deformation_bianchi_check", "transgression.identity_check"),
    ("transgression", "ad_invariance_identity_check", "transgression.identity_check"),
)

# Per-layer metrics: name -> (unit, how it is computed).  "self" is the
# summed self time of a span name, "incl" its summed duration, "count" a
# counter kept by the wrappers.
LAYER_METRICS = {
    "algebra.derivation_s": ("s", "self", "algebra.derivation"),
    "algebra.derivation_calls": ("count", "count", "algebra.derivation_calls"),
    "algebra.derivation_terms_in": ("count", "count", "algebra.derivation_terms_in"),
    "algebra.product_calls": ("count", "count", "algebra.product_calls"),
    "algebra.product_term_pairs": ("count", "count", "algebra.product_term_pairs"),
    "algebra.mono_mul_calls": ("count", "count", "algebra.mono_mul_calls"),
    "algebra.mono_mul_useful_ratio": ("ratio", "ratio",
                                      ("algebra.mono_mul_useful", "algebra.mono_mul_calls")),
    "algebra.scalar_mul_calls": ("count", "count", "algebra.scalar_mul_calls"),
    "algebra.scalar_add_calls": ("count", "count", "algebra.scalar_add_calls"),
    "lie.named_algebra_s": ("s", "self", "lie.named_algebra"),
    "lie.validate_s": ("s", "self", "lie.validate"),
    "lie.bracket_s": ("s", "self", "lie.bracket"),
    "lie.bracket_calls": ("count", "count", "lie.bracket_calls"),
    "weil.setup_s": ("s", "self", "weil.setup"),
    "weil.d_squared_s": ("s", "self", "weil.d_squared"),
    "invariants.ad_gate_s": ("s", "self", "invariants.ad_gate"),
    "invariants.poly_build_s": ("s", "self", "invariants.poly_build"),
    "invariants.poly_entries": ("count", "count", "invariants.poly_entries"),
    "invariants.evaluate_s": ("s", "self", "invariants.evaluate"),
    "invariants.evaluate_calls": ("count", "count", "invariants.evaluate_calls"),
    "transgression.route_incl_s.integral": ("s", "incl", "transgression.route.integral"),
    "transgression.route_incl_s.johnson": ("s", "incl", "transgression.route.johnson"),
    "transgression.route_incl_s.chern": ("s", "incl", "transgression.route.chern"),
    "transgression.tp_terms": ("count", "count", "transgression.tp_terms"),
    "transgression.verify_incl_s": ("s", "incl", "transgression.verify"),
    "transgression.identity_checks_incl_s": ("s", "incl", "transgression.identity_check"),
    "cli.driver_self_s": ("s", "self", "cli.run"),
    "cli.render_s": ("s", "self", "cli.render"),
}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counters for one traced pass; reusable after ``reset``."""

    def __init__(self):
        self._patches = []
        self.spans = []      # (name, start, end, parent index, config id)
        self.counts = defaultdict(int)
        self.config_id = None
        self._stack = []

    def reset(self):
        """Drop recorded spans and counts; installed wrappers stay valid."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self.config_id = None

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = sys.modules["transgress"]
        mods = {name: sys.modules[f"transgress.{name}"]
                for name in ("algebra", "lie", "weil", "invariants",
                             "transgression", "cli")}
        for mod_name, path, span_name in SPANNED:
            owner, attr = _resolve(mods[mod_name], path)
            original = owner.__dict__[attr]
            self._replace(pkg, mods, owner, attr, original,
                          self._span_wrapper(span_name, original))
        algebra = mods["algebra"]
        self._replace(pkg, mods, algebra, "mono_mul", algebra.mono_mul,
                      self._mono_mul_wrapper(algebra.mono_mul))
        element = algebra.GradedElement
        self._replace(pkg, mods, element, "__mul__", element.__dict__["__mul__"],
                      self._product_wrapper(element.__dict__["__mul__"], element))
        scalar = algebra.Scalar
        for attr, key in (("__mul__", "algebra.scalar_mul_calls"),
                          ("__rmul__", "algebra.scalar_mul_calls"),
                          ("__add__", "algebra.scalar_add_calls"),
                          ("__radd__", "algebra.scalar_add_calls")):
            original = scalar.__dict__[attr]
            self._replace(pkg, mods, scalar, attr, original,
                          self._count_wrapper(original, key))

    def _replace(self, pkg, mods, owner, attr, original, wrapper):
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: patch every module that imported it
        for mod in (pkg, *mods.values()):
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        probe = _PROBES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.config_id)
            if probe is not None:
                probe(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(a, b):
            counts[key] += 1
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    def _mono_mul_wrapper(self, fn):
        counts = self.counts

        def wrapper(m1, m2):
            out = fn(m1, m2)
            counts["algebra.mono_mul_calls"] += 1
            if out[1] is not None:
                counts["algebra.mono_mul_useful"] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _product_wrapper(self, fn, element_type):
        counts = self.counts

        def wrapper(a, b):
            if isinstance(b, element_type):
                counts["algebra.product_calls"] += 1
                counts["algebra.product_term_pairs"] += len(a.terms) * len(b.terms)
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its children.

        Spans of one thread nest strictly, so the children of a span cover
        disjoint parts of its interval and their durations simply add up.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (name, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self):
        """Per-layer values of one traced pass, keyed as LAYER_METRICS."""
        self_by_name = defaultdict(float)
        incl_by_name = defaultdict(float)
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            self_by_name[name] += own
            incl_by_name[name] += end - start
        out = {}
        for metric, (unit, kind, key) in LAYER_METRICS.items():
            if kind == "self":
                value = self_by_name[key]
            elif kind == "incl":
                value = incl_by_name[key]
            elif kind == "count":
                value = self.counts[key]
            else:
                num, den = key
                value = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
            out[metric] = value
        return out

    def dump(self):
        """Spans and counters in a JSON-friendly shape."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "config": c}
                for n, s, e, p, c in self.spans
            ],
            "counts": dict(self.counts),
        }


def _probe_derivation(counts, args, result):
    counts["algebra.derivation_calls"] += 1
    counts["algebra.derivation_terms_in"] += len(args[1].terms)


def _probe_bracket(counts, args, result):
    counts["lie.bracket_calls"] += 1


def _probe_poly(counts, args, result):
    counts["invariants.poly_entries"] += len(result.values)


def _probe_evaluate(counts, args, result):
    counts["invariants.evaluate_calls"] += 1


def _probe_route(counts, args, result):
    counts["transgression.tp_terms"] += result.form.term_count


_PROBES = {
    "algebra.derivation": _probe_derivation,
    "lie.bracket": _probe_bracket,
    "invariants.poly_build": _probe_poly,
    "invariants.evaluate": _probe_evaluate,
    "transgression.route.integral": _probe_route,
    "transgression.route.johnson": _probe_route,
    "transgression.route.chern": _probe_route,
}


def median_metrics(passes):
    """Median of each time metric over traced passes; counts from the first.

    Counts repeat exactly across passes of one workload and seed, which the
    caller checks separately.
    """
    out = {}
    for metric, (unit, kind, _) in LAYER_METRICS.items():
        values = [p[metric] for p in passes]
        out[metric] = statistics.median(values) if unit == "s" else values[0]
    return out
