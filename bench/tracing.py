"""Spans and counters around the calls into each tropdiv module, from outside.

install() replaces every module-global binding of each traced function in
every loaded tropdiv module (the modules import with ``from .x import f``,
so each holds its own copy), and patches methods on their class.  restore()
puts every original back.  Nothing in tropdiv knows about this module, so a
run without install() executes exactly the shipped code.

A span records its name, start, end, the span that caused it, and the job it
belongs to.  Self time is a span's duration minus the durations of its child
spans.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import inspect
import sys
import time
from math import comb

# (defining module, attribute or Class.method, metric name)
TARGETS = (
    ("tropdiv.intlinalg", "smith_normal_form", "smith_normal_form"),
    ("tropdiv.intlinalg", "SmithSolver.solve", "SmithSolver.solve"),
    ("tropdiv.intlinalg", "frac_rank", "frac_elim"),
    ("tropdiv.intlinalg", "frac_nullspace", "frac_elim"),
    ("tropdiv.intlinalg", "frac_solve", "frac_elim"),
    ("tropdiv.graphs", "linear_equiv", "linear_equiv"),
    ("tropdiv.linear_systems", "rgd_enumerate", "rgd_enumerate"),
    ("tropdiv.linear_systems", "firing_subsets", "firing_subsets"),
    ("tropdiv.linear_systems", "is_extremal", "is_extremal"),
    ("tropdiv.generators", "extreme_rays", "extreme_rays"),
    ("tropdiv.generators", "hilbert_basis", "hilbert_basis"),
    ("tropdiv.generators", "certify_basis", "certify_basis"),
    ("tropdiv.generators", "monoid_certificate", "monoid_certificate"),
    ("tropdiv.generators", "decompose", "decompose"),
    ("tropdiv.metric", "Refinement.__init__", "Refinement"),
    ("tropdiv.metric", "linear_equiv_metric", "linear_equiv_metric"),
    ("tropdiv.metric", "metric_firing_subgraphs", "metric_firing_subgraphs"),
    ("tropdiv.metric", "can_fire_metric", "can_fire_metric"),
    ("tropdiv.metric", "cf_move", "cf_move"),
    ("tropdiv.metric", "is_extremal_metric", "is_extremal_metric"),
    ("tropdiv.witness", "check_hypotheses", "check_hypotheses"),
    ("tropdiv.witness", "build_witness", "build_witness"),
    ("tropdiv.witness", "indecomposability_check", "indecomposability_check"),
    ("tropdiv.serialize", "dumps", "dumps"),
    ("tropdiv.cli", "main", "main"),
)

# (defining module, attribute, metric name, counter): helpers whose result
# length is added to a counter of the metric whose span calls them.  They
# record no span of their own.  rgd_enumerate.candidates is the number of
# rows _effective_divisor_matrix builds, that is, the candidates the scan
# really examines; an enumerator that no longer calls it has to rewire this
# entry (install() fails while the helper is missing).
COUNTED = (
    ("tropdiv.linear_systems", "_effective_divisor_matrix", "rgd_enumerate", "candidates"),
)

# per-layer metrics: (metric name, unit, better)
PER_LAYER = (
    ("smith_normal_form.calls", "count", "lower"),
    ("smith_normal_form.self_s", "s", "lower"),
    ("smith_normal_form.cells", "count", "lower"),
    ("smith_normal_form.max_dim", "count", "lower"),
    ("SmithSolver.solve.calls", "count", "lower"),
    ("SmithSolver.solve.self_s", "s", "lower"),
    ("frac_elim.calls", "count", "lower"),
    ("frac_elim.self_s", "s", "lower"),
    ("linear_equiv.calls", "count", "lower"),
    ("linear_equiv.self_s", "s", "lower"),
    ("rgd_enumerate.calls", "count", "lower"),
    ("rgd_enumerate.self_s", "s", "lower"),
    ("rgd_enumerate.candidates", "count", "lower"),
    ("rgd_enumerate.elements", "count", "lower"),
    ("rgd_enumerate.hit_ratio", "ratio", "higher"),
    ("firing_subsets.calls", "count", "lower"),
    ("firing_subsets.self_s", "s", "lower"),
    ("firing_subsets.subsets", "count", "lower"),
    ("is_extremal.calls", "count", "lower"),
    ("is_extremal.self_s", "s", "lower"),
    ("extreme_rays.self_s", "s", "lower"),
    ("extreme_rays.rays", "count", "lower"),
    ("hilbert_basis.self_s", "s", "lower"),
    ("hilbert_basis.basis_size", "count", "lower"),
    ("certify_basis.self_s", "s", "lower"),
    ("certify_basis.elements", "count", "lower"),
    ("monoid_certificate.calls", "count", "lower"),
    ("monoid_certificate.self_s", "s", "lower"),
    ("decompose.calls", "count", "lower"),
    ("decompose.self_s", "s", "lower"),
    ("decompose.products_checked", "count", "lower"),
    ("Refinement.calls", "count", "lower"),
    ("Refinement.vertices", "count", "lower"),
    ("Refinement.self_s", "s", "lower"),
    ("linear_equiv_metric.calls", "count", "lower"),
    ("linear_equiv_metric.self_s", "s", "lower"),
    ("metric_firing_subgraphs.calls", "count", "lower"),
    ("metric_firing_subgraphs.self_s", "s", "lower"),
    ("can_fire_metric.calls", "count", "lower"),
    ("can_fire_metric.fire_ratio", "ratio", "higher"),
    ("cf_move.calls", "count", "lower"),
    ("cf_move.self_s", "s", "lower"),
    ("is_extremal_metric.self_s", "s", "lower"),
    ("check_hypotheses.self_s", "s", "lower"),
    ("build_witness.self_s", "s", "lower"),
    ("indecomposability_check.self_s", "s", "lower"),
    ("indecomposability_check.rows", "count", "lower"),
    ("dumps.self_s", "s", "lower"),
    ("dumps.bytes", "count", "lower"),
    ("main.calls", "count", "lower"),
    ("main.self_s", "s", "lower"),
    ("budget.max_lattice_candidates.used_ratio", "ratio", "lower"),
    ("budget.max_products.used_ratio", "ratio", "lower"),
    ("budget.max_firing_vertices.used_ratio", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


_SIGNATURES = {}


def _budget(fn, args, kwargs):
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["budget"]


def _candidates(graph, divisor):
    n, d = graph.vertex_count, divisor.degree()
    if d < 0:
        return 0
    return comb(n + d - 1, d)


# Work counters, each derived from a wrapped call's arguments and result.
# A hook returns {counter: amount} to add and {budget cap: used/limit}.
def _count_smith(fn, args, kwargs, result):
    a = args[0]
    m, n = len(a), len(a[0]) if a else 0
    return {"cells": m * n, "max_dim": max(m, n)}, {}


def _count_rgd(fn, args, kwargs, result):
    # the budget is checked against C(n+d-1, d), so its headroom uses that
    # count, not the rows actually scanned (counted through COUNTED)
    budget = _budget(fn, args, kwargs)
    return ({"elements": len(result)},
            {"max_lattice_candidates": _candidates(args[0], args[1])
             / budget.max_lattice_candidates})


def _count_firing(fn, args, kwargs, result):
    budget = _budget(fn, args, kwargs)
    return ({"subsets": len(result)},
            {"max_firing_vertices": args[0].vertex_count / budget.max_firing_vertices})


def _count_decompose(fn, args, kwargs, result):
    budget = _budget(fn, args, kwargs)
    return ({"products_checked": result.products_checked},
            {"max_products": result.products_checked / budget.max_products})


HOOKS = {
    "smith_normal_form": _count_smith,
    "rgd_enumerate": _count_rgd,
    "firing_subsets": _count_firing,
    "decompose": _count_decompose,
    "extreme_rays": lambda fn, a, k, r: ({"rays": len(r)}, {}),
    "hilbert_basis": lambda fn, a, k, r: ({"basis_size": len(r.elements)}, {}),
    "certify_basis": lambda fn, a, k, r: ({"elements": sum(r.values())}, {}),
    "Refinement": lambda fn, a, k, r: ({"vertices": a[0].graph.vertex_count}, {}),
    "can_fire_metric": lambda fn, a, k, r: ({"fired": int(bool(r))}, {}),
    "indecomposability_check": lambda fn, a, k, r: ({"rows": len(r["rows"])}, {}),
    "dumps": lambda fn, a, k, r: ({"bytes": len(r)}, {}),
}
MAX_COUNTERS = {"max_dim"}


class Tracer:
    """In-memory span log with per-name self time, calls and counters."""

    def __init__(self):
        self.spans = []            # (id, parent id, job, name, start, end)
        self.stats = {}            # name -> {"calls", "self_s", counters...}
        self.budget = {}           # cap -> peak used/limit
        self.job = None
        self._stack = []           # [id, start, child time]
        self._patches = []         # (owner, attribute, original)

    # -- spans --------------------------------------------------------------

    def enter(self):
        frame = [len(self.spans) + len(self._stack), time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame, name):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((frame[0], parent[0] if parent else None, self.job,
                           name, frame[1], end))
        st = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += duration - frame[2]

    def count(self, name, counters, budget):
        # a COUNTED helper adds to its caller's stats before the caller's span ends
        st = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        for key, value in counters.items():
            if key in MAX_COUNTERS:
                st[key] = max(st.get(key, 0), value)
            else:
                st[key] = st.get(key, 0) + value
        for cap, ratio in budget.items():
            self.budget[cap] = max(self.budget.get(cap, 0.0), ratio)

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, name)
            if hook is not None:
                tracer.count(name, *hook(fn, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.bench_traced = True
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_counted(self, fn, name, key):
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(name, {key: len(result)}, {})
            return result

        counted.__wrapped__ = fn
        counted.bench_traced = True
        counted.__name__ = fn.__name__
        return counted

    # -- (un)binding --------------------------------------------------------

    def install(self):
        """Wrap every target and counted helper at every module-global binding."""
        modules = tropdiv_modules()
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            self._rebind(modules, original, self._wrap(original, name))
        for modname, attr, name, key in COUNTED:
            original = getattr(sys.modules[modname], attr)
            self._rebind(modules, original, self._wrap_counted(original, name, key))

    def _rebind(self, modules, original, wrapped):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer values by metric name (0 for layers never reached)."""
        def st(name, key):
            return self.stats.get(name, {}).get(key, 0)

        out = {}
        for metric, _, _ in PER_LAYER:
            name, _, key = metric.rpartition(".")
            if name.startswith("budget."):
                out[metric] = self.budget.get(name[len("budget."):], 0.0)
            elif key == "hit_ratio":
                c = st(name, "candidates")
                out[metric] = st(name, "elements") / c if c else 0.0
            elif key == "fire_ratio":
                c = st(name, "calls")
                out[metric] = st(name, "fired") / c if c else 0.0
            elif name != "trace":
                out[metric] = st(name, key)
        return out


def tropdiv_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "tropdiv" or k.startswith("tropdiv."))]


def visible_wrappers():
    """Bindings in loaded tropdiv modules and classes that are trace wrappers."""
    found = []
    for mod in tropdiv_modules():
        for key, value in vars(mod).items():
            if getattr(value, "bench_traced", False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, "bench_traced", False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found
