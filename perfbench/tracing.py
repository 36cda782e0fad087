"""Span tracing from outside the program.

``Tracer`` replaces each traced public function with a wrapper in every
``circulant3`` module that bound it by name (``from .metric import
metric_at`` makes ``cli``, ``curvature``, ``sampling`` and ``parallelism``
hold their own reference), and restores the originals on exit. Each wrapper
is a span: it records calls, inclusive time and self time, where self time is
the span's duration minus the time its child spans cover. Spans are
aggregated per name in memory as they close. ``jets.Jet2`` construction is
counted, not timed.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter_ns

TRACED = (
    ("cli", "build_parser"),
    ("cli", "main"),
    ("specfile", "load_spec"),
    ("expressions", "parse"),
    ("expressions", "eval_value"),
    ("expressions", "eval_jet"),
    ("metric", "metric_at"),
    ("sampling", "sample_admissible_points"),
    ("sampling", "is_admissible"),  # one call per draw
    ("curvature", "christoffel_from_metric"),
    ("curvature", "riemann_from_metric"),
    ("curvature", "check_q_invariance"),
    ("curvature", "sectional_curvature"),
    ("curvature", "check_sectional_difference_formula"),
    ("curvature", "check_sectional_combination_formula"),
    ("curvature", "check_equal_sectional_curvatures"),
    ("qstructure", "induces_q_basis"),
    ("qstructure", "q_basis_angles"),
    ("parallelism", "nabla_q_from_table"),
    ("parallelism", "parallel_residual_from_metric"),
)
JET_COUNTER = "jets.Jet2.created"


class Tracer:
    """Context manager that installs the spans and counters, then removes them."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self._stack: list[int] = []  # child time covered, one slot per open span
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        stack, calls, total, own = self._stack, self.calls, self.total_ns, self.self_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                child = stack.pop()
                calls[name] += 1
                total[name] += dur
                own[name] += dur - child
                if stack:
                    stack[-1] += dur

        return span

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "circulant3" or n.startswith("circulant3.")]
        for module_name, fname in TRACED:
            original = getattr(importlib.import_module(f"circulant3.{module_name}"), fname)
            wrapper = self._span(f"{module_name}.{fname}", original)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    self._set(module, attr, wrapper)

        from circulant3.jets import Jet2

        init, calls = Jet2.__init__, self.calls

        def counting_init(obj, *args, **kwargs):
            calls[JET_COUNTER] += 1
            init(obj, *args, **kwargs)

        self._set(Jet2, "__init__", counting_init)
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False
