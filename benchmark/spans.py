"""Layer tracing from outside the program: wrappers around ccarb's public functions.

`Tracer.install` replaces each traced function in every ccarb module
namespace that bound it (``det_poly`` is bound in both ``ccarb.counting``
and ``ccarb.minweight``) and returns a function that restores the
originals.  Each wrapper records a span (name, start, end, parent span,
op id, thread) and the counts of its layer at the same boundary.  Spans of
one op are folded into per-layer totals when the op ends, so memory stays
bounded by the largest op.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

# (module, attribute) of every traced function; methods as "Class.method".
TARGETS = (
    ("ccarb.cli", "main"),
    ("ccarb.graph", "parse_graph"),
    ("ccarb.graph", "remove_edge"),
    ("ccarb.graph", "remove_in_arcs"),
    ("ccarb.graph", "dedup_min_weight"),
    ("ccarb.graph", "bidirect"),
    ("ccarb.laplacian", "build_laplacian"),
    ("ccarb.laplacian", "minor"),
    ("ccarb.laplacian", "SymbolicMatrix.evaluate"),
    ("ccarb.determinant", "det_poly"),
    ("ccarb.determinant", "det_poly_mod_p"),
    ("ccarb.determinant", "det_mod_p"),
    ("ccarb.determinant", "select_primes"),
    ("ccarb.polynomials", "interpolate"),
    ("ccarb.polynomials", "crt_combine"),
    ("ccarb.counting", "count_table"),
    ("ccarb.counting", "count"),
    ("ccarb.counting", "decide"),
    ("ccarb.counting", "find"),
    ("ccarb.counting", "count_spanning_trees"),
    ("ccarb.minweight", "min_weight"),
    ("ccarb.minweight", "find_min"),
    ("ccarb.minweight", "c_alpha_r"),
    ("ccarb.minweight", "valuation"),
)

_TRANSFORMS = ("remove_edge", "remove_in_arcs", "dedup_min_weight", "bidirect")

# Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "cli.self_s": "s",
    "graph.parse_s": "s",
    "graph.transform_calls": "count",
    "graph.transform_s": "s",
    "laplacian.build_calls": "count",
    "laplacian.build_s": "s",
    "laplacian.evaluate_calls": "count",
    "laplacian.evaluate_s": "s",
    "determinant.scalar_dets": "count",
    "determinant.det_mod_p_s": "s",
    "determinant.det_poly_calls": "count",
    "determinant.det_poly_self_s": "s",
    "determinant.det_poly_mod_p_self_s": "s",
    "determinant.prime_passes": "count",
    "determinant.prime_bits_mean": "bit",
    "determinant.select_primes_s": "s",
    "determinant.refusals": "count",
    "polynomials.interpolate_calls": "count",
    "polynomials.interpolate_s": "s",
    "polynomials.crt_moduli": "count",
    "polynomials.crt_combine_s": "s",
    "counting.decide_calls": "count",
    "counting.decide_yes_share": "share",
    "counting.find_self_s": "s",
    "minweight.c_alpha_r_calls": "count",
    "minweight.c_alpha_r_s": "s",
    "minweight.valuation_s": "s",
    "minweight.find_min_self_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int


class Tracer:
    """Collects spans and counters while installed; see `install`."""

    def __init__(self) -> None:
        self.op: int | None = None
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stacks = threading.local()
        self._lock = threading.Lock()

    def install(self) -> Callable[[], None]:
        """Wrap every target wherever a ccarb module bound it; return the undo."""
        undo = []
        for module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                bindings = [(cls, method)]
            else:
                original = getattr(owner, attr)
                bindings = [
                    (mod, attr)
                    for name, mod in list(sys.modules.items())
                    if (name == "ccarb" or name.startswith("ccarb.")) and getattr(mod, attr, None) is original
                ]
            wrapper = self._wrap(attr.rpartition(".")[2], original)
            for holder, name in bindings:
                setattr(holder, name, wrapper)
                undo.append((holder, name, original))

        def uninstall() -> None:
            for holder, name, original in undo:
                setattr(holder, name, original)

        return uninstall

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.op, threading.get_ident())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._count(name, args, None, exc)
                raise
            else:
                tracer._count(name, args, result, None)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _stack(self) -> list[int]:
        if not hasattr(self._stacks, "items"):
            self._stacks.items = []
        return self._stacks.items

    def _count(self, name: str, args, result, exc) -> None:
        with self._lock:
            self.counts[name] += 1
            if name == "det_poly_mod_p":
                self.counts["prime_bits"] += args[1].bit_length()
            elif name == "crt_combine":
                self.counts["crt_moduli"] += len(args[0])
            elif name == "decide" and result:
                self.counts["decide_yes"] += 1
            elif name == "select_primes" and exc is not None:
                self.counts["refusals"] += 1

    def fold(self) -> None:
        """Add the finished spans' total and self times to the layer totals."""
        covered: defaultdict = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent].append((span.start, span.end))
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            self.total_s[span.name] += duration
            self.self_s[span.name] += duration - _union(covered.get(index, ()), span.start, span.end)
        self.spans = []

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over everything folded so far."""
        c, t = self.counts, self.total_s
        return {
            "cli.self_s": self.self_s["main"],
            "graph.parse_s": t["parse_graph"],
            "graph.transform_calls": sum(c[n] for n in _TRANSFORMS),
            "graph.transform_s": sum(t[n] for n in _TRANSFORMS),
            "laplacian.build_calls": c["build_laplacian"],
            "laplacian.build_s": t["build_laplacian"] + t["minor"],
            "laplacian.evaluate_calls": c["evaluate"],
            "laplacian.evaluate_s": t["evaluate"],
            "determinant.scalar_dets": c["det_mod_p"],
            "determinant.det_mod_p_s": t["det_mod_p"],
            "determinant.det_poly_calls": c["det_poly"],
            "determinant.det_poly_self_s": self.self_s["det_poly"],
            "determinant.det_poly_mod_p_self_s": self.self_s["det_poly_mod_p"],
            "determinant.prime_passes": c["det_poly_mod_p"],
            "determinant.prime_bits_mean": c["prime_bits"] / c["det_poly_mod_p"] if c["det_poly_mod_p"] else 0.0,
            "determinant.select_primes_s": t["select_primes"],
            "determinant.refusals": c["refusals"],
            "polynomials.interpolate_calls": c["interpolate"],
            "polynomials.interpolate_s": t["interpolate"],
            "polynomials.crt_moduli": c["crt_moduli"],
            "polynomials.crt_combine_s": t["crt_combine"],
            "counting.decide_calls": c["decide"],
            "counting.decide_yes_share": c["decide_yes"] / c["decide"] if c["decide"] else 0.0,
            "counting.find_self_s": self.self_s["find"],
            "minweight.c_alpha_r_calls": c["c_alpha_r"],
            "minweight.c_alpha_r_s": t["c_alpha_r"],
            "minweight.valuation_s": t["valuation"],
            "minweight.find_min_self_s": self.self_s["find_min"],
        }


def _union(intervals, low: float, high: float) -> float:
    """Length of the union of intervals, clipped to [low, high]."""
    covered, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered
