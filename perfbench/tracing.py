"""Spans around every call into the galoisplane layers, and the per-layer
metrics derived from them.

`Tracer.install` wraps each public module-level function of the layers
gf, linalg, pg2, conic, arcs and segre, plus the methods and private entry
points listed in EXTRA_SPANS, and rebinds every name in every loaded
galoisplane module that refers to one of them (segre imports join, meet and
the rest by name, conic imports plane the same way).  Each call records one
span: name "<module>.<function>", start, end, parent span and request id.

Element operations (FieldElement add, sub, mul, neg, truediv, pow and inv)
are far too many for one span each.  Their count and time are aggregated on
the enclosing span, and the time of the outermost one is subtracted from that
span's self time.  Self time is a span's duration minus what its child spans
and element operations cover.

Spans stay in memory and are written out, one per line, when the run ends.
`Tracer.uninstall` restores every original binding, so the untraced phase of
a run executes the unwrapped library.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("gf", "linalg", "pg2", "conic", "arcs", "segre")

ELEMENT_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "__pow__", "inv")

# Spans beyond the public module-level functions: methods that do a layer's
# work, and the private q = 3 oracle that segre.oracle.us_per_call covers.
EXTRA_SPANS = {
    "gf": ("FieldSpec.op_tables", "FieldSpec.elements"),
    "linalg": ("Mat.__matmul__",),
    "pg2": ("Plane.__init__", "Collineation.apply", "Collineation.apply_line",
            "Collineation.inverse"),
    "conic": ("Conic.evaluate",),
    "arcs": ("Arc.__init__",),
    "segre": ("_pencil_oracle", "Certificate.to_json"),
}

# name, unit, better, the end-to-end metric it should move, on which workloads
PER_LAYER = (
    ("gf.elem_ops", "count", "lower", "requests_per_s, request_ms_p50", "certify, large_field; no change on search"),
    ("gf.elem_ops.self_s", "s", "lower", "requests_per_s, request_ms_p50", "certify, large_field; no change on search"),
    ("gf.mul.us_per_call", "us", "lower", "requests_per_s, request_ms_p50", "certify, large_field; no change on search"),
    ("gf.make_field.s", "s", "lower", "setup_s, peak_rss_mb", "large_field"),
    ("gf.op_tables.s", "s", "lower", "setup_s, peak_rss_mb", "large_field"),
    ("gf.op_tables.builds", "count", "lower", "setup_s, peak_rss_mb", "large_field"),
    ("linalg.det3.calls", "count", "lower", "requests_per_s", "certify, large_field"),
    ("linalg.inverse3.calls", "count", "lower", "requests_per_s", "certify, large_field"),
    ("linalg.nullspace.calls", "count", "lower", "requests_per_s", "certify, large_field"),
    ("linalg.mat_vec.calls", "count", "lower", "requests_per_s", "certify, large_field"),
    ("linalg.nullspace.us_per_call", "us", "lower", "requests_per_s", "certify, large_field"),
    ("linalg.inverse3.us_per_call", "us", "lower", "requests_per_s", "certify, large_field"),
    ("linalg.self_s", "s", "lower", "requests_per_s", "certify, large_field"),
    ("pg2.plane.calls", "count", "lower", "setup_s, peak_rss_mb", "large_field"),
    ("pg2.plane.builds", "count", "lower", "setup_s, peak_rss_mb", "large_field"),
    ("pg2.plane_build_s", "s", "lower", "setup_s, peak_rss_mb", "large_field"),
    ("pg2.join.us_per_call", "us", "lower", "request_ms_p50, request_ms_tail", "large_field, certify"),
    ("pg2.meet.us_per_call", "us", "lower", "request_ms_p50, request_ms_tail", "large_field, certify"),
    ("pg2.collinear.calls", "count", "lower", "request_ms_p50, request_ms_tail", "large_field, certify"),
    ("pg2.collinear.us_per_call", "us", "lower", "request_ms_p50, request_ms_tail", "large_field, certify"),
    ("pg2.frame_transform.us_per_call", "us", "lower", "request_ms_p50, request_ms_tail", "large_field, certify"),
    ("pg2.apply.calls", "count", "lower", "request_ms_p50, request_ms_tail", "large_field, certify"),
    ("pg2.self_s", "s", "lower", "request_ms_p50, request_ms_tail", "large_field, certify"),
    ("conic.variety_of.us_per_call", "us", "lower", "request_ms_tail; requests_per_s", "large_field; certify"),
    ("conic.is_nondegenerate.us_per_call", "us", "lower", "request_ms_tail; requests_per_s", "large_field; certify"),
    ("conic.transform_conic.us_per_call", "us", "lower", "request_ms_tail; requests_per_s", "large_field; certify"),
    ("conic.self_s", "s", "lower", "request_ms_tail; requests_per_s", "large_field; certify"),
    ("arcs.search.self_s", "s", "lower", "requests_per_s, request_ms_tail", "search; no change on certify"),
    ("arcs.search.arcs_per_s", "1/s", "higher", "requests_per_s, request_ms_tail", "search; no change on certify"),
    ("arcs.validate.us_per_call", "us", "lower", "request_ms_tail", "certify"),
    ("arcs.tangent_lines.calls", "count", "lower", "request_ms_tail", "certify, large_field"),
    ("arcs.self_s", "s", "lower", "request_ms_tail", "certify, large_field"),
    ("segre.tangent_frame.us_per_call", "us", "lower", "requests_per_s, request_ms_p50", "certify"),
    ("segre.lemma.us_per_call", "us", "lower", "requests_per_s, request_ms_p50", "certify"),
    ("segre.oracle.us_per_call", "us", "lower", "requests_per_s, request_ms_p50", "certify"),
    ("segre.reconstruct.self_s", "s", "lower", "requests_per_s, request_ms_p50", "certify"),
    ("segre.self_s", "s", "lower", "requests_per_s, request_ms_p50", "certify"),
    ("segre.sample.draws_per_pair", "draws/pair", "lower", "request_ms_p50", "large_field"),
)


class Tracer:
    """In-memory spans for one process; install, run, uninstall, report."""

    def __init__(self, package):
        self.package = package
        # one list per span: name, start, end, parent index, request id,
        # element operations inside it, time of the outermost of them
        self.spans: list[list] = []
        self.request = -1
        self.op_calls = defaultdict(int)
        self.op_time = defaultdict(float)
        self.outer_op_time = 0.0
        self.arcs_found = 0
        self.table_objects: dict[int, object] = {}
        self._stack: list[int] = []
        self._op_depth = 0
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _element_op(self, kind: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        calls, times = self.op_calls, self.op_time

        @functools.wraps(fn)
        def traced(*args):
            outer = tracer._op_depth == 0
            tracer._op_depth += 1
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                tracer._op_depth -= 1
                calls[kind] += 1
                times[kind] += dt
                rec = spans[stack[-1]] if stack else None
                if rec is not None:
                    rec[5] += 1
                if outer:
                    tracer.outer_op_time += dt
                    if rec is not None:
                        rec[6] += dt

        return traced

    def _count_arcs(self, result):
        self.arcs_found += len(result)

    def _keep_tables(self, result):
        # a cache hit returns the object built before; a build returns a new one
        self.table_objects.setdefault(id(result), result)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {"arcs.search_maximal_arcs": self._count_arcs,
                 "gf.FieldSpec.op_tables": self._keep_tables}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = (obj, self._span(name, obj, hooks.get(name)))
            for path in EXTRA_SPANS[layer]:
                owner_name, _, attr = path.rpartition(".")
                if not owner_name:
                    fn = getattr(mod, attr)
                    wrapped[id(fn)] = (fn, self._span(f"{layer}.{attr}", fn))
                    continue
                owner = getattr(mod, owner_name)
                fn = owner.__dict__[attr]
                name = f"{layer}.{owner_name}" if attr == "__init__" else f"{layer}.{path}"
                self._patch(owner, attr, self._span(name, fn, hooks.get(f"{layer}.{path}")))
        element = sys.modules[f"{self.package.__name__}.gf"].FieldElement
        for kind in ELEMENT_OPS:
            self._patch(element, kind, self._element_op(kind, element.__dict__[kind]))
        prefix = self.package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report -------------------------------------------------------------

    def span_stats(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, rec in enumerate(spans):
            dur = rec[2] - rec[1]
            calls[rec[0]] += 1
            total[rec[0]] += dur
            own[rec[0]] += dur - covered[i] - rec[6]
        return calls, total, own

    def metrics(self, draws: int, pairs: int) -> dict:
        """Every PER_LAYER metric, from the spans recorded so far."""
        calls, total, own = self.span_stats()
        layer_self = defaultdict(float)
        for name, t in own.items():
            layer_self[name.split(".", 1)[0]] += t

        def us_per_call(*names):
            n = sum(calls[x] for x in names)
            return sum(total[x] for x in names) / n * 1e6 if n else 0.0

        search = "arcs.search_maximal_arcs"
        return {
            "gf.elem_ops": sum(self.op_calls.values()),
            "gf.elem_ops.self_s": self.outer_op_time,
            "gf.mul.us_per_call": (self.op_time["__mul__"] / self.op_calls["__mul__"] * 1e6
                                   if self.op_calls["__mul__"] else 0.0),
            "gf.make_field.s": total["gf.make_field"],
            "gf.op_tables.s": total["gf.FieldSpec.op_tables"],
            "gf.op_tables.builds": len(self.table_objects),
            "linalg.det3.calls": calls["linalg.det3"],
            "linalg.inverse3.calls": calls["linalg.inverse3"],
            "linalg.nullspace.calls": calls["linalg.nullspace"],
            "linalg.mat_vec.calls": calls["linalg.mat_vec"],
            "linalg.nullspace.us_per_call": us_per_call("linalg.nullspace"),
            "linalg.inverse3.us_per_call": us_per_call("linalg.inverse3"),
            "linalg.self_s": layer_self["linalg"],
            "pg2.plane.calls": calls["pg2.plane"],
            "pg2.plane.builds": calls["pg2.Plane"],
            "pg2.plane_build_s": total["pg2.Plane"],
            "pg2.join.us_per_call": us_per_call("pg2.join"),
            "pg2.meet.us_per_call": us_per_call("pg2.meet"),
            "pg2.collinear.calls": calls["pg2.collinear"],
            "pg2.collinear.us_per_call": us_per_call("pg2.collinear"),
            "pg2.frame_transform.us_per_call": us_per_call("pg2.frame_transform"),
            "pg2.apply.calls": calls["pg2.Collineation.apply"],
            "pg2.self_s": layer_self["pg2"],
            "conic.variety_of.us_per_call": us_per_call("conic.variety_of"),
            "conic.is_nondegenerate.us_per_call": us_per_call("conic.is_nondegenerate"),
            "conic.transform_conic.us_per_call": us_per_call("conic.transform_conic"),
            "conic.self_s": layer_self["conic"],
            "arcs.search.self_s": own[search],
            "arcs.search.arcs_per_s": self.arcs_found / total[search] if total[search] else 0.0,
            "arcs.validate.us_per_call": us_per_call("arcs.is_arc"),
            "arcs.tangent_lines.calls": calls["arcs.tangent_lines"],
            "arcs.self_s": layer_self["arcs"],
            "segre.tangent_frame.us_per_call": us_per_call("segre.tangent_frame"),
            "segre.lemma.us_per_call": us_per_call("segre.lemma_of_tangents"),
            "segre.oracle.us_per_call": us_per_call("segre.fit_conic_nullspace",
                                                    "segre._pencil_oracle"),
            "segre.reconstruct.self_s": own["segre.reconstruct_conic"],
            "segre.self_s": layer_self["segre"],
            "segre.sample.draws_per_pair": draws / pairs if pairs else 0.0,
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span; times in microseconds from the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\trequest\telem_ops\telem_us\n")
            for i, (name, t0, t1, parent, req, n_ops, op_t) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{(t0 - base) * 1e6:.3f}\t{(t1 - base) * 1e6:.3f}\t"
                         f"{parent}\t{req}\t{n_ops}\t{op_t * 1e6:.3f}\n")
