"""Span tracing installed from outside the program, for the traced runs.

``Tracer.install`` rebinds every public function of the tmp3 layers (and
the rewrite-rule methods of ``CurveCase``) in every tmp3 module namespace
that holds it, and wraps ``numpy.linalg`` to count the LAPACK-backed calls
made under tmp3. Each span records its name, start, end, parent span and
operation id; spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("poly", "curves", "bases", "linalg", "moment", "measure", "certify", "cli")
METHODS = {"curves": {"CurveCase": ("low_rewrite_rule", "rewrite_rule")}}
LAPACK = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
          "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd")

# (metric, span names it sums -- a name ending in "." takes a whole layer,
#  "calls" | "self_ms")
BASIS = ("bases.basis_Bk", "bases.basis_Vk", "bases.basis_Rk1")


def _one(name):
    return [(f"{name}.calls", (name,), "calls"), (f"{name}.self_ms", (name,), "self_ms")]


METRICS = (
    _one("poly.product_on_curve") + _one("poly.normal_low")
    + _one("curves.low_rewrite_rule")
    + [("bases.basis.calls", BASIS, "calls"), ("bases.basis.self_ms", BASIS, "self_ms")]
    + _one("curves.chi_flags")
    + [("curves.parametrization.calls", ("curves.parametrization",), "calls")]
    + _one("bases.combined_lift") + _one("moment.lift_matrix")
    + [("moment.hankel_from_lift.self_ms", ("moment.hankel_from_lift",), "self_ms")]
    + _one("linalg.completion_interval")
    + _one("measure.extract") + _one("measure.solve_hankel_R")
    + _one("moment.decide")
    + [("moment.check_ideal_vanishing.self_ms", ("moment.check_ideal_vanishing",), "self_ms"),
       ("measure.witness.self_ms", ("measure.witness",), "self_ms"),
       ("certify.verify_certificate.self_ms", ("certify.verify_certificate",), "self_ms")]
    + _one("curves.sample_points")
    + [("linalg.self_ms", ("linalg.",), "self_ms"), ("cli.run.self_ms", ("cli.",), "self_ms")]
)
# metrics computed apart from the span table
EXTRA = ("linalg.lapack.calls", "cli.import_ms", "trace.overhead_ratio")
NAMES = tuple(m for m, _, _ in METRICS) + EXTRA


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent id, op id)
        self.lapack = []  # numpy.linalg calls made under tmp3, in the span layout
        self.stack = []
        self.op = None
        self._undo = []
        self._next = 0

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.op))

        return traced

    def _count(self, name, fn):
        """numpy.linalg calls under a tmp3 span are recorded apart from the spans:
        they are counted, and their time stays in the calling span's self time."""
        calls, stack, clock = self.lapack, self.stack, time.perf_counter_ns

        def counted(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                sid = self._next
                self._next += 1
                calls.append((sid, name, t0, clock(), stack[-1], self.op))

        return counted

    def _rebind(self, holder, attr, new):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self):
        import numpy.linalg

        pkg = importlib.import_module("tmp3")
        mods = {m: importlib.import_module(f"tmp3.{m}") for m in LAYERS}
        spaces = [pkg] + list(mods.values())
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for space in spaces:
                    for held, obj in list(vars(space).items()):
                        if obj is fn:
                            self._rebind(space, held, traced)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    self._rebind(cls, meth, self._wrap(f"{layer}.{meth}", fn))
        for attr in LAPACK:
            fn = getattr(numpy.linalg, attr)
            self._rebind(numpy.linalg, attr, self._count(f"numpy.linalg.{attr}", fn))

    def uninstall(self):
        while self._undo:
            holder, attr, old = self._undo.pop()
            setattr(holder, attr, old)

    def totals(self):
        """{span name: [calls, self ns]} over the recorded spans."""
        child = {}
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0) + (t1 - t0)
        out = {}
        for sid, name, t0, t1, _, _ in self.spans:
            acc = out.setdefault(name, [0, 0])
            acc[0] += 1
            acc[1] += (t1 - t0) - child.get(sid, 0)
        return out

    def write(self, path, mode="w"):
        """Append the spans as tab-separated id, name, start_ns, end_ns, parent, op."""
        with open(path, mode) as fh:
            if fh.tell() == 0:
                fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans + self.lapack:
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")


def layer_metrics(totals, lapack_calls, ops):
    """Per-operation layer metrics from span totals over ``ops`` operations."""
    out = {}
    for metric, names, what in METRICS:
        picked = [v for n, v in totals.items()
                  if any(n == m or (m.endswith(".") and n.startswith(m)) for m in names)]
        if what == "calls":
            out[metric] = sum(v[0] for v in picked) / ops
        else:
            out[metric] = sum(v[1] for v in picked) / 1e6 / ops
    out["linalg.lapack.calls"] = lapack_calls / ops
    return out
