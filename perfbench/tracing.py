"""Span tracing of qprelax from outside the package.

The tracer wraps the public functions of the layer modules (``core``,
``numerics``, ``oracle``, ``conic``, ``analysis``, ``report``), a few private
functions that carry whole phases (``conic._consensus``,
``conic._pinned_solve``, the polisher's ``attempt``) and
``numerics.FaceProjector.apply``.  Modules import many of these by name
(``from .oracle import global_solve``), so each wrapper is installed at
every binding in every ``qprelax`` module that refers to the original
function, not only at its defining module.

Spans (name, start, end, parent, op id) are kept in memory for one op at a
time and folded into per-name and per-layer totals when the op ends, so
memory stays bounded by the largest op.  A layer's self time is the span
duration minus the time its direct children cover.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "numerics", "oracle", "conic", "analysis", "report")

#: Private functions and methods traced in addition to the public functions.
EXTRA_TARGETS = (
    ("conic", "_consensus"),
    ("conic", "_pinned_solve"),
    ("conic", "_Polisher.attempt"),
    ("numerics", "FaceProjector.apply"),
)

ROOT_SPAN = "bench.op"


def _project_cone_name(args, kwargs):
    cone = kwargs.get("cone", args[1] if len(args) > 1 else None)
    return "numerics.project_cone.psd" if cone == "PSD" else "numerics.project_cone.sign"


def _faces_count(tracer, result, args, kwargs):
    """Faces enumerated by this call itself.

    A call with some but not all upper bounds finite folds them into slack
    rows and returns its inner call's count; an UNBOUNDED_BELOW result
    returns the count of its curvature sub-call or zero.  Both would count
    faces twice, so they add nothing here.
    """
    box = kwargs.get("box", args[4] if len(args) > 4 else None)
    if box is not None:
        finite = [b != float("inf") for b in box]
        if any(finite) and not all(finite):
            return
    if result.status == "UNBOUNDED_BELOW":
        return
    tracer.counts["oracle.faces"] += result.faces_explored


class Tracer:
    """Installs span-recording wrappers and aggregates spans per op."""

    def __init__(self):
        self._installed = []  # (owner, attribute, original)
        self._spans = []
        self._stack = []
        self._op = None
        self.ops = 0
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)  # inclusive seconds of outermost spans per name
        self.self_time = defaultdict(float)  # self seconds per name
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(float)
        self.conic_time = 0.0  # conic subtrees minus oracle descendants
        self.conic_self_time = 0.0  # ... minus numerics descendants too

    # -- installation --------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qprelax" or name.startswith("qprelax."))]
        for layer in LAYERS:
            mod = sys.modules[f"qprelax.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    self._wrap_function(modules, fn, f"{layer}.{attr}")
        for layer, target in EXTRA_TARGETS:
            mod = sys.modules[f"qprelax.{layer}"]
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, self._wrapper(original, f"{layer}.{target}"))
                self._installed.append((cls, meth, original))
            else:
                self._wrap_function(modules, getattr(mod, target), f"{layer}.{target}")

    def _wrap_function(self, modules, fn, name):
        wrapper = self._wrapper(fn, name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrapper(self, fn, name):
        namer = _project_cone_name if name == "numerics.project_cone" else None
        faces = name == "oracle.minimize_quad_over_polytope"
        consensus = name == "conic._consensus"
        spans = self._spans
        stack = self._stack

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span_name = namer(args, kwargs) if namer else name
                spans[idx] = (span_name, start, end, parent, self._op)
            if consensus:
                self.counts["conic.loop_iterations"] += result.iterations
            elif faces:
                _faces_count(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- recording -----------------------------------------------------

    def run_op(self, op_id, call):
        """Run ``call()`` as op ``op_id`` under a root span.

        Returns the call's result and the root span's duration in seconds.
        """
        self._op = op_id
        self._spans.append(None)
        self._stack.append(0)
        start = perf_counter()
        try:
            result = call()
        finally:
            end = perf_counter()
            self._stack.pop()
            self._spans[0] = (ROOT_SPAN, start, end, -1, op_id)
            self._op = None
            self._fold()
        return result, end - start

    def _fold(self):
        spans = self._spans
        n = len(spans)
        child = [0.0] * n
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        in_conic = [False] * n
        drop_oracle = [False] * n  # oracle work below a conic span
        drop_numerics = [False] * n  # numerics work below a conic span
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            layer = name.split(".", 1)[0]
            self.calls[name] += 1
            self.self_time[name] += own
            self.layer_self[layer] += own
            p = parent if parent >= 0 else None
            outer_same = p is not None and _has_ancestor(spans, p, name)
            if not outer_same:
                self.incl[name] += dur
            if p is not None:
                in_conic[i] = in_conic[p] or layer == "conic"
                drop_oracle[i] = drop_oracle[p] or (in_conic[p] and layer == "oracle")
                drop_numerics[i] = drop_numerics[p] or (in_conic[p] and layer == "numerics")
            else:
                in_conic[i] = layer == "conic"
            if in_conic[i] and not drop_oracle[i]:
                self.conic_time += own
                if not drop_numerics[i]:
                    self.conic_self_time += own
        self.ops += 1
        spans.clear()
        self._stack.clear()

    # -- results -------------------------------------------------------

    def count_snapshot(self):
        """Exact counts that two runs at one seed must reproduce."""
        out = {f"{name}.calls": float(c) for name, c in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))


def _has_ancestor(spans, idx, name):
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False
