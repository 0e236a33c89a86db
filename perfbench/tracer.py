"""Spans and work counters recorded from outside the sphericurve package.

Every hook replaces one attribute (a module function where callers look
it up, or a class method) with a wrapper, and puts the original back
when the traced operation ends.  Nothing under src/ is edited.  A hook
whose target no longer exists is listed in ``absent`` by name, so a
refactor that deletes a stage shows up in the report instead of as a
crash or a quiet zero.
"""

from __future__ import annotations

import importlib
import time

import numpy as np


# (layer, owner, attribute, kind).  owner is "module" or "module:Class";
# a layer listed twice is one stage looked up from two modules.
HOOKS = [
    ("quad.gauss_batch", "sphericurve.reconstruct", "gauss_batch", "batch"),
    ("quad.gauss_adaptive", "sphericurve.laws", "gauss_adaptive", "span"),
    ("quad.gauss_adaptive", "sphericurve.reconstruct", "gauss_adaptive", "span"),
    ("laws.admissible_intervals", "sphericurve.laws", "admissible_intervals", "span"),
    ("laws.admissible_intervals", "sphericurve.reconstruct", "admissible_intervals", "span"),
    ("laws.admissible_intervals", "sphericurve.cli", "admissible_intervals", "span"),
    ("laws.value", "sphericurve.laws:MomentumLaw", "value", "points_only"),
    ("laws.lambda_rate_phi", "sphericurve.laws:MomentumLaw", "lambda_rate_phi", "points"),
    ("reconstruct.leg_table", "sphericurve.reconstruct:_Leg", "__init__", "leg"),
    ("reconstruct.t_of_s", "sphericurve.reconstruct:_Leg", "t_of_s", "points"),
    ("reconstruct.events", "sphericurve.reconstruct:_Motion", "_build_events", "events"),
    ("reconstruct.state_of_s", "sphericurve.reconstruct:_Motion", "state_of_s", "points"),
    ("reconstruct.longitude", "sphericurve.reconstruct:_Motion", "longitude", "span"),
    ("oracle.frenet_integrate", "sphericurve.oracle", "frenet_integrate", "span"),
    ("oracle.frenet_integrate", "sphericurve.cli", "frenet_integrate", "span"),
    ("oracle.rk4_step", "sphericurve.oracle", "_rk4_step", "calls_only"),
    ("verify.verify_trace", "sphericurve.verify", "verify_trace", "span"),
    ("verify.verify_trace", "sphericurve.cli", "verify_trace", "span"),
    ("verify.compare_traces", "sphericurve.verify", "compare_traces", "span"),
    ("verify.compare_traces", "sphericurve.cli", "compare_traces", "span"),
    ("cli.main", "sphericurve.cli", "main", "span"),
    ("cli.write_csv", "sphericurve.cli", "_write_csv", "rows"),
]


def _resolve(owner):
    mod_name, _, cls_name = owner.partition(":")
    try:
        obj = importlib.import_module(mod_name)
    except ImportError:
        return None
    if cls_name:
        obj = getattr(obj, cls_name, None)
    return obj


class Tracer:
    """Spans kept in memory, self time and counters summed per layer."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []        # [id, parent, name, op, start, end]
        self.counters = {}     # "layer.counter" -> int
        self.self_s = {}       # layer -> seconds
        self.absent = []
        self._stack = []       # [span id, child seconds]
        self._saved = []
        self._op = None
        for layer, owner, attr, _ in hooks:
            target = _resolve(owner)
            if target is None or not callable(getattr(target, attr, None)):
                self.absent.append(f"{owner}.{attr}")

    # -- recording ----------------------------------------------------------

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span; its self time excludes child spans."""
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        rec = [sid, parent, name, self._op, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append([sid, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            rec[5] = end
            _, child = self._stack.pop()
            dur = end - rec[4]
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
            if self._stack:
                self._stack[-1][1] += dur

    def take(self):
        """Counters and self times since the last call, then reset them."""
        out = dict(self.counters), dict(self.self_s)
        self.counters, self.self_s = {}, {}
        return out

    # -- installing the hooks ----------------------------------------------

    def _wrap(self, layer, kind, orig):
        tr = self

        if kind == "points_only":
            def wrapper(obj, x, *a, **k):
                tr.count(layer + ".points", np.size(x))
                return orig(obj, x, *a, **k)
        elif kind == "calls_only":
            def wrapper(*a, **k):
                tr.count(layer + ".calls")
                return orig(*a, **k)
        elif kind == "batch":
            def wrapper(f, a, b, tol, *rest, **k):
                def counted(x):
                    tr.count(layer + ".points", np.size(x))
                    tr.count(layer + ".evals")
                    return f(x)
                tr.count(layer + ".calls")
                tr.count(layer + ".intervals",
                         np.count_nonzero(np.asarray(a) != np.asarray(b)))
                return tr.span(layer, orig, counted, a, b, tol, *rest, **k)
        elif kind == "points":
            def wrapper(obj, x, *a, **k):
                tr.count(layer + ".calls")
                tr.count(layer + ".points", np.size(x))
                return tr.span(layer, orig, obj, x, *a, **k)
        elif kind == "leg":
            def wrapper(obj, *a, **k):
                tr.count(layer + ".calls")
                out = tr.span(layer, orig, obj, *a, **k)
                tr.count(layer + ".panels", obj.t.size - 1)
                return out
        elif kind == "events":
            def wrapper(obj, *a, **k):
                out = tr.span(layer, orig, obj, *a, **k)
                tr.count(layer + ".count", obj.ev_s.size)
                return out
        elif kind == "rows":
            def wrapper(trace, *a, **k):
                tr.count(layer + ".rows", len(trace.s))
                return tr.span(layer, orig, trace, *a, **k)
        else:
            def wrapper(*a, **k):
                tr.count(layer + ".calls")
                return tr.span(layer, orig, *a, **k)
        return wrapper

    def install(self, op_name):
        self._op = op_name
        for layer, owner, attr, kind in self.hooks:
            target = _resolve(owner)
            orig = getattr(target, attr, None) if target is not None else None
            if not callable(orig):
                continue
            self._saved.append((target, attr, orig))
            setattr(target, attr, self._wrap(layer, kind, orig))

    def uninstall(self):
        while self._saved:
            target, attr, orig = self._saved.pop()
            setattr(target, attr, orig)
        self._op = None
        self._stack.clear()
