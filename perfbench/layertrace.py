"""In-memory spans around the names netgreeks looks up at call time.

The package is not edited: each traced name is replaced on its module (or
class) by a wrapper that records one span per call and restored afterwards.
This works because the callers resolve these names as module globals or
class attributes when they run, not when they are imported.

A span is (id, name, start, end, thread, parent, attrs).  The parent is the
innermost open span on the same thread.  Attributes are read from the
arguments and the return value after the call returns; anything costly
(distinct solvency patterns) is deferred until `finish`, so it is not
charged to any span.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time

import numpy as np

# (module, attribute path, span name, layer)
TRACED = [
    ("netgreeks.mc", "normal_variates", "mc.normal_variates", "gbm"),
    ("netgreeks.mc", "solve_claims_batch", "mc.solve_claims_batch", "fixpoint"),
    ("netgreeks.mc", "dxda_batch", "mc.dxda_batch", "sensitivity"),
    ("netgreeks.mc", "_RunningStat.from_samples", "mc._RunningStat.from_samples", "mc.moments"),
    ("netgreeks.mc", "_tree_merge", "mc._tree_merge", "mc.moments"),
    ("netgreeks.mc", "_mc_chunk", "mc._mc_chunk", "mc.chunk"),
    ("netgreeks.experiments", "er_network", "experiments.er_network", "netgen"),
    ("netgreeks.experiments", "mc_greeks", "experiments.mc_greeks", "op"),
    ("netgreeks.experiments", "write_csv", "experiments.write_csv", "experiments.write_csv"),
    # two-firm and local-compare reach the layers from experiments directly
    ("netgreeks.experiments", "normal_variates", "experiments.normal_variates", "gbm"),
    ("netgreeks.experiments", "solve_claims_batch", "experiments.solve_claims_batch", "fixpoint"),
    ("netgreeks.experiments", "dxda_batch", "experiments.dxda_batch", "sensitivity"),
]

LAYER = {span: layer for _, _, span, layer in TRACED}


def _attrs(layer, args, result):
    """Counts taken at the layer boundary from array shapes and results."""
    if layer == "gbm":
        return {"normals": int(result.size)}
    if layer == "fixpoint":
        rows = int(result.s.shape[0])
        return {"iterations": int(result.iterations), "rows": rows,
                "max_residual": float(result.residuals.max()) if rows else 0.0}
    if layer == "sensitivity":
        xi = np.asarray(args[1])
        return {"systems": int(xi.shape[0]), "n": int(xi.shape[1]), "_xi": xi}
    if layer == "mc.moments" and len(args) == 1 and hasattr(args[0], "nbytes"):
        return {"bytes": int(args[0].nbytes)}
    if layer == "mc.chunk":
        return {"boundary_hits": int(result[1])}
    return {}


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans while installed; `spans` holds closed spans in end order."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    def _open(self):
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, attrs):
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, name, start, end, threading.get_ident(), parent, attrs))

    def _wrap(self, fn, name, layer, bound=False):
        tracer = self

        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, parent, name, start, time.perf_counter(), {"raised": True})
                raise
            end = time.perf_counter()
            tracer._close(sid, parent, name, start, end,
                          _attrs(layer, args[1:] if bound else args, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Replace every traced name; `uninstall` puts the originals back."""
        for module_name, path, name, layer in TRACED:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, layer, bound=True))
            else:
                wrapped = self._wrap(raw, name, layer)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def take(self):
        """Return the spans recorded so far, with deferred counts resolved."""
        with self._lock:
            spans, self.spans = self.spans, []
        out = []
        for sid, name, start, end, tid, parent, attrs in spans:
            xi = attrs.pop("_xi", None)
            if xi is not None:
                attrs["distinct"] = int(np.unique(xi, axis=0).shape[0]) if xi.shape[0] else 0
            out.append((sid, name, start, end, tid, parent, attrs))
        out.sort(key=lambda s: s[2])
        return out


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.start,
                           time.perf_counter(), self.attrs)
        return False


class OpTimer:
    """Latency of each `experiments.mc_greeks` call, with no other tracing.

    Ensemble members run inside `run_er_sweep`, so the untraced run needs
    this one wrapper to time its operations.
    """

    def __init__(self):
        self.latencies = []
        self._saved = None

    def install(self):
        import netgreeks.experiments as ex

        fn = ex.mc_greeks
        latencies = self.latencies

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            latencies.append(time.perf_counter() - start)
            return result

        self._saved = fn
        ex.mc_greeks = timed
        return self

    def uninstall(self):
        import netgreeks.experiments as ex

        if self._saved is not None:
            ex.mc_greeks, self._saved = self._saved, None


def span_violations(spans, slack=1e-9):
    """Spans whose children are busy longer than they are, as messages.

    Holds whenever every span nests inside its parent on one thread: a
    span's self time (duration minus its children's) is then non-negative.
    """
    child_busy = {}
    for _, _, start, end, _, parent, _ in spans:
        if parent is not None:
            child_busy[parent] = child_busy.get(parent, 0.0) + (end - start)
    bad = []
    for sid, name, start, end, _, _, _ in spans:
        if end < start:
            bad.append(f"{name}#{sid} ends before it starts")
        if child_busy.get(sid, 0.0) > (end - start) + slack:
            bad.append(f"{name}#{sid} children busy {child_busy[sid]:.6f}s > own {end - start:.6f}s")
    return bad


def sensitivity_flops(systems, n):
    """LU + two triangular solves of one (2n x 2n) system with n right-hand sides."""
    m = 2 * n
    return systems * ((2.0 / 3.0) * m**3 + 2.0 * m * m * n)


def layer_metrics(spans, wall, threads, op_span):
    """Per-layer totals over one pass from its spans."""
    busy = {}
    child_busy = {}
    for _, _, start, end, _, parent, _ in spans:
        if parent is not None:
            child_busy[parent] = child_busy.get(parent, 0.0) + (end - start)
    m = {
        "gbm.normals": 0, "fixpoint.calls": 0, "fixpoint.iterations": 0,
        "fixpoint.row_iterations": 0, "fixpoint.max_residual": 0.0,
        "sensitivity.systems": 0, "sensitivity.flops_computed": 0.0,
        "mc.moment_bytes": 0, "mc.chunk_self_s": 0.0, "mc.chunks": 0,
        "mc.boundary_hits": 0, "netgen.networks": 0,
    }
    distinct = 0
    op_busy = 0.0
    for sid, name, start, end, _, _, a in spans:
        dur = end - start
        if name == op_span:
            op_busy += dur
        layer = LAYER.get(name)
        if layer is None:
            continue
        busy[layer] = busy.get(layer, 0.0) + dur
        if layer == "gbm":
            m["gbm.normals"] += a.get("normals", 0)
        elif layer == "fixpoint":
            m["fixpoint.calls"] += 1
            m["fixpoint.iterations"] += a.get("iterations", 0)
            m["fixpoint.row_iterations"] += a.get("iterations", 0) * a.get("rows", 0)
            m["fixpoint.max_residual"] = max(m["fixpoint.max_residual"], a.get("max_residual", 0.0))
        elif layer == "sensitivity":
            m["sensitivity.systems"] += a.get("systems", 0)
            m["sensitivity.flops_computed"] += sensitivity_flops(a.get("systems", 0), a.get("n", 0))
            distinct += a.get("distinct", 0)
        elif layer == "mc.moments":
            m["mc.moment_bytes"] += a.get("bytes", 0)
        elif layer == "mc.chunk":
            m["mc.chunks"] += 1
            m["mc.boundary_hits"] += a.get("boundary_hits", 0)
            m["mc.chunk_self_s"] += dur - child_busy.get(sid, 0.0)
        elif layer == "netgen":
            m["netgen.networks"] += 1
    m["gbm.busy_s"] = busy.get("gbm", 0.0)
    m["fixpoint.busy_s"] = busy.get("fixpoint", 0.0)
    m["sensitivity.busy_s"] = busy.get("sensitivity", 0.0)
    m["sensitivity.distinct_pattern_ratio"] = (
        distinct / m["sensitivity.systems"] if m["sensitivity.systems"] else 0.0)
    m["mc.moments.busy_s"] = busy.get("mc.moments", 0.0)
    m["netgen.busy_s"] = busy.get("netgen", 0.0)
    m["experiments.write_csv.busy_s"] = busy.get("experiments.write_csv", 0.0)
    m["experiments.parallel_efficiency"] = op_busy / (wall * threads) if wall > 0 else 0.0
    return m
