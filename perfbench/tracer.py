"""Outside-in layer tracing for the benchmark.

The layers are the modules of the diffalg package. Nothing in the program
is edited: every public function and method of each module (plus the
private boundaries named in EXTRA) is replaced by a wrapper at every place
its name is bound, which is the defining module, each `from ... import`
alias in the other diffalg modules and in the package namespace, module
level dicts such as the CLI handler table, and the class for methods.

SpanRecorder keeps one span per outermost call (name, start, end, parent,
request id, raised) in memory; a recursive function is spanned only at
its outermost entry and its inner calls are counted. multiindex functions
take about a microsecond, so they are counted and never spanned. Self
time is a span's duration minus the time its child spans cover.

AllocRecorder is a separate pass under tracemalloc: it records, for each
entry into a layer from outside it, the peak of traced memory above the
level at entry, so allocation tracing never inflates the span times.
"""
from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
import tracemalloc
import weakref

import numpy as np

PACKAGE = "diffalg"
LAYERS = ["cli", "algebra", "_linalg", "multiindex", "series", "dersys",
          "diffcalc", "jets", "geometry", "envelope", "spectra"]
COUNTED_ONLY = {"multiindex"}
# Metric names start with a letter, so the _linalg module reports as linalg.
METRIC_PREFIX = {layer: layer.lstrip("_") for layer in LAYERS}
EXTRA = {"cli": {"_emit"}}

# Function boundaries reported on their own: metric name -> wrapped names.
BOUNDARIES = {
    "algebra.mul_coords": ["algebra.StructureAlgebra.mul_coords"],
    "algebra.left_mul_matrix": ["algebra.StructureAlgebra.left_mul_matrix"],
    "algebra.right_mul_matrix": ["algebra.StructureAlgebra.right_mul_matrix"],
    "algebra.axiom_violations": ["algebra.StructureAlgebra.axiom_violations"],
    "algebra.hom_violations": ["algebra.LinearOp.hom_violations"],
    "algebra.characters": ["algebra.characters"],
    "algebra.build": ["algebra.matrix_algebra", "algebra.function_algebra",
                      "algebra.truncated_poly", "algebra.group_algebra",
                      "algebra.cusp_algebra", "algebra.direct_sum",
                      "algebra.quotient", "algebra.subalgebra",
                      "algebra.StructureAlgebra.from_dict"],
    "linalg.in_span": ["_linalg.in_span"],
    "linalg.null_space": ["_linalg.null_space"],
    "linalg.span_basis": ["_linalg.span_basis"],
    "linalg.rank": ["_linalg.rank"],
    "linalg.eigenspace": ["_linalg.eigenspace"],
    "series.ser_mul": ["series.ser_mul"],
    "series.series_algebra": ["series.series_algebra"],
    "dersys.verify_system": ["dersys.verify_system"],
    "diffcalc.commutator": ["diffcalc.commutator"],
    "diffcalc.diff_order": ["diffcalc.diff_order"],
    "diffcalc.z_tower_from_images": ["diffcalc.z_tower_from_images"],
    "jets.jet_space": ["jets.jet_space"],
    "geometry.tangent_space": ["geometry.tangent_space"],
    "geometry.cotangent_space": ["geometry.cotangent_space"],
    "envelope.separation_check": ["envelope.separation_check"],
    "envelope.tangent_rank_check": ["envelope.tangent_rank_check"],
    "envelope.jet_surjectivity_check": ["envelope.jet_surjectivity_check"],
    "spectra.fourier_check": ["spectra.fourier_check"],
    "spectra.dauns_hofmann_check": ["spectra.dauns_hofmann_check"],
    "cli.to_jsonable": ["cli.to_jsonable"],
    "cli._emit": ["cli._emit"],
}
COUNTED = ["multiindex.mi_add", "multiindex.mi_le", "multiindex.mi_sub"]
# Calls that read the whole d x d x d structure tensor once.
CONTRACTIONS = {"algebra.StructureAlgebra.mul_coords",
                "algebra.StructureAlgebra.left_mul_matrix",
                "algebra.StructureAlgebra.right_mul_matrix"}
ALLOC_LAYERS = ["algebra", "_linalg", "jets", "envelope", "cli"]
ALLOC_FUNCTIONS = {"algebra.axiom_violations": "algebra.StructureAlgebra.axiom_violations"}


def _modules():
    return {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}


def _targets(modules):
    """(layer, qualified name, owner, attribute, function, kind) for every
    function to wrap; kind is 'function', 'static' or 'class'."""
    out = []
    for layer, mod in modules.items():
        wanted = EXTRA.get(layer, set())
        for attr, val in vars(mod).items():
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(val) and (not attr.startswith("_") or attr in wanted):
                out.append((layer, f"{layer}.{attr}", mod, attr, val, "function"))
            elif inspect.isclass(val):
                for mattr, raw in vars(val).items():
                    if mattr.startswith("_"):
                        continue
                    if isinstance(raw, staticmethod):
                        fn, kind = raw.__func__, "static"
                    elif isinstance(raw, classmethod):
                        fn, kind = raw.__func__, "class"
                    elif inspect.isfunction(raw):
                        fn, kind = raw, "function"
                    else:
                        continue
                    out.append((layer, f"{layer}.{attr}.{mattr}", val, mattr, fn, kind))
    return out


class _Patcher:
    """Replaces functions at every binding and restores them afterwards."""

    def __init__(self):
        self.undo = []

    def _set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, make_wrapper):
        modules = _modules()
        namespaces = list(modules.values()) + [sys.modules[PACKAGE]]
        namespaces += [m for n, m in sys.modules.items()
                       if n.startswith(PACKAGE + ".") and m not in namespaces]
        for layer, qual, owner, attr, fn, kind in _targets(modules):
            wrapper = make_wrapper(layer, qual, fn)
            if wrapper is None:
                continue
            if inspect.isclass(owner):
                self._set(owner, attr, {"static": staticmethod, "class": classmethod}
                          .get(kind, lambda w: w)(wrapper))
                continue
            for ns in namespaces:
                for name, val in list(vars(ns).items()):
                    if val is fn:
                        self._set(ns, name, wrapper)
                    elif isinstance(val, dict) and fn in val.values():
                        for key, item in list(val.items()):
                            if item is fn:
                                self.undo.append((val, key, fn))
                                val[key] = wrapper

    def uninstall(self):
        for owner, attr, value in reversed(self.undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self.undo = []


class SpanRecorder:
    """Spans and counts for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []
        self.inner: list[int] = []
        self.counts: dict[str, int] = {}
        self.request = -1
        self.contract_bytes = 0
        self.cache_hits = 0
        self.jet_spaces: dict[int, weakref.ref] = {}
        self._stack: list[int] = []  # indices of the open spans, shared by all wrappers
        self._patcher = _Patcher()

    def set_request(self, rid: int):
        self.request = rid

    def _hooked(self, qual, fn):
        if qual in CONTRACTIONS:
            def contract(alg, *args, **kwargs):
                self.contract_bytes += 16 * alg.structure.shape[0] ** 3
                return fn(alg, *args, **kwargs)
            return contract
        if qual == "jets.jet_space":
            # A hit returns a space returned before. Weak references keep the
            # tracer from holding spaces alive; checking the referent guards
            # against a dead space's id being reused.
            spaces = self.jet_spaces

            def jet_space(*args, **kwargs):
                out = fn(*args, **kwargs)
                ref = spaces.get(id(out))
                if ref is not None and ref() is out:
                    self.cache_hits += 1
                else:
                    spaces[id(out)] = weakref.ref(out)
                return out
            return jet_space
        return fn

    def _wrap(self, layer, qual, fn):
        if layer in COUNTED_ONLY:
            counts = self.counts
            counts[qual] = 0

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[qual] += 1
                return fn(*args, **kwargs)
            return counted

        fid = len(self.names)
        self.names.append(qual)
        self.layer_of.append(layer)
        self.inner.append(0)
        call = self._hooked(qual, fn)
        spans, inner, stack, active = self.spans, self.inner, self._stack, [False]
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if active[0]:
                inner[fid] += 1
                return call(*args, **kwargs)
            active[0] = True
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = False
            t0 = clock()
            try:
                return call(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                active[0] = False
                spans[idx] = (fid, t0, t1, parent, self.request, raised)
        return spanned

    def install(self):
        self._patcher.install(self._wrap)

    def uninstall(self):
        self._patcher.uninstall()

    # --- results -----------------------------------------------------------

    def arrays(self):
        """Columns of the closed spans; every request opens at least the
        cli.main span, so there is always one."""
        rows = [s for s in self.spans if s is not None]
        return tuple(np.array(col) for col in zip(*rows))

    def dump(self, path: str):
        fid, t0, t1, parent, req, raised = self.arrays()
        np.savez_compressed(path, name=np.array(self.names), layer=np.array(self.layer_of),
                            fid=fid, start=t0, end=t1, parent=parent,
                            request=req, raised=raised)

    def metrics(self) -> dict:
        fid, t0, t1, parent, req, raised = self.arrays()
        n = len(self.names)
        dur = t1 - t0
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - covered
        fn_self = np.bincount(fid, weights=self_s, minlength=n)
        fn_calls = np.bincount(fid, minlength=n) + np.array(self.inner, dtype=int)
        layer_idx = np.array([LAYERS.index(l) for l in self.layer_of])
        span_layer = layer_idx[fid]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        leaving = raised & (parent_layer != span_layer)

        out = {}
        by_name = {q: i for i, q in enumerate(self.names)}
        for li, layer in enumerate(LAYERS):
            prefix = METRIC_PREFIX[layer]
            if layer in COUNTED_ONLY:
                out[f"{prefix}.calls"] = sum(v for k, v in self.counts.items()
                                             if k.startswith(layer + "."))
                continue
            mine = layer_idx == li
            out[f"{prefix}.calls"] = int(fn_calls[mine].sum())
            out[f"{prefix}.self_s"] = float(fn_self[mine].sum())
            out[f"{prefix}.errors"] = int((leaving & (span_layer == li)).sum())
        for metric, quals in BOUNDARIES.items():
            ids = [by_name[q] for q in quals]
            out[f"{metric}.calls"] = int(fn_calls[ids].sum())
            out[f"{metric}.self_s"] = float(fn_self[ids].sum())
        for qual in COUNTED:
            out[f"{qual}.calls"] = self.counts.get(qual, 0)
        jet_calls = out["jets.jet_space.calls"]
        out["algebra.contract.bytes"] = self.contract_bytes
        out["jets.cache_hit_ratio"] = self.cache_hits / jet_calls if jet_calls else 0.0
        # spaces still alive once the pass is over are those a cache keeps
        gc.collect()
        out["jets.cache_entries"] = sum(ref() is not None for ref in self.jet_spaces.values())
        return out


class AllocRecorder:
    """Peak traced allocation per layer entry, in a pass of its own."""

    def __init__(self):
        self.peak = {f"{METRIC_PREFIX[layer]}.peak_alloc_mib": 0 for layer in ALLOC_LAYERS}
        self.peak.update({f"{m}.peak_alloc_mib": 0 for m in ALLOC_FUNCTIONS})
        self.frames: list[list[int]] = []
        self.depth: dict[str, int] = {}
        self._patcher = _Patcher()

    def _enter(self):
        cur, pk = tracemalloc.get_traced_memory()
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], pk)
        self.frames.append([cur, cur])
        tracemalloc.reset_peak()

    def _exit(self, key):
        _, pk = tracemalloc.get_traced_memory()
        entry, peak = self.frames.pop()
        peak = max(peak, pk)
        self.peak[key] = max(self.peak[key], peak - entry)
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], peak)
        tracemalloc.reset_peak()

    def _wrap(self, layer, qual, fn):
        keys = []
        if layer in ALLOC_LAYERS:
            keys.append((layer, f"{METRIC_PREFIX[layer]}.peak_alloc_mib"))
        keys += [(m, f"{m}.peak_alloc_mib") for m, q in ALLOC_FUNCTIONS.items() if q == qual]
        if not keys:
            return None
        depth = self.depth

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            entered = [key for scope, key in keys if not depth.get(scope)]
            for scope, _ in keys:
                depth[scope] = depth.get(scope, 0) + 1
            for _ in entered:
                self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                for key in reversed(entered):
                    self._exit(key)
                for scope, _ in keys:
                    depth[scope] -= 1
        return measured

    def install(self):
        self._patcher.install(self._wrap)
        tracemalloc.start()

    def uninstall(self):
        tracemalloc.stop()
        self._patcher.uninstall()

    def metrics(self) -> dict:
        return {k: v / 2 ** 20 for k, v in self.peak.items()}
