"""Per-layer tracing of nccwk, installed from outside the program.

Two instruments, used in separate passes so that neither distorts the other:

* SpanTracer rebinds every public function of every layer (and the public
  methods of the classes each layer defines) in each nccwk module that
  binds it, so calls made inside the program pass through a wrapper too.
  A call that crosses into another layer opens a span (name, layer, start,
  end, parent, operation).  Module imports are spans as well, through a
  meta-path hook, so a traced pass that starts with a fresh import shows
  what each layer costs at start-up.  Self time is a span's duration minus
  the durations of its child spans, accumulated online.
* CallCounter is a sys.setprofile hook counting Python and builtin calls
  made from nccwk code, attributed to the layer of the calling module.
  Frames of the benchmark are never nccwk frames, so they are not counted.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import os
import sys
import time
import types
from array import array

LAYERS = ("intmat", "groups", "nccw", "homind", "order", "coeff",
          "inputfmt", "search", "scenarios", "cli")

# module -> layer; package __init__ modules only re-export and get no layer
MODULE_LAYER = {
    "nccwk.fgab.intmat": "intmat",
    "nccwk.fgab.groups": "groups",
    "nccwk.nccw": "nccw",
    "nccwk.homind": "homind",
    "nccwk.order": "order",
    "nccwk.coeff": "coeff",
    "nccwk.harness.inputfmt": "inputfmt",
    "nccwk.harness.search": "search",
    "nccwk.harness.scenarios": "scenarios",
    "nccwk.harness.report": "scenarios",
    "nccwk.harness.cli": "cli",
    "nccwk.__main__": "cli",
}

SPAN_CAP = 100_000  # spans kept for the trace file; self times use all of them


class CallCounter:
    """sys.setprofile hook: calls made from each layer's code."""

    def __init__(self, src_dir: str):
        self.src_dir = os.path.join(os.path.realpath(src_dir), "")
        self.counts = [0] * len(LAYERS)
        self._layer_of_code = {}

    def _layer_index(self, code) -> int:
        path = os.path.realpath(code.co_filename)
        if not path.startswith(self.src_dir):
            return -1
        rel = os.path.splitext(path[len(self.src_dir):])[0]
        layer = MODULE_LAYER.get(rel.replace(os.sep, "."))
        return LAYERS.index(layer) if layer else -1

    def __enter__(self):
        counts = self.counts
        cache = self._layer_of_code
        index = self._layer_index

        def hook(frame, event, arg):
            if event == "call":
                frame = frame.f_back
                if frame is None:
                    return
            elif event != "c_call":
                return
            code = frame.f_code
            i = cache.get(code)
            if i is None:
                i = cache[code] = index(code)
            if i >= 0:
                counts[i] += 1

        sys.setprofile(hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False

    def by_layer(self) -> dict:
        return dict(zip(LAYERS, self.counts))


class SpanTracer:
    """Spans at layer boundaries plus the layer-specific counters."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        # stored spans (up to SPAN_CAP): name index, layer index, start, end, parent, op
        self.s_name = array("i")
        self.s_layer = array("b")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.total_spans = 0
        self.op = -1
        self._stack = []  # [layer index, start, child time, stored index]
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counters = {
            "intmat.smith_requested": 0, "intmat.smith_computed": 0,
            "intmat.max_entry_bits": 0, "intmat.solve_calls": 0,
            "groups.purity_checks": 0, "groups.purity_system_cols": 0,
            "groups.exactness_checks": 0,
            "nccw.supports_tried": 0, "nccw.supports_valid": 0,
            "search.candidates": 0, "search.odd_found": 0,
            "homind.push_steps": 0, "order.cone_checks": 0,
            "inputfmt.bytes_parsed": 0, "scenarios.claims_checked": 0,
        }
        self.timers = {"search.reverify": 0.0, "homind.identify": 0.0}
        self._wrapped = {}
        self._finder = None

    # -- spans ---------------------------------------------------------------

    def current_layer(self) -> int:
        return self._stack[-1][0] if self._stack else -1

    def enter(self, name: str, layer: int) -> None:
        """Open a span; layer -1 marks the benchmark's own root spans."""
        stored = -1
        if self.total_spans < SPAN_CAP:
            i = self._name_index.get(name)
            if i is None:
                i = self._name_index[name] = len(self.names)
                self.names.append(name)
            stored = len(self.s_name)
            parent = self._stack[-1][3] if self._stack else -1
            self.s_name.append(i)
            self.s_layer.append(layer)
            self.s_start.append(0.0)
            self.s_end.append(0.0)
            self.s_parent.append(parent)
            self.s_op.append(self.op)
        self.total_spans += 1
        t = time.perf_counter()
        if stored >= 0:
            self.s_start[stored] = t
        self._stack.append([layer, t, 0.0, stored])

    def leave(self) -> None:
        t = time.perf_counter()
        layer, start, child, stored = self._stack.pop()
        dur = t - start
        if stored >= 0:
            self.s_end[stored] = t
        if layer >= 0:
            self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    # -- imports -------------------------------------------------------------

    def install_import_spans(self) -> None:
        tracer = self

        class Finder:
            @staticmethod
            def find_spec(name, path=None, target=None):
                layer = MODULE_LAYER.get(name)
                if layer is None:
                    return None
                spec = importlib.machinery.PathFinder.find_spec(name, path, target)
                if spec is None or spec.loader is None:
                    return spec
                run = spec.loader.exec_module

                def exec_module(module):
                    tracer.enter("import " + name, LAYERS.index(layer))
                    try:
                        run(module)
                    finally:
                        tracer.leave()

                spec.loader.exec_module = exec_module
                return spec

        self._finder = Finder
        sys.meta_path.insert(0, Finder)

    def remove_import_spans(self) -> None:
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)

    # -- wrappers ------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Rebind public functions and methods in the freshly imported modules."""
        for modname, layer in MODULE_LAYER.items():
            mod = modules.get(modname)
            if mod is None:
                continue
            li = LAYERS.index(layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == modname:
                    self._wrap_class(obj, li)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                owner = MODULE_LAYER.get(getattr(obj, "__module__", None))
                if (owner is not None and not attr.startswith("_") and
                        isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))):
                    setattr(mod, attr, self._wrapper(obj, obj.__name__, LAYERS.index(owner)))

    def _wrap_class(self, cls, layer: int) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(
                    self._wrapper(raw.__func__, f"{cls.__name__}.{attr}", layer)))
            elif isinstance(raw, types.FunctionType):
                setattr(cls, attr, self._wrapper(raw, f"{cls.__name__}.{attr}", layer))

    def _wrapper(self, fn, name: str, layer: int):
        """One wrapper per function, shared by every module that binds it."""
        if fn in self._wrapped:
            return self._wrapped[fn]
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            crossing = tracer.current_layer() != layer
            if hook is not None:
                return hook(tracer, fn, crossing, name, layer, args, kwargs)
            return _call(tracer, fn, crossing, name, layer, args, kwargs)

        functools.update_wrapper(wrapper, fn)
        if isinstance(fn, functools._lru_cache_wrapper):
            wrapper.cache_clear = fn.cache_clear
            wrapper.cache_info = fn.cache_info
        self._wrapped[fn] = wrapper
        return wrapper

    # -- results -------------------------------------------------------------

    def write(self, path: str, op_names) -> None:
        spans = [[self.names[self.s_name[i]],
                  LAYERS[self.s_layer[i]] if self.s_layer[i] >= 0 else "bench",
                  self.s_start[i], self.s_end[i], self.s_parent[i], self.s_op[i]]
                 for i in range(len(self.s_name))]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op"],
                       "ops": list(op_names), "total_spans": self.total_spans,
                       "kept_spans": len(spans), "spans": spans}, fh)


def _call(tracer, fn, crossing, name, layer, args, kwargs):
    """Call fn; a call from another layer counts and opens a span."""
    if not crossing:
        return fn(*args, **kwargs)
    tracer.calls[layer] += 1
    tracer.enter(name, layer)
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.leave()


def _entry_bits(snf) -> int:
    best = 0
    for M in (snf.U, snf.D, snf.V, snf.Uinv, snf.Vinv):
        for row in M.entries:
            for x in row:
                b = x.bit_length() if x >= 0 else (-x).bit_length()
                if b > best:
                    best = b
    return best


def _smith(tracer, fn, crossing, name, layer, args, kwargs):
    c = tracer.counters
    c["intmat.smith_requested"] += 1
    misses = fn.cache_info().misses
    out = _call(tracer, fn, crossing, name, layer, args, kwargs)
    if fn.cache_info().misses != misses:
        c["intmat.smith_computed"] += 1
        c["intmat.max_entry_bits"] = max(c["intmat.max_entry_bits"], _entry_bits(out))
    return out


def _counting(key):
    def hook(tracer, fn, crossing, name, layer, args, kwargs):
        tracer.counters[key] += 1
        return _call(tracer, fn, crossing, name, layer, args, kwargs)
    return hook


def _is_pure(tracer, fn, crossing, name, layer, args, kwargs):
    s = args[0] if args else kwargs["s"]
    mid, right = s.inj.target, s.surj.target
    gG, gH = mid.generators, right.generators
    rG, rH = mid.relations.cols, right.relations.cols
    c = tracer.counters
    c["groups.purity_checks"] += 1
    c["groups.purity_system_cols"] += gG * gH + rH * gH + rG * rH
    return _call(tracer, fn, crossing, name, layer, args, kwargs)


def _make_ideal_spec(tracer, fn, crossing, name, layer, args, kwargs):
    tracer.counters["nccw.supports_tried"] += 1
    out = _call(tracer, fn, crossing, name, layer, args, kwargs)
    tracer.counters["nccw.supports_valid"] += 1
    return out


def _all_ideal_specs(tracer, fn, crossing, name, layer, args, kwargs):
    if tracer.current_layer() == LAYERS.index("search"):
        tracer.counters["search.candidates"] += 1
    return _call(tracer, fn, crossing, name, layer, args, kwargs)


def _search(tracer, fn, crossing, name, layer, args, kwargs):
    out = _call(tracer, fn, crossing, name, layer, args, kwargs)
    tracer.counters["search.odd_found"] += len(out)
    return out


def _timed(key):
    def hook(tracer, fn, crossing, name, layer, args, kwargs):
        t = time.perf_counter()
        try:
            return _call(tracer, fn, crossing, name, layer, args, kwargs)
        finally:
            tracer.timers[key] += time.perf_counter() - t
    return hook


def _push(tracer, fn, crossing, name, layer, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    stage = args[2] if len(args) > 2 else kwargs["stage"]
    tracer.counters["homind.push_steps"] += max(0, stage - x.stage)
    return _call(tracer, fn, crossing, name, layer, args, kwargs)


def _parse(tracer, fn, crossing, name, layer, args, kwargs):
    text = args[0] if args else kwargs["text"]
    tracer.counters["inputfmt.bytes_parsed"] += len(text.encode("utf-8"))
    return _call(tracer, fn, crossing, name, layer, args, kwargs)


def _run_scenario(tracer, fn, crossing, name, layer, args, kwargs):
    out = _call(tracer, fn, crossing, name, layer, args, kwargs)
    tracer.counters["scenarios.claims_checked"] += len(out.claims)
    return out


# keyed by the wrapper name: module-level function name or Class.method
_HOOKS = {
    "smith_normal_form": _smith,
    "solve": _counting("intmat.solve_calls"),
    "is_pure": _is_pure,
    "is_exact": _counting("groups.exactness_checks"),
    "make_ideal_spec": _make_ideal_spec,
    "all_ideal_specs": _all_ideal_specs,
    "search_odd_blocks": _search,
    "reverify_odd_witness": _timed("search.reverify"),
    "identify_localized_limit": _timed("homind.identify"),
    "IndSystem.push": _push,
    "ConeOracle.contains": _counting("order.cone_checks"),
    "parse": _parse,
    "run_scenario": _run_scenario,
}
