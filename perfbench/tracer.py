"""Outside-in layer tracer for one benchmark pass.

The tracer wraps the public callables of each layer module of the library
(module-level functions, and class methods including ``__init__`` and the
arithmetic and comparison dunders), and rebinds every module namespace that
imported one of them by name.  Nothing inside the library changes; the
wrappers are installed from here and removed again by :meth:`uninstall`.

Every wrapped call is counted.  A span (function, start, end, parent span) is
recorded only when the caller belongs to another layer, so a layer's self
time is the time its spans cover minus the time their child spans cover.
Spans are kept in memory and written out by :meth:`write_spans`.

Properties (trivial attribute accessors) are not wrapped.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
from array import array
from fractions import Fraction
from time import perf_counter_ns

LAYERS = ("scalars", "polyring", "weylalg", "orthopoly", "so_pair",
          "diag_pair", "properties", "cli_report", "report")
ROOT_LAYER = "bench"

DUNDERS = frozenset((
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
    "__matmul__", "__eq__", "__hash__"))

SO_CHECKS = ("singular_family_check", "verify_sl2", "casimir_check",
             "pq_membership_check", "t_model_check", "verify_nonclosure")
DIAG_CHECKS = ("annihilation_check", "t_annihilation_check", "verify_lowering",
               "commutation_check", "model_transport_check",
               "recursion_crosscheck", "top_coefficient_check")
PROPERTY_SUITES = ("field_axioms", "associativity", "apply_compose",
                   "jacobi_identity", "normal_order_confluence")

# Functions whose inclusive time is measured on every outermost call, also
# when the caller is in the same layer (no span is recorded then).
TIMED = frozenset(
    ["weylalg.DiffOp.compose", "weylalg.DiffOp.apply_rat", "report.render_json"]
    + [f"so_pair.{c}" for c in SO_CHECKS]
    + [f"diag_pair.{c}" for c in DIAG_CHECKS]
    + [f"properties.{s}" for s in PROPERTY_SUITES])

DISTINCT = ("polyring.curated_factors", "so_pair.singular_vector_F",
            "so_pair.ladder_ops", "diag_pair.jacobi_t_polynomial")


def _freeze(v):
    """A hashable value key for an argument, built from plain attributes so
    that no wrapped method (``__hash__``, ``__eq__``) runs."""
    if v is None or isinstance(v, (bool, int, str, Fraction)):
        return v
    if isinstance(v, (tuple, list)):
        return tuple(_freeze(x) for x in v)
    if isinstance(v, dict):
        return frozenset((_freeze(k), _freeze(x)) for k, x in v.items())
    if dataclasses.is_dataclass(v):
        return (type(v).__name__,) + tuple(
            _freeze(getattr(v, f.name)) for f in dataclasses.fields(v))
    slots = getattr(type(v), "__slots__", ())
    if slots:
        return (type(v).__name__,) + tuple(_freeze(getattr(v, s)) for s in slots)
    raise TypeError(f"no value key for {type(v).__name__}")


class Tracer:
    """Counts and layer-boundary spans for the modules of one package."""

    def __init__(self, package: str):
        self.modules = {layer: importlib.import_module(f"{package}.{layer}")
                        for layer in LAYERS}
        self.layer_names = (ROOT_LAYER,) + LAYERS
        self.keys: list[str] = []        # function id -> "layer.qualname"
        self.fn_layer: list[int] = []    # function id -> layer id
        self.calls: list[list[int]] = []  # function id -> [count]
        self.timed: dict[str, list[int]] = {}  # key -> [ns, depth]
        self.peak = {"scalars": 0, "polyring": 0}
        self.pairs = {"scalars": 0, "polyring": 0, "weylalg": 0}
        self.hits = {"scalars": 0, "polyring": 0}
        self.distinct: dict[str, set] = {k: set() for k in DISTINCT}
        # spans: function id, parent span (-1 for none), start and end in ns
        self.s_fn = array("i")
        self.s_parent = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self._state = [0, -1]  # current layer id, current span
        self._saved: dict[tuple[object, str], object] = {}

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, descriptor, function, key) for every public
        callable defined in a layer module."""
        for li, layer in enumerate(LAYERS, start=1):
            mod = self.modules[layer]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    yield li, mod, name, obj, obj, f"{layer}.{name}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, desc in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in DUNDERS:
                            continue
                        fn = desc.__func__ if isinstance(desc, staticmethod) else desc
                        if inspect.isfunction(fn):
                            yield li, obj, attr, desc, fn, f"{layer}.{obj.__name__}.{attr}"

    def install(self):
        replaced = {}  # id(original module function) -> (original, wrapper)
        for li, owner, attr, desc, fn, key in self._targets():
            wrapper = self._wrap(fn, key, li)
            new = staticmethod(wrapper) if isinstance(desc, staticmethod) else wrapper
            self._set(owner, attr, desc, new)
            if inspect.ismodule(owner):
                replaced[id(fn)] = (fn, wrapper)

        # Looked up by id: hashing a module global could run a wrapped __hash__.
        def swap(x):
            hit = replaced.get(id(x))
            return hit[1] if hit is not None and hit[0] is x else x

        # rebind functions imported by name, including tuples of them
        for ns in self.modules.values():
            for name, obj in list(vars(ns).items()):
                if isinstance(obj, tuple):
                    new = tuple(map(swap, obj))
                    if any(a is not b for a, b in zip(obj, new)):
                        self._set(ns, name, obj, new)
                elif swap(obj) is not obj:
                    self._set(ns, name, obj, swap(obj))

    def _set(self, owner, attr, old, new):
        self._saved.setdefault((owner, attr), old)
        setattr(owner, attr, new)

    def uninstall(self):
        """Restore every original callable, and check that it is back."""
        for (owner, attr), old in self._saved.items():
            setattr(owner, attr, old)
        for (owner, attr), old in self._saved.items():
            if vars(owner)[attr] is not old:
                raise RuntimeError(f"{attr} was not restored")
        self._saved.clear()

    def _wrap(self, fn, key, layer):
        fid = len(self.keys)
        self.keys.append(key)
        self.fn_layer.append(layer)
        cell = [0]
        self.calls.append(cell)
        state = self._state
        s_fn, s_parent = self.s_fn, self.s_parent
        s_start, s_end = self.s_start, self.s_end
        clock = perf_counter_ns
        hook = self._hook(key)
        timed = self.timed.setdefault(key, [0, 0]) if key in TIMED else None

        def call(args, kwargs):
            caller, parent = state
            if caller == layer:
                return fn(*args, **kwargs)
            sid = len(s_fn)
            s_fn.append(fid)
            s_parent.append(parent)
            s_end.append(0)
            state[0] = layer
            state[1] = sid
            s_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                s_end[sid] = clock()
                state[0] = caller
                state[1] = parent

        if hook is None and timed is None:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return call(args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                if timed is None or timed[1]:
                    result = call(args, kwargs)
                else:
                    timed[1] = 1
                    t0 = clock()
                    try:
                        result = call(args, kwargs)
                    finally:
                        timed[0] += clock() - t0
                        timed[1] = 0
                if hook is not None:
                    hook(args, result)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _hook(self, key):
        """Argument and result bookkeeping for the per-layer metrics."""
        peak, pairs, hits = self.peak, self.pairs, self.hits
        layer = key.split(".", 1)[0]
        if key in ("scalars.ParamPoly.__init__", "polyring.GeoPoly.__init__"):
            def hook(args, _):
                n = len(args[0].terms)
                if n > peak[layer]:
                    peak[layer] = n
        elif key in ("scalars.ParamPoly.__mul__", "polyring.GeoPoly.__mul__",
                     "weylalg.DiffOp.compose"):
            def hook(args, _):
                pairs[layer] += len(args[0].terms) * len(args[1].terms)
        elif key in ("scalars.ParamPoly.exact_divide", "polyring.GeoPoly.exact_divide"):
            def hook(_, result):
                if result is not None:
                    hits[layer] += 1
        elif key in DISTINCT:
            seen = self.distinct[key]

            def hook(args, _):
                seen.add(_freeze(args))
        else:
            hook = None
        return hook

    # -- results --------------------------------------------------------------

    def count(self, key: str) -> int:
        return self.calls[self.keys.index(key)][0]

    def layer_times(self):
        """(self seconds, inclusive seconds) per layer name.  Inclusive time
        counts only spans with no enclosing span of the same layer."""
        n = len(self.s_fn)
        layer_of = [self.fn_layer[f] for f in self.s_fn]
        child = [0] * n
        mask = [0] * n
        self_ns = [0] * len(self.layer_names)
        incl_ns = [0] * len(self.layer_names)
        for i in range(n):
            dur = self.s_end[i] - self.s_start[i]
            p = self.s_parent[i]
            bit = 1 << layer_of[i]
            if p >= 0:
                child[p] += dur
                mask[i] = mask[p] | (1 << layer_of[p])
            if not mask[i] & bit:
                incl_ns[layer_of[i]] += dur
        for i in range(n):
            self_ns[layer_of[i]] += self.s_end[i] - self.s_start[i] - child[i]
        return ({name: self_ns[i] / 1e9 for i, name in enumerate(self.layer_names)},
                {name: incl_ns[i] / 1e9 for i, name in enumerate(self.layer_names)})

    def metrics(self) -> dict:
        """The per-layer metrics, by name, as (value, unit)."""
        self_s, incl_s = self.layer_times()
        count = self.count

        def ratio(hits, calls):
            return hits / calls if calls else 0.0

        def timed_s(key):
            return self.timed[key][0] / 1e9

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_s[layer], "s")
        trial = count("scalars.ParamPoly.exact_divide")
        geo_div = count("polyring.GeoPoly.exact_divide")
        m.update({
            "scalars.construct": (count("scalars.ParamScalar.__init__"), "count"),
            "scalars.trial_div": (trial, "count"),
            "scalars.trial_div_hits": (self.hits["scalars"], "count"),
            "scalars.trial_div_hit_ratio": (ratio(self.hits["scalars"], trial), "ratio"),
            "scalars.mul_term_pairs": (self.pairs["scalars"], "count"),
            "scalars.peak_terms": (self.peak["scalars"], "count"),
            "polyring.ratcoeff_new": (count("polyring.RatCoeff.__init__"), "count"),
            "polyring.geo_mul": (count("polyring.GeoPoly.__mul__"), "count"),
            "polyring.geo_mul_term_pairs": (self.pairs["polyring"], "count"),
            "polyring.curated_factors": (count("polyring.curated_factors"), "count"),
            "polyring.curated_factors_distinct":
                (len(self.distinct["polyring.curated_factors"]), "count"),
            "polyring.geo_exact_divide": (geo_div, "count"),
            "polyring.geo_exact_divide_hits": (self.hits["polyring"], "count"),
            "polyring.geo_exact_divide_hit_ratio":
                (ratio(self.hits["polyring"], geo_div), "ratio"),
            "polyring.peak_terms": (self.peak["polyring"], "count"),
            "weylalg.compose": (count("weylalg.DiffOp.compose"), "count"),
            "weylalg.compose_term_pairs": (self.pairs["weylalg"], "count"),
            "weylalg.compose_s": (timed_s("weylalg.DiffOp.compose"), "s"),
            "weylalg.apply": (count("weylalg.DiffOp.apply_rat"), "count"),
            "weylalg.apply_s": (timed_s("weylalg.DiffOp.apply_rat"), "s"),
            "orthopoly.calls": (sum(c[0] for k, c in zip(self.keys, self.calls)
                                    if k.startswith("orthopoly.")), "count"),
            "orthopoly.incl_s": (incl_s["orthopoly"], "s"),
            "report.render_json_s": (timed_s("report.render_json"), "s"),
        })
        for key in ("so_pair.singular_vector_F", "so_pair.ladder_ops",
                    "diag_pair.jacobi_t_polynomial"):
            m[f"{key}.calls"] = (count(key), "count")
            m[f"{key}.distinct"] = (len(self.distinct[key]), "count")
        for key in sorted(TIMED):
            layer, name = key.split(".", 1)
            if layer in ("so_pair", "diag_pair", "properties"):
                m[f"{layer}.{name}_s"] = (timed_s(key), "s")
        return m

    def counts(self) -> dict:
        """Every call count by function, for repeatability checks."""
        return {k: c[0] for k, c in zip(self.keys, self.calls)}

    def write_spans(self, path):
        """Write the recorded spans: one JSON header line naming the layers,
        the functions and the layout, then the four span arrays in native
        byte order, one after the other."""
        with open(path, "wb") as fh:
            header = {"layers": self.layer_names, "functions": self.keys,
                      "function_layer": self.fn_layer, "spans": len(self.s_fn),
                      "arrays": [["function", self.s_fn.typecode],
                                 ["parent", self.s_parent.typecode],
                                 ["start_ns", self.s_start.typecode],
                                 ["end_ns", self.s_end.typecode]]}
            fh.write(json.dumps(header).encode() + b"\n")
            for a in (self.s_fn, self.s_parent, self.s_start, self.s_end):
                a.tofile(fh)
