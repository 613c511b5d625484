"""Outside-in tracing of toricfano's layers for the traced benchmark run.

``Tracer.install`` wraps each layer's public functions from outside the
package.  Every module attribute bound to one of them is rebound to the
wrapper, including the copies made by ``from .fan import walls`` in
``intersect``, ``mori``, ``classify`` and ``cli``; rebinding only the
defining module would miss those calls.  Each call records one span (name,
start, end, parent span) in flat arrays, which ``summary`` reduces to call
counts, per-function and per-layer self times, and the state of every
``lru_cache``.  A span's self time is its duration minus the durations of
its direct children; calls are nested and sequential, so the children never
overlap.  Nothing under ``src/`` is edited.
"""

import functools
import statistics
import sys
import time
from array import array

# module -> public functions traced in it; a name the module no longer
# defines is skipped and reads as zero calls
TRACED = {
    "toricfano.kernel": ("det", "solve"),
    "toricfano.lattice": (
        "primitivize",
        "quotient_matrix",
        "quotient_project",
        "matrix_inverse_unimodular",
    ),
    "toricfano._simplex": ("in_nonneg_span",),
    "toricfano.fan": (
        "validate",
        "is_smooth",
        "is_complete",
        "walls",
        "star_subdivide",
        "contract_codim2",
        "fans_isomorphic",
    ),
    "toricfano.intersect": ("is_fano", "is_ample", "is_nef", "positivity"),
    "toricfano.mori": ("is_extremal", "is_mori_extremal", "contraction_info"),
    "toricfano.classify": (
        "theorem1_check",
        "classify_fano_with_divisor",
        "analyze_divisor",
        "divisor_star_fan",
        "find_transverse_extremal",
        "simplify_pair",
        "catalog",
        "random_corpus",
    ),
    "toricfano.cli": ("run", "parse_fan"),
}

# functions whose non-None results are counted (an isomorphism witness found)
COUNT_FOUND = ("fan.fans_isomorphic",)

# functions whose per-call durations are summarised as percentiles
PERCENTILES = ("classify.theorem1_check",)


def layer_of(module_name):
    """'toricfano._simplex' -> 'simplex'."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def package_modules():
    """Every imported toricfano module, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "toricfano" or name.startswith("toricfano."))
    ]


def find_caches():
    """Name -> ``lru_cache`` function, for every toricfano module; call it
    before ``Tracer.install`` to get the originals."""
    caches = {}
    for module in package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)) and callable(
                getattr(value, "cache_clear", None)
            ):
                caches[f"{layer_of(value.__module__)}.{value.__name__}"] = value
    return dict(sorted(caches.items()))


class Tracer:
    """Span recorder for one process; create it after importing the package."""

    def __init__(self):
        self.names = []  # span name index -> "layer.function"
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.found = {}
        self.caches = find_caches()

    def install(self):
        """Rebind every traced function, in every module that binds it."""
        wrappers = {}
        for module_name, functions in TRACED.items():
            module = sys.modules.get(module_name)
            for fname in functions:
                original = getattr(module, fname, None) if module else None
                if original is not None:
                    label = f"{layer_of(module_name)}.{fname}"
                    wrappers[id(original)] = self._wrap(original, label)
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    setattr(module, attr, wrappers[id(value)])

    def clear_caches(self):
        for original in self.caches.values():
            original.cache_clear()

    def _wrap(self, fn, label):
        name_id = len(self.names)
        self.names.append(label)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        count_found = label in COUNT_FOUND
        if count_found:
            self.found[label] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count_found and result is not None:
                self.found[label] += 1
            return result

        if hasattr(fn, "cache_info"):
            # functools.wraps does not copy these; without them clearing or
            # inspecting the cache through the rebound name would fail
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def summary(self):
        """Reduce the spans to counts, self times, percentiles and caches."""
        count = len(self.span_name)
        covered = array("d", bytes(8 * count))
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        durations = {label: [] for label in PERCENTILES}
        for i in range(count):
            label = self.names[self.span_name[i]]
            duration = self.span_end[i] - self.span_start[i]
            calls[label] += 1
            self_s[label] += duration - covered[i]
            if label in durations:
                durations[label].append(duration)
        layers = {}
        for label, seconds in self_s.items():
            layer = label.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        percentiles = {}
        for label, values in durations.items():
            cuts = statistics.quantiles(values, n=10) if len(values) > 1 else values * 9
            percentiles[label] = {
                "p50_ms": 1000 * statistics.median(values) if values else 0.0,
                "p90_ms": 1000 * cuts[8] if values else 0.0,
            }
        caches = {}
        for key, original in self.caches.items():
            info = original.cache_info()
            caches[key] = {
                "hits": info.hits,
                "misses": info.misses,
                "entries": info.currsize,
            }
        return {
            "spans": count,
            "calls": calls,
            "self_s": self_s,
            "layer_self_s": layers,
            "found": self.found,
            "percentiles": percentiles,
            "caches": caches,
        }
