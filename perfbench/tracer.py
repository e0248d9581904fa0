"""Span tracing of the laxtop layers, installed from outside the package.

A traced function is wrapped and the wrapper replaces every module-level
binding of it inside the package: ``from .finspace import cmap`` gives
``laxcomma.cmap``, ``harness.cmap`` and so on their own names, and each one
must be swapped.  The harness suite table is swapped too.  Spans (name,
start, end, parent, request id) are kept in flat arrays and written out
when the run ends; calls, busy time, self time and escaped errors are
accumulated as spans close, so the report needs no second pass.
"""

from __future__ import annotations

import sys
import time
from array import array

LAYERS = (
    "finspace",
    "order",
    "laxcomma",
    "famx",
    "descent",
    "vietoris",
    "enumeration",
    "harness",
    "serialization",
    "cli",
)

# span name -> (module, functions of that module recorded under the name)
SPANS = {
    "finspace.enumerate_cmaps": ("finspace", ("enumerate_cmaps",)),
    "finspace.cmap": ("finspace", ("cmap",)),
    "finspace.product_space": ("finspace", ("product_space",)),
    "finspace.sober_report": ("finspace", ("sober_report",)),
    "order.lattice_report": ("order", ("lattice_report",)),
    "order.heyting_report": ("order", ("heyting_report",)),
    "order.distributivity_report": ("order", ("distributivity_report",)),
    "laxcomma.exponentiability_report": ("laxcomma", ("exponentiability_report",)),
    "laxcomma.lax_hom": ("laxcomma", ("lax_hom",)),
    "famx.fam_descent_check": ("famx", ("fam_descent_check",)),
    "famx.fam_effective_descent_check": ("famx", ("fam_effective_descent_check",)),
    "descent.top_effective_descent_check": ("descent", ("top_effective_descent_check",)),
    "descent.laxcomma_effective_descent": ("descent", ("laxcomma_effective_descent",)),
    "descent.pair_lifts": ("descent", ("_pair_lifts",)),
    "vietoris.vietoris_algebra_check": ("vietoris", ("vietoris_algebra_check",)),
    "vietoris.vietoris_space": ("vietoris", ("vietoris_space",)),
    "enumeration.enumerate_labeled_posets": ("enumeration", ("enumerate_labeled_posets",)),
    "enumeration.canonical_form": ("enumeration", ("canonical_form",)),
    "harness.paper_check": ("harness", ("paper_check",)),
    "serialization.load": (
        "serialization",
        (
            "load_json",
            "space_from_dict",
            "map_from_dict",
            "lax_object_from_dict",
            "lax_morphism_from_dict",
            "fam_morphism_from_dict",
            "parallel_pair_from_dict",
            "cone_from_dict",
        ),
    ),
    "serialization.dump": (
        "serialization",
        ("to_json", "space_to_dict", "map_to_dict", "lax_object_to_dict"),
    ),
    "cli.run_command": ("cli", ("run_command",)),
}
SUITE_SPAN = "harness.suite"  # every entry of harness.SUITES

# cache name -> (module, lru_cache-wrapped function)
CACHES = {
    "finspace.monotone_tables": ("finspace", "_monotone_tables"),
    "finspace.down_sets": ("finspace", "_down_sets"),
    "order.lattice_report": ("order", "lattice_report"),
    "order.heyting_report": ("order", "heyting_report"),
    "order.lattice_ops": ("order", "lattice_ops"),
    "descent.all_w_ok": ("descent", "_all_w_ok"),
    "descent.join_cached": ("descent", "_join_cached"),
}

# the per-layer metrics of a traced run, in report order
CALLS = (
    "finspace.enumerate_cmaps",
    "finspace.cmap",
    "order.lattice_report",
    "laxcomma.lax_hom",
    "famx.fam_descent_check",
    "descent.top_effective_descent_check",
    "vietoris.vietoris_algebra_check",
    "enumeration.canonical_form",
)
BUSY = (
    "finspace.enumerate_cmaps",
    "finspace.cmap",
    "finspace.product_space",
    "finspace.sober_report",
    "order.lattice_report",
    "order.heyting_report",
    "order.distributivity_report",
    "laxcomma.exponentiability_report",
    "laxcomma.lax_hom",
    "famx.fam_descent_check",
    "famx.fam_effective_descent_check",
    "descent.top_effective_descent_check",
    "descent.laxcomma_effective_descent",
    "vietoris.vietoris_algebra_check",
    "vietoris.vietoris_space",
    "enumeration.enumerate_labeled_posets",
    "enumeration.canonical_form",
    "serialization.load",
    "serialization.dump",
    "cli.run_command",
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    out = []
    for layer in LAYERS:
        out += [(f"{n}.calls", "count") for n in CALLS if n.startswith(layer + ".")]
        out += [(f"{n}.busy_s", "s") for n in BUSY if n.startswith(layer + ".")]
        for cache in CACHES:
            if cache.startswith(layer + "."):
                out += [(f"{cache}.hit_ratio", "ratio"), (f"{cache}.lookups", "count")]
        if layer == "vietoris":
            out.append(("vietoris.meets_missing_share", "ratio"))
        if layer == "harness":
            out.append(("harness.cases", "count"))
        out += [(f"{layer}.self_s", "s"), (f"{layer}.raised", "count")]
    out += [
        ("bench.self_s", "s"),
        ("bench.timed_s", "s"),
        ("bench.spans", "count"),
        ("bench.traced_ops_per_s", "1/s"),
    ]
    return out


class Tracer:
    """Records spans around traced laxtop functions while installed."""

    def __init__(self):
        from laxtop.errors import LaxtopError, MeetsMissing

        self._laxtop_error = LaxtopError
        self._meets_missing = MeetsMissing
        self.names = list(SPANS) + [SUITE_SPAN]
        self.module_of = [n.split(".", 1)[0] for n in self.names]
        n = len(self.names)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.depth = [0] * n
        self.raised = {layer: 0 for layer in LAYERS}
        self.meets_missing_s = 0.0
        self.cases = 0
        self.request = 0
        self.stack = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._swapped = []  # (namespace, key, original)
        self._cache_fns = {}
        self._cache_start = {}
        self._cache_end = {}

    # -- installation ------------------------------------------------------

    def install(self):
        import laxtop  # noqa: F401  (loads every submodule)
        from laxtop import harness

        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "laxtop" or name.startswith("laxtop."))
        ]
        for cache, (mod, fn) in CACHES.items():
            self._cache_fns[cache] = getattr(sys.modules[f"laxtop.{mod}"], fn)
        for nid, name in enumerate(self.names[:-1]):
            mod, fns = SPANS[name]
            home = sys.modules[f"laxtop.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, nid, None)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._swap(vars(m), key, wrapper)
        suite_id = len(self.names) - 1
        for key, fn in list(harness.SUITES.items()):
            self._swap(harness.SUITES, key, self._wrap(fn, suite_id, self._count_cases))
        self._cache_start = {c: self._cache_counts(c) for c in CACHES}

    def uninstall(self):
        self._cache_end = {c: self._cache_counts(c) for c in CACHES}
        for namespace, key, original in reversed(self._swapped):
            namespace[key] = original
        self._swapped.clear()

    def _swap(self, namespace, key, wrapper):
        self._swapped.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def _cache_counts(self, cache):
        info = self._cache_fns[cache].cache_info()
        return info.hits, info.misses

    def _count_cases(self, result):
        self.cases += result.passed + result.failed

    def _wrap(self, fn, nid, hook):
        tracer = self
        clock = time.process_time  # the clock of the timed phase

        def traced(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_request.append(tracer.request)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            tracer.depth[nid] += 1
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, start, clock(), exc)
                raise
            tracer._close(frame, start, clock(), None)
            if hook is not None:
                hook(result)
            return result

        return traced

    def _close(self, frame, start, end, exc):
        self.stack.pop()
        idx, nid, child_time = frame
        duration = end - start
        self.span_end[idx] = end
        self.calls[nid] += 1
        self.depth[nid] -= 1
        if self.depth[nid] == 0:
            self.busy[nid] += duration
        self.self_time[nid] += duration - child_time
        parent_module = None
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent_module = self.module_of[parent[1]]
        if exc is not None and isinstance(exc, self._laxtop_error):
            module = self.module_of[nid]
            if parent_module != module:  # the error leaves the layer here
                self.raised[module] += 1
            if self.names[nid] == "vietoris.vietoris_algebra_check" and isinstance(
                exc, self._meets_missing
            ):
                self.meets_missing_s += duration

    # -- results -----------------------------------------------------------

    def metrics(self, timed_s, ops):
        """Per-layer metrics of the traced timed phase, by name."""
        ids = {name: nid for nid, name in enumerate(self.names)}
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = self.calls[ids[name]]
        for name in BUSY:
            out[f"{name}.busy_s"] = self.busy[ids[name]]
        for cache in CACHES:
            h0, m0 = self._cache_start[cache]
            h1, m1 = self._cache_end[cache]
            hits, lookups = h1 - h0, (h1 - h0) + (m1 - m0)
            out[f"{cache}.hit_ratio"] = hits / lookups if lookups else 0.0
            out[f"{cache}.lookups"] = lookups
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid, module in enumerate(self.module_of):
            layer_self[module] += self.self_time[nid]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.raised"] = self.raised[layer]
        algebra = self.busy[ids["vietoris.vietoris_algebra_check"]]
        out["vietoris.meets_missing_share"] = (
            self.meets_missing_s / algebra if algebra else 0.0
        )
        out["harness.cases"] = self.cases
        # the benchmark's own time is what the outermost spans leave over;
        # it comes from the span arrays, the self times from _close
        out["bench.self_s"] = timed_s - self.root_time()
        out["bench.timed_s"] = timed_s
        out["bench.spans"] = len(self.span_start)
        out["bench.traced_ops_per_s"] = ops / timed_s
        return out

    def root_time(self):
        """Summed duration of the spans that have no traced parent."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] == -1
        )

    def write_spans(self, path):
        """Write every span as one tab-separated line, times relative to the first."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trequest\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - origin:.9f}\t{self.span_end[i] - origin:.9f}\t"
                    f"{self.span_parent[i]}\t{self.span_request[i]}\n"
                )
