"""Span tracing of convlab's public functions, from outside the library.

``install`` replaces each traced function at every module attribute, module
level dict and search-closure cell where convlab binds it (``laws`` imports
``adherence_table`` by name, ``functors._APPLY`` holds ``topologize``, the
search predicates close over ``classify``).  The replacement records a span
and calls the original, so every ``lru_cache`` stays underneath and keeps
its statistics.  ``CarrierMap.image_mask``/``preimage_mask`` run millions of
times in a law pass; they are only counted.

Spans (name, start, end, parent) are kept in memory in flat arrays and
summarised when the pass ends: ``busy_s`` is the time inside the outermost
call of a name, self time subtracts the spans a call made.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, span name or None when the name depends on the call)
TRACED = (
    ("convlab.io", "convergence_from_doc", "io.convergence_from_doc"),
    ("convlab.spaces", "validate_table", "spaces.validate_table"),
    ("convlab.spaces", "adherence_table", "spaces.adherence_table"),
    ("convlab.spaces", "open_masks", "spaces.open_masks"),
    ("convlab.spaces", "closure_mask", "spaces.closure_mask"),
    ("convlab.functors", "reflect", "functors.reflect"),
    ("convlab.functors", "topologize", "functors.topologize"),
    ("convlab.maps", "final_convergence", "maps.final_convergence"),
    ("convlab.maps", "classify", "maps.classify"),
    ("convlab.compactness", "is_compact_at", "compactness.is_compact_at"),
    ("convlab.enumerate", "all_convergences", "enumerate.all_convergences"),
    ("convlab.enumerate", "search", None),
    ("convlab.laws", "sweep_domain", None),
    ("convlab.symbolic.fan", "fan_check", "symbolic.exemplar.fan"),
    ("convlab.symbolic.prime", "prime_check", "symbolic.exemplar.prime"),
)
COUNTED_METHODS = ("image_mask", "preimage_mask")
SPAN_FILE_MIN_S = 1e-3  # spans written to the trace file last at least this


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")   # 1 when an enclosing span has this name
        self._stack = [-1]
        self._active: dict[int, int] = {}
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn, name_of, after=None):
        """Wrap ``fn``; ``name_of(args, kwargs)`` names each span and
        ``after(args, kwargs, done)``, when given, is called with ``done``
        None before the call (its return value is kept) and with
        (kept value, result) after it."""
        clock = time.perf_counter
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = self._name_id(name_of(args, kwargs))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.nested.append(active.get(nid, 0) > 0)
            self.end.append(0.0)
            self._stack.append(idx)
            active[nid] = active.get(nid, 0) + 1
            before = after(args, kwargs, None) if after else None
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                active[nid] -= 1
                self._stack.pop()
            if after:
                after(args, kwargs, (before, result))
            return result
        return wrapper

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost calls) and self_s."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[nid],
                                 {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if not self.nested[i]:
                row["busy_s"] += dur
        return out

    def write(self, path, extra: dict) -> None:
        """Spans of at least SPAN_FILE_MIN_S (a parent always lasts longer
        than its children, so the kept spans form a closed tree), the
        per-name summary and ``extra``."""
        keep = [i for i in range(len(self.start))
                if self.end[i] - self.start[i] >= SPAN_FILE_MIN_S]
        renumber = {old: new for new, old in enumerate(keep)}
        t0 = self.start[keep[0]] if keep else 0.0
        spans = [[self.names[self.name[i]],
                  round(self.start[i] - t0, 6), round(self.end[i] - t0, 6),
                  renumber.get(self.parent[i], -1)] for i in keep]
        doc = {"span_fields": ["name", "start_s", "end_s", "parent"],
               "spans_recorded": len(self.start), "spans_written": len(keep),
               "spans": spans, "summary": self.summary(),
               "counts": self.counts, "missing": self.missing, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _sweep_name(args, kwargs):
    f = next(iter(args[0] if args else kwargs["maps"]))
    return f"laws.sweep_domain.{f.source.size}to{f.target.size}"


def _search_name(args, kwargs):
    task = args[0] if args else kwargs["task"]
    return f"enumerate.search.{task.predicate}"


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the loaded convlab modules."""
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "convlab" or name.startswith("convlab.")}
    replace: dict[int, object] = {}
    for modname, attr, span_name in TRACED:
        if modname not in mods:
            continue  # the workload never imported it
        fn = getattr(mods[modname], attr, None)
        if fn is None:
            tracer.missing.append(f"{modname}.{attr}")
            continue
        after = None
        if attr == "search":
            name_of = _search_name

            def after(args, kwargs, done, tracer=tracer):
                if done:
                    tracer.count(_search_name(args, kwargs) + ".examined",
                                 done[1].examined)
        elif attr == "sweep_domain":
            name_of = _sweep_name

            def after(args, kwargs, done, tracer=tracer):
                stats = args[3] if len(args) > 3 else kwargs["stats"]
                if done is None:
                    return stats.contexts
                tracer.count(_sweep_name(args, kwargs) + ".contexts",
                             stats.contexts - done[0])
        else:
            name_of = (lambda args, kwargs, n=span_name: n)
        replace[id(fn)] = tracer.span(fn, name_of, after)
    laws = mods.get("convlab.laws")
    for attr in dir(laws) if laws else ():
        if attr.startswith("suite_"):
            fn = getattr(laws, attr)
            replace[id(fn)] = tracer.span(
                fn, lambda a, k, n=f"laws.suite.{attr[6:]}": n)
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replace:
                setattr(mod, attr, replace[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replace:
                        value[key] = replace[id(item)]
    enum = mods.get("convlab.enumerate")
    for entry in getattr(enum, "PREDICATES", {}).values():
        for fn in (entry.candidates, entry.test, entry.serialize):
            _rebind_closure(fn, replace, set())
    cls = getattr(mods["convlab.families"], "CarrierMap", None)
    for attr in COUNTED_METHODS:
        method = getattr(cls, attr, None)
        if method is None:
            tracer.missing.append(f"convlab.families.CarrierMap.{attr}")
            continue
        setattr(cls, attr, _counted(method, tracer, f"families.{attr}.calls"))


def _counted(method, tracer, key):
    counts = tracer.counts
    counts[key] = 0

    @functools.wraps(method)
    def wrapper(self, mask):
        counts[key] += 1
        return method(self, mask)
    return wrapper


def _rebind_closure(fn, replace, seen) -> None:
    if id(fn) in seen or not callable(fn):
        return
    seen.add(id(fn))
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if id(value) in replace:
            cell.cell_contents = replace[id(value)]
        elif callable(value) and getattr(value, "__closure__", None):
            _rebind_closure(value, replace, seen)


def cache_snapshot() -> dict[str, dict[str, int]]:
    """cache_info() of every lru_cache in the loaded convlab modules, by
    function name.  Call before ``install`` or after: wrappers keep the
    cache reachable through ``__wrapped__``."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "convlab" and not name.startswith("convlab."):
            continue
        for value in vars(mod).values():
            if not hasattr(value, "cache_info"):
                value = getattr(value, "__wrapped__", None)
            if (not hasattr(value, "cache_info")
                    or getattr(value, "__module__", None) != name):
                continue
            ci = value.cache_info()
            out[value.__name__] = {"hits": ci.hits, "misses": ci.misses,
                                   "currsize": ci.currsize}
    return out
