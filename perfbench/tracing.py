"""Per-layer tracing of slplab from outside the library.

A Tracer wraps every public function of each slplab module, in every slplab
namespace that binds it (so `from .featspace import lift_renaming` inside
factorize is wrapped too), plus the `FeatureMap.index` method.  Each call
that enters a layer from another layer opens a span; calls inside one layer
are counted but open no span, which leaves every layer's self time unchanged
and keeps the span list small.  The hot leaves in COUNT_ONLY are counted and
never spanned, so their time stays in the calling span.  Spans live in flat
arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gzip
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("relalg", "queryspace", "featspace", "characters", "factorize",
          "conjunction", "gradlab", "numerics", "reports", "cli")

# called 10^4-10^5 times per op; a span each would dwarf the work they do
COUNT_ONLY = frozenset({"conjunction.conj", "queryspace.apply_renaming"})

METHODS = (("featspace", "FeatureMap", "index"),)

SVD_FUNCS = ("numerics.singular_values", "numerics.nullspace",
             "numerics.row_space_basis")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cells(counters, args, kwargs, result):
    m = args[0] if args else next(iter(kwargs.values()))
    counters["numerics.cells"] += int(getattr(m, "size", 0))


def _commutant(counters, args, kwargs, result):
    source = _arg(args, kwargs, 0, "source_mats")
    target = _arg(args, kwargs, 1, "target_mats")
    cols = source[0].shape[0] * target[0].shape[0]
    rows = len(source) * cols
    counters["factorize.commutant_rows"] += rows
    counters["factorize.commutant_mb"] = max(counters["factorize.commutant_mb"],
                                             rows * cols * 8 / 1e6)


def _file_bytes(path, fmt):
    size = os.path.getsize(path)
    if fmt == "csv":
        size += os.path.getsize(f"{path}.index.json")
    return size


def _saved(counters, args, kwargs, result):
    fmt = args[3] if len(args) > 3 else kwargs.get("fmt", "json")
    counters["featspace.io_bytes"] += _file_bytes(
        _arg(args, kwargs, 2, "path"), fmt)


def _loaded(counters, args, kwargs, result):
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "json")
    counters["featspace.io_bytes"] += _file_bytes(
        _arg(args, kwargs, 0, "path"), fmt)


def _built(counters, args, kwargs, result):
    counters["factorize.redrawn"] += int(result.redrawn)


def _fitted(counters, args, kwargs, result):
    counters["conjunction.constraints"] += result.n_constraints
    counters["conjunction.pairs_tried"] += (result.n_constraints
                                            + result.n_pairs_skipped)
    counters["conjunction.support_total"] += len(
        _arg(args, kwargs, 0, "assignment").features)


def _stability(counters, args, kwargs, result):
    counters["conjunction.support_total"] += len(
        _arg(args, kwargs, 0, "assignment").features)


def _queries(counters, args, kwargs, result):
    counters["queryspace.queries"] += len(result)


def _trained(counters, args, kwargs, result):
    counters["gradlab.epochs"] += len(result.losses)


def _rendered(counters, args, kwargs, result):
    counters["reports.bytes"] += len(result.encode("utf-8"))


HOOKS = {
    **{name: _cells for name in SVD_FUNCS},
    "numerics.minnorm_lstsq": _cells,
    "factorize.commutant_hom_dimension": _commutant,
    "featspace.save_feature_map": _saved,
    "featspace.load_feature_map": _loaded,
    "factorize.build_slp_map": _built,
    "conjunction.fit_bilinear": _fitted,
    "conjunction.check_kernel_stability": _stability,
    "queryspace.enumerate_queries": _queries,
    "gradlab.train": _trained,
    "reports.render_report": _rendered,
}


class Tracer:
    """Spans and call counts for every public slplab function.

    Use `installed()` around the traced region; it restores every binding on
    exit.  Span i covers [start[i], end[i]] for function fn[i] and was opened
    inside span parent[i] (-1 for a root span).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.counters: Counter = Counter()
        self.fn = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._open: list[int] = []
        self._open_layer: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, name: str, layer: str, fn):
        fid = self._register(name, layer)
        calls = self.calls
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[fid] += 1
                return fn(*args, **kwargs)
            return counted

        hook = HOOKS.get(name)
        clock, counters = time.perf_counter, self.counters
        span_fn, span_parent = self.fn, self.parent
        span_start, span_end = self.start, self.end
        open_spans, open_layers = self._open, self._open_layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[fid] += 1
            if open_layers and open_layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                i = len(span_fn)
                span_fn.append(fid)
                span_parent.append(open_spans[-1] if open_spans else -1)
                span_end.append(0.0)
                open_spans.append(i)
                open_layers.append(layer)
                span_start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_end[i] = clock()
                    open_spans.pop()
                    open_layers.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "slplab" or name.startswith("slplab.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"slplab.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"slplab.{layer}"], cls_name)
            self._patch(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}",
                                              layer, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------- results

    def call_count(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def write(self, path, header: dict) -> None:
        """All spans as gzipped JSON, one column per field."""
        doc = {**header, "functions": self.names,
               "fn": self.fn.tolist(), "parent": self.parent.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        out[p] -= covered(start[p], end[p], kids)
    return out


# ratios and sizes; every other layer figure is a total, reported per pass
PER_CALL = frozenset({"factorize.commutant_mb", "factorize.redraw_ratio",
                      "characters.mn_hit_ratio", "conjunction.realized_ratio",
                      "conjunction.support"})


def layer_metrics(tracer: Tracer, loop_start: float, loop_end: float,
                  mn_before, mn_after, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced loop of whole passes, {name: (value, unit)}.

    Totals are divided by `passes`, so they do not depend on how many passes
    fit in the loop.  `mn_before`/`mn_after` are
    `characters.mn_character.cache_info()` around the loop: the memoized
    character is counted from its cache, not wrapped.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    by_layer = Counter()
    for fid, s in zip(tracer.fn, selfs):
        by_layer[tracer.layers[fid]] += s
    io_ids = {i for i, n in enumerate(tracer.names)
              if n in ("featspace.save_feature_map", "featspace.load_feature_map")}
    io_s = sum(e - s for fid, s, e in zip(tracer.fn, tracer.start, tracer.end)
               if fid in io_ids)
    roots = [(s, e) for s, e, p in zip(tracer.start, tracer.end, tracer.parent)
             if p < 0]
    c, n = tracer.counters, tracer.call_count
    layer_calls = Counter()
    for name, calls in zip(tracer.names, tracer.calls):
        layer_calls[name.split(".")[0]] += calls
    mn_hits = mn_after.hits - mn_before.hits
    mn_calls = mn_hits + mn_after.misses - mn_before.misses
    builds = n("factorize.build_slp_map")
    conj_sets = n("conjunction.fit_bilinear") + n("conjunction.check_kernel_stability")

    out = {f"{layer}.self_s": (by_layer[layer], "s") for layer in LAYERS}
    out.update({
        "featspace.lift_calls": (n("featspace.lift_renaming"), "count"),
        "featspace.kernel_calls": (n("featspace.kernel"), "count"),
        "featspace.index_builds": (n("featspace.FeatureMap.index"), "count"),
        "featspace.io_s": (io_s, "s"),
        "featspace.io_bytes": (c["featspace.io_bytes"], "bytes"),
        "numerics.svd_calls": (sum(n(f) for f in SVD_FUNCS), "count"),
        "numerics.lstsq_calls": (n("numerics.minnorm_lstsq"), "count"),
        "numerics.cells": (c["numerics.cells"], "cells"),
        "factorize.commutant_calls": (n("factorize.commutant_hom_dimension"),
                                      "count"),
        "factorize.commutant_rows": (c["factorize.commutant_rows"], "rows"),
        "factorize.commutant_mb": (c["factorize.commutant_mb"], "MB"),
        "factorize.builds": (builds, "count"),
        "factorize.redraw_ratio": (c["factorize.redrawn"] / builds if builds
                                   else 0.0, "ratio"),
        "characters.mn_calls": (mn_calls, "count"),
        "characters.mn_hit_ratio": (mn_hits / mn_calls if mn_calls else 0.0,
                                    "ratio"),
        "conjunction.conj_calls": (n("conjunction.conj"), "count"),
        "conjunction.realized_ratio": (
            c["conjunction.constraints"] / c["conjunction.pairs_tried"]
            if c["conjunction.pairs_tried"] else 0.0, "ratio"),
        "conjunction.support": (c["conjunction.support_total"] / conj_sets
                                if conj_sets else 0.0, "count"),
        "relalg.calls": (layer_calls["relalg"], "count"),
        "queryspace.family_calls": (n("queryspace.compute_families"), "count"),
        "queryspace.queries": (c["queryspace.queries"], "count"),
        "gradlab.epochs": (c["gradlab.epochs"], "count"),
        "gradlab.gradient_calls": (n("gradlab.gradient"), "count"),
        "cli.calls": (n("cli.main"), "count"),
        "reports.bytes": (c["reports.bytes"], "bytes"),
        "trace.uncovered_s": (
            (loop_end - loop_start) - covered(loop_start, loop_end, roots), "s"),
        "trace.spans": (len(tracer.fn), "count"),
    })
    return {name: (value if name in PER_CALL else value / passes, unit)
            for name, (value, unit) in out.items()}
