"""Outside-in tracer: spans around the public functions of each layer.

Every function is wrapped at the place its caller looks it up, a module
global or a class attribute, so the program itself is not changed.  A span
records its name, start, end, parent span and the run it belongs to; spans
stay in memory until the traced repetition ends.  A target that no longer
exists is skipped and the metrics fed only by it are left out.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (span name, module, attribute as the caller resolves it)
TARGETS = (
    ("engine.script", "p3bundles.engine.script", "run_script"),
    ("monad", "p3bundles.monad", "spectrum"),
    ("oracle.configs.sample", "p3bundles.engine.script", "sample_ruling"),
    ("oracle.configs.sample", "p3bundles.engine.script", "sample_conics"),
    ("oracle.configs.sample", "p3bundles.engine.script", "sample_modification"),
    ("oracle.configs.sample", "p3bundles.engine.script", "join_configs"),
    ("oracle.configs.sample", "p3bundles.monad", "sample_ruling"),
    ("oracle.configs.sample", "p3bundles.monad", "sample_conics"),
    ("oracle.sheaves.cohomology", "p3bundles.engine.script", "ideal_cohomology"),
    ("oracle.sheaves.cohomology", "p3bundles.engine.script", "serre_cohomology"),
    ("oracle.sheaves.cohomology", "p3bundles.monad", "serre_cohomology"),
    ("oracle.linalg.block", "p3bundles.oracle.sheaves", "line_restriction_block"),
    ("oracle.linalg.certify", "p3bundles.oracle.sheaves", "nullity_certified"),
    ("oracle.linalg.certify", "p3bundles.oracle.sheaves", "full_row_rank"),
    ("oracle.linalg.rank_mod_p", "p3bundles.oracle.linalg", "rank_mod_p"),
    ("oracle.linalg.rank_exact", "p3bundles.oracle.linalg", "rank_exact"),
    ("engine.graph.propagate", "p3bundles.engine.graph", "DeductionGraph.propagate"),
    ("engine.graph.explain", "p3bundles.engine.graph", "DeductionGraph.explain"),
)

# span name -> (self-time metric, call-count metric, matrix-cells metric)
SPAN_METRICS = {
    "engine.script": ("engine.script.self_s", "engine.script.runs", None),
    "monad": ("monad.self_s", None, None),
    "oracle.configs.sample": ("oracle.configs.sample_s", "oracle.configs.sample_calls", None),
    "oracle.sheaves.cohomology": ("oracle.sheaves.cohomology_s",
                                  "oracle.sheaves.cohomology_calls", None),
    "oracle.linalg.block": ("oracle.linalg.block_s", "oracle.linalg.block_calls", None),
    "oracle.linalg.certify": ("oracle.linalg.certify_s", None, None),
    "oracle.linalg.rank_mod_p": ("oracle.linalg.rank_mod_p_s",
                                 "oracle.linalg.rank_mod_p_calls",
                                 "oracle.linalg.rank_mod_p_cells"),
    "oracle.linalg.rank_exact": ("oracle.linalg.rank_exact_s",
                                 "oracle.linalg.rank_exact_calls",
                                 "oracle.linalg.rank_exact_cells"),
    "engine.graph.propagate": ("engine.graph.propagate_s",
                               "engine.graph.propagate_calls", None),
    "engine.graph.explain": ("engine.graph.explain_s", None, None),
}

# metric -> (module, attribute) of an lru_cache whose hit ratio it reports
CACHE_METRICS = {
    "oracle.linalg.block_cache_hit_ratio": ("p3bundles.oracle.sheaves",
                                            "line_restriction_block"),
    "oracle.sheaves.h0_cache_hit_ratio": ("p3bundles.oracle.sheaves", "h0_ideal"),
}

CERTIFIED_RATIO = "oracle.linalg.certified_ratio"

NAME, START, END, PARENT, RUN, CELLS = range(6)
SPAN_FIELDS = ("name", "start", "end", "parent", "run", "cells")


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


def _resolve(module: str, attr: str):
    """(owner, leaf name, current value) of a dotted attribute of a module."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.run_id = -1
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self._originals: dict[tuple[str, str], object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module, attr in self.targets:
            try:
                owner, leaf, original = _resolve(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            self._undo.append((owner, leaf, original))
            self._originals[(module, attr)] = original
            setattr(owner, leaf, self._wrap(name, original))
            self.installed.add(name)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_cells = SPAN_METRICS[name][2] is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id,
                    _cells(args[0]) if count_cells else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def cache_ratios(self) -> dict[str, float]:
        """Hit ratio of each traced lru_cache that exists and was queried."""
        out = {}
        for metric, (module, attr) in CACHE_METRICS.items():
            fn = self._originals.get((module, attr))
            if fn is None:
                try:
                    fn = _resolve(module, attr)[2]
                except (ImportError, AttributeError):
                    continue
            info = getattr(fn, "cache_info", None)
            if info is None:
                continue
            info = info()
            if info.hits + info.misses:
                out[metric] = info.hits / (info.hits + info.misses)
        return out

    def metrics(self) -> dict[str, float]:
        return {**layer_metrics(self.spans, self.installed), **self.cache_ratios()}

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "missing_targets": self.missing,
                       "fields": SPAN_FIELDS, "spans": self.spans}, fh,
                      separators=(",", ":"))


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered, cursor = 0.0, start
        for lo, hi in sorted((spans[k][START], spans[k][END]) for k in kids):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list, installed: set[str]) -> dict[str, float]:
    """Per-layer self time, call counts and cells for every installed span name."""
    out: dict[str, float] = {}
    for name in installed:
        time_m, count_m, cells_m = SPAN_METRICS[name]
        out[time_m] = 0.0
        if count_m:
            out[count_m] = 0
        if cells_m:
            out[cells_m] = 0
    for span, self_s in zip(spans, self_times(spans)):
        time_m, count_m, cells_m = SPAN_METRICS[span[NAME]]
        out[time_m] += self_s
        if count_m:
            out[count_m] += 1
        if cells_m:
            out[cells_m] += span[CELLS]
    if "oracle.linalg.certify" in installed:
        exact_parents = {s[PARENT] for s in spans if s[NAME] == "oracle.linalg.rank_exact"}
        certify = [i for i, s in enumerate(spans) if s[NAME] == "oracle.linalg.certify"]
        if certify:
            out[CERTIFIED_RATIO] = (sum(i not in exact_parents for i in certify)
                                    / len(certify))
    return out
