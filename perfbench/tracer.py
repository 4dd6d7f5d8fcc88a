"""Spans around the public functions of each polycomplete layer, recorded from outside.

``Tracer.install`` replaces each target function with a wrapper in every
loaded ``polycomplete`` module that binds it (``cli`` and ``crosscut``
import names from other modules, so patching only the defining module
would miss their calls), and ``uninstall`` puts the originals back.  A
target that no longer exists is skipped: its metrics read zero and its
time stays in the caller's self time.

A span is ``[target, start_ns, end_ns, parent]``; spans stay in memory
and ``take`` turns one pass's spans into the per-layer metrics.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns


def _count_faces(counts, args, result):
    counts["crosscut.faces"] += len(result)


def _count_boundary(counts, args, result):
    upper = args[0]
    counts["crosscut.boundary_nnz"] += len(upper) * (upper.k + 1)


def _count_dual(counts, args, result):
    counts["crosscut.dual_jobs"] += result.side == "dual"


def _count_parse_bytes(counts, args, result):
    counts["incidence.parse_bytes"] += len(args[0].encode())


def _count_rank(counts, args, result):
    matrix = args[0]
    counts["gf2.rank_cells"] += matrix.nrows * matrix.ncols
    counts["gf2.rank_sum"] += result


def _count_member(counts, args, result):
    counts["pulling.member_hits"] += bool(result)


# (key, defining module, attribute or Class.method, counter run on each result)
TARGETS = (
    ("cli.main", "polycomplete.cli", "main", None),
    ("incidence.parse", "polycomplete.incidence", "parse_incidence", _count_parse_bytes),
    ("incidence.serialize", "polycomplete.incidence", "serialize_incidence", None),
    ("incidence.size_stats", "polycomplete.incidence", "size_stats", None),
    ("incidence.transpose", "polycomplete.incidence", "transpose", None),
    ("crosscut.enumerate", "polycomplete.crosscut", "enumerate_faces", _count_faces),
    ("crosscut.boundary", "polycomplete.crosscut", "boundary_matrix", _count_boundary),
    ("crosscut.analyze", "polycomplete.crosscut", "analyze", _count_dual),
    ("gf2.rank", "polycomplete.gf2", "Gf2Matrix.rank", _count_rank),
    ("pulling.member", "polycomplete.pulling", "is_pulling_facet", _count_member),
    ("pulling.walk", "polycomplete.pulling", "find_certificate", None),
    ("pulling.facet_search", "polycomplete.pulling", "find_pulling_facet", None),
    ("pulling.ridge_count", "polycomplete.pulling", "ridge_cofacet_count", None),
    ("geometry.parse", "polycomplete.geometry", "parse_geometry", None),
    ("geometry.validate", "polycomplete.geometry", "validate_instance", None),
    ("geometry.rank", "polycomplete.geometry", "rational_rank", None),
    ("geometry.extract", "polycomplete.geometry", "extract_incidence", None),
)
# Called tens of thousands of times per pass: counted, never timed.
COUNTED = (("geometry.tight_calls", "polycomplete.geometry", "Halfspace.is_tight"),)

# Per-layer metric -> unit; every traced pass reports all of them.
METRICS = {
    "cli.self_ms": "ms",
    "incidence.parse_ms": "ms",
    "incidence.parse_bytes": "bytes",
    "incidence.side_ms": "ms",
    "incidence.serialize_ms": "ms",
    "crosscut.enumerate_ms": "ms",
    "crosscut.faces": "count",
    "crosscut.boundary_ms": "ms",
    "crosscut.boundary_nnz": "count",
    "crosscut.analyze_self_ms": "ms",
    "crosscut.dual_jobs": "count",
    "gf2.rank_ms": "ms",
    "gf2.rank_calls": "count",
    "gf2.rank_cells": "count",
    "gf2.rank_sum": "count",
    "pulling.member_ms": "ms",
    "pulling.member_calls": "count",
    "pulling.member_hit_ratio": "ratio",
    "pulling.walk_self_ms": "ms",
    "pulling.facet_search_ms": "ms",
    "pulling.ridge_count_ms": "ms",
    "geometry.parse_ms": "ms",
    "geometry.validate_self_ms": "ms",
    "geometry.rank_ms": "ms",
    "geometry.rank_calls": "count",
    "geometry.tight_calls": "count",
    "geometry.extract_ms": "ms",
}


def _lookup(module_name: str, attr: str):
    """(owner, name, original) for a function or Class.method, or None if gone."""
    owner = sys.modules.get(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
    original = getattr(owner, name, None)
    return None if original is None else (owner, name, original)


class Tracer:
    def __init__(self):
        self.keys = [key for key, *_ in TARGETS]
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, index: int, fn, counter):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            span = len(spans)
            spans.append([index, perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[span][2] = perf_counter_ns()
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name: str, attr: str, make) -> None:
        found = _lookup(module_name, attr)
        if found is None:
            return
        owner, name, original = found
        wrapper = make(original)
        if "." in attr:  # a method: the class object is shared by every importer
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "polycomplete" or mod_name.startswith("polycomplete."):
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def install(self) -> None:
        for index, (key, module_name, attr, counter) in enumerate(TARGETS):
            self._patch(module_name, attr, lambda fn, i=index, c=counter: self._timed(i, fn, c))
        for key, module_name, attr in COUNTED:
            self._patch(module_name, attr, lambda fn, k=key: self._counted(k, fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def take(self) -> tuple[dict[str, float], list[list[int]]]:
        """The per-layer metrics of the spans and counts since the last take.

        Returns the metrics and the spans themselves, and starts afresh.
        """
        n = len(self.keys)
        total, own, calls = [0] * n, [0] * n, [0] * n
        children = [0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for span, (index, start, end, parent) in enumerate(self.spans):
            total[index] += end - start
            own[index] += end - start - children[span]
            calls[index] += 1
        ms = {key: (total[i] / 1e6, own[i] / 1e6, calls[i]) for i, key in enumerate(self.keys)}
        c = self.counts
        member_calls = ms["pulling.member"][2]
        metrics = {
            "cli.self_ms": ms["cli.main"][1],
            "incidence.parse_ms": ms["incidence.parse"][0],
            "incidence.parse_bytes": c["incidence.parse_bytes"],
            "incidence.side_ms": ms["incidence.size_stats"][0] + ms["incidence.transpose"][0],
            "incidence.serialize_ms": ms["incidence.serialize"][0],
            "crosscut.enumerate_ms": ms["crosscut.enumerate"][0],
            "crosscut.faces": c["crosscut.faces"],
            "crosscut.boundary_ms": ms["crosscut.boundary"][0],
            "crosscut.boundary_nnz": c["crosscut.boundary_nnz"],
            "crosscut.analyze_self_ms": ms["crosscut.analyze"][1],
            "crosscut.dual_jobs": c["crosscut.dual_jobs"],
            "gf2.rank_ms": ms["gf2.rank"][0],
            "gf2.rank_calls": ms["gf2.rank"][2],
            "gf2.rank_cells": c["gf2.rank_cells"],
            "gf2.rank_sum": c["gf2.rank_sum"],
            "pulling.member_ms": ms["pulling.member"][0],
            "pulling.member_calls": member_calls,
            "pulling.member_hit_ratio": c["pulling.member_hits"] / member_calls if member_calls else 0.0,
            "pulling.walk_self_ms": ms["pulling.walk"][1],
            "pulling.facet_search_ms": ms["pulling.facet_search"][0],
            "pulling.ridge_count_ms": ms["pulling.ridge_count"][0],
            "geometry.parse_ms": ms["geometry.parse"][0],
            "geometry.validate_self_ms": ms["geometry.validate"][1],
            "geometry.rank_ms": ms["geometry.rank"][0],
            "geometry.rank_calls": ms["geometry.rank"][2],
            "geometry.tight_calls": c["geometry.tight_calls"],
            "geometry.extract_ms": ms["geometry.extract"][0],
        }
        spans = self.spans[:]
        self.spans.clear()
        self.counts.clear()
        return metrics, spans
