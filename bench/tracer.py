"""Out-of-program span tracing for levibridge.

``Tracer.install()`` replaces each traced public function at every module
binding that holds it, because the library imports functions by name
(``construction`` calls its own ``canonical_form`` binding, and
``PermGroup.elements`` reaches ``closure`` through the ``groups`` module
global). Each call becomes a span ``(name, parent, op, start, end)``; spans
stay in memory until ``dump``. Counts come from return values only, so
tracing never asks the program for extra work.

``layer_metrics`` turns spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# Span name -> (module, function) of the traced public function.
TRACED = {
    "canon.canonical_form": ("canon", "canonical_form"),
    "canon.automorphism_group": ("canon", "automorphism_group"),
    "canon.isomorphism": ("canon", "isomorphism"),
    "construction.bridge_join": ("construction", "bridge_join"),
    "construction.bridge_census": ("construction", "bridge_census"),
    "construction.identify_goedgebeur": ("construction", "identify_goedgebeur"),
    "incidence.configuration": ("incidence", "configuration"),
    "incidence.levi_graph": ("incidence", "levi_graph"),
    "graphs.girth": ("graphs", "girth"),
    "graphs.bipartition": ("graphs", "bipartition"),
    "graphs.graph6_decode": ("graphs", "graph6_decode"),
    "groups.closure": ("groups", "closure"),
    "groups.semidirect_certificate": ("groups", "semidirect_certificate"),
    "groups.groups_isomorphic": ("groups", "groups_isomorphic"),
    "twofactors.pseudo_2fi": ("twofactors", "pseudo_2fi"),
    "cuts.ess4": ("cuts", "is_essentially_4_edge_connected"),
    "cuts.cyclic": ("cuts", "cyclic_edge_connectivity"),
    "survey.run_survey": ("survey", "run_survey"),
    "survey.refutation_check": ("survey", "refutation_check"),
    "survey.aut_structure": ("survey", "aut_structure"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list = []
        self._pending_auts: dict[int, tuple] = {}  # id(generators) -> generators
        self._orders: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        on_result = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, parent, self.op, start, end)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _count_canon_automorphism_group(self, args, group):
        self.counts["canon.generators"] += len(group.generators)
        self._pending_auts[id(group.generators)] = group.generators

    def _count_groups_closure(self, args, elements):
        self.counts["groups.elements"] += len(elements)
        gens = args[0]
        if id(gens) in self._pending_auts and self._pending_auts[id(gens)] is gens:
            self._orders[id(gens)] = len(elements)

    def _count_twofactors_pseudo_2fi(self, args, report):
        self.counts["twofactors.matchings"] += report.matching_count

    def _count_cuts_ess4(self, args, result):
        self.counts["cuts.ess4.cut_found"] += not result[0]

    def end_op(self):
        """Close the current op: fold automorphism groups whose order the
        program materialized into the generator ratio, then drop them."""
        for key, gens in self._pending_auts.items():
            order = self._orders.get(key)
            if order is not None and order > 1:
                self.counts["canon.generator_ratio.gens"] += len(gens)
                self.counts["canon.generator_ratio.log2"] += math.ceil(math.log2(order))
        self._pending_auts.clear()
        self._orders.clear()
        self.op += 1

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every traced function at every levibridge module binding."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "levibridge" or k.startswith("levibridge."))]
        for name, (mod, attr) in TRACED.items():
            original = getattr(sys.modules["levibridge." + mod], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, value))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, value in reversed(self._saved):
            setattr(m, key, value)
        self._saved.clear()

    def dump(self, path, **extra):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics from dumped traces (each {"spans", "counts"}).

    Self time is a span's duration minus its direct children's durations.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    census_searches = 0
    baseline: dict[str, list[float]] = defaultdict(list)
    for trace in traces:
        spans = trace["spans"]
        for key, value in trace["counts"].items():
            counts[key] += value
        child_s = [0.0] * len(spans)
        for name, parent, _op, start, end in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for sid, (name, parent, _op, start, end) in enumerate(spans):
            calls[name] += 1
            incl_s[name] += end - start
            self_s[name] += end - start - child_s[sid]
            if name.startswith("canon.") and name != "canon.isomorphism":
                if _has_ancestor(spans, parent, ("construction.bridge_census",)):
                    census_searches += 1
        for key, value in baseline_rows(spans).items():
            baseline[key].append(value)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in TRACED:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    searches = calls["canon.canonical_form"] + calls["canon.automorphism_group"]
    out["canon.ms_per_search"] = 1e3 * ratio(
        incl_s["canon.canonical_form"] + incl_s["canon.automorphism_group"], searches)
    out["canon.generators"] = counts["canon.generators"]
    out["canon.generator_ratio"] = ratio(counts["canon.generator_ratio.gens"],
                                         counts["canon.generator_ratio.log2"])
    out["construction.census_searches"] = census_searches
    out["groups.elements"] = counts["groups.elements"]
    out["twofactors.matchings"] = counts["twofactors.matchings"]
    out["twofactors.us_per_matching"] = 1e6 * ratio(
        self_s["twofactors.pseudo_2fi"], counts["twofactors.matchings"])
    out["cuts.ess4.cut_found"] = counts["cuts.ess4.cut_found"]
    for key in BASELINE:
        out[key] = ratio(sum(baseline[key]), len(baseline[key]))
    return out


def _has_ancestor(spans, sid, names, stop=-1) -> bool:
    """Whether sid or a span above it, below stop, is named in names."""
    while sid > stop:
        if spans[sid][0] in names:
            return True
        sid = spans[sid][1]
    return False


def _descendants(spans, sid):
    """Spans below sid; spans are stored in start order, so they follow it."""
    end = spans[sid][4]
    for j in range(sid + 1, len(spans)):
        if spans[j][3] >= end:
            break
        yield j


def baseline_rows(spans) -> dict[str, float]:
    """The ROADMAP baseline rows measured in one process's spans.

    Warm times exclude the census that a cold command pays inside them.
    """
    def took(j):
        return spans[j][4] - spans[j][3]

    rows: dict[str, float] = {}
    for sid, (name, parent, _op, start, end) in enumerate(spans):
        if name != "construction.bridge_census" and name not in _WARM_ROWS:
            continue
        below = list(_descendants(spans, sid))
        if name == "construction.bridge_census" and below:
            searches = [j for j in below if spans[j][0] in (
                "canon.canonical_form", "canon.automorphism_group")]
            joins = [j for j in below if spans[j][0] == "construction.bridge_join"]
            rows["baseline.census_s"] = end - start
            rows["baseline.census_ms_per_search"] = (
                1e3 * sum(map(took, searches)) / max(1, len(searches)))
            rows["baseline.joins_s"] = sum(map(took, joins))
            rows["baseline.joins_girth_s"] = sum(
                took(j) for j in below
                if spans[j][0] == "graphs.girth" and spans[spans[j][1]][0]
                == "construction.bridge_join")
        elif name in _WARM_ROWS:
            # The outermost census or identification inside sid is the cold
            # start a warm call would not pay.
            cold = sum(took(j) for j in below if spans[j][0] in _COLD
                       and not _has_ancestor(spans, spans[j][1], _COLD, stop=sid))
            rows[_WARM_ROWS[name]] = end - start - cold
            if name == "survey.refutation_check":
                rows["baseline.refutation_ess4_s"] = sum(
                    took(j) for j in below if spans[j][0] == "cuts.ess4")
    return rows


_COLD = ("construction.bridge_census", "construction.identify_goedgebeur")
_WARM_ROWS = {
    "survey.refutation_check": "baseline.refutation_check_s",
    "survey.run_survey": "baseline.run_survey_p2fi_s",
    "survey.aut_structure": "baseline.aut_structure_s",
}

# ROADMAP "Baseline at this re-anchor" values, for the cross-check.
BASELINE = {
    "baseline.census_s": 6.6,
    "baseline.census_ms_per_search": 10.0,
    "baseline.joins_s": 0.49,
    "baseline.joins_girth_s": 0.39,
    "baseline.refutation_check_s": 0.23,
    "baseline.refutation_ess4_s": 0.17,
    "baseline.run_survey_p2fi_s": 0.30,
    "baseline.aut_structure_s": 0.05,
}
