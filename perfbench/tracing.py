"""Outside-in per-layer tracing of redhom's public functions.

``Tracer.install()`` replaces each traced function with a wrapper, on
its defining module or class and on every ``redhom`` module that
imported the same object with ``from .x import f``; otherwise calls made
through those names would be missed.  Nothing in ``src/`` is changed,
and the wrappers exist only in the traced process.

Spans carry a name, start, end, parent span and job id.  The leaf
``gf`` kernels are called tens of thousands of times per pass, so they
are aggregated per (name, parent span) instead of stored one by one.
A span's self time is its duration minus the time of its child calls;
calls never overlap, because runs refuse REDHOM_THREADS > 1.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

from redhom import cli, complexes, gf, modules, reducing, torsionfree


def _cells(arr, *_):
    shape = np.shape(arr)
    return {"cells": int(shape[0]) * int(shape[1])}


def _mat_mul_work(a, b, *_):
    (m, k), (_, n) = np.shape(a), np.shape(b)
    # int64 operands and result; computed from shapes, not measured
    return {"macs": m * k * n, "bytes": 8 * (m * k + k * n + m * n)}


def _iso_outcome(verdict):
    return {f"modules.is_isomorphic.{verdict.kind}": 1}


def _search_outcome(result):
    return {"reducing.classes_tested": result.tested,
            "reducing.witnesses_found": int(result.found),
            "reducing.searches_exhaustive": int(result.exhaustive)}


# (metric prefix, owner, attribute, work from arguments, outcome from result)
LEAVES = [
    ("gf.rank", gf, "rank", _cells, None),
    ("gf.rref", gf, "rref", _cells, None),
    ("gf.kernel", gf, "kernel", _cells, None),
    ("gf.mat_mul", gf, "mat_mul", _mat_mul_work, None),
]
SPANS = [
    ("modules.hom_space", modules, "hom_space", None, None),
    ("modules.hom_module", modules, "hom_module", None, None),
    ("modules.quotient_module", modules, "quotient_module", None, None),
    ("modules.projective_cover_and_syzygy", modules, "projective_cover_and_syzygy",
     None, None),
    ("modules.is_isomorphic", modules, "is_isomorphic", None, _iso_outcome),
    ("complexes.MinimalResolution.extend", complexes.MinimalResolution, "extend",
     None, None),
    ("complexes.ext_dims", complexes, "ext_dims", None, None),
    ("complexes.ext_dims_via_dual_complex", complexes, "ext_dims_via_dual_complex",
     None, None),
    ("complexes.bass_numbers", complexes, "bass_numbers", None, None),
    ("torsionfree.torsionfree_classify", torsionfree, "torsionfree_classify", None, None),
    ("torsionfree.build_window_sequence", torsionfree, "build_window_sequence",
     None, None),
    ("torsionfree.verify_window_sequence", torsionfree, "verify_window_sequence",
     None, None),
    ("torsionfree.pushforward", torsionfree, "pushforward", None, None),
    ("torsionfree.is_totally_reflexive_up_to", torsionfree,
     "is_totally_reflexive_up_to", None, None),
    ("reducing.search_reducing", reducing, "search_reducing", None, _search_outcome),
    ("reducing.middle_term", reducing, "middle_term", None, None),
    ("cli.cli_run", cli, "cli_run", None, None),
]
# Counted only: timing these per call would cost more than their work.
COUNTERS = [
    ("gf.Matrix.constructions", gf.Matrix, "__init__"),
    ("reducing.Ext1Space.element.calls", reducing.Ext1Space, "element"),
]


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for prefix, *_ in LEAVES + SPANS:
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
        if prefix in ("gf.rank", "gf.rref", "gf.kernel"):
            names.append(f"{prefix}.cells")
    names += ["gf.mat_mul.macs", "gf.mat_mul.bytes"]
    names += [f"modules.is_isomorphic.{k}" for k in ("yes", "no", "unknown")]
    names += ["reducing.classes_tested", "reducing.witnesses_found",
              "reducing.searches_exhaustive"]
    names += [name for name, *_ in COUNTERS]
    return names


class Tracer:
    def __init__(self):
        self.totals: dict[str, float] = defaultdict(int)
        self.spans: list[tuple] = []          # (id, name, start, end, parent, job)
        self.leaves: dict[tuple, list] = {}    # (name, parent) -> [calls, total, self]
        self._stack: list[list] = []           # [span id or None, child time]
        self._next_id = 0
        self.job = None

    # -- recording ------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def _enter(self, record: bool):
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        parent = self._parent_span()
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _leave(self, frame, parent, name, start, end, record):
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self_time = dur - frame[1]
        self.totals[f"{name}.self_s"] += self_time
        if record:
            self.spans.append((frame[0], name, start, end, parent, self.job))
        else:
            agg = self.leaves.setdefault((name, parent), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_time

    def job_span(self, job_id: int, fn):
        """Run one job as a root span and return its result."""
        self.job = job_id
        frame, parent = self._enter(True)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._leave(frame, parent, "job", start, time.perf_counter(), True)
            self.job = None

    def _wrap(self, prefix, fn, work, outcome, record):
        totals = self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            totals[f"{prefix}.calls"] += 1
            if work is not None:
                for key, value in work(*args).items():
                    totals[f"{prefix}.{key}"] += value
            frame, parent = self._enter(record)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, parent, prefix, start, time.perf_counter(), record)
            if outcome is not None:
                for name, value in outcome(result).items():
                    totals[name] += value
            return result
        return traced

    def _count(self, name, fn):
        totals = self.totals

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            totals[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every traced callable on its owner and wherever it was imported."""
        importers = [m for name, m in sorted(sys.modules.items())
                     if name == "redhom" or name.startswith("redhom.")]
        for entries, record in ((LEAVES, False), (SPANS, True)):
            for prefix, owner, attr, work, outcome in entries:
                original = getattr(owner, attr)
                wrapper = self._wrap(prefix, original, work, outcome, record)
                setattr(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                for mod in importers:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        for name, owner, attr in COUNTERS:
            setattr(owner, attr, self._count(name, getattr(owner, attr)))

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        return {name: self.totals.get(name, 0) for name in per_layer_names()}

    def self_time_sum(self) -> float:
        """Self time of every traced call, jobs included: the time the jobs took."""
        return sum(v for k, v in self.totals.items() if k.endswith(".self_s"))

    def dump(self, path: str):
        """Write the spans and aggregated leaves, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id", "name", "start", "end", "parent", "job"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write('["leaf", "parent", "calls", "total_s", "self_s"]\n')
            for (name, parent), (calls, total, self_s) in self.leaves.items():
                fh.write(json.dumps([name, parent, calls, total, self_s]) + "\n")
