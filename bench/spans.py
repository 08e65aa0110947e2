"""Span tracing for the benchmark's traced mode.

Shims wrap the library's public entry points from outside (module
functions and classifier methods are replaced by timing wrappers for the
duration of a traced phase); nothing under ``src/`` changes. Every call
through a shim records one span

    (id, name, start_ns, end_ns, parent id, request id, attrs)

in memory. Spans are written out as JSON when the run ends.

The parent of a span is the innermost open span on the same thread. A
worker thread of ``extract_all`` has no open span of its own, so its
spans take the innermost open span of the main thread, which is blocked
in the ``extract_all`` call that started the worker.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# The kernels features.py calls per gesture; together 36 calls today.
DSP_KERNELS = (
    "mean",
    "minimum",
    "maximum",
    "skew",
    "kurtosis",
    "pearson_corr",
    "cross_corr_feature",
    "spectral_energy",
    "hilbert_imag",
)
FEATURE_BLOCKS = ("time_features", "freq_features", "hilbert_features")
KINDS = ("et", "gb", "rc")

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "request", "attrs")


def _rows(args, kwargs, result):
    return 1 if np.ndim(args[1]) == 1 else len(args[1])


def _eval_cell(args, kwargs, result):
    plan = args[1]
    mode = plan[0].mode if isinstance(plan, (list, tuple)) else plan.mode
    return [mode, args[2].kind]


def _jobs(args, kwargs, result):
    return kwargs.get("jobs", args[1] if len(args) > 1 else 1)


def _saved_kind(args, kwargs, result):
    return args[0].kind


def _loaded_kind(args, kwargs, result):
    return None if result is None else result.kind


class Tracer:
    """Records spans around calls into the library while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, name, fn, attrs=None):
        clock = time.perf_counter_ns
        spans = self.spans

        def shim(*args, **kwargs):
            stack, sid, parent = self._open()
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs else None
                spans.append((sid, name, t0, t1, parent, self.request, extra))

        shim.__wrapped__ = fn
        return shim

    @contextmanager
    def span(self, name):
        """Span around the benchmark's own code (a request, a setup)."""
        stack, sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.request, None))

    def patch(self, owner, attr, name, attrs=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, attrs))
        self._undo.append((owner, attr, original))

    def install(self):
        """Put a shim on every layer boundary the benchmark measures."""
        from gestrec import data, dsp, evaluation, features, synth
        from gestrec.classifiers import CLASSIFIER_KINDS, store

        self.patch(synth, "generate", "synth.generate")
        self.patch(data, "load_manifest", "data.load_manifest")
        self.patch(features, "extract_all", "features.extract_all", _jobs)
        for name in ("feature_set",) + FEATURE_BLOCKS:
            self.patch(features, name, f"features.{name}")
        for name in DSP_KERNELS:
            self.patch(dsp, name, f"dsp.{name}")
        for kind in KINDS:
            cls = CLASSIFIER_KINDS[kind]
            self.patch(cls, "fit", f"classifiers.{kind}.fit", _rows)
            self.patch(cls, "predict", f"classifiers.{kind}.predict", _rows)
        self.patch(store, "save_model", "classifiers.store.save_model",
                   _saved_kind)
        self.patch(store, "load_model", "classifiers.store.load_model",
                   _loaded_kind)
        self.patch(evaluation, "evaluate", "evaluation.evaluate", _eval_cell)
        self.patch(evaluation, "time_single_predictions",
                   "evaluation.time_single_predictions")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, header: dict) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": FIELDS, "spans": self.spans}, fh,
                      separators=(",", ":"))
        return path


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover (overlapping children, as from
    parallel workers, count once)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0 = max(c0, end)
            c1 = min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out
