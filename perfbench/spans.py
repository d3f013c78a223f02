"""In-memory call spans around graphprox's public functions.

The package has no timing hook of its own, so the tracer patches every
module-level binding of a public graphprox function, under the name the
calling module looks it up by: `properties.sym_eigen` and
`kernels.spectral_radius` are separate bindings of linalg functions and
each gets a wrapper. A span is named after the function's defining
module (`linalg.sym_eigen`), whichever binding it went through.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict

import numpy as np

MODULES = ("cli", "audit", "graphs", "kernels", "linalg", "properties", "transforms")

# Spans renamed or split from the defining function's own name.
_REPORT_JSON = "audit.report_json"
_RUN_CHECK = "audit.run_check"
_FIND_THRESHOLD = "audit.find_threshold"


class Tracer:
    """Records (name, parent, start, end) for every wrapped call; fold()
    turns the recorded spans into per-name totals and clears them."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._span_name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = []
        self._evals = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching

    def install(self) -> None:
        for short in MODULES:
            mod = importlib.import_module(f"graphprox.{short}")
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("graphprox.")
                ):
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    self._patch(mod, attr, self._wrap(obj, name))
        audit = importlib.import_module("graphprox.audit")
        for cls_name in ("AuditReport", "ThresholdResult"):
            cls = getattr(audit, cls_name, None)
            if cls is not None and "to_dict" in vars(cls):
                self._patch(cls, "to_dict", self._wrap(vars(cls)["to_dict"], _REPORT_JSON))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        fixed_id = self._id(name)
        by_check = name == _RUN_CHECK
        counts_evals = name == _FIND_THRESHOLD
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if by_check:
                check = args[0] if args else kwargs.get("check")
                span_id = self._id(f"{name}.{check}")
            else:
                span_id = fixed_id
            idx = len(self._span_name)
            self._span_name.append(span_id)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._start.append(0.0)
            self._end.append(0.0)
            self._stack.append(idx)
            self._start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[idx] = clock()
                self._stack.pop()
            if counts_evals:
                self._evals += getattr(result, "evaluations", 0)
            return result

        return wrapper

    # -- aggregation

    def fold(self) -> dict[str, dict[str, float]]:
        """Per-name {"calls", "ms", "self_ms"} over the spans recorded since
        the last fold, plus the find_threshold evaluation count under
        "audit.find_threshold"["evals"]. Self time is a span's duration
        minus the durations of its direct children."""
        names = np.array(self._span_name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        dur = (np.array(self._end) - np.array(self._start)) * 1e3
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = dur - child
        k = len(self._names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=self_ms, minlength=k)
        out: dict[str, dict[str, float]] = defaultdict(dict)
        for i, name in enumerate(self._names):
            out[name] = {"calls": int(calls[i]), "ms": float(incl[i]), "self_ms": float(excl[i])}
        out[_FIND_THRESHOLD]["evals"] = self._evals
        for buf in (self._span_name, self._parent, self._start, self._end):
            buf.clear()
        self._evals = 0
        return dict(out)
