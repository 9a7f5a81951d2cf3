"""Wrappers that time and count calls into the library, for traced passes only.

`Tracer.install` replaces the public functions and methods behind the
per-layer metrics with wrappers; `Tracer.restore` puts the originals back.
A wrapped call records a span (name, start, end, parent span, op id) in flat
arrays that stay in memory until `write` saves them when the pass ends.
`Tracer.self_times` reduces the spans to per-layer self time and call counts.

A traced pass runs at one of two levels:

* ``spans``: span wrappers plus *observers*, which measure sizes (generator
  counts, sparse entries, normal-form terms) after a call returns.  The time
  an observer takes is subtracted from the enclosing span, so self times
  stay clean.
* ``counters``: the same, plus per-call counters on hot methods: scalar
  arithmetic (with self time), node construction and tree hashing.  These
  run hundreds of thousands of times per op and would inflate every span,
  so only their counts, and the scalar self times, are read from this level.

Both levels record the same span calls and observer counts, which is how
a traced run checks that a seed gives identical counts twice.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

import numpy as np

import zwtick as zw
import zwtick.diagram
import zwtick.scalar

LEVELS = ("spans", "counters")

#: (module, function or Class.method, layer metric prefix).  Functions are
#: replaced in every zwtick namespace that holds them.  The last five are
#: entry points whose self time is the glue between layers.
TARGETS = (
    ("zwtick.diagram", "parse_diagram", "diagram.parse"),
    ("zwtick.semantics", "unzip", "semantics.unzip"),
    ("zwtick.semantics", "interp_sparse", "semantics.interp"),
    ("zwtick.semantics", "SMat.kron", "semantics.kron"),
    ("zwtick.semantics", "SMat.matmul", "semantics.matmul"),
    ("zwtick.semantics", "state_operator", "semantics.readout"),
    ("zwtick.semantics", "is_psd", "semantics.psd"),
    ("zwtick.qinfo", "partial_transpose", "qinfo.partial_transpose"),
    ("zwtick.qinfo", "ppt_check", "qinfo.ppt"),
    ("zwtick.normalform", "nf_from_matrix", "normalform.nf_from_matrix"),
    ("zwtick.normalform", "nf_to_diagram", "normalform.nf_to_diagram"),
    ("zwtick.normalform", "canonical_of_map", "normalform.canonical"),
    ("zwtick.rules", "instantiate", "rules.instantiate"),
    ("zwtick.normalform", "diagrams_equal", "glue.diagrams_equal"),
    ("zwtick.semantics", "choi", "glue.choi"),
    ("zwtick.semantics", "is_completely_positive", "glue.is_completely_positive"),
    ("zwtick.rules", "check_soundness", "glue.check_soundness"),
    ("zwtick.rules", "check_corpus", "glue.check_corpus"),
)

#: Scalar methods timed at the counters level.
SCALAR_METHODS = (("__mul__", "scalar.mul"), ("__add__", "scalar.add"), ("inverse", "scalar.inverse"))

#: Span name of the benchmark's own per-op root span.
OP_SPAN = "op"


def _is_identity(m: Any) -> bool:
    if m.rows != m.cols or len(m.entries) != m.rows:
        return False
    return all(i == j and v == zw.ONE for (i, j), v in m.entries.items())


def _observe_kron(counts: dict, args: tuple, out: Any) -> None:
    counts["semantics.kron.entries"] += len(out.entries)
    if _is_identity(args[0]) or _is_identity(args[1]):
        counts["semantics.kron.identity_operand"] += 1


def _observe_matmul(counts: dict, args: tuple, out: Any) -> None:
    counts["semantics.matmul.entries"] += len(out.entries)


def _observe_unzip(counts: dict, args: tuple, out: Any) -> None:
    counts["semantics.unzip.generators"] += zw.generator_count(out)


def _observe_state(counts: dict, args: tuple, out: Any) -> None:
    counts["diagram.generators"] += zw.generator_count(args[0])


def _observe_nf(counts: dict, args: tuple, out: Any) -> None:
    counts["normalform.terms"] += len(out.terms)


def _observe_report(counts: dict, args: tuple, out: Any) -> None:
    counts["rules.instances"] += out.total


OBSERVERS: dict[str, Callable] = {
    "semantics.kron": _observe_kron,
    "semantics.matmul": _observe_matmul,
    "semantics.unzip": _observe_unzip,
    "semantics.readout": _observe_state,
    "normalform.nf_from_matrix": _observe_nf,
    "glue.check_soundness": _observe_report,
    "glue.check_corpus": _observe_report,
}


def _zwtick_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "zwtick" or name.startswith("zwtick.")]


class Tracer:
    """Span store plus the wrappers of one traced pass."""

    def __init__(self, level: str):
        if level not in LEVELS:
            raise ValueError(f"unknown trace level {level!r}")
        self.level = level
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_skip = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.scalar_calls: dict[str, int] = defaultdict(int)
        self.scalar_self: dict[str, float] = defaultdict(float)
        self._open: dict[int, int] = defaultdict(int)
        self._psd_numeric = False
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(self.stack[-1] if self.stack else -1)
        self.sp_op.append(self.op)
        self.sp_skip.append(0.0)
        self.sp_end.append(0.0)
        self.stack.append(idx)
        self.sp_start.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.sp_end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_index: int) -> int:
        self.op = op_index
        return self.begin(self._name_id(OP_SPAN))

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        open_count = self._open

        def wrapper(*args, **kwargs):
            # A recursive call (unzip) is part of the outermost span.
            if open_count[nid]:
                return fn(*args, **kwargs)
            open_count[nid] += 1
            idx = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
                open_count[nid] -= 1
            if name == "semantics.psd":
                self.counts["semantics.psd.numeric" if self._psd_numeric else "semantics.psd.exact"] += 1
                self._psd_numeric = False
            if observe is not None:
                t0 = perf_counter()
                observe(self.counts, args, out)
                if self.stack:
                    self.sp_skip[self.stack[-1]] += perf_counter() - t0
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _zwtick_modules()
        for module_name, path, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, attr, self._span_wrapper(name, getattr(cls, attr)))
                continue
            original = getattr(owner, path)
            wrapper = self._span_wrapper(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        self._set(np.linalg, "eigvalsh", self._eig_hook(np.linalg.eigvalsh))
        if self.level == "counters":
            self._install_counters()

    def _eig_hook(self, fn: Callable) -> Callable:
        psd = self._name_id("semantics.psd")

        def eigvalsh(*args, **kwargs):
            if self._open[psd]:
                self._psd_numeric = True
            return fn(*args, **kwargs)

        return eigvalsh

    def _install_counters(self) -> None:
        stack: list[float] = []
        calls, selfs = self.scalar_calls, self.scalar_self
        for attr, name in SCALAR_METHODS:
            fn = getattr(zwtick.scalar.Scalar, attr)

            def timed(*args, _fn=fn, _name=name):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return _fn(*args)
                finally:
                    dt = perf_counter() - t0
                    inner = stack.pop()
                    if stack:
                        stack[-1] += dt
                    calls[_name] += 1
                    selfs[_name] += dt - inner

            self._set(zwtick.scalar.Scalar, attr, timed)
        counts = self.counts
        for cls in _subclasses(zwtick.diagram.Diagram):
            for attr, key in (("__post_init__", "diagram.nodes.built"), ("__hash__", "diagram.hash.calls")):
                fn = vars(cls).get(attr)
                if fn is None:
                    continue

                def counted(*args, _fn=fn, _key=key):
                    counts[_key] += 1
                    return _fn(*args)

                self._set(cls, attr, counted)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reduction -----------------------------------------------------------

    def self_times(self, scales: "list[float] | None" = None) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time, and number of calls.

        With `scales`, each span's self time is multiplied by the scale of
        its op (see `speed.py`).
        """
        n = len(self.sp_name)
        child = [0.0] * n
        for i in range(n):
            p = self.sp_parent[i]
            if p >= 0:
                child[p] += self.sp_end[i] - self.sp_start[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.sp_name[i]]
            own = self.sp_end[i] - self.sp_start[i] - child[i] - self.sp_skip[i]
            self_s[name] += own * scales[self.sp_op[i]] if scales is not None else own
            calls[name] += 1
        return dict(self_s), dict(calls)

    def write(self, path: str, op_kinds: list[str]) -> None:
        """Save every span, with the kind of each op, as one JSON document."""
        doc = {
            "names": self.names,
            "op_kinds": op_kinds,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": [
                [self.sp_name[i], self.sp_start[i], self.sp_end[i], self.sp_parent[i], self.sp_op[i]]
                for i in range(len(self.sp_name))
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out
