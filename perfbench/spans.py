"""Span recorder for the traced benchmark run.

The program itself has no instrumentation, so the recorder wraps the public
functions of each mainspectra module from the outside.  A function is often
bound under the same name in several module namespaces (``char_poly`` lives
in ``linalg`` and is imported into ``seidel``, ``census`` and
``equitable``), so every namespace that binds it gets the wrapper; otherwise
calls made through the importing module would go unrecorded.

Spans (name, start, end, parent, size) are kept in memory in flat arrays
and written out when the run ends.  ``size`` is the vertex count (or matrix
order) of the call's input, used to bucket ``char_poly`` by n and to find
the largest graph parsed.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = (
    "graph6",
    "graphs",
    "linalg",
    "spectrum",
    "equitable",
    "seidel",
    "constructions",
    "census",
    "cli",
)


def _size_of(args, result) -> int:
    if args:
        first = args[0]
        n = getattr(first, "n", None)
        if isinstance(n, int):
            return n
        if isinstance(first, (list, tuple)):
            return len(first)
    n = getattr(result, "n", None)
    return n if isinstance(n, int) else -1


class Tracer:
    """Records nested call spans while installed; inert otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        # (label, wall seconds, index of its first span, index past its last)
        self.segments: list[tuple[str, float, int, int]] = []
        self._stack = [-1]
        self._patches: list[tuple[dict, str, object]] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        stack = self._stack
        name_id, parent, size, start, end = (
            self.name_id, self.parent, self.size, self.start, self.end
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            size.append(-1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[idx] = clock()
                stack.pop()
                size[idx] = _size_of(args, result)

        return wrapper

    def install(self) -> None:
        """Patch every public function of MODULES in every mainspectra namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("mainspectra")
        modules = [importlib.import_module(f"mainspectra.{m}") for m in MODULES]
        if not self._wrappers:
            for mod in modules:
                short = mod.__name__.rsplit(".", 1)[1]
                for attr, obj in vars(mod).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                    ):
                        self._wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for ns in [package, *modules]:
            table = vars(ns)
            for attr, obj in list(table.items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((table, attr, obj))
                    table[attr] = hit[1]

    def uninstall(self) -> None:
        for table, attr, original in reversed(self._patches):
            table[attr] = original
        self._patches.clear()

    def segment(self, label: str, fn):
        """Run fn with the wrappers installed; its wall time is traced wall."""
        self.install()
        first = len(self.start)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - t0
            self.segments.append((label, wall, first, len(self.start)))
            self.uninstall()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            segments=np.array([s[0] for s in self.segments]),
            segment_wall=np.array([s[1] for s in self.segments]),
            segment_spans=np.array([s[2:] for s in self.segments], dtype=np.int64),
            **self.arrays(),
        )


class SpanStats:
    """Per-name aggregates derived from recorded spans.

    A span's self time is its duration minus the durations of its direct
    children; calls are strictly nested on one thread, so the children
    never overlap and their sum is exactly the covered part.
    """

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.size = a["size"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent],
            weights=self.dur[has_parent],
            minlength=len(self.dur),
        )
        self.self_time = self.dur - child
        self.segments = tracer.segments
        self.traced_wall = float(sum(s[1] for s in self.segments))
        # Segment time outside every top-level span: the benchmark's own
        # glue (output capture, the redirect) and the wrappers' own cost.
        self.unattributed = self.traced_wall - float(self.dur[~has_parent].sum())

    def _mask(self, name: str, sizes=None, labels=None) -> np.ndarray:
        # A function the program no longer defines simply has no spans.
        mask = self.name_id == self.ids.get(name, -1)
        if sizes is not None:
            lo, hi = sizes
            mask &= (self.size >= lo) & (self.size <= hi)
        if labels is not None:
            inside = np.zeros_like(mask)
            for label, _, first, stop in self.segments:
                if label in labels:
                    inside[first:stop] = True
            mask &= inside
        return mask

    def calls(self, name: str, sizes=None) -> int:
        return int(self._mask(name, sizes).sum())

    def self_s(self, name: str, sizes=None) -> float:
        return float(self.self_time[self._mask(name, sizes)].sum())

    def module_self_s(self, module: str) -> float:
        """Self time of every traced function of one module."""
        ids = [i for i, name in enumerate(self.names) if name.startswith(module + ".")]
        return float(self.self_time[np.isin(self.name_id, ids)].sum())

    def dur_s(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum())

    def child_s(self, name: str) -> float:
        """Time covered by the direct children of every span of this name."""
        idx = np.flatnonzero(self._mask(name))
        return float(self.dur[np.isin(self.parent, idx)].sum())

    def child_calls(self, parent_name: str, child_name: str) -> int:
        idx = np.flatnonzero(self._mask(parent_name))
        return int((np.isin(self.parent, idx) & self._mask(child_name)).sum())

    def percentile_ms(self, name: str, q: float, sizes=None) -> float:
        """Per-call duration percentile, or 0.0 when fewer than ten calls lie
        beyond it (too few samples to report that percentile)."""
        d = self.dur[self._mask(name, sizes)]
        if len(d) * (1 - q / 100) < 10:
            return 0.0
        return float(np.percentile(d, q)) * 1e3

    def max_ms(self, name: str) -> float:
        d = self.dur[self._mask(name)]
        return float(d.max()) * 1e3 if len(d) else 0.0

    def max_size(self, name: str, labels=None) -> int:
        s = self.size[self._mask(name, labels=labels)]
        return int(s.max()) if len(s) else 0

    def check_closure(self) -> float:
        """|sum of all self times + unattributed - traced wall|; the self
        times come from child subtraction and unattributed from the top-level
        spans, so this is ~0 only if the span tree is consistent."""
        return abs(float(self.self_time.sum()) + self.unattributed - self.traced_wall)
