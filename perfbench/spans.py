"""In-process spans around the package's public functions.

Each function is wrapped at every ``lapframes`` namespace that holds it,
because ``frames``, ``erasure``, ``optimality`` and ``cli`` import their
callees with ``from .x import y``; wrapping only the defining module would
miss those calls. Spans stay in memory (span id, parent, query id, name,
start, end, work, peak bytes) and are written out once at the end. A span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
import tracemalloc
from array import array
from math import comb
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED = {
    "graph": ("parse_edge_list", "laplacian", "components"),
    "linalg": ("symmetric_eig", "hermitian_eigenvalues", "small_complex_eigenvalues"),
    "frames": ("frame_from_graph", "frame_bounds", "canonical_dual", "dual_from_params", "is_dual"),
    "erasure": ("worst_radius",),
    "optimality": ("verify_order", "uniqueness_probe", "search_optimal_dual"),
    "simplex": ("nelder_mead",),
    "cli": ("main",),
}
NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


# Work each call does, stored with its span: a count the layer metrics sum,
# except for canonical_dual, which stores the frame's id so that distinct
# frames per query can be counted.
WORK = {
    "graph.parse_edge_list": lambda a, kw, res: len(res.edges),
    "linalg.symmetric_eig": lambda a, kw, res: np.shape(a[0])[0],
    "linalg.small_complex_eigenvalues": lambda a, kw, res: np.shape(a[0])[0] >= 3,  # QR path
    "frames.canonical_dual": lambda a, kw, res: id(a[0]),
    "erasure.worst_radius": lambda a, kw, res: comb(a[0].n, _arg(a, kw, 2, "r")),
    "simplex.nelder_mead": lambda a, kw, res: res.evaluations,
}


class Tracer:
    """Records one span per call of every traced function while installed.

    With ``memory=True`` each span also records its tracemalloc peak above
    the traced size at entry (tracemalloc must be running); keep that pass
    apart from the timed one, since tracemalloc slows allocation.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.query = 0
        self._next = 0
        self._current = -1
        self._stack: list[list[int]] = []  # [size at entry, highest peak seen]
        self.sid, self.parent, self.qid, self.name = (array("q") for _ in range(4))
        self.start, self.end, self.work, self.peak = (array("d") for _ in range(4))
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        work = WORK.get(NAMES[name_id])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._next, self._current
            self._next += 1
            self._current = sid
            if self.memory:
                self._enter_memory()
            start = perf_counter()
            amount = 0.0
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    amount = float(work(args, kwargs, result))
                return result
            finally:
                end = perf_counter()
                self._current = parent
                self.sid.append(sid)
                self.parent.append(parent)
                self.qid.append(self.query)
                self.name.append(name_id)
                self.start.append(start)
                self.end.append(end)
                self.work.append(amount)
                self.peak.append(self._exit_memory() if self.memory else 0.0)

        return traced

    def _enter_memory(self) -> None:
        size, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        self._stack.append([size, size])
        tracemalloc.reset_peak()

    def _exit_memory(self) -> float:
        entry, seen = self._stack.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        return float(peak - entry)

    def install(self) -> None:
        """Swap every traced function for its wrapper in all lapframes modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lapframes" or key.startswith("lapframes."))]
        name_id = 0
        for mod, fns in TRACED.items():
            defining = sys.modules[f"lapframes.{mod}"]
            for fn in fns:
                original = getattr(defining, fn)
                wrapper = self._wrap(name_id, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
                name_id += 1

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\tquery\tname\tstart_s\tend_s\twork\tpeak_bytes\n")
            for row in zip(self.sid, self.parent, self.qid, self.name,
                           self.start, self.end, self.work, self.peak):
                out.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{NAMES[row[3]]}\t"
                          f"{row[4]:.9f}\t{row[5]:.9f}\t{row[6]:.0f}\t{row[7]:.0f}\n")

    def table(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self_s, total_s, work, distinct (query, work)
        pairs, and the largest per-call peak in bytes."""
        sid = np.frombuffer(self.sid, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        qid = np.frombuffer(self.qid, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        work = np.frombuffer(self.work)
        peak = np.frombuffer(self.peak)
        child = np.zeros(self._next)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child[sid]
        out = {}
        for i, full in enumerate(NAMES):
            mask = name == i
            pairs = set(zip(qid[mask].tolist(), work[mask].tolist()))
            out[full] = {
                "calls": float(mask.sum()),
                "self_s": float(self_time[mask].sum()),
                "total_s": float(dur[mask].sum()),
                "work": float(work[mask].sum()),
                "distinct": float(len(pairs)),
                "peak_bytes": float(peak[mask].max()) if mask.any() else 0.0,
            }
        return out
