"""Seeded inputs for the benchmark workloads.

The graphs come from this file's own numpy code, not from
``lapframes.sampling``, so a change to the package cannot change what the
benchmark feeds it. Every round of a workload gets its own graphs of the same
sizes; the same seed and round always give the same files.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EDGE_P = 0.3
# A shifted dual is only defined in the frame's eigenbasis. For every graph
# that gets one, each component's Laplacian spectrum must be simple with this
# gap, and in every eigenvector the largest |entry| must beat the runner-up by
# LEAD_GAP, so the package's sign rule (first largest entry positive) picks the
# same basis as the oracle's numpy eigh.
SPECTRAL_GAP = 1e-3
LEAD_GAP = 1e-6
SHIFT_SCALE = 0.3
MAX_DRAWS = 200


@dataclass(frozen=True)
class GraphSpec:
    """Component sizes in generation order; labels are shuffled when there
    is more than one component. ``shifted`` graphs also get a params file."""

    name: str
    sizes: tuple[int, ...]
    shifted: bool = False


@dataclass(frozen=True)
class Query:
    command: str
    graph: str
    r: int | None = None
    params: bool = False

    def argv(self) -> list[str]:
        args = [self.command, f"{self.graph}.el"]
        if self.r is not None:
            args += ["-r", str(self.r)]
        if self.params:
            args += ["--params", f"{self.graph}.params.json"]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: tuple[GraphSpec, ...]
    queries: tuple[Query, ...]  # one round, run in this order


@dataclass
class Graph:
    """A generated graph: 1-based edges, components in the package's block
    order (by smallest label, members ascending), optional shifts."""

    n: int
    edges: list[tuple[int, int]]
    blocks: list[list[int]]
    shifts: list[np.ndarray] | None = None

    @property
    def sizes(self) -> list[int]:
        return [len(b) for b in self.blocks]


def _g(n: int) -> GraphSpec:
    return GraphSpec(f"g{n}", (n,))


FRAME_BUILD = Workload(
    "frame-build",
    graphs=(_g(100), GraphSpec("h100", (100,)), GraphSpec("k100", (100,)),
            GraphSpec("m200", (105, 60, 34, 1))),
    queries=tuple(
        Query(cmd, g) for g in ("g100", "m200", "h100", "k100") for cmd in ("build", "dual")
    ),
)

ERASURE_VERIFY = Workload(
    "erasure-verify",
    graphs=(
        _g(40), _g(60), _g(80),
        GraphSpec("d40", (22, 17, 1)), GraphSpec("d60", (36, 24)), GraphSpec("d80", (47, 32, 1)),
        GraphSpec("s120", (120,), shifted=True),
        GraphSpec("s30", (30,), shifted=True),
        GraphSpec("s40", (40,), shifted=True),
    ),
    queries=(
        Query("rho", "s120", r=2, params=True),
        *(Query("verify", g, r=r) for g in ("g40", "d40") for r in (1, 2)),
        Query("rho", "s30", r=3, params=True),
        *(Query("verify", g, r=r) for g in ("g60", "d60") for r in (1, 2)),
        Query("rho", "s40", r=3, params=True),
        *(Query("verify", g, r=r) for g in ("g80", "d80") for r in (1, 2)),
        Query("rho", "d40", r=3),
    ),
)

DUAL_SEARCH = Workload(
    "dual-search",
    graphs=(_g(6), _g(7), GraphSpec("h7", (7,)), _g(8), GraphSpec("h8", (8,)), _g(10), _g(14),
            GraphSpec("m7", (4, 2, 1)), GraphSpec("m9", (5, 3, 1))),
    queries=tuple(
        Query("search", g, r=r) for g, r in (
            ("g6", 1), ("g7", 2), ("m7", 1), ("g8", 2), ("g10", 1),
            ("m9", 2), ("h7", 2), ("g14", 1), ("h8", 2), ("m7", 2),
        )
    ),
)

WORKLOADS = {w.name: w for w in (FRAME_BUILD, ERASURE_VERIFY, DUAL_SEARCH)}
WARMUP = GraphSpec("warmup", (12,))


def _rng(seed: int, round_index: int, workload: str, graph: str, draw: int) -> np.random.Generator:
    name = zlib.crc32(f"{workload}/{graph}".encode())
    return np.random.default_rng([seed, round_index, name, draw])


def _connected_gnp(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """G(n, EDGE_P) on 0-based vertices, redrawn until connected."""
    if n == 1:
        return []
    for _ in range(MAX_DRAWS):
        us, vs = np.nonzero(np.triu(rng.random((n, n)) < EDGE_P, 1))
        edges = list(zip(us.tolist(), vs.tolist()))
        if len(_blocks(n, [(u + 1, v + 1) for u, v in edges])) == 1:
            return edges
    raise RuntimeError(f"no connected G({n}, {EDGE_P}) in {MAX_DRAWS} draws")


def _blocks(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Components as sorted label lists, ordered by smallest label."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * (n + 1)
    blocks = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        stack, members = [start], []
        while stack:
            x = stack.pop()
            members.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        blocks.append(sorted(members))
    return blocks


def laplacian(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u - 1, v - 1] = lap[v - 1, u - 1] = -1.0
        lap[u - 1, u - 1] += 1.0
        lap[v - 1, v - 1] += 1.0
    return lap


def _well_separated(g: Graph) -> bool:
    lap = laplacian(g.n, g.edges)
    for block in g.blocks:
        if len(block) < 2:
            continue
        idx = np.asarray(block) - 1
        values, vectors = np.linalg.eigh(lap[np.ix_(idx, idx)])
        if np.min(np.diff(values)) < SPECTRAL_GAP:
            return False
        mags = np.sort(np.abs(vectors[:, 1:]), axis=0)
        if np.min(mags[-1] - mags[-2]) < LEAD_GAP:
            return False
    return True


def make_graph(spec: GraphSpec, seed: int, workload: str, round_index: int) -> Graph:
    for draw in range(MAX_DRAWS):
        rng = _rng(seed, round_index, workload, spec.name, draw)
        n = sum(spec.sizes)
        labels = rng.permutation(n) + 1 if len(spec.sizes) > 1 else np.arange(1, n + 1)
        edges, base = [], 0
        for size in spec.sizes:
            for u, v in _connected_gnp(rng, size):
                a, b = int(labels[base + u]), int(labels[base + v])
                edges.append((min(a, b), max(a, b)))
            base += size
        edges.sort()
        g = Graph(n, edges, _blocks(n, edges))
        if sorted(g.sizes) != sorted(spec.sizes):
            raise RuntimeError(f"{spec.name}: components {g.sizes} differ from {spec.sizes}")
        if not spec.shifted:
            return g
        if _well_separated(g):
            k = n - len(g.blocks)
            g.shifts = [SHIFT_SCALE * (rng.normal(size=k) + 1j * rng.normal(size=k))
                        for _ in g.blocks]
            return g
    raise RuntimeError(f"{spec.name}: no draw with a simple spectrum (gap {SPECTRAL_GAP}) "
                       f"in {MAX_DRAWS} draws")


def write_inputs(workload: Workload, seed: int, round_index: int,
                 directory: Path) -> dict[str, Graph]:
    """Generate every graph of one round of the workload into ``directory``
    as edge lists and params files; return them by name. Round 0 also gets
    the warm-up graph."""
    directory.mkdir(parents=True, exist_ok=True)
    graphs = {}
    for spec in workload.graphs + ((WARMUP,) if round_index == 0 else ()):
        g = make_graph(spec, seed, workload.name, round_index)
        lines = [f"# {workload.name} seed {seed} round {round_index} {spec.name}", f"n {g.n}"]
        lines += [f"{u} {v}" for u, v in g.edges]
        (directory / f"{spec.name}.el").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if g.shifts is not None:
            doc = [[[float(z.real), float(z.imag)] for z in nu] for nu in g.shifts]
            (directory / f"{spec.name}.params.json").write_text(json.dumps(doc), encoding="utf-8")
        graphs[spec.name] = g
    return graphs
