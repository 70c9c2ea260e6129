"""Simple undirected graphs: edge-list parsing, Laplacians, components.

Vertices are labelled 1..n everywhere in the public API, matching the
edge-list file format. Laplacian matrices are kept in exact integer
arithmetic; conversion to floating point happens at the eigensolver
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge-list input (bad header, bad line, invalid edge)."""


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 1..n.

    Edges are stored as unordered pairs (u, v) with u < v. No self-loops,
    no duplicates, every endpoint in [1, n]. The first edge (in iteration
    order) that breaks a rule is the one reported.
    """

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        u, v = self.edge_array.T
        bad = (u == v) | (u < 1) | (u >= v) | (v > self.n)
        if bad.any():
            u, v = self.edge_array[bad.argmax()].tolist()
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as an E x 2 integer array of labels, in the set's
        iteration order (read-only)."""
        flat = chain.from_iterable(self.edges)
        edges = np.fromiter(flat, dtype=np.int64, count=2 * len(self.edges)).reshape(-1, 2)
        edges.flags.writeable = False
        return edges

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components in a contiguous-block vertex ordering.

    Blocks are ordered by smallest original vertex label and preserve the
    original relative order inside each block. ``perm[v-1]`` is the 1-based
    position of original vertex v in the block ordering; ``offsets`` holds
    the cumulative sizes l_0=0, l_1, ..., l_m.
    """

    m: int
    sizes: tuple[int, ...]
    offsets: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if self.m != len(self.sizes) or sum(self.sizes) != n:
            raise ValueError("component sizes do not partition the vertex set")
        if self.offsets != tuple(np.cumsum((0,) + self.sizes).tolist()):
            raise ValueError("offsets inconsistent with sizes")
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError("perm is not a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.perm)

    def order(self) -> tuple[int, ...]:
        """Original vertex labels listed in block order (inverse of perm)."""
        inv = [0] * self.n
        for v, pos in enumerate(self.perm, start=1):
            inv[pos - 1] = v
        return tuple(inv)

    def members(self) -> tuple[tuple[int, ...], ...]:
        """Original vertex labels of each component, in block order."""
        order = self.order()
        return tuple(
            order[self.offsets[j]:self.offsets[j + 1]] for j in range(self.m)
        )


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: ``n <count>`` header, one ``u v`` per line.

    Lines beginning with ``#`` and blank lines are ignored. Raises
    EdgeListError on a missing header, malformed line, duplicate edge,
    self-loop, or endpoint out of range.
    """
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#") or not raw.strip():
            continue
        tokens = raw.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise EdgeListError(f"line {lineno}: expected header 'n <count>', got {raw!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise EdgeListError(f"line {lineno}: vertex count {tokens[1]!r} is not an integer") from None
            if n < 1:
                raise EdgeListError(f"line {lineno}: vertex count must be positive, got {n}")
            continue
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected edge 'u v', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: non-integer endpoint in {raw!r}") from None
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise EdgeListError(f"line {lineno}: endpoint out of range in ({u}, {v}), n={n}")
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise EdgeListError(f"line {lineno}: duplicate edge ({edge[0]}, {edge[1]})")
        edges.add(edge)
    if n is None:
        raise EdgeListError("missing header line 'n <count>'")
    return Graph(n, frozenset(edges))


def laplacian(g: Graph) -> np.ndarray:
    """Integer Laplacian matrix L = D - A; symmetric with zero row sums."""
    u, v = (g.edge_array - 1).T
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    lap[u, v] = lap[v, u] = -1
    lap[np.diag_indices(g.n)] = np.bincount(u, minlength=g.n) + np.bincount(v, minlength=g.n)
    return lap


def components(g: Graph) -> ComponentDecomposition:
    """Connected components via union-find, blocks ordered by smallest label."""
    parent = list(range(g.n + 1))  # 1-based; index 0 unused

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    groups: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        groups.setdefault(find(v), []).append(v)
    blocks = [sorted(members) for _, members in sorted(groups.items())]

    sizes = tuple(len(b) for b in blocks)
    offsets = (0,) + tuple(np.cumsum(sizes).tolist())
    perm = [0] * g.n
    pos = 1
    for block in blocks:
        for v in block:
            perm[v - 1] = pos
            pos += 1
    return ComponentDecomposition(len(blocks), sizes, offsets, tuple(perm))


def permuted_laplacian(g: Graph, decomp: ComponentDecomposition | None = None) -> np.ndarray:
    """Laplacian with vertices reordered into contiguous component blocks."""
    if decomp is None:
        decomp = components(g)
    lap = laplacian(g)
    idx = np.array(decomp.order()) - 1
    return lap[np.ix_(idx, idx)]


def contiguous_decomposition(sizes: tuple[int, ...] | list[int]) -> ComponentDecomposition:
    """Decomposition with identity perm for an already block-ordered layout."""
    sizes = tuple(int(s) for s in sizes)
    n = sum(sizes)
    offsets = (0,) + tuple(np.cumsum(sizes).tolist())
    return ComponentDecomposition(len(sizes), sizes, offsets, tuple(range(1, n + 1)))
