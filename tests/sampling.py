"""Seeded random inputs for the property and verification suites. Shifts
are k x m complex matrices V, the one shift format of the package."""

from __future__ import annotations

import numpy as np

from lapframes.frames import DualFrame, Frame
from lapframes.graph import Graph, components


def random_graph(n: int, rng: np.random.Generator, p: float = 0.5) -> Graph:
    """Independent edges with probability p on n labelled vertices."""
    edges = {
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    }
    return Graph(n, frozenset(edges))


def random_connected_graph(
    rng: np.random.Generator,
    n_range: tuple[int, int] = (2, 8),
    p: float = 0.5,
    max_tries: int = 10_000,
) -> Graph:
    """Rejection-sample edge-probability-p graphs until connected."""
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    for _ in range(max_tries):
        g = random_graph(n, rng, p)
        if components(g).m == 1 and g.edges:
            return g
    raise RuntimeError(f"failed to sample a connected graph on {n} vertices")


def _relabel(g: Graph, order: np.ndarray) -> Graph:
    # order[i] = new label of old vertex i+1
    mapping = {old + 1: int(new) for old, new in enumerate(order)}
    edges = frozenset(
        (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in g.edges
    )
    return Graph(g.n, edges)


def random_disconnected_graph(
    rng: np.random.Generator,
    component_range: tuple[int, int] = (2, 3),
    size_range: tuple[int, int] = (1, 5),
    p: float = 0.5,
    shuffle: bool = True,
    max_tries: int = 10_000,
) -> Graph:
    """A graph with 2-3 components, sizes in [1, 5].

    The sample is constrained so that after any label shuffling the first
    component (the one holding the smallest label) has at least 2 vertices
    and so does at least one other component; this keeps the explicit
    alternate-dual construction non-degenerate.
    """
    for _ in range(max_tries):
        m = int(rng.integers(component_range[0], component_range[1] + 1))
        sizes = [int(rng.integers(size_range[0], size_range[1] + 1)) for _ in range(m)]
        if sum(1 for s in sizes if s >= 2) < 2:
            continue
        edges: set[tuple[int, int]] = set()
        offset = 0
        ok = True
        for s in sizes:
            if s >= 2:
                for _ in range(max_tries):
                    sub = random_graph(s, rng, p)
                    if components(sub).m == 1:
                        break
                else:
                    ok = False
                    break
                edges.update((u + offset, v + offset) for u, v in sub.edges)
            offset += s
        if not ok:
            continue
        g = Graph(sum(sizes), frozenset(edges))
        if shuffle:
            order = rng.permutation(g.n) + 1
            g = _relabel(g, order)
        decomp = components(g)
        post_sizes = decomp.sizes
        if post_sizes[0] >= 2 and any(s >= 2 for s in post_sizes[1:]):
            return g
    raise RuntimeError("failed to sample a disconnected graph with the required pattern")


def random_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian matrix, phases normalized."""
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def rotated(f: Frame, d: DualFrame, u: np.ndarray) -> tuple[Frame, DualFrame]:
    """(U Phi, U Psi with shifts U V), formed directly. U Phi keeps the
    Gramian, but its frame operator U diag(spectrum) U^H is not its spectrum,
    so its ``canonical`` refuses and no dual of it is built from that."""
    return Frame(f.k, f.n, u @ f.synthesis, f.layout, f.spectrum), DualFrame(u @ d.vectors, u @ d.shifts)


def random_dual_params(f: Frame, rng: np.random.Generator, scale: float = 10.0) -> np.ndarray:
    """k x m shifts with real and imaginary parts uniform in [-scale, scale],
    drawn column by column, each column's real parts before its imaginary
    parts."""
    re, im = rng.uniform(-scale, scale, (f.layout.m, 2, f.k)).transpose(1, 2, 0)
    return re + 1j * im
