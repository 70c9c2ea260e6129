"""Definitional test oracles, formed directly from the frame and dual
vectors rather than by the package's radius pass.

``cross_gramian_radius`` is the n x n radius pass: C = Phi^H Psi formed
from the dual's vectors, then every principal submatrix C[s, s] gathered
from it. It needs no canonical dual and no shifts, so it also answers for
pairs that the package's pass cannot take, such as a unitary image
(U Phi, U Psi), whose frame operator is not diagonal.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from lapframes.frames import DualFrame, Frame
from lapframes.graph import Graph, components, laplacian
from lapframes.linalg import small_complex_eigenvalues


def cross_gramian_radius(f: Frame, d: DualFrame, r: int) -> float:
    """The largest spectral radius of any C[s, s] with |s| = r, from the
    n x n C = Phi^H Psi; at r = 1 the spectra are C's diagonal."""
    sets = np.array(list(combinations(range(f.n), r)), dtype=np.intp).reshape(-1, r)
    c = f.synthesis.conj().T @ d.vectors
    blocks = c[sets[:, :, None], sets[:, None, :]]
    spectra = blocks[:, :, 0] if r == 1 else small_complex_eigenvalues(blocks)
    return float(np.abs(spectra).max())


def error_operator(f: Frame, d: DualFrame, cols) -> np.ndarray:
    """The k x k error operator Psi[:, s] Phi[:, s]^H of the 0-based columns
    ``cols``; its nonzero spectrum is that of C[s, s]."""
    cols = np.asarray(cols, dtype=np.intp)
    return d.vectors[:, cols] @ f.analysis[cols]


def reduced_matrix(f: Frame, d: DualFrame, cols) -> np.ndarray:
    """The r x r matrix C[s, s] = Phi[:, s]^H Psi[:, s] of the 0-based
    columns ``cols``, formed for that set alone."""
    cols = np.asarray(cols, dtype=np.intp)
    return f.analysis[cols] @ d.vectors[:, cols]


def block_laplacian(g: Graph) -> np.ndarray:
    """The Laplacian with vertices in component block order, the column
    order of the graph's frame: vertex v moves to position perm[v - 1]."""
    order = np.argsort(components(g).perm)
    return laplacian(g)[np.ix_(order, order)]
