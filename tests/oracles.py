"""The n x n radius pass, kept as a test oracle: C = Phi^H Psi formed from
the dual's vectors, then every principal submatrix C[s, s] gathered from it.

It needs no canonical dual and no shifts, so it also answers for pairs that
the package's pass cannot take, such as a unitary image (U Phi, U Psi),
whose frame operator is not diagonal.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from lapframes.frames import DualFrame, Frame
from lapframes.linalg import small_complex_eigenvalues


def cross_gramian_radius(f: Frame, d: DualFrame, r: int) -> float:
    """The largest spectral radius of any C[s, s] with |s| = r, from the
    n x n C = Phi^H Psi; at r = 1 the spectra are C's diagonal."""
    sets = np.array(list(combinations(range(f.n), r)), dtype=np.intp).reshape(-1, r)
    c = f.synthesis.conj().T @ d.vectors
    blocks = c[sets[:, :, None], sets[:, None, :]]
    spectra = blocks[:, :, 0] if r == 1 else small_complex_eigenvalues(blocks)
    return float(np.abs(spectra).max())
