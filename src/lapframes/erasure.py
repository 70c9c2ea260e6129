"""Erasure error operators and worst-case spectral radii.

An erasure set L's error operator is the k x k map assembled from the erased
dual and frame columns. Its nonzero spectrum is that of the r x r principal
submatrix C[L, L] of the cross-Gramian C = Phi^H Psi, so all radii come from
one C, in stacks of CHUNK_SETS submatrices. ``worst_radius`` makes that one
pass per (dual, r) and returns it whole, as arrays (C, the sets and their
spectra): the CLI formats it for ``rho -v`` and ``verify_order`` reads the
optimality laws from it. Every ``DualFrame`` was checked where it was built
(``Frame.canonical`` or ``dual_from_params``), so the radius kernel does not
check it again. ``error_operator`` and ``reduced_error_matrix`` build one
set's matrices directly, as test oracles, and they still check duality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .frames import DUAL_TOL, DualFrame, Frame, is_dual
from .linalg import small_complex_eigenvalues

TIE_TOL = 1e-10
MAX_SETS = 10**6
CHUNK_SETS = 4096  # principal submatrices per stacked eigenvalue call


class EnumerationCapError(ValueError):
    """C(n, r) erasure sets exceed MAX_SETS."""


@dataclass(frozen=True)
class ErasureSet:
    """A nonempty set of 1-based coefficient indices, stored sorted."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError("erasure set must be nonempty")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError(f"indices must be sorted and distinct, got {self.indices}")
        if self.indices[0] < 1:
            raise ValueError(f"indices must be >= 1, got {self.indices}")

    @property
    def r(self) -> int:
        return len(self.indices)


class RhoResult(NamedTuple):
    """The worst radius of one (dual, r) pass and everything the pass holds:
    C = Phi^H Psi, the N x r 0-based ``sets`` in lexicographic order, and the
    N x r ``spectra`` of their principal submatrices C[s, s]."""

    radius: float
    witness: ErasureSet
    c: np.ndarray
    sets: np.ndarray
    spectra: np.ndarray


def _check_lam(f: Frame, lam: ErasureSet) -> np.ndarray:
    if lam.indices[-1] > f.n:
        raise ValueError(f"erasure index {lam.indices[-1]} exceeds n={f.n}")
    return np.asarray(lam.indices) - 1


def _require_dual(f: Frame, d: DualFrame) -> None:
    check = is_dual(f, d)
    if not check.ok:
        raise ValueError(f"non-dual pair: duality residual {check.residual:.3e} above {DUAL_TOL:g}")


def error_operator(f: Frame, d: DualFrame, lam: ErasureSet) -> np.ndarray:
    """k x k matrix of the reconstruction contribution of the erased set."""
    _require_dual(f, d)
    cols = _check_lam(f, lam)
    return d.vectors[:, cols] @ f.synthesis[:, cols].conj().T


def reduced_error_matrix(f: Frame, d: DualFrame, lam: ErasureSet) -> np.ndarray:
    """r x r matrix with entry (i, j) pairing dual vector j against frame
    vector i over the erased set; shares the full operator's nonzero spectrum."""
    _require_dual(f, d)
    cols = _check_lam(f, lam)
    return f.synthesis[:, cols].conj().T @ d.vectors[:, cols]


def _erasure_sets(n: int, r: int) -> np.ndarray:
    """All C(n, r) sets as rows of 0-based indices, in lexicographic order."""
    if not 1 <= r < n:
        raise ValueError(f"erasure size r={r} outside [1, {n - 1}]")
    total = comb(n, r)
    if total > MAX_SETS:
        raise EnumerationCapError(f"C({n}, {r}) = {total} exceeds the enumeration cap {MAX_SETS}")
    flat = chain.from_iterable(combinations(range(n), r))
    return np.fromiter(flat, dtype=np.intp, count=total * r).reshape(total, r)


def worst_radius(f: Frame, d: DualFrame, r: int) -> RhoResult:
    """Maximum error-operator spectral radius over all erasure sets of size r.

    Enumerates all C(n, r) sets once and takes the r eigenvalues of each
    C[s, s], CHUNK_SETS sets at a time; the witness is the lexicographically
    smallest set whose radius is within ``TIE_TOL`` of the maximum, so the
    result is independent of evaluation order.
    """
    sets = _erasure_sets(f.n, r)
    c = f.synthesis.conj().T @ d.vectors
    spectra = np.empty(sets.shape, dtype=complex)
    for start in range(0, len(sets), CHUNK_SETS):
        idx = sets[start:start + CHUNK_SETS]
        spectra[start:start + len(idx)] = small_complex_eigenvalues(c[idx[:, :, None], idx[:, None, :]])
    radii = np.max(np.abs(spectra), axis=1)
    best = float(np.max(radii))
    witness = sets[np.argmax(radii >= best - TIE_TOL)]
    return RhoResult(best, ErasureSet(tuple(int(i) + 1 for i in witness)), c, sets, spectra)
