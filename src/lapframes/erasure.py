"""Erasure error operators and worst-case spectral radii.

An erasure set L's error operator is the k x k map assembled from the erased
dual and frame columns. Its nonzero spectrum is that of the r x r principal
submatrix C[L, L] of the cross-Gramian C = Phi^H Psi, so all radii come from
one C. At r = 1 the spectra are C's diagonal; at r >= 2 they come from
stacks of at most CHUNK_SETS submatrices. ``worst_radius`` makes that one
pass per (dual, r) and returns it whole, as arrays (C, the sets, their
spectra and radii): the CLI formats it for ``rho -v`` and ``verify_order``
reads the optimality laws from it. The witness set is built from the radii
only when a caller reads it, since ``search`` never does. Every ``DualFrame``
was checked where it was built (``Frame.canonical`` or ``dual_from_params``),
so the radius kernel does not check it again; it still refuses non-finite
spectra. ``error_operator`` and ``reduced_error_matrix`` build one
set's matrices directly, as test oracles, and they still check duality.

``shifted_radii`` is the pass for many shifted duals at once, as ``search``
and ``uniqueness_probe`` evaluate them: every such dual's C is
C_0 + W B^T, with C_0 = Phi^H Psi_canonical fixed per frame and W = Phi^H V
linear in the shifts, so a batch costs one product for all its W and no
dual or n x n array per point. ``worst_radius`` stays the general pass and
the evaluator's test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb, isfinite
from typing import Callable, NamedTuple

import numpy as np

from .frames import DUAL_TOL, DualFrame, Frame, check_shift_vectors, is_dual
from .linalg import require_finite, small_complex_eigenvalues

TIE_TOL = 1e-10
MAX_SETS = 10**6
CHUNK_SETS = 4096  # principal submatrices per stacked eigenvalue call
CHUNK_ENTRIES = 1 << 16  # complex entries of W and of the gathered C per batch chunk


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
    C = Phi^H Psi, the N x r 0-based ``sets`` in lexicographic order, the
    N x r ``spectra`` of their principal submatrices C[s, s] (at r = 1 a
    read-only view of C's diagonal) and the N ``radii`` (each set's largest
    eigenvalue magnitude)."""

    radius: float
    c: np.ndarray
    sets: np.ndarray
    spectra: np.ndarray
    radii: np.ndarray

    @property
    def witness(self) -> ErasureSet:
        """The lexicographically smallest set whose radius is within
        ``TIE_TOL`` of the maximum, so it does not depend on evaluation order."""
        first = self.sets[(self.radii >= self.radius - TIE_TOL).argmax()]
        return ErasureSet(tuple(int(i) + 1 for i in first))


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


@lru_cache(maxsize=4)
def _enumerate(n: int, r: int) -> np.ndarray:
    total = comb(n, r)
    flat = chain.from_iterable(combinations(range(n), r))
    sets = np.fromiter(flat, dtype=np.intp, count=total * r).reshape(total, r)
    sets.flags.writeable = False
    return sets


@lru_cache(maxsize=4)
def _submatrix_index(n: int, r: int) -> np.ndarray:
    """Flat indices into an n x n C of every set's C[s, s], N x r x r; used
    only when the N sets fit in one chunk, so it stays small."""
    sets = _enumerate(n, r)
    index = sets[:, :, None] * n + sets[:, None, :]
    index.flags.writeable = False
    return index


def _erasure_sets(n: int, r: int) -> np.ndarray:
    """All C(n, r) sets as rows of 0-based indices, in lexicographic order.

    The array is cached per (n, r) and read-only; the range and the cap are
    checked on every call, before the cache is consulted.
    """
    if not 1 <= r < n:
        raise ValueError(f"erasure size r={r} outside [1, {n - 1}]")
    total = comb(n, r)
    if total > MAX_SETS:
        raise EnumerationCapError(f"C({n}, {r}) = {total} exceeds the enumeration cap {MAX_SETS}")
    return _enumerate(n, r)


def worst_radius(f: Frame, d: DualFrame, r: int) -> RhoResult:
    """Maximum error-operator spectral radius over all erasure sets of size r.

    Enumerates all C(n, r) sets once. At r = 1 each set's one eigenvalue is
    a diagonal entry of C, which must be finite; at r >= 2 the r eigenvalues
    of each C[s, s] come from ``small_complex_eigenvalues``, CHUNK_SETS sets
    at a time. ``RhoResult.witness`` picks the worst set from the radii.
    """
    sets = _erasure_sets(f.n, r)
    with np.errstate(all="ignore"):  # a non-finite hand-built dual is refused below
        c = f.analysis @ d.vectors
    if r == 1:
        spectra = c.diagonal()[:, None]
        radii = np.abs(spectra[:, 0])
        best = float(radii.max())
        if not isfinite(best):  # an infinite radius may still come from finite entries
            require_finite(spectra)
        return RhoResult(best, c, sets, spectra, radii)
    if len(sets) <= CHUNK_SETS:
        spectra = small_complex_eigenvalues(c.take(_submatrix_index(f.n, r)))
    else:
        spectra = np.empty(sets.shape, dtype=complex)
        for start in range(0, len(sets), CHUNK_SETS):
            idx = sets[start:start + CHUNK_SETS]
            spectra[start:start + len(idx)] = small_complex_eigenvalues(c[idx[:, :, None], idx[:, None, :]])
    radii = np.abs(spectra).max(axis=1)
    return RhoResult(float(radii.max()), c, sets, spectra, radii)


def shifted_radii(f: Frame, r: int) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluator of order-r worst radii, r in {1, 2}, of the duals
    Psi_canonical + V B^T: it maps a B x 2mk batch of flat shift vectors
    (``frames.vector_to_params`` layout) to their B radii.

    C_0 = Phi^H Psi_canonical is formed here, once: its diagonal at r = 1,
    and at r = 2 the 2 x 2 blocks C_0[s, s] of every set. Per batch, duality
    is decided by ``frames.check_shift_vectors``, W = Phi^H V comes from one
    real product of the flat vectors with [[Re Phi, -Im Phi], [Im Phi,
    Re Phi]] (columns interleaved, so the result reads as complex), and
    C[s, s] = C_0[s, s] + W[s, B(s)] is a gather; r = 1 takes its largest
    magnitude, r = 2 the largest root of each block from one stacked
    ``small_complex_eigenvalues`` (the closed-form 2 x 2 roots). A batch goes
    in chunks of about CHUNK_ENTRIES entries. Each radius matches
    ``worst_radius`` on the formed dual to rounding, and so do the refusals:
    a non-dual row as in ``dual_from_params``, and non-finite entries as
    "matrix entries must be finite".
    """
    if r not in (1, 2):
        raise ValueError(f"shifted radii cover erasure orders 1 and 2, got {r}")
    sets = _erasure_sets(f.n, r)
    n, k, m = f.n, f.k, f.layout.m
    canonical = f.canonical.vectors
    if r == 1:
        fixed = (f.analysis.T * canonical).sum(axis=0)
        index = f.block * n + np.arange(n)  # W[i, B(i)] in W^T, flat m x n
    else:
        fixed = (f.analysis @ canonical)[sets[:, :, None], sets[:, None, :]]
        index = f.block[sets][:, None, :] * n + sets[:, :, None]  # W[s_p, B(s_q)]
    phi = f.synthesis
    product = np.empty((2, k, n, 2))
    product[0, :, :, 0] = product[1, :, :, 1] = phi.real
    product[1, :, :, 0] = phi.imag
    product[0, :, :, 1] = -phi.imag
    product = product.reshape(2 * k, 2 * n)
    rows = max(1, CHUNK_ENTRIES // (m * n + index.size))

    def chunk_radii(x: np.ndarray) -> np.ndarray:
        w = (x.reshape(-1, 2 * k) @ product).view(complex).reshape(len(x), m * n)
        c = fixed + w.take(index, axis=1)
        if r == 2:
            return np.abs(small_complex_eigenvalues(c)).max(axis=(1, 2))
        radii = np.abs(c).max(axis=1)
        if not np.isfinite(radii).all():  # an infinite radius may still come from finite entries
            require_finite(c)
        return radii

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != 2 * m * k:
            raise ValueError(f"expected a batch of {2 * m * k}-parameter rows, got shape {x.shape}")
        check_shift_vectors(f, x)
        if len(x) <= rows:
            return chunk_radii(x)
        return np.concatenate([chunk_radii(x[start:start + rows]) for start in range(0, len(x), rows)])

    return evaluate
