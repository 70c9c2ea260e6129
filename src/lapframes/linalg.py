"""Dense eigenvalue kernels for small matrices, on LAPACK via ``numpy.linalg``.

* ``symmetric_eig`` -- ``eigh`` for real symmetric input, with a structural
  zero count (clamped exactly) cross-checked against a magnitude threshold,
  fixed order and signs, and residuals checked against a tolerance.
* ``hermitian_eigenvalues`` -- ``eigvalsh``, descending.
* ``small_complex_eigenvalues`` -- one matrix or a stack: closed-form quadratic
  for order <= 2 (cheaper than LAPACK at that size); ``eigvals`` for order
  >= 3, each root checked against the characteristic polynomial.

All kernels are pure functions of their inputs and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EIG_TOL = 1e-9
ZERO_TOL = 1e-7
SYMMETRY_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """An eigenvalue computation failed or its result failed a residual check."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and orthonormal eigenvectors of a real symmetric matrix.

    ``values`` holds the nonzero eigenvalues in descending order followed by
    ``zero_count`` exact zeros; column i of ``vectors`` pairs with values[i].
    """

    values: np.ndarray
    vectors: np.ndarray
    zero_count: int


def _fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first entry of largest magnitude in each column positive."""
    if not vectors.size:
        return vectors.copy()
    lead = np.abs(vectors).argmax(axis=0)  # argmax keeps the first of tied entries
    return vectors * np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)


def symmetric_eig(a, expected_zero_count: int) -> EigenDecomposition:
    """Eigendecompose a real symmetric matrix with a known kernel dimension.

    The ``expected_zero_count`` smallest-magnitude eigenvalues must each be
    below ``ZERO_TOL`` in magnitude and are clamped to exactly 0; a
    near-zero eigenvalue outside that set raises (wrong structural count or
    ill-conditioned input). Reconstruction and orthonormality residuals are
    verified against ``EIG_TOL``.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if a.size and np.max(np.abs(a.imag)) > 0:
            raise ValueError("expected a real matrix; use hermitian_eigenvalues for complex input")
        a = a.real
    a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not 0 <= expected_zero_count <= n:
        raise ValueError(f"expected_zero_count {expected_zero_count} outside [0, {n}]")
    if n > 0 and np.max(np.abs(a - a.T)) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within 1e-12")

    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed on order {n}: {exc}") from exc

    by_magnitude = np.argsort(np.abs(values), kind="stable")
    zero_idx = by_magnitude[:expected_zero_count]
    rest_idx = by_magnitude[expected_zero_count:]
    for i in zero_idx:
        if abs(values[i]) >= ZERO_TOL:
            raise ValueError(
                f"eigenvalue {values[i]:.3e} expected to be zero has magnitude >= {ZERO_TOL:g}"
            )
    if rest_idx.size and abs(values[rest_idx[0]]) < ZERO_TOL:
        raise ValueError(
            f"found more near-zero eigenvalues than the expected {expected_zero_count}"
        )
    values[zero_idx] = 0.0  # eigh returned a fresh array

    nonzero_order = rest_idx[np.argsort(-values[rest_idx], kind="stable")]
    order = np.concatenate([nonzero_order, np.sort(zero_idx)]).astype(int)
    values = values[order]
    vectors = _fix_column_signs(vectors[:, order])

    recon = vectors @ np.diag(values) @ vectors.T
    recon_res = float(np.max(np.abs(a - recon))) if n else 0.0
    orth_res = float(np.max(np.abs(vectors.T @ vectors - np.eye(n)))) if n else 0.0
    if recon_res > EIG_TOL or orth_res > EIG_TOL:
        raise ConvergenceError(
            f"eigendecomposition residuals above {EIG_TOL:g}: reconstruction {recon_res:.3e}, "
            f"orthonormality {orth_res:.3e}"
        )
    return EigenDecomposition(values, vectors, expected_zero_count)


def hermitian_eigenvalues(a) -> np.ndarray:
    """Real eigenvalues of a complex Hermitian matrix, descending."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and np.max(np.abs(a - a.conj().T)) > SYMMETRY_TOL:
        raise ValueError("matrix is not Hermitian within 1e-12")
    return np.linalg.eigvalsh(a)[::-1]


def _eig_2x2(a: np.ndarray) -> np.ndarray:
    """Both roots of each 2x2 characteristic polynomial, cancellation-safe."""
    if a.ndim == 2:  # a stack of one: numpy's scalar complex product rounds differently
        return _eig_2x2(a[None])[0]
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    tr = a00 + a11
    # (a-d)^2 + 4bc equals tr^2 - 4 det without the cancellation between
    # nearly equal diagonal entries
    disc = np.sqrt((a00 - a11) ** 2 + 4.0 * a01 * a10)
    # pick the sqrt sign that avoids cancellation in tr + disc
    np.negative(disc, out=disc, where=(np.conj(tr) * disc).real < 0.0)
    roots = np.empty(a.shape[:-1], dtype=complex)
    roots[..., 0] = lam1 = 0.5 * (tr + disc)
    lam2 = 0.5 * (tr - disc)
    nonzero = lam1 != 0
    np.divide(a00 * a11 - a01 * a10, lam1, out=lam2, where=nonzero)
    roots[..., 1] = lam2
    return roots


def require_finite(a: np.ndarray) -> None:
    """Refuse an array with a NaN or infinite entry."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")


def small_complex_eigenvalues(a) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a small complex matrix, or of each
    matrix in a stack of shape (..., r, r); the result has shape (..., r).

    Order <= 2 uses the closed-form quadratic; order >= 3 uses LAPACK and
    then validates each root against the characteristic polynomial, with the
    residual scaled by (||A||_F + |root| + 1)^r so the check is meaningful
    across magnitudes.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    r = a.shape[-1]
    if r == 0:
        raise ValueError("matrix must have order at least 1")
    require_finite(a)
    if r == 1:
        return a[..., 0].copy()
    if r == 2:
        return _eig_2x2(a)

    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigvals failed on order {r}: {exc}") from exc
    residuals = np.abs(np.linalg.det(a[..., None, :, :] - eigs[..., None, None] * np.eye(r)))
    scales = (np.linalg.norm(a, axis=(-2, -1))[..., None] + np.abs(eigs) + 1.0) ** r
    bad = residuals > EIG_TOL * scales
    if np.any(bad):
        raise ConvergenceError(
            f"characteristic polynomial residual above {EIG_TOL:g} at root {eigs[bad][0]}"
        )
    return eigs
