"""Frames built from graph Laplacians, their duals, and transforms.

A frame here is a k x n complex synthesis matrix whose columns are the
frame vectors, built one connected component at a time: each component's
Laplacian is eigendecomposed, the zero mode is dropped, the remaining
eigenvector rows are scaled by sqrt(eigenvalue), and the blocks are placed
on the diagonal of the synthesis matrix. Columns follow the component
block ordering of the underlying graph.

Every dual is the canonical dual plus one constant shift per component:
Psi = Psi_canonical + V B^T, with V the k x m matrix of shifts and B the
n x m component indicator, and a ``DualFrame`` carries both Psi and V. The
canonical dual is computed once per frame (``Frame.canonical``) and every
shifted dual is built from it by ``dual_from_params``. Each dual is checked
once, where it is built: both functions run ``is_dual`` before returning,
so code that receives a ``DualFrame`` need not check it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import ComponentDecomposition, Graph, components, contiguous_decomposition, laplacian
from .linalg import EIG_TOL, ZERO_TOL, hermitian_eigenvalues, symmetric_eig

DUAL_TOL = 1e-8
UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class Frame:
    """Synthesis matrix plus its component layout and Laplacian spectrum.

    ``synthesis`` is k x n complex with column i the i-th frame vector (in
    block order); ``spectrum`` lists the nonzero Laplacian eigenvalues in
    block order, descending inside each block. ``synthesis`` is made
    read-only, so the memoized ``canonical`` dual cannot go stale.
    """

    k: int
    n: int
    synthesis: np.ndarray
    layout: ComponentDecomposition
    spectrum: np.ndarray

    def __post_init__(self):
        if self.synthesis.shape != (self.k, self.n):
            raise ValueError(
                f"synthesis shape {self.synthesis.shape} does not match ({self.k}, {self.n})"
            )
        if self.layout.n != self.n:
            raise ValueError("layout vertex count does not match frame size")
        if self.spectrum.shape != (self.k,):
            raise ValueError("spectrum length must equal the ambient dimension")
        self.synthesis.flags.writeable = False

    @cached_property
    def canonical(self) -> DualFrame:
        """The canonical dual, computed once per frame; its arrays are read-only."""
        dual = canonical_dual(self)
        dual.vectors.flags.writeable = False
        dual.shifts.flags.writeable = False
        return dual


@dataclass(frozen=True)
class DualFrame:
    """Dual vectors as a k x n matrix and their k x m complex shifts V from
    the canonical dual (column j is component j's shift)."""

    vectors: np.ndarray
    shifts: np.ndarray


class DualityCheck(NamedTuple):
    ok: bool
    residual: float


def frame_from_graph(g: Graph, *, eig_tol: float = EIG_TOL, zero_tol: float = ZERO_TOL) -> Frame:
    """Build the Laplacian frame of a graph, one component block at a time.

    Each component of size s contributes an (s-1) x s block; single-vertex
    components contribute a zero column. Raises if the graph has no edges
    (the ambient dimension would be zero).
    """
    decomp = components(g)
    k = g.n - decomp.m
    if k == 0:
        raise ValueError("zero-dimensional frame: the graph has no edges")
    lap = laplacian(g)
    synthesis = np.zeros((k, g.n), dtype=complex)
    spectrum = np.zeros(k)
    row = 0
    for j, block in enumerate(decomp.members()):
        size = len(block)
        if size == 1:
            continue
        idx = np.asarray(block) - 1
        dec = symmetric_eig(lap[np.ix_(idx, idx)], 1, eig_tol=eig_tol, zero_tol=zero_tol)
        lam = dec.values[: size - 1]
        m1 = dec.vectors[:, : size - 1]
        col = decomp.offsets[j]
        synthesis[row:row + size - 1, col:col + size] = np.sqrt(lam)[:, None] * m1.T
        spectrum[row:row + size - 1] = lam
        row += size - 1
    return Frame(k, g.n, synthesis, decomp, spectrum)


def gramian(f: Frame) -> np.ndarray:
    """n x n matrix of pairwise inner products; entry (i, j) pairs vector j
    against vector i."""
    return f.synthesis.conj().T @ f.synthesis


def frame_operator(f: Frame) -> np.ndarray:
    """Sum of the rank-one outer products of the frame vectors (k x k)."""
    return f.synthesis @ f.synthesis.conj().T


def frame_bounds(f: Frame, *, zero_tol: float = ZERO_TOL) -> tuple[float, float]:
    """(lower, upper) frame bounds: extreme eigenvalues of the frame operator."""
    values = hermitian_eigenvalues(frame_operator(f))
    lower, upper = float(values[-1]), float(values[0])
    if lower <= zero_tol:
        raise ValueError(f"not a frame: lower bound {lower:.3e} <= {zero_tol:g}")
    return lower, upper


def canonical_dual(f: Frame) -> DualFrame:
    """Apply the inverse frame operator to every frame vector.

    This is the one computation behind ``f.canonical``; read that instead.
    """
    s = frame_operator(f)
    try:
        vectors = np.linalg.solve(s, f.synthesis)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular frame operator") from exc
    dual = DualFrame(vectors, np.zeros((f.k, f.layout.m), dtype=complex))
    check = is_dual(f, dual)
    if not check.ok:
        raise ValueError(f"canonical dual residual {check.residual:.3e} above {DUAL_TOL:g}")
    return dual


def dual_from_params(f: Frame, shifts: np.ndarray) -> DualFrame:
    """Canonical dual plus one constant shift per component block: the k x m
    ``shifts`` V add column j to every dual vector of block j.

    Duality is verified, not assumed; a residual above ``DUAL_TOL`` raises
    (a NaN or huge shift is refused there).
    """
    shifts = np.asarray(shifts, dtype=complex)
    if shifts.shape != (f.k, f.layout.m):
        raise ValueError(f"shifts must be {f.k} x {f.layout.m}, got {shifts.shape}")
    block = np.repeat(np.arange(f.layout.m), f.layout.sizes)
    dual = DualFrame(f.canonical.vectors + shifts[:, block], shifts)
    check = is_dual(f, dual)
    if not check.ok:
        raise ValueError(f"duality residual {check.residual:.3e} above {DUAL_TOL:g}")
    return dual


def is_dual(f: Frame, d: DualFrame, tol: float = DUAL_TOL) -> DualityCheck:
    """Check the reconstruction identity: dual synthesis times frame analysis."""
    if d.vectors.shape != f.synthesis.shape:
        raise ValueError(
            f"dimension mismatch: dual {d.vectors.shape} vs frame {f.synthesis.shape}"
        )
    residual = float(np.max(np.abs(d.vectors @ f.synthesis.conj().T - np.eye(f.k))))
    return DualityCheck(residual <= tol, residual)


def apply_unitary(f: Frame, u, *, unitary_tol: float = UNITARY_TOL) -> Frame:
    """Map every frame vector through a unitary; the Gramian is unchanged."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (f.k, f.k):
        raise ValueError(f"unitary must be {f.k} x {f.k}, got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(f.k))) > unitary_tol:
        raise ValueError("matrix is not unitary within tolerance")
    return Frame(f.k, f.n, u @ f.synthesis, f.layout, f.spectrum)


def _matrix_to_pairs(mat: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]


def _pairs_to_matrix(pairs, k: int, n: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    if flat.size != k * n:
        raise ValueError(f"expected {k * n} synthesis entries, got {flat.size}")
    return flat.reshape(k, n)


def _doc(f: Frame, matrix: np.ndarray) -> dict:
    return {
        "k": f.k,
        "n": f.n,
        "components": list(f.layout.sizes),
        "synthesis": _matrix_to_pairs(matrix),
        "spectrum": [float(x) for x in f.spectrum],
    }


def frame_to_doc(f: Frame) -> dict:
    """JSON-ready document; synthesis is row-major [re, im] pairs."""
    return _doc(f, f.synthesis)


def frame_from_doc(doc: dict) -> Frame:
    """Rebuild a frame from its document; the layout is taken as block-ordered."""
    k, n = int(doc["k"]), int(doc["n"])
    layout = contiguous_decomposition(doc["components"])
    synthesis = _pairs_to_matrix(doc["synthesis"], k, n)
    spectrum = np.array([float(x) for x in doc["spectrum"]])
    return Frame(k, n, synthesis, layout, spectrum)


def dual_to_doc(d: DualFrame, f: Frame) -> dict:
    """The frame's document with the dual vectors as its synthesis."""
    return _doc(f, d.vectors)
