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
once, where it is built, so code that receives a ``DualFrame`` need not
check it again. ``canonical_dual`` runs ``is_dual``. ``dual_from_params``
first tries an O(k^2 m) certificate from the same structure,
Psi Phi^H - I = (Psi_canonical Phi^H - I) + V (Phi B)^H, and runs
``is_dual`` on the formed dual only when the certificate cannot vouch for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import ComponentDecomposition, Graph, components, laplacian
from .linalg import ZERO_TOL, hermitian_eigenvalues, symmetric_eig

DUAL_TOL = 1e-8
UNITARY_TOL = 1e-9
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Frame:
    """Synthesis matrix plus its component layout and Laplacian spectrum.

    ``synthesis`` is k x n complex with column i the i-th frame vector (in
    block order); ``spectrum`` lists the nonzero Laplacian eigenvalues in
    block order, descending inside each block. ``synthesis`` is made
    read-only, so the memos below (the canonical dual, the duality
    certificate's terms, the block index and the analysis Phi^H) cannot go
    stale.
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

    @cached_property
    def block(self) -> np.ndarray:
        """Component index of every column, in block order (read-only)."""
        block = np.repeat(np.arange(self.layout.m), self.layout.sizes)
        block.flags.writeable = False
        return block

    @cached_property
    def analysis(self) -> np.ndarray:
        """Phi^H, the n x k analysis matrix (read-only)."""
        analysis = self.synthesis.conj().T
        analysis.flags.writeable = False
        return analysis

    @cached_property
    def certificate(self) -> DualityTerms:
        """The shift-independent terms of ``dual_from_params``'s certificate."""
        canon = self.canonical.vectors
        return DualityTerms(
            canon @ self.analysis - np.eye(self.k),
            np.add.reduceat(self.synthesis, self.layout.offsets[:-1], axis=1).conj().T,
            float(np.abs(canon).max()),
            float(np.abs(self.synthesis).sum(axis=1).max()),
        )


@dataclass(frozen=True)
class DualFrame:
    """Dual vectors as a k x n matrix and their k x m complex shifts V from
    the canonical dual (column j is component j's shift)."""

    vectors: np.ndarray
    shifts: np.ndarray


class DualityCheck(NamedTuple):
    ok: bool
    residual: float


class DualityTerms(NamedTuple):
    """Per-frame terms of the duality certificate: E = Psi_canonical Phi^H - I
    (k x k), P = (Phi B)^H (m x k, Phi B being each block's column sum),
    max |Psi_canonical| and the largest row 1-norm of Phi."""

    error: np.ndarray
    block_sums: np.ndarray
    canonical_max: float
    row_norm: float


def frame_from_graph(g: Graph) -> Frame:
    """Build the Laplacian frame of a graph, one component block at a time.

    Each component of size s contributes an (s-1) x s block; single-vertex
    components contribute a zero column. Raises if the graph has no edges
    (the ambient dimension would be zero).
    """
    decomp = components(g)
    k = g.n - decomp.m
    if k == 0:
        raise ValueError("zero-dimensional frame: the graph has no edges")
    # Each component's edges relabelled 1..s in ascending label order (its
    # block positions), so no n x n Laplacian is ever formed.
    pos = np.asarray(decomp.perm)[g.edge_array - 1]  # 1-based block positions
    comp = np.repeat(np.arange(decomp.m), decomp.sizes)[pos[:, 0] - 1]
    order = np.argsort(comp, kind="stable")
    pos, comp = pos[order], comp[order]
    local = (pos - np.asarray(decomp.offsets)[comp][:, None]).T.tolist()
    bounds = np.searchsorted(comp, np.arange(decomp.m + 1)).tolist()
    synthesis = np.zeros((k, g.n), dtype=complex)
    spectrum = np.zeros(k)
    row = 0
    for j, size in enumerate(decomp.sizes):
        if size == 1:
            continue
        lo, hi = bounds[j], bounds[j + 1]
        own = Graph(size, frozenset(zip(local[0][lo:hi], local[1][lo:hi])))
        dec = symmetric_eig(laplacian(own), 1)
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


def frame_bounds(f: Frame) -> tuple[float, float]:
    """(lower, upper) frame bounds: extreme eigenvalues of the frame operator."""
    values = hermitian_eigenvalues(frame_operator(f))
    lower, upper = float(values[-1]), float(values[0])
    if lower <= ZERO_TOL:
        raise ValueError(f"not a frame: lower bound {lower:.3e} <= {ZERO_TOL:g}")
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

    Duality is verified, not assumed. The dual is accepted without a k x n x k
    product when max |E + V P| plus a rounding bound,
    n eps (max |Psi_canonical| + max |V|) max_row ||Phi||_1, is within
    ``DUAL_TOL`` (``Frame.certificate`` holds E, P and the two maxima). The
    bound covers forming Psi_canonical + V B^T and also ``is_dual``'s own
    n-term products, so the certificate accepts only duals that ``is_dual``
    accepts. Otherwise ``is_dual`` decides on the formed dual, so a NaN or
    huge shift is refused there with its residual, as without the certificate.
    """
    shifts = np.asarray(shifts, dtype=complex)
    if shifts.shape != (f.k, f.layout.m):
        raise ValueError(f"shifts must be {f.k} x {f.layout.m}, got {shifts.shape}")
    dual = DualFrame(f.canonical.vectors + shifts[:, f.block], shifts)
    terms = f.certificate
    with np.errstate(all="ignore"):  # a NaN or inf bound defers to is_dual
        residual = np.abs(terms.error + shifts @ terms.block_sums).max()
        rounding = f.n * EPS * (terms.canonical_max + np.abs(shifts).max()) * terms.row_norm
    if residual + rounding <= DUAL_TOL:
        return dual
    check = is_dual(f, dual)
    if not check.ok:
        raise ValueError(f"duality residual {check.residual:.3e} above {DUAL_TOL:g}")
    return dual


def is_dual(f: Frame, d: DualFrame) -> DualityCheck:
    """Check the reconstruction identity: dual synthesis times frame analysis."""
    if d.vectors.shape != f.synthesis.shape:
        raise ValueError(
            f"dimension mismatch: dual {d.vectors.shape} vs frame {f.synthesis.shape}"
        )
    residual = float(np.abs(d.vectors @ f.analysis - np.eye(f.k)).max())
    return DualityCheck(residual <= DUAL_TOL, residual)


def apply_unitary(f: Frame, u) -> Frame:
    """Map every frame vector through a unitary; the Gramian is unchanged."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (f.k, f.k):
        raise ValueError(f"unitary must be {f.k} x {f.k}, got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(f.k))) > UNITARY_TOL:
        raise ValueError("matrix is not unitary within tolerance")
    return Frame(f.k, f.n, u @ f.synthesis, f.layout, f.spectrum)


def pairs(a: np.ndarray) -> list:
    """The JSON form of a complex array: its nested lists with every entry
    an [re, im] pair of Python floats."""
    return np.stack((a.real, a.imag), -1).tolist()


def _doc(f: Frame, matrix: np.ndarray) -> dict:
    return {
        "k": f.k,
        "n": f.n,
        "components": list(f.layout.sizes),
        "synthesis": pairs(matrix.reshape(-1)),
        "spectrum": [float(x) for x in f.spectrum],
    }


def frame_to_doc(f: Frame) -> dict:
    """JSON-ready document; synthesis is row-major [re, im] pairs."""
    return _doc(f, f.synthesis)


def dual_to_doc(d: DualFrame, f: Frame) -> dict:
    """The frame's document with the dual vectors as its synthesis."""
    return _doc(f, d.vectors)
