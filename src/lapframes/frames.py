"""Frames built from graph Laplacians, and their duals.

A frame here is a k x n complex synthesis matrix whose columns are the
frame vectors, built one connected component at a time: each component's
Laplacian is eigendecomposed, the zero mode is dropped, the remaining
eigenvector rows are scaled by sqrt(eigenvalue), and the blocks are placed
on the diagonal of the synthesis matrix. Columns follow the component
block ordering of the underlying graph.

Each row of Phi is sqrt(lambda) times an orthonormal eigenvector, so the
frame operator S = Phi Phi^H is diag(spectrum): the frame bounds are the
spectrum's extremes and the canonical dual S^-1 Phi is Phi / lambda.
``canonical_dual`` checks E = Psi_canonical Phi^H - I once, which catches a
frame whose rows break that fact.

Every dual is the canonical dual plus one constant shift per component:
Psi = Psi_canonical + V B^T, with V the k x m matrix of shifts and B the
n x m component indicator, so V names a dual exactly, and a ``DualFrame``
carries both Psi and V. The canonical dual is computed once per frame
(``Frame.canonical``) and every shifted dual is built from it by
``dual_from_params``. Each dual is checked once, where it is built, so code
that receives a ``DualFrame`` need not check it again. ``check_shifts`` is
the one duality decider, for a B x k x m batch of shift matrices: from
Psi Phi^H - I = E + V (Phi B)^H, a matrix with max |V| below a per-frame
limit (``shift_limit``) is accepted without its dual being formed, and
every other one goes to ``is_dual`` on the formed dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import ComponentDecomposition, Graph, components, laplacian
from .linalg import ZERO_TOL, symmetric_eig

DUAL_TOL = 1e-8
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Frame:
    """Synthesis matrix plus its component layout and Laplacian spectrum.

    ``synthesis`` is k x n complex with column i the i-th frame vector (in
    block order); ``spectrum`` lists the nonzero Laplacian eigenvalues in
    block order, descending inside each block; the frame operator
    Phi Phi^H is diag(spectrum). ``synthesis`` and ``spectrum`` are made
    read-only, so the memos below (the duality certificate's terms, the
    canonical dual, the block index, the analysis Phi^H and the largest
    entry outside the blocks) cannot go stale.
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
        self.spectrum.flags.writeable = False

    @cached_property
    def canonical(self) -> DualFrame:
        """The canonical dual, computed once per frame; its arrays are read-only."""
        return canonical_dual(self)

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
    def off_block(self) -> float:
        """max |Phi| outside its component blocks, rows(j) x columns(j), the
        rows of component j being the n_j - 1 after those of the components
        before it (read when k = n - m); 0 for a frame built from a graph."""
        rows = np.repeat(np.arange(self.layout.m), np.asarray(self.layout.sizes) - 1)
        return float(np.abs(self.synthesis).max(where=rows[:, None] != self.block, initial=0.0))

    @cached_property
    def certificate(self) -> DualityTerms:
        """Phi / spectrum and the norms of the duality certificate's terms,
        unchecked: ``canonical_dual`` decides on max |E|."""
        with np.errstate(all="ignore"):  # a zero in the spectrum gives a NaN E
            canon = self.synthesis / self.spectrum[:, None]
            error = np.abs(canon @ self.analysis - np.eye(self.k)).max()
        canon.flags.writeable = False
        block_sums = np.add.reduceat(self.synthesis, self.layout.offsets[:-1], axis=1)
        return DualityTerms(
            canon,
            float(np.abs(canon).max()),
            float(np.abs(self.synthesis).sum(axis=1).max()),
            float(error),
            float(np.abs(block_sums).sum(axis=1).max()),
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
    """Per-frame terms of the duality certificate: Psi_canonical = Phi /
    spectrum (k x n, read-only), max |Psi_canonical|, the largest row 1-norm
    of Phi, max |E| for E = Psi_canonical Phi^H - I, and the largest row
    1-norm of Phi B (each block's column sum)."""

    canonical: np.ndarray
    canonical_max: float
    row_norm: float
    error_max: float
    block_sums_norm: float


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


def frame_bounds(f: Frame) -> tuple[float, float]:
    """(lower, upper) frame bounds: the frame operator is diag(spectrum), so
    they are the spectrum's extremes.

    The operator's diagonal, each row's squared norm, must match its spectrum
    entry to ``DUAL_TOL`` relative (an O(k n) check, the diagonal of the
    certificate's E), so rows that break the fact are refused, not bounded.
    """
    lower, upper = float(f.spectrum.min()), float(f.spectrum.max())
    if not lower > ZERO_TOL:
        raise ValueError(f"not a frame: lower bound {lower:.3e} <= {ZERO_TOL:g}")
    squared = (f.synthesis.real ** 2 + f.synthesis.imag ** 2).sum(axis=1)
    mismatch = np.abs(squared / f.spectrum - 1.0)
    row = int(mismatch.argmax())
    if not mismatch[row] <= DUAL_TOL:
        raise ValueError(
            f"not a frame: row {row + 1} has squared norm {squared[row]:.3e}, "
            f"but its spectrum entry is {f.spectrum[row]:.3e}"
        )
    return lower, upper


def canonical_dual(f: Frame) -> DualFrame:
    """Phi / spectrum with zero shifts, since the frame operator is diag(spectrum).

    Refuses unless max |E| (``Frame.certificate``) is within ``DUAL_TOL``, so a
    NaN or rows that break that fact are caught. Read ``f.canonical`` instead.
    """
    terms = f.certificate
    if not terms.error_max <= DUAL_TOL:
        raise ValueError(f"canonical dual residual {terms.error_max:.3e} above {DUAL_TOL:g}")
    shifts = np.zeros((f.k, f.layout.m), dtype=complex)
    shifts.flags.writeable = False
    return DualFrame(terms.canonical, shifts)


def shift_limit(f: Frame) -> float:
    """The certificate's bound: every dual of ``f`` whose shifts have
    max |V| below this limit passes ``is_dual``.

    Psi Phi^H - I = E + V (Phi B)^H, so the residual is at most
    max |E| + max |V| p, p being the largest row 1-norm of Phi B; the
    rounding of forming Psi and of ``is_dual``'s n-term products is at most
    n eps (max |Psi_canonical| + max |V|) max_row ||Phi||_1. The sum is
    affine in max |V|, and the limit is where it reaches DUAL_TOL / 2 (the
    halving absorbs the rounding of the bound itself). It is negative, or
    NaN, on a frame whose max |E| is over DUAL_TOL, so nothing passes there.
    """
    t = f.certificate
    rounding = f.n * EPS * t.row_norm
    return (DUAL_TOL / 2 - t.error_max - rounding * t.canonical_max) / (t.block_sums_norm + rounding)


def dual_from_params(f: Frame, shifts: np.ndarray) -> DualFrame:
    """Canonical dual plus one constant shift per component block: the k x m
    ``shifts`` V add column j to every dual vector of block j.

    Duality is verified, not assumed, by ``check_shifts`` on a batch of one,
    so a NaN or huge shift is refused there with its residual.
    """
    shifts = np.asarray(shifts, dtype=complex)
    if shifts.shape != (f.k, f.layout.m):
        raise ValueError(f"shifts must be {f.k} x {f.layout.m}, got {shifts.shape}")
    check_shifts(f, shifts[None])
    return _shifted(f, shifts)


def _shifted(f: Frame, shifts: np.ndarray) -> DualFrame:
    return DualFrame(f.canonical.vectors + shifts.take(f.block, axis=1), shifts)


def check_shifts(f: Frame, shifts: np.ndarray) -> None:
    """Decide duality for every k x m matrix V of a B x k x m complex batch,
    or refuse the first, in batch order, whose dual is not one.

    A matrix with max |V| below ``shift_limit`` is accepted without forming
    its dual. Every other one, a NaN or infinite one included, is formed and
    goes to ``is_dual``, which refuses it with its residual.
    """
    accepted = np.abs(shifts).max(axis=(1, 2)) < shift_limit(f)
    if accepted.all():
        return
    for v in shifts[~accepted]:
        check = is_dual(f, _shifted(f, v))
        if not check.ok:
            raise ValueError(f"duality residual {check.residual:.3e} above {DUAL_TOL:g}")


def is_dual(f: Frame, d: DualFrame) -> DualityCheck:
    """Check the reconstruction identity: dual synthesis times frame analysis."""
    if d.vectors.shape != f.synthesis.shape:
        raise ValueError(
            f"dimension mismatch: dual {d.vectors.shape} vs frame {f.synthesis.shape}"
        )
    with np.errstate(all="ignore"):  # a NaN or infinite dual gives a NaN residual
        residual = float(np.abs(d.vectors @ f.analysis - np.eye(f.k)).max())
    return DualityCheck(residual <= DUAL_TOL, residual)


def pairs(a: np.ndarray) -> np.ndarray:
    """The JSON form of a complex array for the cli writer: a float array with
    one more axis, each entry an [re, im] pair (``tolist()`` for json)."""
    return np.stack((a.real, a.imag), -1)


def _doc(f: Frame, matrix: np.ndarray) -> dict:
    return {
        "k": f.k,
        "n": f.n,
        "components": list(f.layout.sizes),
        "synthesis": pairs(matrix.reshape(-1)),
        "spectrum": f.spectrum,
    }


def frame_to_doc(f: Frame) -> dict:
    """The document for the cli writer; synthesis is row-major [re, im] pairs."""
    return _doc(f, f.synthesis)


def dual_to_doc(d: DualFrame, f: Frame) -> dict:
    """The frame's document with the dual vectors as its synthesis."""
    return _doc(f, d.vectors)
