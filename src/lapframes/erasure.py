"""Worst-case spectral radii of erasure error operators.

An erasure set s's error operator is the k x k map assembled from the erased
dual and frame columns; its nonzero spectrum is that of the r x r principal
submatrix C[s, s] of the cross-Gramian C = Phi^H Psi. Every dual is
Psi_canonical + V B^T, so C = C_0 + W B^T with W = Phi^H V. A Laplacian
frame's C_0 = Phi^H Psi_canonical is blockdiag(I - J/n_j): zero across
blocks and its row's diagonal entry minus 1 off the diagonal within one, so
C[s, s] = I + X[s, B(s)], X being W plus C_0[i, i] - 1 at each (i, B(i)).
``_RadiusPass``, the one pass, holds per frame and r the C(n, r) sets and
C_0's measured diagonal, and refuses a frame whose k is not n - m, whose
Phi B (``Frame.certificate``) is over ``DUAL_TOL`` or whose Phi has an
entry over ``DUAL_TOL`` outside its component blocks (``Frame.off_block``):
that diagonal and those checks are what ``verify`` measures of C_0, and
what make the form exact for the matrix the pass forms.

Column q of X[s, B(s)] depends only on the component of s_q, so
X[s, B(s)] = Y_s E_s^T, with Y_s = X[s, B_s] the r x m_s columns of the
m_s components s touches and E_s the r x m_s component indicator. So the
spectrum of C[s, s] is spec(I_{m_s} + E_s^T Y_s) and r - m_s unit
eigenvalues. The pass groups the sets of a chunk by the pattern of
components along each set (m_s and which places share one). A set inside
one component gets the rank-one scalar 1 + sum_p X[s_p, B(s)], summed in
set order, with no eigen-solve: at r = 1 that is C[i, i]. Only sets that
touch m_s >= 2 components reach ``small_complex_eigenvalues``, as
m_s x m_s stacks, and at m_s = r that stack is C[s, s] itself. ``worst``,
``worst_radius`` and ``chunks`` read these same spectra, so a set's radius
is the largest modulus of its spectrum everywhere; ``chunks`` alone forms
the r x r C[s, s] too, for ``rho -v``.

The order picks only the rows of a B x R x k stack, and one product forms
X, each row its own 1 x k by k x n product: at r = 1 one row per dual,
v_a = V[a, component of row a], giving only X[i, B(i)] (O(n k), no n x n
or n x m array), at r >= 2 the m columns nu_j of each of the B shift
matrices V. So every row runs the same BLAS kernel at any batch size,
order or m, and a dual's X, C[s, s] and radii have the same bits alone or
in a batch and at r = 1 as on the r = 2 diagonal (the rows differ only
where Phi is exactly zero). X is checked finite once per batch, where it
is formed. The pass walks its sets in chunks of ``CHUNK_ENTRIES // r^2``,
and every reader takes them a whole chunk at a time. At r <= 2 it measures
each chunk's groups and Y_s index once, when built, and keeps them as one
list per chunk (at most 8 + 8 r m_s bytes a set, 40 MB at the cap); at
r >= 3 it measures them per chunk, so memory stays flat.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from math import comb
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .frames import DUAL_TOL, DualFrame, Frame, check_shifts
from .linalg import require_finite, small_complex_eigenvalues

TIE_TOL = 1e-10
MAX_SETS = 10**6
CHUNK_ENTRIES = 1 << 15  # complex entries of X and of C[s, s] per chunk


class EnumerationCapError(ValueError):
    """C(n, r) erasure sets exceed MAX_SETS."""


class RhoResult(NamedTuple):
    """The worst radius of one (dual, r) pass, its N x r 0-based ``sets`` in
    lexicographic order and their N ``radii``; no spectrum is kept, and
    ``chunks()`` yields C[s, s] and the spectra of each chunk of the pass's
    sets again, in order."""

    radius: float
    sets: np.ndarray
    radii: np.ndarray
    chunks: Callable[[], Iterator[tuple[np.ndarray, np.ndarray]]]

    @property
    def spectra(self) -> np.ndarray:
        """The N x r spectra of C[s, s], formed again one pass chunk at a time."""
        spectra, lo = np.empty(self.sets.shape, dtype=complex), 0
        for _, part in self.chunks():
            spectra[lo:lo + len(part)] = part
            lo += len(part)
        return spectra

    @property
    def witness(self) -> tuple[int, ...]:
        """The 1-based indices of the lexicographically smallest set whose
        radius is within ``TIE_TOL`` of the maximum, so it does not depend on
        evaluation order."""
        first = self.sets[(self.radii >= self.radius - TIE_TOL).argmax()]
        return tuple(int(i) + 1 for i in first)


@lru_cache(maxsize=4)
def _enumerate(n: int, r: int) -> np.ndarray:
    total = comb(n, r)
    flat = chain.from_iterable(combinations(range(n), r))
    sets = np.fromiter(flat, dtype=np.intp, count=total * r).reshape(total, r)
    sets.flags.writeable = False
    return sets


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


class _Group(NamedTuple):
    """The sets of a chunk that share one pattern: ``members`` their
    positions in the chunk, ascending, ``labels`` the rank among the set's m_s
    components of each of its r places, ``starts`` the first place of each
    component, and ``index`` the index of Y_s = X[s, B_s] in an X^T row,
    members x r x m_s."""

    members: np.ndarray
    labels: tuple[int, ...]
    starts: tuple[int, ...]
    index: np.ndarray


class _RadiusPass:
    """The order-r radius pass of one Laplacian frame (see the module docstring)."""

    def __init__(self, f: Frame, r: int):
        self.sets = sets = _erasure_sets(f.n, r)
        if f.k != f.n - f.layout.m or not f.certificate.block_sums_norm <= DUAL_TOL:
            raise ValueError(f"not a Laplacian frame: k = {f.k} and n - m = {f.n - f.layout.m}, Phi B has "
                             f"norm {f.certificate.block_sums_norm:.3e} (tolerance {DUAL_TOL:g})")
        if not f.off_block <= DUAL_TOL:
            raise ValueError(f"not a Laplacian frame: Phi has an entry of modulus {f.off_block:.3e} outside "
                             f"its component blocks (tolerance {DUAL_TOL:g})")
        self.r, self.n, m = r, f.n, f.layout.m
        self.phi_bar = f.analysis.T  # conj(Phi), k x n
        # at r = 1 one row, v_a = V[a, component of row a] in a row-major V: X holds only (i, B(i))
        self.column = f.block  # the column of X that holds (i, B(i))
        if r == 1:
            self.own = np.arange(f.k) * m + np.repeat(np.arange(m), np.asarray(f.layout.sizes) - 1)
            self.column = np.zeros(f.n, dtype=np.intp)
        # what X adds to W, as an X^T row: C_0[i, i] - 1 at each (i, B(i)), C_0's diagonal measured
        diagonal = np.einsum("ia,ai->i", f.analysis, f.canonical.vectors)
        self.offset = np.zeros((self.column[-1] + 1) * f.n, dtype=complex)  # X's columns, n entries each
        self.offset[self.column * f.n + np.arange(f.n)] = diagonal - 1
        self.span = max(1, CHUNK_ENTRIES // (r * r))  # sets per chunk
        self.held = None  # at r <= 2 each chunk's groups, measured once, here
        if r <= 2:
            self.held = [self._measure(sets[lo:lo + self.span]) for lo in range(0, len(sets), self.span)]
        self.rows = max(1, CHUNK_ENTRIES // (len(self.offset) + min(len(sets), self.span) * r * r))

    def _measure(self, s: np.ndarray) -> list[_Group]:
        """Sets s grouped by the pattern of components along each set, which
        is nondecreasing, and each group's index of Y_s."""
        comp = self.column[s]
        groups = [(np.arange(len(s)), (0,), (0,))]
        for p in range(1, self.r):  # split each group on whether place p starts a new component
            split = []
            for members, labels, starts in groups:
                new = comp[members, p] != comp[members, p - 1]
                split += [(members[~new], labels + labels[-1:], starts),
                          (members[new], labels + (labels[-1] + 1,), starts + (p,))]
            groups = [group for group in split if len(group[0])]
        return [_Group(members, labels, starts, self.column[t[:, starts]][:, None, :] * self.n + t[:, :, None])
                for members, labels, starts in groups for t in (s[members],)]

    def _groups(self, lo: int) -> list[_Group]:
        """The groups of the chunk that starts at set lo: held at r <= 2, else measured."""
        return self._measure(self.sets[lo:lo + self.span]) if self.held is None else self.held[lo // self.span]

    def shifts(self, v: np.ndarray) -> np.ndarray:
        """X for each matrix of a B x k x m batch of shifts V, each row X^T
        row-major: B x n entries X[i, B(i)] at r = 1, else B x mn. A
        non-finite X is refused here, once per batch."""
        # each row alone, and contiguous: a strided row can take another BLAS path
        rows = v.reshape(len(v), 1, -1).take(self.own, axis=2) if self.r == 1 else v.transpose(0, 2, 1).copy()
        x = (rows[:, :, None, :] @ self.phi_bar).reshape(len(v), -1)
        x += self.offset
        require_finite(x)
        return x

    def _eigenvalues(self, x: np.ndarray, g: _Group) -> np.ndarray:
        """spec(I + E_s^T Y_s) of group g's sets for every row of X, B x
        members x m_s: at m_s = 1 the one non-unit eigenvalue
        1 + sum_p X[s_p, B(s)], summed in set order, with no eigen-solve."""
        y = x.take(g.index, axis=1)
        if len(g.starts) == self.r:  # m_s = r: E_s = I, and the stack is C[s, s] itself
            c = y
        else:  # E_s^T Y_s: each component's first place, then its others in set order
            c = y[..., g.starts, :]
            for p, q in enumerate(g.labels):
                if p not in g.starts:
                    c[..., q, :] += y[..., p, :]
        for q in range(len(g.starts)):
            c[..., q, q] += 1
        return c[..., 0] if len(g.starts) == 1 else small_complex_eigenvalues(c)

    def chunks(self, x: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each chunk's C[s, s] = I + X[s, B(s)], B x count x r x r, and its
        spectra, B x count x r, in set order: each group's eigenvalues and
        then r - m_s unit eigenvalues, from one measure of the chunk's groups."""
        for lo in range(0, len(self.sets), self.span):
            count = len(self.sets[lo:lo + self.span])
            c = np.empty((len(x), count, self.r, self.r), dtype=complex)
            spectra = np.ones((len(x), count, self.r), dtype=complex)
            for g in self._groups(lo):
                c[:, g.members] = x.take(g.index[:, :, g.labels], axis=1)  # X[s_p, B(s_q)] is Y_s[p, label of q]
                spectra[:, g.members, :len(g.starts)] = self._eigenvalues(x, g)
            for i in range(self.r):
                c[..., i, i] += 1
            yield c, spectra

    def worst(self, v: np.ndarray) -> np.ndarray:
        """Each dual's largest radius over all sets, ``rows`` duals at a time."""
        if len(v) > self.rows:
            return np.concatenate([self.worst(v[i:i + self.rows]) for i in range(0, len(v), self.rows)])
        x = self.shifts(v)
        radii = np.zeros(len(v))
        for lo in range(0, len(self.sets), self.span):
            for g in self._groups(lo):
                np.maximum(radii, np.abs(self._eigenvalues(x, g)).max(axis=(1, 2)), out=radii)
                if len(g.starts) < self.r:  # a unit eigenvalue
                    np.maximum(radii, 1.0, out=radii)
        return radii


def worst_radius(f: Frame, d: DualFrame, r: int) -> RhoResult:
    """Maximum error-operator spectral radius over all erasure sets of size r:
    the frame's order-r pass, with ``d.shifts`` as a batch of one. Only the
    shifts are read, so ``d`` must come from ``Frame.canonical`` or
    ``frames.dual_from_params``; non-finite shifts are refused."""
    rp = _RadiusPass(f, r)
    require_finite(d.shifts)
    x = rp.shifts(d.shifts[None])
    radii = np.empty(len(rp.sets))  # one radius per set
    for lo in range(0, len(rp.sets), rp.span):
        for g in rp._groups(lo):  # the largest modulus of each set's spectrum
            top = np.abs(rp._eigenvalues(x, g)[0]).max(axis=1)
            radii[lo + g.members] = np.maximum(top, 1.0) if len(g.starts) < r else top
    return RhoResult(float(radii.max()), rp.sets, radii, lambda: ((c[0], e[0]) for c, e in rp.chunks(x)))


def shifted_radii(f: Frame, r: int) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluator of order-r worst radii, r in {1, 2}, of the duals
    Psi_canonical + V B^T: it maps a B x k x m batch of shifts V to their B
    radii, after ``frames.check_shifts`` has decided duality for the batch.
    The frame's order-r pass, which holds its groups, is built once, here."""
    if r not in (1, 2):
        raise ValueError(f"shifted radii cover erasure orders 1 and 2, got {r}")
    rp = _RadiusPass(f, r)
    shape = (f.k, f.layout.m)

    def evaluate(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.ndim != 3 or v.shape[1:] != shape:
            raise ValueError(f"expected a batch of {shape[0]} x {shape[1]} shift matrices, got shape {v.shape}")
        check_shifts(f, v)
        return rp.worst(v)

    return evaluate
