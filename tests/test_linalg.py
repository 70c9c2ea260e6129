import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapframes import (
    ConvergenceError,
    hermitian_eigenvalues,
    small_complex_eigenvalues,
    symmetric_eig,
)
from lapframes.linalg import _fix_column_signs

from conftest import assert_multiset_close
from sampling import random_unitary


def spectral_radius(a) -> float:
    """Largest eigenvalue magnitude of a square complex matrix."""
    return float(np.max(np.abs(small_complex_eigenvalues(a))))


L_EDGE = np.array([[1.0, -1.0], [-1.0, 1.0]])
L_K3 = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])


def test_symmetric_eig_edge_laplacian():
    # char poly of [[1,-1],[-1,1]] is x^2 - 2x, roots {2, 0}
    dec = symmetric_eig(L_EDGE, expected_zero_count=1)
    assert np.allclose(dec.values, [2.0, 0.0], atol=1e-12)
    assert dec.values[1] == 0.0
    zero_vec = dec.vectors[:, 1]
    assert np.allclose(zero_vec, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_symmetric_eig_triangle_laplacian():
    # char poly of L(K3) is -x(x-3)^2, roots {3, 3, 0}
    dec = symmetric_eig(L_K3, expected_zero_count=1)
    assert np.allclose(dec.values, [3.0, 3.0, 0.0], atol=1e-12)


def test_symmetric_eig_zero_matrix():
    dec = symmetric_eig(np.zeros((2, 2)), expected_zero_count=2)
    assert np.array_equal(dec.values, [0.0, 0.0])
    assert np.array_equal(dec.vectors, np.eye(2))


def test_symmetric_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), 0)


def test_symmetric_eig_rejects_wrong_zero_count():
    with pytest.raises(ValueError, match="expected to be zero"):
        symmetric_eig(L_K3, expected_zero_count=2)
    # two-component Laplacian has nullity 2, so claiming 1 must fail
    two_blocks = np.block([[L_EDGE, np.zeros((2, 2))], [np.zeros((2, 2)), L_EDGE]])
    with pytest.raises(ValueError, match="near-zero"):
        symmetric_eig(two_blocks, expected_zero_count=1)


def test_symmetric_eig_sign_convention():
    dec = symmetric_eig(L_EDGE, expected_zero_count=1)
    for j in range(2):
        col = dec.vectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def _column_signs_loop(vectors: np.ndarray) -> np.ndarray:
    """The per-column sign rule, one column at a time: the reference for the
    vectorized ``_fix_column_signs``."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        lead = int(np.argmax(np.abs(out[:, j])))
        if out[lead, j] < 0:
            out[:, j] = -out[:, j]
    return out


def test_column_signs_match_the_per_column_loop():
    # bit for bit, -0.0 included: entries from a few magnitudes tie often, so
    # the first largest entry must decide, as in the loop; zero columns too
    rng = np.random.default_rng(53)
    levels = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    stacks = [np.zeros((0, 0)), np.zeros((3, 0)), np.zeros((3, 2))]
    for _ in range(300):
        rows, cols = (int(x) for x in rng.integers(1, 9, size=2))
        stacks.append(rng.choice(levels, size=(rows, cols)))
        stacks.append(rng.normal(size=(rows, cols)))
    for v in stacks:
        got, want = _fix_column_signs(v), _column_signs_loop(v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_symmetric_eig_random_residuals():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = rng.uniform(-5, 5, (n, n))
        a = 0.5 * (a + a.T)
        dec = symmetric_eig(a, expected_zero_count=0)
        recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
        assert np.max(np.abs(a - recon)) <= 1e-9
        assert np.max(np.abs(dec.vectors.T @ dec.vectors - np.eye(n))) <= 1e-9
        # descending order of the nonzero part
        assert np.all(np.diff(dec.values) <= 1e-12)


def test_hermitian_eigenvalues_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = 0.5 * (a + a.conj().T)
        got = hermitian_eigenvalues(a)
        expected = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(got, expected, atol=1e-9)


def test_small_eigenvalues_reference_2x2():
    # reduced operator of the first two vectors of the bundled example
    a = np.array([[0.5, -1 / (2 * np.sqrt(3))], [-1 / (2 * np.sqrt(3)), 5 / 6]])
    assert_multiset_close(small_complex_eigenvalues(a), [1.0, 1 / 3], tol=1e-12)


def test_small_eigenvalues_trivial():
    assert_multiset_close(small_complex_eigenvalues(np.eye(2)), [1.0, 1.0], tol=1e-15)
    assert_multiset_close(
        small_complex_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]])), [0.0, 0.0], tol=1e-15
    )
    assert_multiset_close(small_complex_eigenvalues(np.array([[4.2]])), [4.2], tol=1e-15)


def test_small_eigenvalues_defective_3x3():
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    assert_multiset_close(small_complex_eigenvalues(a), [0.0, 0.0, 0.0], tol=1e-9)


def test_small_eigenvalues_permutation_matrix():
    # cyclic shift on 3 points: cube roots of unity
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    roots = [np.exp(2j * np.pi * j / 3) for j in range(3)]
    assert_multiset_close(small_complex_eigenvalues(a), roots, tol=1e-9)


def test_small_eigenvalues_random_trace_det_and_numpy():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = int(rng.integers(1, 7))
        a = rng.uniform(-3, 3, (r, r)) + 1j * rng.uniform(-3, 3, (r, r))
        eigs = small_complex_eigenvalues(a)
        assert abs(np.sum(eigs) - np.trace(a)) <= 1e-8
        det = np.linalg.det(a)
        rel = max(1.0, abs(det))
        assert abs(np.prod(eigs) - det) <= 1e-8 * rel
        assert_multiset_close(eigs, np.linalg.eigvals(a), tol=1e-7)


def test_small_eigenvalues_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        small_complex_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_lapack_failure_raises_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(ConvergenceError, match="eigh failed"):
        symmetric_eig(L_K3, expected_zero_count=1)
    with pytest.raises(ConvergenceError, match="eigvals failed"):
        small_complex_eigenvalues(L_K3)


def test_inaccurate_lapack_answers_fail_residual_checks(monkeypatch):
    values, vectors = np.linalg.eigh(L_K3)
    roots = np.linalg.eigvals(L_K3.astype(complex))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (values.copy(), vectors + 1e-6))
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: roots + 1e-3)
    with pytest.raises(ConvergenceError, match="residuals above"):
        symmetric_eig(L_K3, expected_zero_count=1)
    with pytest.raises(ConvergenceError, match="characteristic polynomial"):
        small_complex_eigenvalues(L_K3)


def test_small_eigenvalues_stack_matches_each_matrix():
    rng = np.random.default_rng(11)
    for r in (1, 2, 3, 4):
        stack = rng.uniform(-2, 2, (6, r, r)) + 1j * rng.uniform(-2, 2, (6, r, r))
        stack[0] = 0.0  # at order 2 the first root is 0 and the second skips det / lam1
        eigs = small_complex_eigenvalues(stack)
        assert eigs.shape == (6, r)
        for a, row in zip(stack, eigs):
            assert np.max(np.abs(row - small_complex_eigenvalues(a))) <= 1e-12
    assert small_complex_eigenvalues(np.ones((2, 3, 1, 1))).shape == (2, 3, 1)


def test_spectral_radius_reference_values():
    a = np.array(
        [
            [0.5, -1 / (2 * np.sqrt(3)), 0.0],
            [-1 / (2 * np.sqrt(3)), 5 / 6, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    assert abs(spectral_radius(a) - 1.0) <= 1e-9
    assert abs(spectral_radius(np.diag([2 / 3, 1 / 3, 0.0])) - 2 / 3) <= 1e-12
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_similarity_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = int(rng.integers(2, 7))
        a = rng.uniform(-2, 2, (r, r)) + 1j * rng.uniform(-2, 2, (r, r))
        u = random_unitary(r, rng)
        assert abs(spectral_radius(u @ a @ u.conj().T) - spectral_radius(a)) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda r: st.lists(
            st.floats(min_value=-4, max_value=4, allow_nan=False),
            min_size=2 * r * r,
            max_size=2 * r * r,
        )
    )
)
def test_small_eigenvalues_trace_property(flat):
    half = len(flat) // 2
    r = int(round(np.sqrt(half)))
    a = (np.array(flat[:half]) + 1j * np.array(flat[half:])).reshape(r, r)
    eigs = small_complex_eigenvalues(a)
    assert len(eigs) == r
    assert abs(np.sum(eigs) - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))
