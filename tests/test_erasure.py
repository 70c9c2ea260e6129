import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from lapframes import (
    ErasureSet,
    apply_unitary,
    canonical_dual,
    dual_from_params,
    erasure,
    error_operator,
    frame_from_graph,
    reduced_error_matrix,
    small_complex_eigenvalues,
    worst_radius,
)
from lapframes.cli import set_reports
from lapframes.erasure import TIE_TOL, EnumerationCapError
from lapframes.frames import DualFrame
from lapframes.reproduce import (
    CANONICAL_OPERATORS,
    EXPECTED_RADII,
    SHIFTED_OPERATORS,
    SHIFTS,
    explicit_frame,
)

from conftest import assert_multiset_close, complex_of
from sampling import (
    random_connected_graph,
    random_disconnected_graph,
    random_dual_params,
    random_graph,
    random_unitary,
)


@pytest.fixture
def explicit():
    f = explicit_frame()
    return f, canonical_dual(f)


def shifted_dual(f):
    return dual_from_params(f, SHIFTS)


def test_erasure_set_validation():
    with pytest.raises(ValueError, match="nonempty"):
        ErasureSet(())
    with pytest.raises(ValueError, match="sorted and distinct"):
        ErasureSet((2, 1))
    with pytest.raises(ValueError, match="sorted and distinct"):
        ErasureSet((1, 1))
    with pytest.raises(ValueError, match=">= 1"):
        ErasureSet((0, 1))
    assert ErasureSet((2, 5)).r == 2


def test_error_operator_reference_matrices(explicit):
    f, canon = explicit
    for lam, expected in CANONICAL_OPERATORS.items():
        op = error_operator(f, canon, ErasureSet(lam))
        assert np.max(np.abs(op - np.array(expected))) <= 1e-12


def test_error_operator_shifted_reference_matrices(explicit):
    f, _ = explicit
    dual = shifted_dual(f)
    for lam, expected in SHIFTED_OPERATORS.items():
        op = error_operator(f, dual, ErasureSet(lam))
        assert np.max(np.abs(op - np.array(expected))) <= 1e-12


def test_error_operator_full_set_is_identity(explicit):
    f, canon = explicit
    op = error_operator(f, canon, ErasureSet((1, 2, 3, 4, 5)))
    assert np.max(np.abs(op - np.eye(3))) <= 1e-12


def test_error_operator_rejects_non_dual(explicit):
    f, canon = explicit
    broken = DualFrame(2.0 * canon.vectors, canon.shifts)
    with pytest.raises(ValueError, match="non-dual"):
        error_operator(f, broken, ErasureSet((1,)))


def test_error_operator_rejects_out_of_range(explicit):
    f, canon = explicit
    with pytest.raises(ValueError, match="exceeds"):
        error_operator(f, canon, ErasureSet((6,)))


def test_reduced_matrix_first_pair(explicit):
    # inner products of the listed canonical/frame vectors give
    # [[2/3, -1/3], [-1/3, 2/3]]; quadratic roots are {1, 1/3}
    f, canon = explicit
    reduced = reduced_error_matrix(f, canon, ErasureSet((1, 2)))
    assert np.max(np.abs(reduced - np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3]]))) <= 1e-12
    assert_multiset_close(small_complex_eigenvalues(reduced), [1.0, 1 / 3], tol=1e-12)


def test_reduced_matrix_second_block_pair(explicit):
    # vectors (0,0,+-1) against duals (0,0,+-1/2): [[1/2,-1/2],[-1/2,1/2]]
    f, canon = explicit
    reduced = reduced_error_matrix(f, canon, ErasureSet((4, 5)))
    assert np.max(np.abs(reduced - np.array([[0.5, -0.5], [-0.5, 0.5]]))) <= 1e-12
    assert_multiset_close(small_complex_eigenvalues(reduced), [1.0, 0.0], tol=1e-12)


def test_reduced_matrix_singletons_are_pairings(explicit):
    f, canon = explicit
    pairings = np.sum(f.synthesis.conj() * canon.vectors, axis=0)
    for i in range(1, 6):
        reduced = reduced_error_matrix(f, canon, ErasureSet((i,)))
        assert reduced.shape == (1, 1)
        assert abs(reduced[0, 0] - pairings[i - 1]) <= 1e-12


def test_worst_radius_fixture_orders(explicit):
    f, canon = explicit
    r1 = worst_radius(f, canon, 1)
    assert abs(r1.radius - 2 / 3) <= 1e-12
    assert r1.witness.indices == (1,)
    r2 = worst_radius(f, canon, 2)
    assert abs(r2.radius - 1.0) <= 1e-12
    assert r2.witness.indices == (1, 2)
    for rep in set_reports(r2, f.k):
        assert abs(rep["radius"] - EXPECTED_RADII[tuple(rep["lambda"])]) <= 1e-12


def test_worst_radius_equals_max_pairing_for_r1():
    rng = np.random.default_rng(41)
    done = 0
    while done < 20:
        g = random_graph(int(rng.integers(2, 9)), rng)
        if g.edge_count == 0:
            continue
        f = frame_from_graph(g)
        dual = dual_from_params(f, random_dual_params(f, rng, scale=2.0))
        direct = max(abs(np.sum(f.synthesis[:, i].conj() * dual.vectors[:, i])) for i in range(f.n))
        assert abs(worst_radius(f, dual, 1).radius - direct) <= 1e-12
        done += 1


def test_worst_radius_rejects_bad_r(explicit, monkeypatch):
    f, canon = explicit
    with pytest.raises(ValueError, match="outside"):
        worst_radius(f, canon, 0)
    with pytest.raises(ValueError, match="outside"):
        worst_radius(f, canon, 5)
    monkeypatch.setattr(erasure, "MAX_SETS", 5)
    with pytest.raises(EnumerationCapError, match="cap"):
        worst_radius(f, canon, 2)


def test_erasure_sets_are_cached_read_only_and_capped_every_call(k3k2_frame, monkeypatch):
    sets = erasure._erasure_sets(5, 2)
    assert erasure._erasure_sets(5, 2) is sets
    assert sets.tolist() == [list(s) for s in combinations(range(5), 2)]
    with pytest.raises(ValueError, match="read-only"):
        sets[0, 0] = 1
    worst_radius(k3k2_frame, k3k2_frame.canonical, 2)  # (5, 2) now cached
    monkeypatch.setattr(erasure, "MAX_SETS", 9)
    with pytest.raises(EnumerationCapError, match=r"C\(5, 2\) = 10 exceeds the enumeration cap 9"):
        worst_radius(k3k2_frame, k3k2_frame.canonical, 2)


def test_reduced_and_full_spectra_agree():
    # 200 random (frame, dual, erasure) triples, r <= 4
    rng = np.random.default_rng(43)
    done = 0
    while done < 200:
        g = random_graph(int(rng.integers(3, 9)), rng)
        if g.edge_count == 0:
            continue
        f = frame_from_graph(g)
        dual = dual_from_params(f, random_dual_params(f, rng))
        r = int(rng.integers(1, min(4, f.n - 1) + 1))
        subset = tuple(sorted(rng.choice(f.n, size=r, replace=False) + 1))
        lam = ErasureSet(tuple(int(i) for i in subset))
        reduced = reduced_error_matrix(f, dual, lam)
        full = error_operator(f, dual, lam)
        reduced_eigs = list(small_complex_eigenvalues(reduced))
        full_eigs = list(small_complex_eigenvalues(full))
        np_full = list(np.linalg.eigvals(full))
        size = max(len(reduced_eigs), len(full_eigs))
        pad = lambda eigs: eigs + [0.0] * (size - len(eigs))
        scale = max(1.0, max(abs(e) for e in full_eigs + reduced_eigs))
        assert_multiset_close(pad(reduced_eigs), pad(full_eigs), tol=1e-8 * scale)
        assert_multiset_close(pad(full_eigs), pad(np_full), tol=1e-8 * scale)
        done += 1


def test_erasure_report_json_shape(explicit):
    f, canon = explicit
    doc = set_reports(worst_radius(f, canon, 2), f.k)[0]
    assert doc["lambda"] == [1, 2]
    assert doc["radius"] == pytest.approx(1.0, abs=1e-12)
    assert len(doc["eigenvalues"]) == 3 and len(doc["eigenvalues"][0]) == 2
    assert len(doc["reduced"]) == 2 and len(doc["reduced"][0]) == 2
    assert doc["reduced"][0][0] == pytest.approx([2 / 3, 0.0], abs=1e-12)


def test_erasure_report_spectrum_padding(explicit):
    f, canon = explicit
    rep = set_reports(worst_radius(f, canon, 2), f.k)[0]
    eigenvalues = complex_of(rep["eigenvalues"])
    assert rep["lambda"] == [1, 2] and eigenvalues.shape == (3,)
    assert_multiset_close(eigenvalues, [1.0, 1 / 3, 0.0], tol=1e-12)
    rep4 = set_reports(worst_radius(f, canon, 4), f.k)[0]
    assert rep4["lambda"] == [1, 2, 3, 4] and complex_of(rep4["eigenvalues"]).shape == (3,)


def test_connected_canonical_pair_spectra():
    # every 2-erasure of a connected canonical pair has spectrum {1, (n-2)/n}
    rng = np.random.default_rng(47)
    done = 0
    while done < 15:
        n = int(rng.integers(3, 9))
        g = random_graph(n, rng)
        f = None
        from lapframes import components

        if g.edge_count == 0 or components(g).m != 1:
            continue
        f = frame_from_graph(g)
        canon = canonical_dual(f)
        for rep in set_reports(worst_radius(f, canon, 2), f.k):
            assert_multiset_close(complex_of(rep["eigenvalues"]), [1.0, (n - 2) / n, 0.0][: f.k] + [0.0] * max(0, f.k - 3), tol=1e-8)
        done += 1


def test_cross_component_pair_radius():
    from lapframes import components

    rng = np.random.default_rng(53)
    for _ in range(10):
        g = random_disconnected_graph(rng)
        f = frame_from_graph(g)
        canon = canonical_dual(f)
        d = f.layout
        for rep in set_reports(worst_radius(f, canon, 2), f.k):
            a, b = rep["lambda"]
            ja = next(j for j in range(d.m) if d.offsets[j] < a <= d.offsets[j + 1])
            jb = next(j for j in range(d.m) if d.offsets[j] < b <= d.offsets[j + 1])
            if ja == jb:
                continue
            sa, sb = d.sizes[ja], d.sizes[jb]
            expected = max((sa - 1) / sa, (sb - 1) / sb)
            assert abs(rep["radius"] - expected) <= 1e-8


def test_worst_radius_unitary_invariance(k3k2_frame, k3k2_canonical):
    # K3+K2's canonical dual, then shifted duals of random connected and
    # disconnected graphs; U maps a dual's shifts V to U V
    rng = np.random.default_rng(59)
    cases = [(k3k2_frame, k3k2_canonical.shifts)]
    for i in range(20):
        g = random_connected_graph(rng, (3, 9)) if i % 2 else random_disconnected_graph(rng)
        f = frame_from_graph(g)
        cases.append((f, random_dual_params(f, rng, scale=2.0)))
    for f, shifts in cases:
        dual = dual_from_params(f, shifts)
        base1 = worst_radius(f, dual, 1).radius
        base2 = worst_radius(f, dual, 2).radius
        for _ in range(5):
            u = random_unitary(f.k, rng)
            fu = apply_unitary(f, u)
            du = dual_from_params(fu, u @ shifts)
            assert abs(worst_radius(fu, du, 1).radius - base1) <= 1e-8
            assert abs(worst_radius(fu, du, 2).radius - base2) <= 1e-8


def test_pair_radius_dominates_singletons_for_canonical():
    # canonical error operators are similar to positive semidefinite ones,
    # so enlarging the erased set cannot shrink the radius
    rng = np.random.default_rng(61)
    done = 0
    while done < 10:
        g = random_graph(int(rng.integers(3, 8)), rng)
        if g.edge_count == 0:
            continue
        f = frame_from_graph(g)
        canon = canonical_dual(f)
        singles = {rep["lambda"][0]: rep["radius"] for rep in set_reports(worst_radius(f, canon, 1), f.k)}
        for rep in set_reports(worst_radius(f, canon, 2), f.k):
            a, b = rep["lambda"]
            assert rep["radius"] >= max(singles[a], singles[b]) - 1e-10
        done += 1


def _per_set_loop(f, dual, r):
    """The reference enumeration: scalar eigenvalues of each set's reduced
    matrix, one set at a time, in lexicographic order."""
    out = []
    for subset in combinations(range(1, f.n + 1), r):
        lam = ErasureSet(subset)
        reduced = reduced_error_matrix(f, dual, lam)
        eigs = small_complex_eigenvalues(reduced)
        out.append((lam, reduced, eigs, float(np.max(np.abs(eigs)))))
    return out


@pytest.mark.parametrize("chunk", [None, 7])
def test_batched_kernel_matches_per_set_loop(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(erasure, "CHUNK_SETS", chunk)  # sets straddle chunk boundaries
    rng = np.random.default_rng(67)
    for r in (1, 2, 3):
        done = 0
        while done < 4:
            g = random_graph(int(rng.integers(r + 2, 10)), rng)
            if g.edge_count == 0:
                continue
            f = frame_from_graph(g)
            dual = dual_from_params(f, random_dual_params(f, rng, scale=2.0))
            loop = _per_set_loop(f, dual, r)
            best = max(radius for *_, radius in loop)
            result = worst_radius(f, dual, r)
            assert abs(result.radius - best) <= 1e-12 * best
            assert result.witness == next(lam for lam, *_, radius in loop if radius >= best - TIE_TOL)

            reports = set_reports(result, f.k)
            assert [tuple(rep["lambda"]) for rep in reports] == [lam.indices for lam, *_ in loop]
            for rep, (_, reduced, eigs, radius) in zip(reports, loop):
                scale = max(1.0, radius)
                assert abs(rep["radius"] - radius) <= 1e-12 * scale
                assert np.max(np.abs(complex_of(rep["reduced"]) - reduced)) <= 1e-12 * scale
                by_mag = list(eigs[np.argsort(-np.abs(eigs), kind="stable")]) + [0.0] * f.k
                assert_multiset_close(complex_of(rep["eigenvalues"]), by_mag[: f.k], tol=1e-12 * scale)
            done += 1


def test_worst_radius_memory_stays_flat():
    # 7 140 pairs; a k x k operator kept per set would trace about 1.6 GB here
    rng = np.random.default_rng(71)
    f = frame_from_graph(random_graph(120, rng, p=0.3))
    dual = dual_from_params(f, random_dual_params(f, rng, scale=1.0))
    tracemalloc.start()
    try:
        worst_radius(f, dual, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
