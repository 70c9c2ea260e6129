import tracemalloc
import warnings
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapframes import (
    canonical_dual,
    dual_from_params,
    erasure,
    frame_from_graph,
    parse_edge_list,
    small_complex_eigenvalues,
    worst_radius,
)
from lapframes.cli import set_reports
from lapframes.erasure import TIE_TOL, EnumerationCapError
from lapframes.frames import DualFrame, Frame, is_dual
from lapframes.graph import Graph, contiguous_decomposition
from lapframes.reproduce import (
    CANONICAL_OPERATORS,
    EXPECTED_RADII,
    SHIFTED_OPERATORS,
    SHIFTS,
    explicit_frame,
)

from conftest import EDGE_TEXT, K3K2_TEXT, K4_TEXT, assert_multiset_close, complex_of
from oracles import cross_gramian_radius, error_operator, reduced_matrix
from sampling import (
    random_connected_graph,
    random_disconnected_graph,
    random_dual_params,
    random_graph,
    random_unitary,
    rotated,
)


@pytest.fixture
def explicit():
    f = explicit_frame()
    return f, canonical_dual(f)


def shifted_dual(f):
    return dual_from_params(f, SHIFTS)


def test_error_operator_reference_matrices(explicit):
    f, canon = explicit
    for lam, expected in CANONICAL_OPERATORS.items():
        op = error_operator(f, canon, np.array(lam) - 1)
        assert np.max(np.abs(op - np.array(expected))) <= 1e-12


def test_error_operator_shifted_reference_matrices(explicit):
    f, _ = explicit
    dual = shifted_dual(f)
    for lam, expected in SHIFTED_OPERATORS.items():
        op = error_operator(f, dual, np.array(lam) - 1)
        assert np.max(np.abs(op - np.array(expected))) <= 1e-12


def test_error_operator_full_set_is_identity(explicit):
    f, canon = explicit
    op = error_operator(f, canon, range(5))
    assert np.max(np.abs(op - np.eye(3))) <= 1e-12


def test_reduced_matrix_first_pair(explicit):
    # inner products of the listed canonical/frame vectors give
    # [[2/3, -1/3], [-1/3, 2/3]]; quadratic roots are {1, 1/3}
    f, canon = explicit
    result = worst_radius(f, canon, 2)
    assert result.sets[0].tolist() == [0, 1]
    reduced = result.chunk(0, 1)[0][0]
    assert np.max(np.abs(reduced - np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3]]))) <= 1e-12
    assert_multiset_close(result.spectra[0], [1.0, 1 / 3], tol=1e-12)


def test_reduced_matrix_second_block_pair(explicit):
    # vectors (0,0,+-1) against duals (0,0,+-1/2): [[1/2,-1/2],[-1/2,1/2]]
    f, canon = explicit
    result = worst_radius(f, canon, 2)
    assert result.sets[-1].tolist() == [3, 4]
    reduced = result.chunk(len(result.sets) - 1, len(result.sets))[0][0]
    assert np.max(np.abs(reduced - np.array([[0.5, -0.5], [-0.5, 0.5]]))) <= 1e-12
    assert_multiset_close(result.spectra[-1], [1.0, 0.0], tol=1e-12)


def test_reduced_matrix_singletons_are_pairings(explicit):
    f, canon = explicit
    pairings = np.sum(f.synthesis.conj() * canon.vectors, axis=0)
    reduced = worst_radius(f, canon, 1).chunk(0, 5)[0]
    assert reduced.shape == (5, 1, 1)
    assert np.max(np.abs(reduced[:, 0, 0] - pairings)) <= 1e-12


def test_worst_radius_fixture_orders(explicit):
    f, canon = explicit
    r1 = worst_radius(f, canon, 1)
    assert abs(r1.radius - 2 / 3) <= 1e-12
    assert r1.witness == (1,)
    r2 = worst_radius(f, canon, 2)
    assert abs(r2.radius - 1.0) <= 1e-12
    assert r2.witness == (1, 2)
    for rep in set_reports(r2, f.k):
        assert abs(rep["radius"] - EXPECTED_RADII[tuple(rep["lambda"])]) <= 1e-12


def test_worst_radius_equals_max_pairing_for_r1():
    rng = np.random.default_rng(41)
    done = 0
    while done < 20:
        g = random_graph(int(rng.integers(2, 9)), rng)
        if not g.edges:
            continue
        f = frame_from_graph(g)
        dual = dual_from_params(f, random_dual_params(f, rng, scale=2.0))
        direct = max(abs(np.sum(f.synthesis[:, i].conj() * dual.vectors[:, i])) for i in range(f.n))
        assert abs(worst_radius(f, dual, 1).radius - direct) <= 1e-12
        done += 1


def test_worst_radius_r1_reads_the_diagonal_of_c(k3k2_frame):
    f = k3k2_frame
    dual = dual_from_params(f, random_dual_params(f, np.random.default_rng(73), scale=2.0))
    result = worst_radius(f, dual, 1)
    diagonal = result.chunk(0, f.n)[0][:, 0, 0]  # the pass's own C[i, i]
    assert np.max(np.abs(diagonal - np.diagonal(f.analysis @ dual.vectors))) <= 1e-12
    assert result.spectra.shape == (f.n, 1)
    assert np.array_equal(result.spectra[:, 0], diagonal)
    assert np.array_equal(result.radii, np.abs(diagonal))  # what verify's pairings law reads
    assert result.radius == float(np.abs(diagonal).max())
    assert result.witness == (int(np.abs(diagonal).argmax()) + 1,)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.nan)], ids=["nan", "inf", "inf-nan"])
def test_worst_radius_refuses_a_nonfinite_hand_built_dual(k3k2_frame, bad, r):
    # built directly, so no duality check has seen its shifts; the refusal
    # comes without a numpy warning
    f = k3k2_frame
    shifts = np.zeros((f.k, f.layout.m), dtype=complex)
    shifts[0, 0] = bad
    dual = DualFrame(f.canonical.vectors, shifts)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="^matrix entries must be finite$"):
        warnings.simplefilter("error")
        worst_radius(f, dual, r)


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
    # 200 random (frame, dual, erasure) triples, r <= 4: the set's spectrum
    # from the radius pass against the nonzero spectrum of its k x k operator
    rng = np.random.default_rng(43)
    done = 0
    while done < 200:
        g = random_graph(int(rng.integers(3, 9)), rng)
        if not g.edges:
            continue
        f = frame_from_graph(g)
        dual = dual_from_params(f, random_dual_params(f, rng))
        r = int(rng.integers(1, min(4, f.n - 1) + 1))
        cols = np.sort(rng.choice(f.n, size=r, replace=False))
        result = worst_radius(f, dual, r)
        row = np.flatnonzero((result.sets == cols).all(axis=1))[0]
        full = error_operator(f, dual, cols)
        pass_eigs = list(result.spectra[row])
        full_eigs = list(small_complex_eigenvalues(full))
        np_full = list(np.linalg.eigvals(full))
        size = max(len(pass_eigs), len(full_eigs))
        pad = lambda eigs: eigs + [0.0] * (size - len(eigs))
        scale = max(1.0, max(abs(e) for e in full_eigs + pass_eigs))
        assert_multiset_close(pad(pass_eigs), pad(full_eigs), tol=1e-8 * scale)
        assert_multiset_close(pad(full_eigs), pad(np_full), tol=1e-8 * scale)
        done += 1


def test_erasure_report_json_shape(explicit):
    f, canon = explicit
    doc = next(set_reports(worst_radius(f, canon, 2), f.k))
    assert doc["lambda"] == [1, 2]
    assert doc["radius"] == pytest.approx(1.0, abs=1e-12)
    assert len(doc["eigenvalues"]) == 3 and len(doc["eigenvalues"][0]) == 2
    assert len(doc["reduced"]) == 2 and len(doc["reduced"][0]) == 2
    assert doc["reduced"][0][0] == pytest.approx([2 / 3, 0.0], abs=1e-12)


def test_erasure_report_spectrum_padding(explicit):
    f, canon = explicit
    rep = next(set_reports(worst_radius(f, canon, 2), f.k))
    eigenvalues = complex_of(rep["eigenvalues"])
    assert rep["lambda"] == [1, 2] and eigenvalues.shape == (3,)
    assert_multiset_close(eigenvalues, [1.0, 1 / 3, 0.0], tol=1e-12)
    rep4 = next(set_reports(worst_radius(f, canon, 4), f.k))
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

        if not g.edges or components(g).m != 1:
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
            fu, du = rotated(f, dual, random_unitary(f.k, rng))
            assert abs(cross_gramian_radius(fu, du, 1) - base1) <= 1e-8
            assert abs(cross_gramian_radius(fu, du, 2) - base2) <= 1e-8


def test_pair_radius_dominates_singletons_for_canonical():
    # canonical error operators are similar to positive semidefinite ones,
    # so enlarging the erased set cannot shrink the radius
    rng = np.random.default_rng(61)
    done = 0
    while done < 10:
        g = random_graph(int(rng.integers(3, 8)), rng)
        if not g.edges:
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
    matrix Phi[:, s]^H Psi[:, s], one set at a time, in lexicographic order,
    each set with its 1-based indices."""
    out = []
    for subset in combinations(range(f.n), r):
        reduced = reduced_matrix(f, dual, subset)
        eigs = small_complex_eigenvalues(reduced)
        out.append((tuple(i + 1 for i in subset), reduced, eigs, float(np.max(np.abs(eigs)))))
    return out


def _kernel_cases(r, rng):
    """The canonical dual of K6, where every set's radius ties, then four
    random shifted duals of random graphs."""
    complete = frame_from_graph(parse_edge_list("n 6\n" + "".join(
        f"{i} {j}\n" for i, j in combinations(range(1, 7), 2))))
    yield complete, complete.canonical
    done = 0
    while done < 4:
        g = random_graph(int(rng.integers(r + 2, 10)), rng)
        if not g.edges:
            continue
        f = frame_from_graph(g)
        yield f, dual_from_params(f, random_dual_params(f, rng, scale=2.0))
        done += 1


@pytest.mark.parametrize("chunk", [None, 7])
def test_batched_kernel_matches_per_set_loop(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(erasure, "CHUNK_ENTRIES", chunk)  # sets straddle chunk boundaries
    rng = np.random.default_rng(67)
    for r in (1, 2, 3):
        for case, (f, dual) in enumerate(_kernel_cases(r, rng)):
            loop = _per_set_loop(f, dual, r)
            best = max(radius for *_, radius in loop)
            result = worst_radius(f, dual, r)
            assert abs(result.radius - best) <= 1e-12 * best
            assert result.witness == next(lam for lam, *_, radius in loop if radius >= best - TIE_TOL)
            if case == 0:  # every radius ties: the witness is the first set
                assert np.ptp(result.radii) <= TIE_TOL
                assert result.witness == tuple(range(1, r + 1))

            reports = list(set_reports(result, f.k))
            assert [tuple(rep["lambda"]) for rep in reports] == [lam for lam, *_ in loop]
            for rep, (_, reduced, eigs, radius) in zip(reports, loop):
                scale = max(1.0, radius)
                assert abs(rep["radius"] - radius) <= 1e-12 * scale
                assert np.max(np.abs(complex_of(rep["reduced"]) - reduced)) <= 1e-12 * scale
                by_mag = list(eigs[np.argsort(-np.abs(eigs), kind="stable")]) + [0.0] * f.k
                assert_multiset_close(complex_of(rep["eigenvalues"]), by_mag[: f.k], tol=1e-12 * scale)


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


def test_worst_radius_memory_stays_flat_across_chunks():
    # 117 480 triples in 33 chunks; the groups measured per chunk and one
    # radius kept per set traced 4.1 MiB here (7.4 MiB when every chunk's
    # C[s, s] was formed and solved), against 11.9 MiB when the N x 3 spectra
    # and their moduli were kept too (19.9 MiB with the X index of every set
    # held as well), and the bound lies between them
    rng = np.random.default_rng(71)
    f = frame_from_graph(random_graph(90, rng, p=0.3))
    dual = dual_from_params(f, random_dual_params(f, rng, scale=1.0))
    tracemalloc.start()
    try:
        result = worst_radius(f, dual, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.sets) > 30 * erasure.CHUNK_ENTRIES // 9
    assert peak < 10 * 2**20


def _radii_oracle(f, shifts, r):
    """The radius of each shift matrix's formed dual, one n x n pass each."""
    return np.array([cross_gramian_radius(f, dual_from_params(f, v), r) for v in shifts])


def _message(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("chunk", [None, 40])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("graph", ["connected", "k3k2", "singleton"])
def test_shifted_radii_match_worst_radius(monkeypatch, graph, r, chunk):
    if chunk is not None:
        monkeypatch.setattr(erasure, "CHUNK_ENTRIES", chunk)  # one or two rows per chunk
    rng = np.random.default_rng(83)
    text = {"connected": None, "k3k2": K3K2_TEXT, "singleton": "n 6\n1 2\n1 3\n2 3\n4 5\n"}[graph]
    f = frame_from_graph(random_connected_graph(rng, (8, 9)) if text is None else parse_edge_list(text))
    shape = (30, f.k, f.layout.m)
    v = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)) * 10.0 ** rng.uniform(-3, 2, (30, 1, 1))
    v[0] = 0.0  # the canonical dual
    evaluate = erasure.shifted_radii(f, r)
    want = _radii_oracle(f, v, r)
    got = evaluate(v)
    assert got.shape == (30,)
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    assert [evaluate(one[None])[0] for one in v[:5]] == got[:5].tolist()


@pytest.mark.parametrize("graph", ["connected", "disconnected"])
def test_shifted_radii_equal_worst_radius_bit_for_bit(monkeypatch, graph):
    # 10 pairs per chunk, so the sets span several chunks; the evaluator's
    # pass keeps every chunk's groups, worst_radius's measures them per chunk.
    # Each row of X is its own product, so a dual's X, and so its radius,
    # has the same bits alone and in a batch, from either entry point
    monkeypatch.setattr(erasure, "CHUNK_ENTRIES", 40)
    rng = np.random.default_rng(97)
    g = random_connected_graph(rng, (12, 12)) if graph == "connected" else random_disconnected_graph(rng, (3, 3), (4, 5))
    f = frame_from_graph(g)
    assert comb(f.n, 2) > 3 * 10
    v = np.stack([random_dual_params(f, rng, scale=scale) for scale in (0.01, 0.1, 1.0, 10.0) * 4])
    for r in (1, 2):
        rp = erasure._RadiusPass(f, r)
        assert np.array_equal(rp.shifts(v), np.concatenate([rp.shifts(one[None]) for one in v]))
        want = [worst_radius(f, dual_from_params(f, one), r).radius for one in v]
        evaluate = erasure.shifted_radii(f, r)
        for got in (evaluate(v), evaluate(v)):
            assert got.tolist() == want
        assert [evaluate(v[i:i + 1])[0] for i in range(len(v))] == want


def test_worst_radius_pass_keeps_nothing(monkeypatch, k3k2_frame):
    # at r >= 3 the pass measures the groups of the chunks it reads, at
    # build and at each call of its view, and keeps none
    monkeypatch.setattr(erasure, "CHUNK_ENTRIES", 27)  # 3 triples per chunk, 4 chunks
    calls = []
    measure = erasure._RadiusPass._measure
    monkeypatch.setattr(erasure._RadiusPass, "_measure", lambda rp, s: calls.append(len(s)) or measure(rp, s))
    result = worst_radius(k3k2_frame, k3k2_frame.canonical, 3)
    for _ in range(2):
        for lo in range(0, len(result.sets), 3):
            result.chunk(lo, lo + 3)
    assert calls == [3, 3, 3, 1] * 3


@pytest.mark.parametrize("r, chunks", [(1, [5]), (2, [3, 3, 3, 1])])
def test_passes_to_order_two_measure_each_chunk_once(monkeypatch, k3k2_frame, r, chunks):
    # at r <= 2 every pass, worst_radius's and the evaluator's, measures each
    # chunk's groups once, when it is built, and never again across
    # repeated calls of its view, its spectra or the evaluator
    monkeypatch.setattr(erasure, "CHUNK_ENTRIES", 12)  # 12 singletons or 3 pairs per chunk
    calls = []
    measure = erasure._RadiusPass._measure
    monkeypatch.setattr(erasure._RadiusPass, "_measure", lambda rp, s: calls.append(len(s)) or measure(rp, s))
    f = k3k2_frame
    result = worst_radius(f, f.canonical, r)
    assert calls == chunks
    for _ in range(2):
        for lo in range(0, len(result.sets), 3):
            result.chunk(lo, lo + 3)
        assert result.spectra.shape == result.sets.shape
    evaluate = erasure.shifted_radii(f, r)
    for _ in range(2):
        evaluate(np.zeros((2, f.k, f.layout.m)))
    assert calls == chunks * 2


@pytest.mark.parametrize("text, shifts, message", [
    (K3K2_TEXT, [[np.nan, 0], [0, 0], [0, 0]], "duality residual nan above 1e-08"),
    (K3K2_TEXT, [[1e12, 0], [0, 0], [0, 0]], "duality residual 2.550e-04 above 1e-08"),
    (EDGE_TEXT, [[1e9]], None),
    (EDGE_TEXT, [[1e20]], "duality residual 1.000e+00 above 1e-08"),
], ids=["k3k2-nan", "k3k2-1e12", "k2-1e9", "k2-1e20"])
def test_shifted_radii_refuse_each_row_as_dual_from_params(text, shifts, message):
    f = frame_from_graph(parse_edge_list(text))
    shifts = np.array(shifts, dtype=complex)
    assert _message(lambda: dual_from_params(f, shifts)) == message
    rng = np.random.default_rng(89)
    good = random_dual_params(f, rng, scale=1.0)
    v = np.stack([good, shifts, good])  # the matrix under test in the middle
    evaluate = erasure.shifted_radii(f, 1)
    assert _message(lambda: evaluate(v[1:2])) == message
    assert _message(lambda: evaluate(v)) == message
    if message is None:
        assert np.all(np.abs(evaluate(v) - _radii_oracle(f, v, 1)) <= 1e-12 * _radii_oracle(f, v, 1))


@pytest.mark.parametrize("r", [1, 2])
def test_shifted_radii_refuse_nonfinite_entries(monkeypatch, k3k2_frame, r):
    # the duality check refuses every non-finite row first; without it, the
    # radius pass still refuses, as worst_radius does
    monkeypatch.setattr(erasure, "check_shifts", lambda f, v: None)
    v = np.zeros((3, k3k2_frame.k, k3k2_frame.layout.m), dtype=complex)
    v[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        erasure.shifted_radii(k3k2_frame, r)(v)


def test_shifted_radii_validate_order_and_shape(k3k2_frame, edge_frame):
    with pytest.raises(ValueError, match="orders 1 and 2, got 3"):
        erasure.shifted_radii(k3k2_frame, 3)
    with pytest.raises(ValueError, match="outside"):
        erasure.shifted_radii(edge_frame, 2)
    for shape in ((2, 3, 1), (2, 2, 2), (2, 12), (3, 2)):
        with pytest.raises(ValueError, match=r"batch of 3 x 2 shift matrices"):
            erasure.shifted_radii(k3k2_frame, 1)(np.zeros(shape))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("rows, sizes, message", [
    (np.eye(3), (3,), "k = 3 and n - m = 2, Phi B has norm 1.000e+00"),
    ([[1, -1, 0, 0], [0, 0, 0, 1]], (2, 2), "k = 2 and n - m = 2, Phi B has norm 1.000e+00"),
], ids=["k-not-n-minus-m", "nonzero-block-sum"])
def test_radius_pass_refuses_a_frame_that_is_not_laplacian(rows, sizes, message, r):
    # C[s, s] = I + X[s, B(s)] needs C_0 = blockdiag(I - J/n_j): the 3 x 3
    # basis on one component has k = n, and the second frame's last row sums
    # to 1 over its block; both have a canonical dual
    synthesis = np.array(rows, dtype=complex)
    k, n = synthesis.shape
    f = Frame(k, n, synthesis, contiguous_decomposition(sizes), (np.abs(synthesis) ** 2).sum(axis=1))
    assert is_dual(f, f.canonical).ok
    expected = f"not a Laplacian frame: {message} (tolerance 1e-08)"
    assert _message(lambda: worst_radius(f, f.canonical, r)) == expected
    assert _message(lambda: erasure.shifted_radii(f, r)) == expected


@pytest.mark.parametrize("r", [1, 2])
def test_radius_pass_refuses_rows_outside_their_component(r):
    # U Phi mixes the rows of two disjoint edges: k = n - m, Phi B = 0 and its
    # canonical dual holds, but Phi is no longer zero outside rows(j) x
    # columns(j), which order 1's W[i, B(i)] needs; the n x n oracle reads
    # 1.2071 where that W would read 0.5
    g = frame_from_graph(parse_edge_list("n 4\n1 2\n3 4\n"))
    u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    f = Frame(2, 4, u @ g.synthesis, g.layout, g.spectrum.copy())
    dual = dual_from_params(f, np.array([[0, 0], [1, 0]], dtype=complex))
    assert abs(cross_gramian_radius(f, dual, r) - (0.5 + 2 ** -0.5)) <= 1e-12
    expected = ("not a Laplacian frame: Phi has an entry of modulus 7.071e-01 outside its component blocks "
                "(tolerance 1e-08)")
    assert _message(lambda: worst_radius(f, dual, r)) == expected
    assert _message(lambda: erasure.shifted_radii(f, r)) == expected
    assert g.off_block == 0.0


@pytest.mark.parametrize("graph", ["connected", "disconnected"])
def test_order_one_blocks_are_the_diagonals_of_order_two(graph):
    # one form at every order: C[i, i] = 1 + X[i, B(i)] at r = 1 is the same
    # number as in every r = 2 block holding i, bit for bit, for a single
    # dual and for a batch: each row of X is its own product, and r = 1's row
    # differs from r = 2's column B(i) only where Phi holds exact zeros
    rng = np.random.default_rng(101)
    for _ in range(12):
        if graph == "connected":
            f = frame_from_graph(random_connected_graph(rng, (3, 12)))
        else:
            f = frame_from_graph(random_disconnected_graph(rng, (2, 3), (1, 6)))
        v = np.stack([random_dual_params(f, rng, scale=10.0 ** rng.uniform(-2, 1)) for _ in range(3)])
        dual = dual_from_params(f, v[0])
        one, two = worst_radius(f, dual, 1), worst_radius(f, dual, 2)
        c1, c2 = one.chunk(0, f.n)[0][:, 0, 0], two.chunk(0, len(two.sets))[0]
        for p in range(2):
            assert np.array_equal(c2[:, p, p], c1[two.sets[:, p]])
        assert abs(one.radius - cross_gramian_radius(f, dual, 1)) <= 1e-12 * one.radius
        passes = [erasure._RadiusPass(f, r) for r in (1, 2)]
        c1, c2 = (rp.chunk(rp.shifts(v), 0, len(rp.sets))[0] for rp in passes)
        for p in range(2):
            assert np.array_equal(c2[:, :, p, p], c1[:, passes[1].sets[:, p], 0, 0])


def _graph_of_sizes(sizes, rng, shuffle):
    """A graph whose components have the given sizes: each a random tree plus
    random extra edges, in label order, then relabelled if ``shuffle``."""
    edges, offset = set(), 0
    for size in sizes:
        for v in range(1, size):
            edges.add((offset + int(rng.integers(0, v)), offset + v))
        edges.update((offset + u, offset + v) for u, v in combinations(range(size), 2) if rng.random() < 0.3)
        offset += size
    labels = rng.permutation(offset) if shuffle else np.arange(offset)
    return Graph(offset, frozenset(tuple(sorted((int(labels[u]) + 1, int(labels[v]) + 1))) for u, v in edges))


def _closed_form_radius(f, shifts, r):
    """The worst radius from C = blockdiag(I - J/n_j) + W B^T, W = Phi^H V,
    with numpy's eigvals on every C[s, s]."""
    c = np.zeros((f.n, f.n), dtype=complex)
    for lo, hi in zip(f.layout.offsets, f.layout.offsets[1:]):
        c[lo:hi, lo:hi] = np.eye(hi - lo) - 1 / (hi - lo)
    c += (f.analysis @ shifts)[:, f.block]
    sets = np.array(list(combinations(range(f.n), r)))
    return float(np.abs(np.linalg.eigvals(c[sets[:, :, None], sets[:, None, :]])).max())


@st.composite
def _sizes_seed_scale(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)
                 .filter(lambda s: 2 <= sum(s) <= 12 and max(s) >= 2))
    return sizes, draw(st.integers(0, 2**32 - 1)), draw(st.floats(-3.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(_sizes_seed_scale())
def test_radii_depend_only_on_component_sizes_and_w(case):
    # every dual is Psi_canonical + V B^T, so C = blockdiag(I - J/n_j) + W B^T:
    # the radii match that closed form, and a second graph with the same
    # component sizes and the same W (its V = Lambda^-1 Phi W) has the same radii
    sizes, seed, scale = case
    rng = np.random.default_rng(seed)
    f = frame_from_graph(_graph_of_sizes(sizes, rng, shuffle=True))
    other = frame_from_graph(_graph_of_sizes(f.layout.sizes, rng, shuffle=False))
    assert other.layout.sizes == f.layout.sizes
    shifts = rng.normal(size=(f.k, f.layout.m)) + 1j * rng.normal(size=(f.k, f.layout.m))
    shifts *= 10.0 ** scale / np.linalg.norm(shifts)
    w = f.analysis @ shifts
    other_shifts = (other.synthesis @ w) / other.spectrum[:, None]
    for r in range(1, min(3, f.n - 1) + 1):
        radius = worst_radius(f, dual_from_params(f, shifts), r).radius
        assert abs(radius - _closed_form_radius(f, shifts, r)) <= 1e-12 * radius
        other_radius = worst_radius(other, dual_from_params(other, other_shifts), r).radius
        assert abs(other_radius - radius) <= 1e-12 * radius


K3K2K1_TEXT = "n 6\n1 2\n1 3\n2 3\n4 5\n"


def _structure_cases():
    """Canonical and shifted duals of K4, K3 + K2 + K1 (a singleton), a
    random connected graph and a random graph of three or four components."""
    rng = np.random.default_rng(103)
    graphs = [parse_edge_list(K4_TEXT), parse_edge_list(K3K2K1_TEXT), random_connected_graph(rng, (8, 9)),
              random_disconnected_graph(rng, (3, 4), (1, 4))]
    for g in graphs:
        f = frame_from_graph(g)
        yield f, f.canonical
        yield f, dual_from_params(f, random_dual_params(f, rng, scale=2.0))


def test_pass_spectra_match_eigvals_of_the_cross_gramian():
    # the kernel's spectra, rank-one scalar and m_s x m_s stacks, against
    # numpy's eigvals of C[s, s] sliced from the n x n Phi^H Psi; and a set's
    # radius has the same bits from worst, worst_radius and its spectrum
    components = set()
    for f, dual in _structure_cases():
        components.add(f.layout.m)
        c = f.analysis @ dual.vectors
        for r in range(1, min(4, f.n - 1) + 1):
            result = worst_radius(f, dual, r)
            spectra = result.chunk(0, len(result.sets))[1]
            for s, got in zip(result.sets, spectra):
                want = np.linalg.eigvals(c[np.ix_(s, s)])
                assert_multiset_close(got, want, tol=1e-12 * max(1.0, float(np.abs(want).max())))
            assert result.radii.tolist() == np.abs(spectra).max(axis=1).tolist()
            assert erasure._RadiusPass(f, r).worst(dual.shifts[None]).tolist() == [result.radius]
    assert {1, 3} <= components


def test_only_sets_across_components_reach_the_eigen_solver(monkeypatch):
    # a set inside one component gets the rank-one scalar; a set that
    # touches m_s >= 2 components reaches small_complex_eigenvalues in an
    # m_s x m_s stack, once per pass
    shapes = []
    exact = erasure.small_complex_eigenvalues
    monkeypatch.setattr(erasure, "small_complex_eigenvalues", lambda a: shapes.append(a.shape) or exact(a))
    for f, dual in _structure_cases():
        for r in range(1, min(4, f.n - 1) + 1):
            shapes.clear()
            result = worst_radius(f, dual, r)
            touched = Counter(len(set(f.block[s].tolist())) for s in result.sets)
            assert all(len(shape) == 4 and shape[0] == 1 and shape[2] == shape[3] >= 2 for shape in shapes)
            solved = Counter()
            for shape in shapes:
                solved[shape[2]] += shape[1]
            assert solved == Counter({m: count for m, count in touched.items() if m >= 2})


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("graph", ["k4", "k3k2k1", "k1k3k2", "g20"])
def test_canonical_radius_is_the_unit_eigenvalue(graph, r):
    # the canonical dual's order-r radius is exactly 1, the unit eigenvalue
    # of every set with two vertices in one block; every other eigenvalue is
    # below 1, so the witness is the first such set
    text = {"k4": K4_TEXT, "k3k2k1": K3K2K1_TEXT, "k1k3k2": "n 6\n2 3\n2 4\n3 4\n5 6\n"}.get(graph)
    g = random_connected_graph(np.random.default_rng(20), (20, 20), p=0.3) if text is None else parse_edge_list(text)
    f = frame_from_graph(g)
    result = worst_radius(f, f.canonical, r)
    assert result.radius == 1.0
    first = next(s for s in combinations(range(f.n), r) if len(set(f.block[list(s)].tolist())) < r)
    assert result.witness == tuple(i + 1 for i in first)
