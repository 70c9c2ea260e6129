import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapframes import (
    DUAL_TOL,
    DualFrame,
    Frame,
    Graph,
    canonical_dual,
    components,
    contiguous_decomposition,
    dual_from_params,
    dual_to_doc,
    frame_bounds,
    frame_from_graph,
    frame_to_doc,
    is_dual,
    laplacian,
    parse_edge_list,
    symmetric_eig,
)
from lapframes import frames
from lapframes.cli import _pieces
from lapframes.reproduce import EXPECTED_CANONICAL_VECTORS, explicit_frame

from conftest import K3K2_TEXT
from oracles import block_laplacian
from sampling import random_dual_params, random_graph, random_unitary, rotated


def frame_from_doc(doc: dict) -> Frame:
    """Rebuild a frame from its document; the layout is taken as block-ordered."""
    k, n = int(doc["k"]), int(doc["n"])
    layout = contiguous_decomposition(doc["components"])
    synthesis = np.array([complex(re, im) for re, im in doc["synthesis"]], dtype=complex)
    if synthesis.size != k * n:
        raise ValueError(f"expected {k * n} synthesis entries, got {synthesis.size}")
    spectrum = np.array([float(x) for x in doc["spectrum"]])
    return Frame(k, n, synthesis.reshape(k, n), layout, spectrum)


def test_frame_from_graph_fixture(k3k2_frame):
    f = k3k2_frame
    assert (f.k, f.n) == (3, 5)
    g = parse_edge_list(K3K2_TEXT)
    assert np.max(np.abs(f.analysis @ f.synthesis - block_laplacian(g))) <= 1e-9
    # blocks: first-component columns never touch the second block's rows
    assert np.all(f.synthesis[2, :3] == 0)
    assert np.all(f.synthesis[:2, 3:] == 0)
    assert np.allclose(f.spectrum, [3.0, 3.0, 2.0])


def test_frame_from_single_edge(edge_frame):
    # hand eigendecomposition of [[1,-1],[-1,1]]: eigenvalue 2, vector (1,-1)/sqrt(2)
    assert (edge_frame.k, edge_frame.n) == (1, 2)
    assert np.allclose(edge_frame.synthesis, [[1.0, -1.0]], atol=1e-9)
    assert np.allclose(edge_frame.analysis @ edge_frame.synthesis, [[1, -1], [-1, 1]], atol=1e-9)


def test_frame_from_edgeless_graph_rejected():
    with pytest.raises(ValueError, match="zero-dimensional frame"):
        frame_from_graph(parse_edge_list("n 3\n"))


def test_frame_operator_fixture(k3k2_frame):
    s = k3k2_frame.synthesis @ k3k2_frame.analysis
    assert np.max(np.abs(s - np.diag([3.0, 3.0, 2.0]))) <= 1e-9


def test_frame_operator_single_edge(edge_frame):
    assert np.allclose(edge_frame.synthesis @ edge_frame.analysis, [[2.0]], atol=1e-9)


def test_frame_bounds_orthonormal_basis():
    from lapframes import contiguous_decomposition
    from lapframes.frames import Frame

    basis = Frame(3, 3, np.eye(3, dtype=complex), contiguous_decomposition((3,)), np.ones(3))
    assert np.allclose(frame_bounds(basis), (1.0, 1.0), atol=1e-12)


def test_frame_bounds_refuse_rows_that_break_the_spectrum():
    # one column (1, 2, 2): its frame operator v v^H has eigenvalues 0, 0, 9,
    # but a spectrum of ones claimed bounds (1, 1)
    from lapframes import contiguous_decomposition
    from lapframes.frames import Frame

    f = Frame(3, 1, np.array([[1], [2], [2]], dtype=complex), contiguous_decomposition((1,)), np.ones(3))
    with pytest.raises(ValueError, match="^not a frame: row 2 has squared norm 4.000e"):
        frame_bounds(f)


def test_frame_bounds(k3k2_frame, edge_frame):
    assert np.allclose(frame_bounds(k3k2_frame), (2.0, 3.0), atol=1e-9)
    assert np.allclose(frame_bounds(edge_frame), (2.0, 2.0), atol=1e-9)


def test_canonical_dual_explicit_frame():
    f = explicit_frame()
    dual = canonical_dual(f)
    assert np.max(np.abs(dual.vectors - EXPECTED_CANONICAL_VECTORS)) <= 1e-12
    assert is_dual(f, dual).ok


def test_canonical_dual_single_edge(edge_frame):
    dual = canonical_dual(edge_frame)
    assert np.allclose(dual.vectors, [[0.5, -0.5]], atol=1e-9)


def test_canonical_dual_orthonormal_basis():
    from lapframes import contiguous_decomposition
    from lapframes.frames import Frame

    f = Frame(2, 2, np.eye(2, dtype=complex), contiguous_decomposition((2,)), np.ones(2))
    assert np.allclose(canonical_dual(f).vectors, np.eye(2))


def test_canonical_memo_and_synthesis_are_read_only(k3k2_frame):
    assert k3k2_frame.canonical is k3k2_frame.canonical
    with pytest.raises(ValueError, match="read-only"):
        k3k2_frame.canonical.vectors[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        k3k2_frame.canonical.shifts[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        k3k2_frame.synthesis[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        k3k2_frame.spectrum[0] = 1
    for memo in (k3k2_frame.block, k3k2_frame.analysis):
        with pytest.raises(ValueError, match="read-only"):
            memo[0] = 0


def _decide(f, shifts):
    """``dual_from_params``'s verdict: None if accepted, else its message."""
    try:
        dual_from_params(f, shifts)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def _graph_and_shifts(draw):
    # small graphs with K2 and singleton components among them; shift norms
    # log-uniform over [1e-3, 1e20], and sometimes one NaN or infinite entry
    n = draw(st.integers(2, 7))
    pairs_ = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs_), max_size=len(pairs_)))
    edges = frozenset(e for e, on in zip(pairs_, keep) if on) or frozenset({(1, 2)})
    f = frame_from_graph(Graph(n, edges))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shifts = rng.normal(size=(f.k, f.layout.m)) + 1j * rng.normal(size=(f.k, f.layout.m))
    shifts *= 10.0 ** draw(st.floats(-3.0, 20.0)) / np.linalg.norm(shifts)
    special = draw(st.sampled_from([None, np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    if special is not None:
        shifts[draw(st.integers(0, f.k - 1)), draw(st.integers(0, f.layout.m - 1))] = special
    return f, shifts


@settings(max_examples=300, deadline=None)
@given(_graph_and_shifts())
def test_certificate_decides_as_is_dual(case):
    f, shifts = case
    verdict = _decide(f, shifts)
    check = is_dual(f, DualFrame(f.canonical.vectors + shifts[:, f.block], shifts))
    expected = None if check.ok else f"duality residual {check.residual:.3e} above {DUAL_TOL:g}"
    assert verdict == expected


def test_certificate_keeps_the_single_edge_refusals(edge_frame):
    # Phi B is exactly 0 on K2, so |E + V P| is 0 for every shift and only the
    # rounding term sends 1e20 to is_dual, which refuses it: the formed dual
    # has lost the canonical part
    assert _decide(edge_frame, [[1e20]]) == "duality residual 1.000e+00 above 1e-08"
    assert _decide(edge_frame, [[np.nan]]) == "duality residual nan above 1e-08"
    assert _decide(edge_frame, [[np.inf]]) == "duality residual nan above 1e-08"
    assert _decide(edge_frame, [[1e9]]) is None
    assert _decide(edge_frame, [[1e12]]) is None


def test_certificate_skips_the_product_for_moderate_shifts(monkeypatch, k3k2_frame):
    rng = np.random.default_rng(41)
    k3k2_frame.canonical  # its own is_dual check runs before the spy
    calls = []
    check = frames.is_dual
    monkeypatch.setattr(frames, "is_dual", lambda f, d: calls.append(d) or check(f, d))
    for _ in range(20):
        dual_from_params(k3k2_frame, random_dual_params(k3k2_frame, rng))
    assert calls == []
    with pytest.raises(ValueError, match="duality residual 2.550e-04 above 1e-08"):
        dual_from_params(k3k2_frame, [[1e12, 0], [0, 0], [0, 0]])
    assert len(calls) == 1


def test_dual_from_params_zero_is_canonical(k3k2_frame):
    dual = dual_from_params(k3k2_frame, np.zeros((3, 2)))
    assert np.allclose(dual.vectors, canonical_dual(k3k2_frame).vectors)


def test_dual_from_params_explicit_shift_family():
    # shifts add the same constant vector to every dual vector of a block
    f = explicit_frame()
    nu1 = np.array([1.0 + 0.5j, -2.0, 0.25j])
    nu2 = np.array([0.0, 3.0, -1.0 - 1.0j])
    dual = dual_from_params(f, np.stack([nu1, nu2], axis=1))
    canon = canonical_dual(f).vectors
    assert np.allclose(dual.vectors[:, :3], canon[:, :3] + nu1[:, None])
    assert np.allclose(dual.vectors[:, 3:], canon[:, 3:] + nu2[:, None])
    assert is_dual(f, dual).ok


def test_dual_from_params_reference_shift():
    f = explicit_frame()
    dual = dual_from_params(f, np.array([[0, 0], [0, 0], [1, 0]], dtype=complex))
    expected = EXPECTED_CANONICAL_VECTORS.copy()
    expected[2, :3] += 1.0
    assert np.max(np.abs(dual.vectors - expected)) <= 1e-12


def test_dual_from_params_validates_layout(k3k2_frame):
    with pytest.raises(ValueError, match=r"shifts must be 3 x 2, got \(3, 1\)"):
        dual_from_params(k3k2_frame, np.zeros((3, 1), dtype=complex))
    with pytest.raises(ValueError, match=r"shifts must be 3 x 2, got \(2, 2\)"):
        dual_from_params(k3k2_frame, np.zeros((2, 2), dtype=complex))


def test_random_shifts_always_dual(k3k2_frame):
    rng = np.random.default_rng(23)
    for _ in range(100):
        dual = dual_from_params(k3k2_frame, random_dual_params(k3k2_frame, rng))
        check = is_dual(k3k2_frame, dual)
        assert check.ok and check.residual <= 1e-8


def test_shifted_dual_commutes_with_unitary():
    # canonical(U Phi) = U canonical(Phi), so shifting by U V gives U Psi;
    # U Phi's canonical dual is taken from the general formula S^-1 U Phi
    rng = np.random.default_rng(29)
    done = 0
    while done < 20:
        g = random_graph(int(rng.integers(2, 9)), rng)
        if not g.edges:
            continue
        f = frame_from_graph(g)
        u = random_unitary(f.k, rng)
        for d in (f.canonical, dual_from_params(f, random_dual_params(f, rng))):
            fu, du = rotated(f, d, u)
            mapped = np.linalg.solve(fu.synthesis @ fu.analysis, fu.synthesis) + du.shifts[:, f.block]
            assert np.max(np.abs(mapped - du.vectors)) <= 1e-9
        done += 1


def test_is_dual_detects_broken_dual(k3k2_frame, k3k2_canonical):
    broken = k3k2_canonical.vectors.copy()
    broken[:, 0] = 0
    check = is_dual(k3k2_frame, DualFrame(broken, k3k2_canonical.shifts))
    assert not check.ok


def test_is_dual_dimension_mismatch(k3k2_frame):
    with pytest.raises(ValueError, match="mismatch"):
        is_dual(k3k2_frame, DualFrame(np.zeros((2, 5), dtype=complex), np.zeros((2, 2))))


def test_gramian_matches_laplacian_random_graphs():
    rng = np.random.default_rng(29)
    done = 0
    while done < 100:
        g = random_graph(int(rng.integers(2, 11)), rng)
        if not g.edges:
            continue
        f = frame_from_graph(g)
        assert np.max(np.abs(f.analysis @ f.synthesis - block_laplacian(g))) <= 1e-9
        done += 1


def test_frame_operator_diagonal_with_laplacian_spectrum():
    rng = np.random.default_rng(31)
    done = 0
    while done < 30:
        g = random_graph(int(rng.integers(2, 10)), rng)
        if not g.edges:
            continue
        f = frame_from_graph(g)
        s = f.synthesis @ f.analysis
        assert np.max(np.abs(s - np.diag(np.diag(s)))) <= 1e-9
        full = symmetric_eig(laplacian(g), expected_zero_count=components(g).m)
        nonzero = sorted(v for v in full.values if v != 0.0)
        assert np.allclose(sorted(np.diag(s).real), nonzero, atol=1e-9)
        done += 1


def _closed_form_graphs() -> list[Graph]:
    """K3+K2, complete graphs, cycles and stars (repeated Laplacian
    eigenvalues), a 40-vertex graph with a singleton component last and
    then first, and 30 small random graphs, many of them disconnected."""
    rng = np.random.default_rng(37)
    graphs = [parse_edge_list(K3K2_TEXT)]
    for n in (3, 12, 40):
        graphs.append(Graph(n, frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))))
    for n in (4, 9, 40):
        graphs.append(Graph(n, frozenset((i, i + 1) for i in range(1, n)) | {(1, n)}))
    for n in (5, 40):
        graphs.append(Graph(n, frozenset((1, v) for v in range(2, n + 1))))
    sparse = random_graph(39, rng, p=0.3)
    graphs.append(Graph(40, sparse.edges))
    graphs.append(Graph(40, frozenset((u + 1, v + 1) for u, v in sparse.edges)))
    while len(graphs) < 41:
        g = random_graph(int(rng.integers(2, 10)), rng)
        if g.edges:
            graphs.append(g)
    return graphs


def test_canonical_pairings_equal_one_minus_inverse_size():
    # The canonical cross-Gramian is blockdiag(I - J/n_j) whichever eigenbasis
    # the solver returns, so graphs with repeated Laplacian eigenvalues
    # (complete, cycle, star, K3+K2) check it independently of the solver.
    for g in _closed_form_graphs():
        f = frame_from_graph(g)
        cross = f.synthesis.conj().T @ canonical_dual(f).vectors
        expected = np.zeros((f.n, f.n))
        for j, size in enumerate(f.layout.sizes):
            lo, hi = f.layout.offsets[j], f.layout.offsets[j + 1]
            expected[lo:hi, lo:hi] = np.eye(size) - 1.0 / size
        assert np.max(np.abs(cross - expected)) <= 1e-9, g


def test_closed_forms_match_the_general_frame_formulas():
    # Phi / spectrum against S^-1 Phi, and the spectrum's extremes against
    # those of eigvalsh(S), with S = Phi Phi^H formed and solved in full
    for g in _closed_form_graphs():
        f = frame_from_graph(g)
        s = f.synthesis @ f.analysis
        general = np.linalg.solve(s, f.synthesis)
        assert np.max(np.abs(f.canonical.vectors - general)) <= 1e-12 * np.max(np.abs(general)), g
        values = np.linalg.eigvalsh(s)
        assert np.allclose(frame_bounds(f), (values[0], values[-1]), rtol=1e-12, atol=0), g


def test_canonical_refuses_a_frame_whose_operator_is_not_its_spectrum(k3k2_frame, k3k2_canonical):
    # U Phi keeps the spectrum but its frame operator is U diag(3, 3, 2) U^H
    fu, _ = rotated(k3k2_frame, k3k2_canonical, random_unitary(3, np.random.default_rng(43)))
    with pytest.raises(ValueError, match="canonical dual residual .* above 1e-08"):
        fu.canonical
    # a zero in the spectrum gives an infinite row and a NaN residual
    f = Frame(1, 2, k3k2_frame.synthesis[2:, 3:].copy(), contiguous_decomposition((2,)), np.zeros(1))
    with pytest.raises(ValueError, match="canonical dual residual nan above 1e-08"):
        f.canonical


class _Products(np.ndarray):
    """An array view that logs the operand shapes of every matmul it takes
    part in; other ufuncs keep the view, so Phi^H and Phi / lambda log too."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Products) else x for x in inputs]
        if ufunc is np.matmul:
            _Products.log.append((plain[0].shape, plain[1].shape))
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(_Products) if isinstance(result, np.ndarray) else result


def test_one_duality_product_per_frame(monkeypatch, k3k2_frame):
    # canonical + certificate form Psi_canonical Phi^H once; frame_bounds and
    # moderate shifted duals form no k x n x k product at all
    monkeypatch.setattr(_Products, "log", [])
    f = k3k2_frame
    spied = Frame(f.k, f.n, f.synthesis.view(_Products), f.layout, f.spectrum)
    assert frame_bounds(spied) == frame_bounds(f)
    spied.canonical, spied.certificate
    dual_from_params(spied, random_dual_params(f, np.random.default_rng(47), scale=1.0))
    full = [shapes for shapes in _Products.log if shapes == ((f.k, f.n), (f.n, f.k))]
    assert len(full) == 1
    assert np.array_equal(spied.canonical.vectors, f.canonical.vectors)


def test_json_round_trip_is_lossless(k3k2_frame, k3k2_canonical):
    doc = json.loads("".join(_pieces(frame_to_doc(k3k2_frame))))
    back = frame_from_doc(doc)
    assert np.array_equal(back.synthesis, k3k2_frame.synthesis)
    assert np.array_equal(back.spectrum, k3k2_frame.spectrum)
    assert back.layout.sizes == k3k2_frame.layout.sizes

    ddoc = json.loads("".join(_pieces(dual_to_doc(k3k2_canonical, k3k2_frame))))
    assert list(ddoc) == list(doc)
    assert {key: ddoc[key] for key in ddoc if key != "synthesis"} == {
        key: doc[key] for key in doc if key != "synthesis"
    }
    dback = np.array([complex(re, im) for re, im in ddoc["synthesis"]]).reshape(3, 5)
    assert np.array_equal(dback, k3k2_canonical.vectors)
