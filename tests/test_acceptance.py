"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions hold (run with
``pytest tests/test_acceptance.py -v -s`` to see them); a failed criterion
shows up as an ordinary pytest failure.
"""

import numpy as np

from lapframes import (
    ErasureSet,
    SearchConfig,
    alternate_optimal_dual,
    apply_unitary,
    canonical_dual,
    dual_from_params,
    error_operator,
    frame_from_graph,
    gramian,
    is_dual,
    parse_edge_list,
    permuted_laplacian,
    reduced_error_matrix,
    search_optimal_dual,
    small_complex_eigenvalues,
    uniqueness_probe,
    worst_radius,
)
from lapframes.erasure import erasure_reports
from lapframes.optimality import params_to_vector
from lapframes.reproduce import EXPECTED_RADII, LAPLACIAN_5
from lapframes.sampling import (
    random_connected_graph,
    random_disconnected_graph,
    random_dual_params,
    random_graph,
    random_unitary,
)

from conftest import K3_TEXT, K3K2_TEXT, K4_TEXT, assert_multiset_close


def _k3k2():
    frame = frame_from_graph(parse_edge_list(K3K2_TEXT))
    return frame, canonical_dual(frame)


def _shifted(frame):
    return dual_from_params(frame, np.array([[0, 0], [0, 0], [1, 0]], dtype=complex))


def test_criterion_1_first_example_reproduction():
    frame, canon = _k3k2()
    g = parse_edge_list(K3K2_TEXT)
    assert np.max(np.abs(gramian(frame) - permuted_laplacian(g))) <= 1e-9
    assert np.max(np.abs(gramian(frame) - LAPLACIAN_5)) <= 1e-9

    assert abs(worst_radius(frame, canon, 1).radius - 2 / 3) <= 1e-9

    pairings = np.sort(np.abs(np.sum(frame.synthesis.conj() * canon.vectors, axis=0)))
    expected = np.sort([2 / 3, 2 / 3, 2 / 3, 1 / 2, 1 / 2])
    assert np.max(np.abs(pairings - expected)) <= 1e-9
    print("ACCEPTANCE 1 (first-example reproduction): PASS")


def test_criterion_2_second_example_reproduction():
    frame, canon = _k3k2()
    result = worst_radius(frame, canon, 2)
    for rep in erasure_reports(frame, canon, 2):
        assert abs(rep.radius - EXPECTED_RADII[rep.lam.indices]) <= 1e-9, rep.lam
    assert abs(result.radius - 1.0) <= 1e-9

    shifted = _shifted(frame)
    assert abs(worst_radius(frame, shifted, 1).radius - 2 / 3) <= 1e-9
    assert abs(worst_radius(frame, shifted, 2).radius - 1.0) <= 1e-9
    print("ACCEPTANCE 2 (second-example reproduction): PASS")


def test_criterion_3_connected_law():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        g = random_connected_graph(rng, (2, 8))
        n = g.n
        frame = frame_from_graph(g)
        canon = canonical_dual(frame)
        pairings = np.abs(np.sum(frame.synthesis.conj() * canon.vectors, axis=0))
        assert np.max(np.abs(pairings - (n - 1) / n)) <= 1e-9
        if n == 2:
            continue  # no erasure sets of size 2 with r < n
        result = worst_radius(frame, canon, 2)
        for rep in erasure_reports(frame, canon, 2):
            spectrum = np.sort(rep.eigenvalues[:2].real)[::-1]
            assert np.max(np.abs(spectrum - [1.0, (n - 2) / n])) <= 1e-8
        assert abs(result.radius - 1.0) <= 1e-9
    print("ACCEPTANCE 3 (connected-graph law, 50 graphs): PASS")


def test_criterion_4_disconnected_law():
    rng = np.random.default_rng(4096)
    for _ in range(50):
        g = random_disconnected_graph(rng)
        frame = frame_from_graph(g)
        canon = canonical_dual(frame)
        expected1 = max((s - 1) / s for s in frame.layout.sizes)
        assert abs(worst_radius(frame, canon, 1).radius - expected1) <= 1e-9
        assert abs(worst_radius(frame, canon, 2).radius - 1.0) <= 1e-9
        for r in (1, 2):
            alt = alternate_optimal_dual(frame, r)
            check = is_dual(frame, alt)
            assert check.ok
            distance = np.max(np.linalg.norm(alt.vectors - canon.vectors, axis=0))
            assert distance >= 1e-3
            assert abs(worst_radius(frame, alt, 1).radius - expected1) <= 1e-9
            assert abs(worst_radius(frame, alt, 2).radius - 1.0) <= 1e-9
    print("ACCEPTANCE 4 (disconnected-graph law, 50 graphs): PASS")


def test_criterion_5_uniqueness_strictness():
    rng = np.random.default_rng(512)
    graphs = [
        parse_edge_list(K3_TEXT),
        parse_edge_list(K4_TEXT),
        random_connected_graph(rng, (6, 6)),
    ]
    for seed, g in enumerate(graphs):
        frame = frame_from_graph(g)
        report = uniqueness_probe(frame, trials=100, seed=seed)
        assert report.violations == 0
        assert report.min_excess > 0
    print("ACCEPTANCE 5 (uniqueness strictness, 3 graphs x 100 shifts): PASS")


def test_criterion_6_two_erasure_lower_bound():
    rng = np.random.default_rng(606)
    done = 0
    while done < 100:
        if done % 2 == 0:
            g = random_connected_graph(rng, (3, 8))
        else:
            g = random_disconnected_graph(rng)
        frame = frame_from_graph(g)
        dual = dual_from_params(frame, random_dual_params(frame, rng))
        assert worst_radius(frame, dual, 2).radius >= 1.0 - 1e-8
        done += 1
    print("ACCEPTANCE 6 (order-2 lower bound, 100 duals): PASS")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(707)
    done = 0
    while done < 200:
        g = random_graph(int(rng.integers(3, 9)), rng)
        if g.edge_count == 0:
            continue
        frame = frame_from_graph(g)
        dual = dual_from_params(frame, random_dual_params(frame, rng))
        r = int(rng.integers(1, min(4, frame.n - 1) + 1))
        subset = sorted(int(i) + 1 for i in rng.choice(frame.n, size=r, replace=False))
        lam = ErasureSet(tuple(subset))
        reduced_eigs = list(small_complex_eigenvalues(reduced_error_matrix(frame, dual, lam)))
        full_eigs = list(small_complex_eigenvalues(error_operator(frame, dual, lam)))
        size = max(len(reduced_eigs), len(full_eigs))
        reduced_eigs += [0.0] * (size - len(reduced_eigs))
        full_eigs += [0.0] * (size - len(full_eigs))
        assert_multiset_close(reduced_eigs, full_eigs, tol=1e-8)
        done += 1
    print("ACCEPTANCE 7 (reduced/full spectra oracle, 200 cases): PASS")


def test_criterion_8_unitary_invariance():
    frame, canon = _k3k2()
    shifted = _shifted(frame)
    base = {
        (name, r): worst_radius(frame, dual, r).radius
        for name, dual in (("canonical", canon), ("shifted", shifted))
        for r in (1, 2)
    }
    rng = np.random.default_rng(808)
    for _ in range(20):
        u = random_unitary(3, rng)
        mapped = apply_unitary(frame, u)
        for name, dual in (("canonical", canon), ("shifted", shifted)):
            mapped_dual = dual_from_params(mapped, u @ dual.shifts)
            for r in (1, 2):
                radius = worst_radius(mapped, mapped_dual, r).radius
                assert abs(radius - base[(name, r)]) <= 1e-8
    print("ACCEPTANCE 8 (unitary invariance, 20 unitaries): PASS")


def test_criterion_9_search_non_improvement():
    k3 = frame_from_graph(parse_edge_list(K3_TEXT))
    k3k2 = frame_from_graph(parse_edge_list(K3K2_TEXT))
    targets = {1: 2 / 3, 2: 1.0}
    for r in (1, 2):
        report = search_optimal_dual(k3, r, SearchConfig())
        assert not report.improved
        assert abs(report.best_rho - targets[r]) <= 1e-6
    for r in (1, 2):
        report = search_optimal_dual(k3k2, r, SearchConfig())
        assert not report.improved
        assert abs(report.best_rho - targets[r]) <= 1e-6
        points = [params_to_vector(p) for p, _ in report.near_optima]
        if r == 1:  # non-uniqueness evidence: at least two separated optima
            assert len(points) >= 2
        assert all(
            np.linalg.norm(points[i] - points[j]) >= 1e-2
            for i in range(len(points))
            for j in range(i + 1, len(points))
        )
    print("ACCEPTANCE 9 (search non-improvement and ties): PASS")
