import numpy as np
import pytest

from lapframes import (
    SearchBudgetError,
    alternate_optimal_dual,
    apply_unitary,
    canonical_dual,
    dual_from_params,
    frame_from_graph,
    parse_edge_list,
    predicted_worst_radius,
    search_optimal_dual,
    singleton_shift_dual,
    uniqueness_probe,
    verify_order,
    worst_radius,
)
from lapframes import erasure, frames, optimality
from lapframes.optimality import vector_to_params
from lapframes.graph import Graph

from sampling import (
    params_to_vector,
    random_connected_graph,
    random_disconnected_graph,
    random_dual_params,
    random_graph,
    random_unitary,
)



def test_predicted_radius_order_one(k3k2_frame, edge_frame):
    assert predicted_worst_radius(k3k2_frame, 1) == pytest.approx(2 / 3)
    assert predicted_worst_radius(edge_frame, 1) == pytest.approx(1 / 2)
    path5 = frame_from_graph(parse_edge_list("n 5\n1 2\n2 3\n3 4\n4 5\n"))
    assert predicted_worst_radius(path5, 1) == pytest.approx(4 / 5)


def test_predicted_radius_order_two(k3k2_frame, k3_frame):
    assert predicted_worst_radius(k3k2_frame, 2) == 1.0
    assert predicted_worst_radius(k3_frame, 2) == 1.0
    two_edges = frame_from_graph(parse_edge_list("n 4\n1 2\n3 4\n"))
    assert predicted_worst_radius(two_edges, 2) == 1.0


def test_predicted_radius_rejects_other_orders(k3k2_frame):
    with pytest.raises(ValueError):
        predicted_worst_radius(k3k2_frame, 3)


def test_alternate_dual_matches_reference_shift(k3k2_frame, k3k2_canonical):
    # first block spans rows 1-2, so both constructions shift along row 3
    for r in (1, 2):
        alt = alternate_optimal_dual(k3k2_frame, r)
        assert np.allclose(alt.shifts[:, 0], [0.0, 0.0, 1.0])
        assert np.allclose(alt.shifts[:, 1], 0.0)
        assert abs(worst_radius(k3k2_frame, alt, 1).radius - 2 / 3) <= 1e-9
        assert abs(worst_radius(k3k2_frame, alt, 2).radius - 1.0) <= 1e-9
        distance = np.max(np.linalg.norm(alt.vectors - k3k2_canonical.vectors, axis=0))
        assert distance >= 1e-3


def test_alternate_dual_rejects_connected(k3_frame):
    with pytest.raises(ValueError, match="single-component"):
        alternate_optimal_dual(k3_frame, 1)


def test_alternate_dual_rejects_degenerate_cases():
    k3_plus_isolated = frame_from_graph(parse_edge_list("n 4\n1 2\n1 3\n2 3\n"))
    with pytest.raises(ValueError, match="degenerate"):
        alternate_optimal_dual(k3_plus_isolated, 1)
    isolated_first = frame_from_graph(parse_edge_list("n 4\n2 3\n2 4\n3 4\n"))
    with pytest.raises(ValueError, match="first component"):
        alternate_optimal_dual(isolated_first, 1)
    with pytest.raises(ValueError, match="orders 1 and 2"):
        alternate_optimal_dual(k3_plus_isolated, 3)


def test_singleton_shift_ties_all_radii():
    f = frame_from_graph(parse_edge_list("n 4\n1 2\n1 3\n2 3\n"))
    canon = canonical_dual(f)
    alt = singleton_shift_dual(f)
    assert np.max(np.abs(alt.vectors - canon.vectors)) >= 1e-3
    for r in (1, 2, 3):
        a = worst_radius(f, canon, r).radius
        b = worst_radius(f, alt, r).radius
        assert abs(a - b) <= 1e-12


def test_uniqueness_probe_connected(k3_frame):
    report = uniqueness_probe(k3_frame, seed=0)
    assert report.violations == 0
    assert report.min_excess > 0


def test_uniqueness_probe_rejects_disconnected(k3k2_frame):
    with pytest.raises(ValueError, match="single-component"):
        uniqueness_probe(k3k2_frame, seed=0)


def test_params_vector_round_trip():
    shifts = np.stack(
        [np.array([1 + 2j, 3.0, -1j]), np.array([0.5, -0.25j, 2 - 2j])], axis=1
    )
    x = params_to_vector(shifts)
    # [Re nu_1, Im nu_1, Re nu_2, Im nu_2]
    assert np.array_equal(x, [1, 3, 0, 2, 0, -1, 0.5, 0, 2, 0, -0.25, -2])
    back = vector_to_params(x, 2, 3)
    assert np.array_equal(back, shifts)


def test_search_connected_no_improvement(k3_frame):
    report = search_optimal_dual(k3_frame, 1)
    assert not report.improved
    assert abs(report.best_rho - 2 / 3) <= 1e-6
    assert np.linalg.norm(params_to_vector(report.best_params)) <= 1e-3
    assert len(report.near_optima) == 1  # origin only: the optimum is unique


def test_search_disconnected_finds_ties(k3k2_frame):
    report = search_optimal_dual(k3k2_frame, 1)
    assert not report.improved
    assert abs(report.best_rho - 2 / 3) <= 1e-6
    assert len(report.near_optima) >= 2
    vectors = [params_to_vector(p) for p, _ in report.near_optima]
    assert all(
        np.linalg.norm(vectors[i] - vectors[j]) >= 1e-2
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
    )
    assert all(abs(value - report.best_rho) <= 1e-6 for _, value in report.near_optima)


def test_search_budget_zero_returns_baseline(k3k2_frame):
    report = search_optimal_dual(k3k2_frame, 1, budget=0)
    assert report.evaluations == 1
    assert not report.improved
    assert abs(report.best_rho - 2 / 3) <= 1e-12


def test_search_budget_below_grid_pass_raises(k3k2_frame):
    with pytest.raises(SearchBudgetError):
        search_optimal_dual(k3k2_frame, 1, budget=5)


def test_search_config_validation(k3k2_frame):
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        search_optimal_dual(k3k2_frame, 1, budget=-1)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        search_optimal_dual(k3k2_frame, 1, seed=-1, budget=0)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        verify_order(k3k2_frame, [1], seed=-1)


def test_search_computes_canonical_dual_once(monkeypatch, k3k2_frame):
    calls = []
    compute = frames.canonical_dual

    def counted(f):
        calls.append(f)
        return compute(f)

    monkeypatch.setattr(frames, "canonical_dual", counted)
    report = search_optimal_dual(k3k2_frame, 1)
    assert report.evaluations > 1
    assert len(calls) == 1 and calls[0] is k3k2_frame


def test_search_checks_each_dual_once(monkeypatch, k3k2_frame):
    # one duality decision per dual: is_dual for the canonical dual, and for
    # each shifted dual either the certificate or, failing it, one is_dual
    checks, per_dual = [], []
    check, build = frames.is_dual, frames.dual_from_params

    def counted_check(f, d, *args):
        checks.append(d)
        return check(f, d, *args)

    def counted_build(f, shifts):
        before = len(checks)
        dual = build(f, shifts)
        per_dual.append(len(checks) - before)
        return dual

    monkeypatch.setattr(frames, "is_dual", counted_check)
    monkeypatch.setattr(erasure, "is_dual", counted_check)
    monkeypatch.setattr(optimality, "dual_from_params", counted_build)
    assert k3k2_frame.canonical is not None and len(checks) == 1
    report = search_optimal_dual(k3k2_frame, 1)
    assert len(per_dual) == report.evaluations > 1
    assert max(per_dual) <= 1
    assert len(checks) == 1 + sum(per_dual)
    # shifts of the search's scale are all decided by the certificate
    assert sum(per_dual) == 0


def test_connected_law_sample():
    rng = np.random.default_rng(67)
    for _ in range(10):
        g = random_connected_graph(rng)
        f = frame_from_graph(g)
        canon = canonical_dual(f)
        assert abs(worst_radius(f, canon, 1).radius - (g.n - 1) / g.n) <= 1e-9
        if g.n >= 3:
            assert abs(worst_radius(f, canon, 2).radius - 1.0) <= 1e-9


def test_disconnected_law_sample():
    rng = np.random.default_rng(71)
    for _ in range(10):
        g = random_disconnected_graph(rng)
        f = frame_from_graph(g)
        canon = canonical_dual(f)
        expected = max((s - 1) / s for s in f.layout.sizes)
        assert abs(worst_radius(f, canon, 1).radius - expected) <= 1e-9
        assert abs(worst_radius(f, canon, 2).radius - 1.0) <= 1e-9
        for r in (1, 2):
            alt = alternate_optimal_dual(f, r)
            assert abs(worst_radius(f, alt, r).radius - worst_radius(f, canon, r).radius) <= 1e-9


def test_every_dual_keeps_eigenvalue_one_within_components():
    # any dual of any graph frame: every pair inside a component of size >= 2
    # keeps 1 in the error-operator spectrum; 100 random duals
    from itertools import combinations

    from lapframes import ErasureSet, reduced_error_matrix, small_complex_eigenvalues

    rng = np.random.default_rng(73)
    done = 0
    while done < 100:
        connected = done % 2 == 0
        g = random_connected_graph(rng, (3, 7)) if connected else random_disconnected_graph(rng)
        f = frame_from_graph(g)
        dual = dual_from_params(f, random_dual_params(f, rng))
        for j, size in enumerate(f.layout.sizes):
            if size < 2:
                continue
            lo = f.layout.offsets[j]
            for a, b in combinations(range(lo + 1, lo + size + 1), 2):
                eigs = small_complex_eigenvalues(reduced_error_matrix(f, dual, ErasureSet((a, b))))
                assert min(abs(e - 1.0) for e in eigs) <= 1e-8
        done += 1


def test_rho2_lower_bound_over_random_duals():
    rng = np.random.default_rng(79)
    done = 0
    while done < 20:
        connected = done % 2 == 0
        g = random_connected_graph(rng, (3, 7)) if connected else random_disconnected_graph(rng)
        f = frame_from_graph(g)
        dual = dual_from_params(f, random_dual_params(f, rng))
        assert worst_radius(f, dual, 2).radius >= 1.0 - 1e-8
        done += 1


def test_optimality_status_invariant_under_unitary(k3k2_frame, k3k2_canonical):
    rng = np.random.default_rng(83)
    u = random_unitary(3, rng)
    fu = apply_unitary(k3k2_frame, u)
    alt = alternate_optimal_dual(k3k2_frame, 1)
    for dual in (k3k2_canonical, alt):
        du = dual_from_params(fu, u @ dual.shifts)
        for r in (1, 2):
            assert abs(
                worst_radius(fu, du, r).radius - worst_radius(k3k2_frame, dual, r).radius
            ) <= 1e-8


def test_verify_order_connected(k3_frame):
    rep1, rep2 = verify_order(k3_frame, [1, 2])
    assert rep1.canonical_optimal and rep1.unique == "unique" and rep1.all_pass
    assert rep2.canonical_optimal and rep2.all_pass
    assert rep2.extras["conflicting_reference_value"] == 2.0
    assert rep2.notes


def test_verify_order_disconnected(k3k2_frame):
    for rep in verify_order(k3k2_frame, [1, 2]):
        assert rep.canonical_optimal and rep.unique == "non-unique" and rep.all_pass
        assert len(rep.witnesses) == 2


def test_verify_order_degenerate_disconnected_uses_singleton_witness():
    f = frame_from_graph(parse_edge_list("n 4\n1 2\n1 3\n2 3\n"))
    [rep] = verify_order(f, [1])
    assert rep.unique == "non-unique" and rep.all_pass


@pytest.mark.parametrize("text", ["n 3\n1 2\n", "n 5\n1 2\n"])
def test_verify_order_two_with_one_dimensional_frame(text):
    # k = 1 while each pair spectrum (1, 0) has two entries
    f = frame_from_graph(parse_edge_list(text))
    assert f.k == 1
    [rep] = verify_order(f, [2])
    assert rep.all_pass and rep.measured == pytest.approx(1.0, abs=1e-12)


def test_search_and_verify_reject_r_at_least_n(edge_frame):
    with pytest.raises(ValueError, match="below n"):
        search_optimal_dual(edge_frame, 2, budget=100)
    with pytest.raises(ValueError, match="below n"):
        verify_order(edge_frame, [2])


def test_probe_formula_on_single_edge(edge_frame):
    # shifting the canonical dual (1/2, -1/2) by a real t gives pairings
    # 1/2 + t and 1/2 - t, so the worst radius is exactly 1/2 + |t|
    for t in (0.2, -0.7, 1.5):
        dual = dual_from_params(edge_frame, np.array([[t]]))
        assert abs(worst_radius(edge_frame, dual, 1).radius - (0.5 + abs(t))) <= 1e-12


def _component_laws_reference(f):
    """The per-component law residuals computed independently of the radius
    pass: order 1 from the elementwise pairings of each dual vector with its
    own frame vector, order 2 from each within-component pair's reduced
    matrix, one pair at a time."""
    from itertools import combinations

    from lapframes import ErasureSet, reduced_error_matrix, small_complex_eigenvalues

    canon = f.canonical
    pairings = np.abs(np.sum(f.synthesis.conj() * canon.vectors, axis=0))
    order1, order2 = [], []
    for j, s in enumerate(f.layout.sizes):
        lo = f.layout.offsets[j]
        order1.append(float(np.max(np.abs(pairings[lo:lo + s] - (s - 1) / s))))
        if s < 2:
            continue
        worst = 0.0
        for pair in combinations(range(lo + 1, lo + s + 1), 2):
            eigs = small_complex_eigenvalues(reduced_error_matrix(f, canon, ErasureSet(pair)))
            got = np.sort(eigs.real)[::-1]
            worst = max(worst, float(np.max(np.abs(got - [1.0, (s - 2) / s]))))
        order2.append(worst)
    return {1: order1, 2: order2}


def test_verify_component_laws_match_independent_formulas():
    rng = np.random.default_rng(89)
    for i in range(32):
        g = random_connected_graph(rng, (2, 9)) if i % 2 == 0 else random_disconnected_graph(rng)
        f = frame_from_graph(g)
        orders = [r for r in (1, 2) if r < f.n]
        expected = _component_laws_reference(f)
        for rep in verify_order(f, orders):
            got = [d["measured"] for d in rep.details if d["claim"].startswith("component")]
            assert len(got) == len(expected[rep.r])
            assert np.max(np.abs(np.subtract(got, expected[rep.r]))) <= 1e-12


def _relabel(g, perm):
    """The graph with vertex v renamed perm[v - 1]."""
    return Graph(g.n, frozenset(tuple(sorted((int(perm[u - 1]), int(perm[v - 1])))) for u, v in g.edges))


def test_radii_and_verdicts_invariant_under_vertex_relabelling():
    rng = np.random.default_rng(97)
    done = 0
    while done < 30:
        g = random_graph(int(rng.integers(3, 10)), rng)
        if g.edge_count == 0:
            continue
        h = _relabel(g, rng.permutation(g.n) + 1)
        f, fh = frame_from_graph(g), frame_from_graph(h)
        for r in (1, 2):
            a = worst_radius(f, f.canonical, r).radius
            b = worst_radius(fh, fh.canonical, r).radius
            assert abs(a - b) <= 1e-12
        for rep, reph in zip(verify_order(f, [1, 2], seed=done), verify_order(fh, [1, 2], seed=done)):
            assert (rep.canonical_optimal, rep.unique, rep.all_pass) == (
                reph.canonical_optimal, reph.unique, reph.all_pass)
            assert rep.all_pass
        done += 1
