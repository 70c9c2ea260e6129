import cmath
import math
import random
import struct

import numpy as np
import pytest

from lapframes import (
    Frame,
    SearchBudgetError,
    alternate_optimal_dual,
    canonical_dual,
    contiguous_decomposition,
    dual_from_params,
    frame_from_graph,
    parse_edge_list,
    predicted_worst_radius,
    search_optimal_dual,
    uniqueness_probe,
    verify_order,
    worst_radius,
)
from lapframes import erasure, frames, optimality
from lapframes.graph import Graph

from conftest import K3K2_TEXT, K4_TEXT
from oracles import cross_gramian_radius, reduced_matrix
from sampling import (
    random_connected_graph,
    random_disconnected_graph,
    random_dual_params,
    random_graph,
    random_unitary,
    rotated,
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


@pytest.mark.parametrize("sizes", [(1,), (1, 1, 1)], ids=["one-vertex", "singletons"])
def test_predicted_radius_order_two_needs_a_block_of_two(sizes):
    n = sum(sizes)
    f = Frame(1, n, np.zeros((1, n), dtype=complex), contiguous_decomposition(sizes), np.ones(1))
    with pytest.raises(ValueError, match="^order-2 prediction needs a component with at least 2 vertices$"):
        predicted_worst_radius(f, 2)


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


@pytest.mark.parametrize("text, singleton", [
    ("n 4\n1 2\n1 3\n2 3\n", 1),  # K3 plus a vertex: no other block has rows
    ("n 4\n2 3\n2 4\n3 4\n", 0),  # the first component is the single vertex
], ids=["k3-plus-vertex", "vertex-first"])
def test_alternate_dual_falls_back_to_a_singleton_shift(text, singleton):
    f = frame_from_graph(parse_edge_list(text))
    expected = np.zeros((f.k, 2))
    expected[:, singleton] = 1.0
    for r in (1, 2):
        assert np.array_equal(alternate_optimal_dual(f, r).shifts, expected)
    with pytest.raises(ValueError, match="orders 1 and 2"):
        alternate_optimal_dual(f, 3)


def test_singleton_shift_ties_all_radii():
    f = frame_from_graph(parse_edge_list("n 4\n1 2\n1 3\n2 3\n"))
    canon = canonical_dual(f)
    alt = alternate_optimal_dual(f, 1)
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


def test_search_connected_no_improvement(k3_frame):
    report = search_optimal_dual(k3_frame, 1)
    assert not report["improved"]
    assert abs(report["best_rho"] - 2 / 3) <= 1e-6
    assert np.linalg.norm(report["best_params"]) <= 1e-3
    assert len(report["near_optima"]) == 1  # origin only: the optimum is unique


def test_search_disconnected_finds_ties(k3k2_frame):
    report = search_optimal_dual(k3k2_frame, 1)
    assert not report["improved"]
    assert abs(report["best_rho"] - 2 / 3) <= 1e-6
    assert len(report["near_optima"]) >= 2
    vectors = [near["params"] for near in report["near_optima"]]
    assert all(
        np.linalg.norm(vectors[i] - vectors[j]) >= 1e-2
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
    )
    assert all(abs(near["rho"] - report["best_rho"]) <= 1e-6 for near in report["near_optima"])


def test_search_budget_zero_returns_baseline(k3k2_frame):
    report = search_optimal_dual(k3k2_frame, 1, budget=0)
    assert report["evaluations"] == 1
    assert not report["improved"]
    assert abs(report["best_rho"] - 2 / 3) <= 1e-12


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
    assert report["evaluations"] > 1
    assert len(calls) == 1 and calls[0] is k3k2_frame


def test_search_checks_each_dual_once(monkeypatch, k3k2_frame):
    # one duality decision per evaluated point: the batch certificate sees
    # every point once, and shifts of the search's scale never need
    # dual_from_params or is_dual
    rows, built, checks = [], [], []
    decide, build, check = frames.check_shifts, frames.dual_from_params, frames.is_dual
    monkeypatch.setattr(erasure, "check_shifts", lambda f, v: rows.append(len(v)) or decide(f, v))
    monkeypatch.setattr(frames, "dual_from_params", lambda f, v: built.append(v) or build(f, v))
    monkeypatch.setattr(frames, "is_dual", lambda f, d: checks.append(d) or check(f, d))
    assert k3k2_frame.canonical is not None and len(checks) == 0
    report = search_optimal_dual(k3k2_frame, 1)
    assert sum(rows) == report["evaluations"] > 1
    assert len(rows) < report["evaluations"] / 2  # most points come in batches
    assert built == [] and checks == []


@pytest.mark.parametrize("text, r, evaluations, best_rho", [
    (K3K2_TEXT, 1, 2068, 0.6666666666666666),
    (K3K2_TEXT, 2, 266, 1.0),
    (K4_TEXT, 1, 1844, 0.7500000000000001),
    (K4_TEXT, 2, 117, 1.0),
], ids=["k3k2-1", "k3k2-2", "k4-1", "k4-2"])
def test_search_trajectory_is_pinned(text, r, evaluations, best_rho):
    """The search's exact path, so a change to its evaluator cannot move it
    unnoticed. A change that the ROADMAP's search gate allows to move it
    re-pins these values and lists the move in CHANGES.md."""
    report = search_optimal_dual(frame_from_graph(parse_edge_list(text)), r)
    assert (report["evaluations"], report["best_rho"], report["improved"]) == (evaluations, best_rho, False)


def test_search_measures_each_chunk_once(monkeypatch):
    # 10 pairs per chunk, so K9's 36 pairs take 4 chunks and every dual is
    # evaluated alone: the held groups are measured once per chunk over the
    # whole search
    monkeypatch.setattr(erasure, "CHUNK_ENTRIES", 40)
    calls = []
    measure = erasure._RadiusPass._measure
    monkeypatch.setattr(erasure._RadiusPass, "_measure", lambda rp, s: calls.append(len(s)) or measure(rp, s))
    text = "n 9\n" + "".join(f"{i} {j}\n" for i in range(1, 10) for j in range(i + 1, 10))
    report = search_optimal_dual(frame_from_graph(parse_edge_list(text)), 2, budget=400)
    assert report["evaluations"] > 300 and not report["improved"]
    assert calls == [10, 10, 10, 6]


def test_search_seed_picks_the_restart(monkeypatch, k3k2_frame):
    # the fifth Nelder-Mead start is the seeded restart: the same seed gives
    # the same start and report, another seed another start
    starts = []
    refine = optimality.nelder_mead
    monkeypatch.setattr(optimality, "nelder_mead", lambda f, x, **kw: starts.append(x.copy()) or refine(f, x, **kw))
    reports = [search_optimal_dual(k3k2_frame, 1, seed=seed) for seed in (7, 7, 8)]
    first, again, other = (starts[i:i + 5] for i in (0, 5, 10))
    assert len(starts) == 15
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert all(np.array_equal(a, b) for a, b in zip(first[:4], other[:4]))
    assert not np.array_equal(first[4], other[4])
    assert np.abs(first[4]).max() <= optimality.GRID_EXTENT and np.ptp(first[4]) > 0
    a, b = reports[:2]
    assert (a["best_rho"], a["evaluations"], a["improved"]) == (b["best_rho"], b["evaluations"], b["improved"])
    assert np.array_equal(a["best_params"], b["best_params"])
    assert len(a["near_optima"]) == len(b["near_optima"])
    for p, q in zip(a["near_optima"], b["near_optima"]):
        assert np.array_equal(p["params"], q["params"]) and p["rho"] == q["rho"]


def test_search_reports_a_counterexample(monkeypatch, k3k2_frame):
    # an evaluator that reads below the true radius away from V = 0: the
    # grid's best point beats the canonical one, Nelder-Mead beats the grid,
    # and the report is the counterexample the search looks for
    true, refine = optimality.shifted_radii, optimality.nelder_mead
    batches, refined = [], []

    def lowered(f, r):
        evaluate = true(f, r)
        return lambda v: batches.append(evaluate(v) - 2 * np.tanh(np.linalg.norm(v, axis=(-2, -1)))) or batches[-1]

    monkeypatch.setattr(optimality, "shifted_radii", lowered)
    monkeypatch.setattr(optimality, "nelder_mead",
                        lambda fn, x, **kw: refined.append(refine(fn, x, **kw)) or refined[-1])
    report = search_optimal_dual(k3k2_frame, 1)
    canonical, grid = batches[0][0], batches[1].min()
    assert canonical == pytest.approx(2 / 3, abs=1e-12)  # V = 0 reads the true radius
    assert grid < canonical - optimality.IMPROVEMENT_TOL
    assert report["best_rho"] == min(result.fx for result in refined) < grid
    assert report["improved"] and report["best_rho"] < canonical - optimality.IMPROVEMENT_TOL
    params = np.asarray(report["best_params"])  # [re, im] pairs of V^T
    assert params.shape == (k3k2_frame.layout.m, k3k2_frame.k, 2) and np.linalg.norm(params) > 0
    best = (params[..., 0] + 1j * params[..., 1]).T
    assert lowered(k3k2_frame, 1)(best[None])[0] == pytest.approx(report["best_rho"], abs=1e-12)
    assert report["near_optima"]
    assert all(abs(near["rho"] - report["best_rho"]) <= optimality.NEAR_OPTIMUM_TOL
               for near in report["near_optima"])


@pytest.mark.parametrize("frame, r", [("k3k2_frame", 1), ("k3_frame", 2)])
def test_search_evaluations_stay_within_the_budget(request, frame, r):
    f = request.getfixturevalue(frame)
    dim = 2 * f.layout.m * f.k
    grid_pass = 1 + 4 * dim
    for budget in (grid_pass, grid_pass + 1, grid_pass + dim, grid_pass + dim + 3):
        report = search_optimal_dual(f, r, budget=budget)
        assert grid_pass <= report["evaluations"] <= budget


def _probe_per_trial(f, seed):
    """``uniqueness_probe`` one trial at a time, with the standard library's
    math: each trial reads its 2k + 1 uniforms from the same seeded stream,
    in turn, and its shift is made a dual and its radius taken alone."""
    stream = random.Random(seed)
    baseline = predicted_worst_radius(f, 1)
    lo, hi = optimality.PROBE_NORM_RANGE
    k = f.k
    excesses = []
    for _ in range(optimality.PROBE_TRIALS):
        words = struct.unpack(f"<{2 * k + 1}Q", stream.randbytes(8 * (2 * k + 1)))
        u = [(w >> 11) * 2.0**-53 for w in words]
        direction = np.array([math.sqrt(-2.0 * math.log1p(-a)) * cmath.exp(2j * math.pi * b)
                              for a, b in zip(u[:k], u[k:2 * k])])
        direction /= np.linalg.norm(direction)
        norm = math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u[2 * k])
        dual = dual_from_params(f, (norm * direction)[:, None])
        excesses.append(worst_radius(f, dual, 1).radius - baseline)
    return min(excesses), sum(e <= -optimality.PROBE_SLACK for e in excesses)


def test_uniqueness_probe_matches_a_per_trial_loop():
    f = frame_from_graph(random_connected_graph(np.random.default_rng(97), (9, 9)))
    for seed in range(5):
        report = uniqueness_probe(f, seed)
        min_excess, violations = _probe_per_trial(f, seed)
        assert report.violations == violations
        assert abs(report.min_excess - min_excess) <= 1e-12 * abs(min_excess)


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
    rng = np.random.default_rng(73)
    done = 0
    while done < 100:
        connected = done % 2 == 0
        g = random_connected_graph(rng, (3, 7)) if connected else random_disconnected_graph(rng)
        f = frame_from_graph(g)
        dual = dual_from_params(f, random_dual_params(f, rng))
        result = worst_radius(f, dual, 2)
        inside = f.block[result.sets[:, 0]] == f.block[result.sets[:, 1]]
        assert inside.any()
        assert np.abs(result.spectra[inside] - 1.0).min(axis=1).max() <= 1e-8
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
    alt = alternate_optimal_dual(k3k2_frame, 1)
    for dual in (k3k2_canonical, alt):
        fu, du = rotated(k3k2_frame, dual, u)
        for r in (1, 2):
            assert abs(
                cross_gramian_radius(fu, du, r) - worst_radius(k3k2_frame, dual, r).radius
            ) <= 1e-8


def _all_pass(rep):
    return all(item["pass"] for item in rep["details"])


def test_verify_order_connected(k3_frame):
    rep1, rep2 = verify_order(k3_frame, [1, 2])
    assert rep1["canonical_optimal"] and rep1["unique"] == "unique" and _all_pass(rep1)
    assert rep2["canonical_optimal"] and _all_pass(rep2)
    assert rep2["conflicting_reference_value"] == 2.0
    assert rep2["notes"]


def test_verify_order_disconnected(k3k2_frame):
    for rep in verify_order(k3k2_frame, [1, 2]):
        assert rep["canonical_optimal"] and rep["unique"] == "non-unique" and _all_pass(rep)
        assert len(rep["witnesses"]) == 2


def test_verify_order_reads_the_alternate_through_shifted_radii(monkeypatch, k3k2_frame):
    # per order, the canonical dual's pass and then the evaluator's pass,
    # which gives the alternate witness's radius; both hold their groups
    calls = []
    build = erasure._RadiusPass.__init__

    def counted(self, f, r):
        build(self, f, r)
        calls.append((r, self.held is not None))

    monkeypatch.setattr(erasure._RadiusPass, "__init__", counted)
    reports = verify_order(k3k2_frame, [1, 2])
    assert all(rep["unique"] == "non-unique" and _all_pass(rep) for rep in reports)
    assert calls == [(1, True), (1, True), (2, True), (2, True)]


def test_verify_order_degenerate_disconnected_uses_singleton_witness():
    f = frame_from_graph(parse_edge_list("n 4\n1 2\n1 3\n2 3\n"))
    [rep] = verify_order(f, [1])
    assert rep["unique"] == "non-unique" and _all_pass(rep)


@pytest.mark.parametrize("text", ["n 3\n1 2\n", "n 5\n1 2\n"])
def test_verify_order_two_with_one_dimensional_frame(text):
    # k = 1 while each pair spectrum (1, 0) has two entries
    f = frame_from_graph(parse_edge_list(text))
    assert f.k == 1
    [rep] = verify_order(f, [2])
    assert _all_pass(rep) and rep["measured"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda f: search_optimal_dual(f, 3, budget=100), "search supports erasure orders 1 and 2, got 3"),
    (lambda f: verify_order(f, [1, 3]), "verification covers erasure orders 1 and 2, got 3"),
], ids=["search", "verify"])
def test_search_and_verify_reject_order_three(k3k2_frame, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(k3k2_frame)


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

    from lapframes import small_complex_eigenvalues

    canon = f.canonical
    pairings = np.abs(np.sum(f.synthesis.conj() * canon.vectors, axis=0))
    order1, order2 = [], []
    for j, s in enumerate(f.layout.sizes):
        lo = f.layout.offsets[j]
        order1.append(float(np.max(np.abs(pairings[lo:lo + s] - (s - 1) / s))))
        if s < 2:
            continue
        worst = 0.0
        for pair in combinations(range(lo, lo + s), 2):
            eigs = small_complex_eigenvalues(reduced_matrix(f, canon, pair))
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
            got = [d["measured"] for d in rep["details"] if d["claim"].startswith("component")]
            assert len(got) == len(expected[rep["r"]])
            assert np.max(np.abs(np.subtract(got, expected[rep["r"]]))) <= 1e-12


def _relabel(g, perm):
    """The graph with vertex v renamed perm[v - 1]."""
    return Graph(g.n, frozenset(tuple(sorted((int(perm[u - 1]), int(perm[v - 1])))) for u, v in g.edges))


def test_radii_and_verdicts_invariant_under_vertex_relabelling():
    rng = np.random.default_rng(97)
    done = 0
    while done < 30:
        g = random_graph(int(rng.integers(3, 10)), rng)
        if not g.edges:
            continue
        h = _relabel(g, rng.permutation(g.n) + 1)
        f, fh = frame_from_graph(g), frame_from_graph(h)
        for r in (1, 2):
            a = worst_radius(f, f.canonical, r).radius
            b = worst_radius(fh, fh.canonical, r).radius
            assert abs(a - b) <= 1e-12
        for rep, reph in zip(verify_order(f, [1, 2], seed=done), verify_order(fh, [1, 2], seed=done)):
            assert (rep["canonical_optimal"], rep["unique"], _all_pass(rep)) == (
                reph["canonical_optimal"], reph["unique"], _all_pass(reph))
            assert _all_pass(rep)
        done += 1
