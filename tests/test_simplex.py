import numpy as np
import pytest

from lapframes.simplex import ALPHA, BETA, DELTA, F_TOL, GAMMA, MAX_ITER, STEP, nelder_mead


def _one_at_a_time(fn, x0, max_evals):
    """Nelder-Mead with one objective call per point, the reference for the
    batched moves: the same points, in the same order, under the same budget."""
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    evals = 0

    def call(x):
        nonlocal evals
        if evals >= max_evals:
            return None
        evals += 1
        return fn(x)

    first = call(x0)
    if first is None:
        return x0, np.inf, evals
    simplex_ = [(x0, first)]
    for i in range(dim):
        x = x0.copy()
        x[i] += STEP
        fx = call(x)
        if fx is None:
            break
        simplex_.append((x, fx))
    simplex_.sort(key=lambda entry: entry[1])
    for _ in range(MAX_ITER):
        if len(simplex_) < dim + 1 or evals >= max_evals:
            break
        if simplex_[-1][1] - simplex_[0][1] <= F_TOL:
            break
        centroid = np.add.reduce([x for x, _ in simplex_[:-1]]) / dim
        worst_x, worst_f = simplex_[-1]
        reflected = centroid + ALPHA * (centroid - worst_x)
        fr = call(reflected)
        if fr is None:
            break
        if simplex_[0][1] <= fr < simplex_[-2][1]:
            simplex_[-1] = (reflected, fr)
        elif fr < simplex_[0][1]:
            expanded = centroid + GAMMA * (centroid - worst_x)
            fe = call(expanded)
            if fe is None:
                simplex_[-1] = (reflected, fr)
                simplex_.sort(key=lambda entry: entry[1])
                break
            simplex_[-1] = (expanded, fe) if fe < fr else (reflected, fr)
        else:
            contracted = centroid + BETA * (centroid - worst_x)
            fc = call(contracted)
            if fc is None:
                break
            if fc < worst_f:
                simplex_[-1] = (contracted, fc)
            else:
                best_x = simplex_[0][0]
                shrunk = [simplex_[0]]
                for x, _ in simplex_[1:]:
                    xs = best_x + DELTA * (x - best_x)
                    fs = call(xs)
                    if fs is None:
                        break
                    shrunk.append((xs, fs))
                simplex_ = shrunk
        simplex_.sort(key=lambda entry: entry[1])
    best_x, best_f = min(simplex_, key=lambda entry: entry[1])
    return best_x, best_f, evals


def _spike(x):
    # 0 at the origin and 1 elsewhere: every contraction fails, so the
    # search shrinks after each reflection and contraction
    return float(np.any(x != 0))


def _bowl(x):
    return float(np.sum((x - 0.3) ** 2))


def _corner(x):
    return float(np.max(np.abs(x - [0.7, -0.2, 0.1, 0.4])))


DIM = 4


# 15 ends at an expansion for bowl and corner, which then keep the reflected point
@pytest.mark.parametrize("max_evals", [DIM, DIM + 1, DIM + 3, DIM + 5, 2 * DIM + 4, 15, 60, 400])
@pytest.mark.parametrize("fn", [_spike, _bowl, _corner], ids=["spike", "bowl", "corner"])
def test_batches_visit_the_reference_points_within_the_budget(fn, max_evals):
    points, batches = [], []

    def batched(xs):
        batches.append(len(xs))
        points.extend(np.array(xs))
        return np.array([fn(x) for x in xs])

    reference = []

    def single(x):
        reference.append(np.array(x))
        return fn(x)

    result = nelder_mead(batched, np.zeros(DIM), max_evals)
    best_x, best_f, evals = _one_at_a_time(single, np.zeros(DIM), max_evals)
    assert result.evaluations == evals == len(points) == sum(batches) <= max_evals
    assert batches[0] == min(DIM + 1, max_evals)  # the initial simplex is one batch
    # then single moves and shrinks of DIM points, each cut to what is left
    assert all(size in (1, DIM) or size == max_evals - sum(batches[:i]) for i, size in enumerate(batches) if i)
    assert np.array_equal(np.array(points), np.array(reference))
    assert result.fx == best_f and np.array_equal(result.x, best_x)


def test_shrink_is_one_batch_cut_to_the_budget():
    sizes = []

    def batched(xs):
        sizes.append(len(xs))
        return np.array([_spike(x) for x in xs])

    # initial simplex, reflection, contraction, then a shrink of DIM points
    # with two evaluations left
    nelder_mead(batched, np.zeros(DIM), DIM + 1 + 2 + 2)
    assert sizes == [DIM + 1, 1, 1, 2]
    sizes.clear()
    nelder_mead(batched, np.zeros(DIM), DIM + 1 + 2 + DIM)
    assert sizes == [DIM + 1, 1, 1, DIM]


def test_no_evaluation_budget_returns_the_start():
    calls = []
    result = nelder_mead(lambda xs: calls.append(xs) or np.zeros(len(xs)), np.ones(3), 0)
    assert calls == [] and result.evaluations == 0 and result.fx == np.inf
    assert np.array_equal(result.x, np.ones(3))


def test_negative_evaluation_budget_is_refused():
    calls = []
    with pytest.raises(ValueError, match="max_evals must be nonnegative, got -2"):
        nelder_mead(lambda xs: calls.append(xs) or np.zeros(len(xs)), np.ones(5), max_evals=-2)
    assert calls == []
