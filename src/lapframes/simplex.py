"""Nelder-Mead simplex minimization for low-dimensional objectives.

Standard reflection/expansion/contraction/shrink moves with an evaluation
budget, suited to continuous but non-smooth objectives such as a max of
eigenvalue magnitudes. The objective takes a batch of points, so the moves
whose points are known together (the initial simplex, a shrink) cost one
call.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, NamedTuple

import numpy as np


STEP = 0.25  # initial simplex offset along each axis
MAX_ITER = 200
F_TOL = 1e-10
ALPHA, GAMMA, BETA, DELTA = 1.0, 2.0, 0.5, 0.5  # reflection, expansion, contraction, shrink


class SimplexResult(NamedTuple):
    x: np.ndarray
    fx: float
    evaluations: int


def nelder_mead(fn: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, max_evals: int) -> SimplexResult:
    """Minimize ``fn`` from ``x0``; the initial simplex offsets each axis by ``STEP``.

    ``fn`` maps a (B, dim) batch of points to their B values. The initial
    simplex and each shrink step are one batch, cut to the evaluations left
    in ``max_evals``; reflection, expansion and contraction are batches of
    one. Stops on ``MAX_ITER`` iterations, a function spread below
    ``F_TOL``, or when ``max_evals`` objective evaluations have been spent.
    A negative ``max_evals`` is refused before any evaluation.
    """
    if max_evals < 0:
        raise ValueError(f"max_evals must be nonnegative, got {max_evals}")
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    evals = 0

    def call(points: np.ndarray) -> list[float]:
        """The values of the leading points that the budget still covers."""
        nonlocal evals
        points = points[:max_evals - evals]
        evals += len(points)
        return fn(points).tolist() if len(points) else []

    def call_one(x: np.ndarray) -> float | None:
        got = call(x[None])
        return got[0] if got else None

    def ordered(points: np.ndarray, values: list[float]) -> tuple[np.ndarray, list[float]]:
        order = sorted(range(len(values)), key=values.__getitem__)  # stable
        return points[order], [values[i] for i in order]

    def replace_worst(x: np.ndarray, fx: float) -> None:
        """Put (x, fx) in place of the worst vertex, where a stable sort by
        value would put it: after every better or equal vertex."""
        i = bisect_right(values, fx, 0, dim)
        simplex[i + 1:] = simplex[i:dim]
        simplex[i] = x
        values.insert(i, fx)
        values.pop()

    # the vertices as rows sorted by their values, best first
    start = np.tile(x0, (dim + 1, 1))
    start[np.arange(1, dim + 1), np.arange(dim)] += STEP
    values = call(start)
    if not values:
        return SimplexResult(x0, np.inf, evals)
    simplex, values = ordered(start[:len(values)], values)

    for _ in range(MAX_ITER):
        if len(values) < dim + 1 or evals >= max_evals:
            break
        if values[-1] - values[0] <= F_TOL:
            break
        centroid = np.add.reduce(simplex[:-1]) / dim
        away = centroid - simplex[-1]

        reflected = centroid + ALPHA * away
        fr = call_one(reflected)  # the loop's budget check leaves it one evaluation
        if values[0] <= fr < values[-2]:
            replace_worst(reflected, fr)
        elif fr < values[0]:
            expanded = centroid + GAMMA * away
            fe = call_one(expanded)
            if fe is None:
                replace_worst(reflected, fr)
                break
            replace_worst(*((expanded, fe) if fe < fr else (reflected, fr)))
        else:
            contracted = centroid + BETA * away
            fc = call_one(contracted)
            if fc is None:
                break
            if fc < values[-1]:
                replace_worst(contracted, fc)
            else:
                shrunk = simplex[0] + DELTA * (simplex[1:] - simplex[0])
                got = call(shrunk)
                simplex, values = ordered(np.vstack([simplex[:1], shrunk[:len(got)]]), values[:1] + got)

    return SimplexResult(simplex[0].copy(), values[0], evals)
