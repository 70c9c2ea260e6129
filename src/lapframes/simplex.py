"""Nelder-Mead simplex minimization for low-dimensional objectives.

Standard reflection/expansion/contraction/shrink moves with an evaluation
budget, suited to continuous but non-smooth objectives such as a max of
eigenvalue magnitudes.
"""

from __future__ import annotations

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


def nelder_mead(fn: Callable[[np.ndarray], float], x0: np.ndarray, max_evals: int) -> SimplexResult:
    """Minimize ``fn`` from ``x0``; the initial simplex offsets each axis by ``STEP``.

    Stops on ``MAX_ITER`` iterations, a function spread below ``F_TOL``, or
    when ``max_evals`` objective evaluations have been spent.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    evals = 0

    def call(x: np.ndarray) -> float | None:
        nonlocal evals
        if evals >= max_evals:
            return None
        evals += 1
        return fn(x)

    first = call(x0)
    if first is None:
        return SimplexResult(x0, np.inf, evals)
    simplex = [(x0, first)]
    for i in range(dim):
        x = x0.copy()
        x[i] += STEP
        fx = call(x)
        if fx is None:
            break
        simplex.append((x, fx))
    simplex.sort(key=lambda entry: entry[1])

    for _ in range(MAX_ITER):
        if len(simplex) < dim + 1 or evals >= max_evals:
            break
        if simplex[-1][1] - simplex[0][1] <= F_TOL:
            break
        centroid = np.add.reduce([x for x, _ in simplex[:-1]]) / dim
        worst_x, worst_f = simplex[-1]

        reflected = centroid + ALPHA * (centroid - worst_x)
        fr = call(reflected)
        if fr is None:
            break
        if simplex[0][1] <= fr < simplex[-2][1]:
            simplex[-1] = (reflected, fr)
        elif fr < simplex[0][1]:
            expanded = centroid + GAMMA * (centroid - worst_x)
            fe = call(expanded)
            if fe is None:
                simplex[-1] = (reflected, fr)
                simplex.sort(key=lambda entry: entry[1])
                break
            simplex[-1] = (expanded, fe) if fe < fr else (reflected, fr)
        else:
            contracted = centroid + BETA * (centroid - worst_x)
            fc = call(contracted)
            if fc is None:
                break
            if fc < worst_f:
                simplex[-1] = (contracted, fc)
            else:
                best_x = simplex[0][0]
                shrunk = [simplex[0]]
                for x, _ in simplex[1:]:
                    xs = best_x + DELTA * (x - best_x)
                    fs = call(xs)
                    if fs is None:
                        break
                    shrunk.append((xs, fs))
                simplex = shrunk
        simplex.sort(key=lambda entry: entry[1])

    best_x, best_f = min(simplex, key=lambda entry: entry[1])
    return SimplexResult(best_x, best_f, evals)
