"""Bundled reference example: a triangle plus a disjoint edge on 5 vertices.

Two fixtures are exercised. The pipeline fixture runs the edge list through
parsing and frame construction and checks unitary-invariant quantities
(Gramian, frame operator, pairings, radii). The explicit fixture pins a
specific synthesis matrix for the same graph and checks the canonical dual
and, for the canonical and the shifted dual, every 2-erasure error operator
against frozen reference values and every 2-erasure radius as the radius
pass of ``erasure.worst_radius``, the one the command line runs, computes it.
"""

from __future__ import annotations

import numpy as np

from .erasure import RhoResult, worst_radius
from .frames import DualFrame, Frame, dual_from_params, frame_from_graph
from .graph import contiguous_decomposition, laplacian, parse_edge_list

EDGE_LIST_TEXT = "n 5\n1 2\n1 3\n2 3\n4 5\n"

_S2 = np.sqrt(2.0)
_S3 = np.sqrt(3.0)
_S6 = np.sqrt(6.0)

LAPLACIAN_5 = np.array(
    [
        [2, -1, -1, 0, 0],
        [-1, 2, -1, 0, 0],
        [-1, -1, 2, 0, 0],
        [0, 0, 0, 1, -1],
        [0, 0, 0, -1, 1],
    ]
)


def explicit_frame() -> Frame:
    """The pinned 3 x 5 synthesis matrix whose Gramian is the Laplacian above."""
    synthesis = np.array(
        [
            [_S3 / _S2, 0.0, -_S3 / _S2, 0.0, 0.0],
            [-1.0 / _S2, _S2, -1.0 / _S2, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, -1.0],
        ],
        dtype=complex,
    )
    return Frame(3, 5, synthesis, contiguous_decomposition((3, 2)), np.array([3.0, 3.0, 2.0]))


EXPECTED_CANONICAL_VECTORS = np.array(
    [
        [1.0 / _S6, 0.0, -1.0 / _S6, 0.0, 0.0],
        [-1.0 / (3.0 * _S2), 2.0 / (3.0 * _S2), -1.0 / (3.0 * _S2), 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.5, -0.5],
    ],
    dtype=complex,
)

# k x m shifts V of the shifted dual: first-block shift (0, 0, 1), none on the second.
SHIFTS = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], dtype=complex)

# Frozen 2-erasure error operators of the canonical dual for the explicit
# frame, keyed by erasure set.
CANONICAL_OPERATORS = {
    (1, 2): [[0.5, -1 / (2 * _S3), 0], [-1 / (2 * _S3), 5 / 6, 0], [0, 0, 0]],
    (1, 3): [[1, 0, 0], [0, 1 / 3, 0], [0, 0, 0]],
    (2, 3): [[0.5, 1 / (2 * _S3), 0], [1 / (2 * _S3), 5 / 6, 0], [0, 0, 0]],
    (4, 5): [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    (1, 4): [[0.5, -1 / (2 * _S3), 0], [-1 / (2 * _S3), 1 / 6, 0], [0, 0, 0.5]],
    (1, 5): [[0.5, -1 / (2 * _S3), 0], [-1 / (2 * _S3), 1 / 6, 0], [0, 0, 0.5]],
    (2, 4): [[0, 0, 0], [0, 2 / 3, 0], [0, 0, 0.5]],
    (2, 5): [[0, 0, 0], [0, 2 / 3, 0], [0, 0, 0.5]],
    (3, 4): [[0.5, 1 / (2 * _S3), 0], [1 / (2 * _S3), 1 / 6, 0], [0, 0, 0.5]],
    (3, 5): [[0.5, 1 / (2 * _S3), 0], [1 / (2 * _S3), 1 / 6, 0], [0, 0, 0.5]],
}

# Same operators for the shifted dual (first-block shift (0, 0, 1)). Only the
# third row changes, and only in the columns of erased first-block vectors;
# that row sits below the spectrum-carrying blocks, so every radius matches
# the canonical table.
SHIFTED_OPERATORS = {
    (1, 2): [[0.5, -1 / (2 * _S3), 0], [-1 / (2 * _S3), 5 / 6, 0], [_S3 / _S2, 1 / _S2, 0]],
    (1, 3): [[1, 0, 0], [0, 1 / 3, 0], [0, -_S2, 0]],
    (2, 3): [[0.5, 1 / (2 * _S3), 0], [1 / (2 * _S3), 5 / 6, 0], [-_S3 / _S2, 1 / _S2, 0]],
    (4, 5): [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    (1, 4): [[0.5, -1 / (2 * _S3), 0], [-1 / (2 * _S3), 1 / 6, 0], [_S3 / _S2, -1 / _S2, 0.5]],
    (1, 5): [[0.5, -1 / (2 * _S3), 0], [-1 / (2 * _S3), 1 / 6, 0], [_S3 / _S2, -1 / _S2, 0.5]],
    (2, 4): [[0, 0, 0], [0, 2 / 3, 0], [0, _S2, 0.5]],
    (2, 5): [[0, 0, 0], [0, 2 / 3, 0], [0, _S2, 0.5]],
    (3, 4): [[0.5, 1 / (2 * _S3), 0], [1 / (2 * _S3), 1 / 6, 0], [-_S3 / _S2, -1 / _S2, 0.5]],
    (3, 5): [[0.5, 1 / (2 * _S3), 0], [1 / (2 * _S3), 1 / 6, 0], [-_S3 / _S2, -1 / _S2, 0.5]],
}

EXPECTED_RADII = {
    (1, 2): 1.0,
    (1, 3): 1.0,
    (2, 3): 1.0,
    (4, 5): 1.0,
    (1, 4): 2 / 3,
    (1, 5): 2 / 3,
    (2, 4): 2 / 3,
    (2, 5): 2 / 3,
    (3, 4): 2 / 3,
    (3, 5): 2 / 3,
}

# Cross pairings of the canonical dual against the frame: the orthogonal
# projections onto each block's zero-sum subspace.
EXPECTED_CROSS_GRAMIAN = np.block(
    [
        [np.eye(3) - np.full((3, 3), 1 / 3), np.zeros((3, 2))],
        [np.zeros((2, 3)), np.eye(2) - np.full((2, 2), 1 / 2)],
    ]
)

DEFAULT_TOL = 1e-9


def _check(name: str, residual: float, tol: float) -> dict:
    return {"name": name, "residual": float(residual), "tol": float(tol), "pass": bool(residual <= tol)}


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _pass_residuals(f: Frame, d: DualFrame, operators: dict) -> tuple[float, float, RhoResult]:
    """The worst entrywise error of the frozen k x k ``operators``, each
    formed as Psi[:, s] Phi[:, s]^H, and of ``EXPECTED_RADII`` against the
    order-2 radius pass of ``d``, which is returned too."""
    rho = worst_radius(f, d, 2)
    radii = dict(zip(map(tuple, (rho.sets + 1).tolist()), rho.radii.tolist()))
    worst_ops = worst_radii = 0.0
    for lam, expected in operators.items():
        cols = np.array(lam) - 1
        worst_ops = max(worst_ops, _max_abs(d.vectors[:, cols] @ f.analysis[cols], expected))
        worst_radii = max(worst_radii, abs(radii[lam] - EXPECTED_RADII[lam]))
    return worst_ops, worst_radii, rho


def run_reproduction(tol: float | None = None) -> dict:
    """Run every reference check; returns a JSON-ready report. An infinite
    tolerance would pass every check, so it must be finite and nonnegative."""
    t = DEFAULT_TOL if tol is None else float(tol)
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {t}")
    checks: list[dict] = []

    # Pipeline fixture: parse, build, and check invariant quantities. Its
    # components are already contiguous, so block order is label order.
    g = parse_edge_list(EDGE_LIST_TEXT)
    frame = frame_from_graph(g)
    checks.append(_check("pipeline: gramian equals the graph Laplacian",
                         _max_abs(frame.analysis @ frame.synthesis, laplacian(g)), t))
    checks.append(_check("pipeline: frame operator is diag(3, 3, 2)",
                         _max_abs(frame.synthesis @ frame.analysis, np.diag([3.0, 3.0, 2.0])), t))
    canon = frame.canonical
    pairings = np.sort(np.abs(np.sum(frame.synthesis.conj() * canon.vectors, axis=0)))
    checks.append(_check("pipeline: canonical pairings are (1/2, 1/2, 2/3, 2/3, 2/3)",
                         _max_abs(pairings, [0.5, 0.5, 2 / 3, 2 / 3, 2 / 3]), t))
    checks.append(_check("pipeline: canonical cross pairings match the block projections",
                         _max_abs(frame.synthesis.conj().T @ canon.vectors, EXPECTED_CROSS_GRAMIAN), t))
    rho1 = worst_radius(frame, canon, 1)
    checks.append(_check("pipeline: order-1 canonical radius is 2/3", abs(rho1.radius - 2 / 3), t))
    checks.append(_check("pipeline: order-1 witness is vector 1",
                         0.0 if rho1.witness == (1,) else 1.0, t))
    rho2 = worst_radius(frame, canon, 2)
    checks.append(_check("pipeline: order-2 canonical radius is 1", abs(rho2.radius - 1.0), t))
    shifted = dual_from_params(frame, SHIFTS)
    checks.append(_check("pipeline: shifted dual ties order-1 at 2/3",
                         abs(worst_radius(frame, shifted, 1).radius - 2 / 3), t))
    checks.append(_check("pipeline: shifted dual ties order-2 at 1",
                         abs(worst_radius(frame, shifted, 2).radius - 1.0), t))
    distance = float(np.max(np.linalg.norm(shifted.vectors - canon.vectors, axis=0)))
    checks.append(_check("pipeline: shifted dual differs from canonical by at least 1e-3",
                         max(0.0, 1e-3 - distance), t))

    # Explicit fixture: entrywise comparisons against the frozen matrices.
    ef = explicit_frame()
    checks.append(_check("explicit: gramian equals the graph Laplacian",
                         _max_abs(ef.analysis @ ef.synthesis, LAPLACIAN_5), t))
    ecanon = ef.canonical
    checks.append(_check("explicit: canonical dual matches the reference vectors",
                         _max_abs(ecanon.vectors, EXPECTED_CANONICAL_VECTORS), t))

    worst_ops, worst_radii, rho_canon = _pass_residuals(ef, ecanon, CANONICAL_OPERATORS)
    checks.append(_check("explicit: ten canonical 2-erasure operators match", worst_ops, t))
    checks.append(_check("explicit: ten canonical 2-erasure radii match", worst_radii, t))
    spec12 = np.sort(next(rho_canon.chunks())[1][0].real)[::-1]  # sets[0] is (1, 2)
    checks.append(_check("explicit: reduced spectrum at (1, 2) is (1, 1/3)",
                         _max_abs(spec12, [1.0, 1 / 3]), t))

    worst_ops, worst_radii, rho_shift = _pass_residuals(ef, dual_from_params(ef, SHIFTS), SHIFTED_OPERATORS)
    checks.append(_check("explicit: ten shifted-dual 2-erasure operators match", worst_ops, t))
    checks.append(_check("explicit: ten shifted-dual 2-erasure radii match", worst_radii, t))
    checks.append(_check("explicit: order-2 radius is 1 for both duals",
                         max(abs(rho_canon.radius - 1.0), abs(rho_shift.radius - 1.0)), t))

    return {
        "schema": 1,
        "command": "reproduce",
        "tolerance": t,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
