"""Optimality of dual frames under worst-case erasures.

Closed-form predictions for the canonical dual's worst-case radii, explicit
alternate optimal duals for multi-component graphs, a derivative-free search
over the whole dual family, and a strictness probe that certifies uniqueness
for single-component graphs. ``verify_order`` reads each order's
per-component laws from the canonical dual's radius pass (``worst_radius``
returns C's principal-submatrix spectra), and runs the order-independent
probe once per call. Every refusal is a ``ValueError``, ``SearchBudgetError``
included; a bad order, seed or negative budget is refused before any work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .erasure import worst_radius
from .frames import DualFrame, Frame, dual_from_params
from .simplex import nelder_mead

RADIUS_TOL = 1e-9
IMPROVEMENT_TOL = 1e-8
NEAR_OPTIMUM_TOL = 1e-6
DISTINCT_POINT_TOL = 1e-2
SPECTRUM_TOL = 1e-8
GRID_EXTENT = 1.0  # the coarse grid and the random restart span [-GRID_EXTENT, GRID_EXTENT]
GRID_STEPS = 5
PROBE_TRIALS = 100
PROBE_NORM_RANGE = (1e-3, 10.0)  # log-uniform range of the probe's shift norms
PROBE_SLACK = 1e-10
SEARCH_BUDGET = 5000  # default objective evaluations of ``search_optimal_dual``


class SearchBudgetError(ValueError):
    """The evaluation budget ran out before one full grid pass."""


@dataclass(frozen=True)
class SearchReport:
    best_params: np.ndarray  # k x m shifts
    best_rho: float
    evaluations: int
    improved: bool
    near_optima: tuple[tuple[np.ndarray, float], ...] = ()


@dataclass(frozen=True)
class ProbeReport:
    min_excess: float
    violations: int


@dataclass(frozen=True)
class OptimalityReport:
    """Verification outcome for one erasure order."""

    r: int
    predicted: float
    measured: float
    canonical_optimal: bool
    unique: str  # "unique" | "non-unique" | "undetermined"
    witnesses: tuple[np.ndarray, ...]  # k x m shifts
    details: tuple[dict, ...]
    notes: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(item["pass"] for item in self.details)


def predicted_worst_radius(f: Frame, r: int) -> float:
    """Closed-form worst-case radius of the canonical dual.

    Order 1: max over component blocks of (size-1)/size, which reduces to
    (n-1)/n for a single component. Order 2: 1 whenever some block has at
    least two vertices (guaranteed for any frame built from a graph).
    """
    sizes = f.layout.sizes
    if r == 1:
        return max((s - 1) / s for s in sizes)
    if r == 2:
        if f.n < 2 or not any(s >= 2 for s in sizes):
            raise ValueError("order-2 prediction needs a component with at least 2 vertices")
        return 1.0
    raise ValueError(f"no closed-form prediction for erasure order {r}")


def alternate_optimal_dual(f: Frame, r: int) -> DualFrame:
    """The explicit non-canonical optimal dual for a multi-component graph.

    Shifts the first component's dual vectors by a vector supported outside
    that component's own coordinate block: all ones there for order 1, a
    single one in the first such coordinate for order 2. Requires at least
    two components, a first component with >= 2 vertices, and some other
    component with >= 2 vertices (otherwise there is no outside coordinate
    and the construction would collapse onto the canonical dual).
    """
    if r not in (1, 2):
        raise ValueError(f"alternate construction only covers orders 1 and 2, got {r}")
    sizes = f.layout.sizes
    if f.layout.m < 2:
        raise ValueError("single-component graph: the canonical dual is the unique optimum")
    if sizes[0] < 2:
        raise ValueError("first component must have at least 2 vertices")
    block = sizes[0] - 1  # rows spanned by the first component
    if block == f.k:
        raise ValueError(
            "degenerate construction: no other component has 2 or more vertices"
        )
    shifts = np.zeros((f.k, f.layout.m), dtype=complex)
    if r == 1:
        shifts[block:, 0] = 1.0
    else:
        shifts[block, 0] = 1.0
    return dual_from_params(f, shifts)


def singleton_shift_dual(f: Frame) -> DualFrame:
    """Non-canonical dual obtained by shifting a single-vertex component.

    Such a component's frame vector is zero, so the shifted dual vector never
    enters any error operator: every radius ties the canonical dual exactly.
    Used as a non-uniqueness witness when the explicit construction above is
    degenerate.
    """
    sizes = f.layout.sizes
    try:
        j = next(i for i, s in enumerate(sizes) if s == 1)
    except StopIteration:
        raise ValueError("no single-vertex component to shift") from None
    shifts = np.zeros((f.k, f.layout.m), dtype=complex)
    shifts[:, j] = 1.0
    return dual_from_params(f, shifts)


def vector_to_params(x: np.ndarray, m: int, k: int) -> np.ndarray:
    """The k x m shifts of a flat vector [Re nu_1, Im nu_1, Re nu_2, ...] of
    length 2*m*k, nu_j being column j."""
    x = np.asarray(x, dtype=float)
    if x.size != 2 * m * k:
        raise ValueError(f"expected {2 * m * k} parameters, got {x.size}")
    parts = x.reshape(m, 2, k)
    return (parts[:, 0] + 1j * parts[:, 1]).T


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")


def search_optimal_dual(f: Frame, r: int, *, seed: int = 0, budget: int = SEARCH_BUDGET) -> SearchReport:
    """Minimize the worst-case radius over the whole shift-parameterized family.

    Seeds: the canonical point plus per-axis sweeps of the coarse grid (a
    full Cartesian grid is hopeless at 2*m*k dimensions), then Nelder-Mead
    refinement from the best seeds and one seeded random restart. A budget
    of 0 returns the canonical baseline after its single evaluation; a
    nonzero budget too small for one grid pass raises. The budget and the
    seed are checked before any evaluation.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    _check_seed(seed)
    if r not in (1, 2):
        raise ValueError(f"search supports erasure orders 1 and 2, got {r}")
    if r >= f.n:
        raise ValueError(f"erasure size r={r} must stay below n={f.n}")
    m, k = f.layout.m, f.k
    dim = 2 * m * k
    evaluations = 0
    samples: list[tuple[np.ndarray, float]] = []

    def objective(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        dual = dual_from_params(f, vector_to_params(x, m, k))
        value = worst_radius(f, dual, r).radius
        samples.append((np.asarray(x, dtype=float).copy(), value))
        return value

    origin = np.zeros(dim)
    canonical_rho = objective(origin)
    best_x, best_rho = origin, canonical_rho

    def finalize() -> SearchReport:
        near: list[tuple[np.ndarray, float]] = []
        for x, value in samples:
            if value > best_rho + NEAR_OPTIMUM_TOL:
                continue
            if all(np.linalg.norm(x - y) >= DISTINCT_POINT_TOL for y, _ in near):
                near.append((x, value))
            if len(near) >= 16:
                break
        return SearchReport(
            best_params=vector_to_params(best_x, m, k),
            best_rho=best_rho,
            evaluations=evaluations,
            improved=best_rho < canonical_rho - IMPROVEMENT_TOL,
            near_optima=tuple((vector_to_params(x, m, k), value) for x, value in near),
        )

    if budget == 0:
        return finalize()

    axis_values = [v for v in np.linspace(-GRID_EXTENT, GRID_EXTENT, GRID_STEPS) if v != 0.0]
    grid_pass = 1 + dim * len(axis_values)
    if budget < grid_pass:
        raise SearchBudgetError(
            f"budget {budget} cannot cover one grid pass of {grid_pass} evaluations"
        )
    seeds: list[tuple[np.ndarray, float]] = [(origin, canonical_rho)]
    for axis in range(dim):
        for value in axis_values:
            x = np.zeros(dim)
            x[axis] = value
            rho = objective(x)
            seeds.append((x, rho))
            if rho < best_rho:
                best_x, best_rho = x, rho

    seeds.sort(key=lambda entry: entry[1])
    starts = [origin] + [x for x, _ in seeds[:3]]
    rng = np.random.default_rng(seed)
    starts.append(rng.uniform(-GRID_EXTENT, GRID_EXTENT, dim))
    for start in starts:
        remaining = budget - evaluations
        if remaining < dim + 2:
            break
        result = nelder_mead(objective, start, max_evals=remaining)
        if result.fx < best_rho:
            best_x, best_rho = result.x, result.fx
    return finalize()


def uniqueness_probe(f: Frame, seed: int) -> ProbeReport:
    """Check that PROBE_TRIALS random nonzero shifts strictly worsen the
    order-1 radius.

    Only meaningful for single-component graphs, where the canonical dual is
    the unique optimum; shift norms are log-uniform over ``PROBE_NORM_RANGE``.
    """
    if f.layout.m != 1:
        raise ValueError("strictness probe requires a single-component graph")
    rng = np.random.default_rng(seed)
    baseline = predicted_worst_radius(f, 1)
    lo, hi = PROBE_NORM_RANGE
    min_excess = np.inf
    violations = 0
    for _ in range(PROBE_TRIALS):
        direction = rng.normal(size=f.k) + 1j * rng.normal(size=f.k)
        direction /= np.linalg.norm(direction)
        norm = np.exp(rng.uniform(np.log(lo), np.log(hi)))
        dual = dual_from_params(f, (norm * direction)[:, None])
        excess = worst_radius(f, dual, 1).radius - baseline
        min_excess = min(min_excess, excess)
        if excess <= -PROBE_SLACK:
            violations += 1
    return ProbeReport(float(min_excess), violations)


def _detail(claim: str, predicted: float, measured: float, tol: float) -> dict:
    residual = abs(measured - predicted)
    return {
        "claim": claim,
        "predicted": predicted,
        "measured": measured,
        "residual": residual,
        "pass": bool(residual <= tol),
    }


def _nonuniqueness_witness(f: Frame, r: int) -> DualFrame:
    try:
        return alternate_optimal_dual(f, r)
    except ValueError:
        return singleton_shift_dual(f)


def verify_order(f: Frame, orders: list[int], *, seed: int = 0) -> list[OptimalityReport]:
    """Run every measurable claim for each erasure order in ``orders``.

    The seed and every order are validated before any work; a connected
    graph's uniqueness probe does not depend on the order, so it runs once
    and every report carries its result.
    """
    _check_seed(seed)
    for r in orders:
        if r not in (1, 2):
            raise ValueError(f"verification covers erasure orders 1 and 2, got {r}")
        if r >= f.n:
            raise ValueError(f"erasure size r={r} must stay below n={f.n}")
    probe = uniqueness_probe(f, seed) if f.layout.m == 1 else None
    return [_order_report(f, r, probe) for r in orders]


def _order_report(f: Frame, r: int, probe: ProbeReport | None) -> OptimalityReport:
    canon = f.canonical
    predicted = predicted_worst_radius(f, r)
    result = worst_radius(f, canon, r)
    measured = result.radius
    details = [_detail(f"order-{r} canonical radius", predicted, measured, RADIUS_TOL)]
    notes: list[str] = []
    extras: dict = {"witness": list(result.witness.indices)}
    witnesses: list[np.ndarray] = [canon.shifts]

    # the per-component laws, read off the pass's spectra of C[s, s]
    sizes, offsets = f.layout.sizes, f.layout.offsets
    if r == 1:
        pairings = np.abs(result.spectra[:, 0])
        for j, s in enumerate(sizes):
            worst = float(np.max(np.abs(pairings[offsets[j]:offsets[j + 1]] - (s - 1) / s)))
            details.append(
                _detail(f"component {j + 1} pairings equal {s - 1}/{s}", 0.0, worst, RADIUS_TOL)
            )
    else:
        comp = f.block[result.sets]  # component of each index
        inside = comp[:, 0] == comp[:, 1]
        spectra, comp = result.spectra[inside], comp[inside, 0]
        for j, s in enumerate(sizes):
            if s < 2:
                continue
            got = np.sort(spectra[comp == j].real, axis=1)[:, ::-1]
            worst = float(np.max(np.abs(got - [1.0, (s - 2) / s])))
            details.append(
                _detail(f"component {j + 1} pair spectra equal (1, {s - 2}/{s})", 0.0, worst, SPECTRUM_TOL)
            )
        notes.append(
            "a conflicting reference value of 2 exists for the order-2 optimum; "
            "the verified and asserted optimum is 1"
        )
        extras["conflicting_reference_value"] = 2.0

    canonical_optimal = details[0]["pass"]
    if probe is not None:
        details.append(
            {
                "claim": "order-1 strictness probe (nonzero shifts strictly worse)",
                "predicted": 0.0,
                "measured": float(probe.violations),
                "residual": float(probe.violations),
                "pass": probe.violations == 0 and probe.min_excess > 0,
            }
        )
        extras["probe_min_excess"] = probe.min_excess
        unique = "unique" if details[-1]["pass"] else "undetermined"
    else:
        alternate = _nonuniqueness_witness(f, r)
        alt_radius = worst_radius(f, alternate, r).radius
        details.append(_detail(f"alternate dual ties the order-{r} radius", measured, alt_radius, RADIUS_TOL))
        distance = float(np.max(np.linalg.norm(alternate.vectors - canon.vectors, axis=0)))
        details.append(
            {
                "claim": "alternate dual differs from canonical",
                "predicted": 1e-3,
                "measured": distance,
                "residual": 0.0,
                "pass": distance >= 1e-3,
            }
        )
        witnesses.append(alternate.shifts)
        unique = "non-unique" if all(item["pass"] for item in details[-2:]) else "undetermined"

    return OptimalityReport(
        r=r,
        predicted=predicted,
        measured=measured,
        canonical_optimal=canonical_optimal,
        unique=unique,
        witnesses=tuple(witnesses),
        details=tuple(details),
        notes=tuple(notes),
        extras=extras,
    )
