"""Independent answers for every benchmark query.

Checks run outside the timed region. Each check returns None when the
program's JSON answer is right, or a one-line reason when it is not. The
oracle uses only numpy and the generator's own graphs: closed forms from the
known component sizes, and eigh/eigvals on the cross-Gramian C = Phi^H Psi
for shifted duals.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np

from workloads import Graph, Query, laplacian

TIE_TOL = 1e-10       # the package's witness tie rule
ANSWER_TOL = 1e-8     # radii, spectra and Gramians
AMBIGUITY = 1e-9      # a witness candidate this close to the tie edge may go either way
SEARCH_TOL = 1e-9
SEARCH_BUDGET = 5000  # the CLI's default --budget


def closed_form_radius(sizes: list[int], r: int) -> float:
    """Canonical worst r-erasure radius: max (s-1)/s for r=1, else 1."""
    return max((s - 1) / s for s in sizes) if r == 1 else 1.0


def frame_and_dual(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Synthesis matrices (Phi, canonical Psi) in the package's basis: per
    component, eigh with the zero mode dropped, eigenvalues descending, and
    each eigenvector signed so its first largest |entry| is positive."""
    lap = laplacian(g.n, g.edges)
    k = g.n - len(g.blocks)
    phi = np.zeros((k, g.n))
    psi = np.zeros((k, g.n))
    row = col = 0
    for block in g.blocks:
        s = len(block)
        if s > 1:
            idx = np.asarray(block) - 1
            values, vectors = np.linalg.eigh(lap[np.ix_(idx, idx)])
            values, vectors = values[:0:-1], vectors[:, :0:-1]
            lead = np.argmax(np.abs(vectors), axis=0)
            vectors = vectors * np.sign(vectors[lead, np.arange(s - 1)])
            phi[row:row + s - 1, col:col + s] = np.sqrt(values)[:, None] * vectors.T
            psi[row:row + s - 1, col:col + s] = vectors.T / np.sqrt(values)[:, None]
            row += s - 1
        col += s
    return phi, psi


def block_laplacian(g: Graph) -> np.ndarray:
    """Laplacian with vertices reordered into the package's block order."""
    order = np.concatenate([np.asarray(b) for b in g.blocks]) - 1
    return laplacian(g.n, g.edges)[np.ix_(order, order)]


def block_pinv(g: Graph) -> np.ndarray:
    """Pseudo-inverse of the block-ordered Laplacian, one component at a
    time: for a component of size s, L+ = inv(L + J/s) - J/s. This uses the
    known kernel (the constant vector) instead of a numerical rank cut-off."""
    lap = block_laplacian(g)
    out = np.zeros_like(lap)
    col = 0
    for block in g.blocks:
        s = len(block)
        sl = slice(col, col + s)
        ones = np.full((s, s), 1.0 / s)
        out[sl, sl] = np.linalg.inv(lap[sl, sl] + ones) - ones
        col += s
    return out


def spectrum(g: Graph) -> np.ndarray:
    lap = laplacian(g.n, g.edges)
    parts = [np.linalg.eigvalsh(lap[np.ix_(idx, idx)])[:0:-1]
             for idx in (np.asarray(b) - 1 for b in g.blocks) if len(idx) > 1]
    return np.concatenate(parts)


def _matrix(pairs, k: int, n: int) -> np.ndarray:
    flat = np.asarray(pairs, dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(k, n)


def _close(got, want, tol: float = ANSWER_TOL) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol * max(1.0, np.max(np.abs(want)))))


def _check_layout(doc: dict, g: Graph) -> str | None:
    if doc["n"] != g.n or doc["k"] != g.n - len(g.blocks):
        return f"n, k = {doc['n']}, {doc['k']}; expected {g.n}, {g.n - len(g.blocks)}"
    if list(doc["components"]) != g.sizes:
        return f"components {doc['components']} != {g.sizes}"
    if not _close(doc["spectrum"], spectrum(g)):
        return "spectrum differs from eigvalsh"
    return None


def _check_build(out: dict, g: Graph) -> str | None:
    frame = out["frame"]
    problem = _check_layout(frame, g)
    if problem:
        return problem
    phi = _matrix(frame["synthesis"], frame["k"], frame["n"])
    if not _close(phi.conj().T @ phi, block_laplacian(g)):
        return "frame Gramian differs from the block-ordered Laplacian"
    values = spectrum(g)
    if not _close(out["summary"]["frame_bounds"], [values.min(), values.max()]):
        return f"frame bounds {out['summary']['frame_bounds']} wrong"
    return None


def _check_dual(out: dict, g: Graph) -> str | None:
    dual = out["dual"]
    problem = _check_layout(dual, g)
    if problem:
        return problem
    psi = _matrix(dual["synthesis"], dual["k"], dual["n"])
    # the canonical dual's Gramian is the Laplacian's pseudo-inverse
    if not _close(psi.conj().T @ psi, block_pinv(g)):
        return "dual Gramian differs from the Laplacian pseudo-inverse"
    if np.any(np.asarray(out["params"], dtype=float)):
        return "canonical dual reports nonzero shifts"
    return None


def subset_radii(c: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """All r-subsets in lexicographic order and the spectral radius of each
    principal submatrix of C."""
    sets = np.array(list(combinations(range(c.shape[0]), r)))
    sub = c[sets[:, :, None], sets[:, None, :]]
    return sets, np.max(np.abs(np.linalg.eigvals(sub)), axis=1)


def _check_rho(out: dict, g: Graph, q: Query) -> str | None:
    if out["r"] != q.r:
        return f"r = {out['r']}"
    if not q.params:
        want = closed_form_radius(g.sizes, q.r)
        return None if abs(out["radius"] - want) <= ANSWER_TOL else f"radius {out['radius']} != {want}"
    phi, psi = frame_and_dual(g)
    psi = psi.astype(complex)
    col = 0
    for block, nu in zip(g.blocks, g.shifts):
        psi[:, col:col + len(block)] += nu[:, None]
        col += len(block)
    sets, radii = subset_radii(phi.T @ psi, q.r)
    best = float(radii.max())
    if abs(out["radius"] - best) > ANSWER_TOL * max(1.0, best):
        return f"radius {out['radius']!r} != oracle {best!r}"
    witness = np.asarray(out["witness"]) - 1
    pos = np.flatnonzero(np.all(sets == witness, axis=1))
    if pos.size != 1:
        return f"witness {out['witness']} is not an erasure set of size {q.r}"
    if radii[pos[0]] < best - TIE_TOL - AMBIGUITY:
        return f"witness {out['witness']} radius {float(radii[pos[0]])!r} not within the tie tolerance"
    if np.any(radii[:pos[0]] >= best - TIE_TOL + AMBIGUITY):
        return f"witness {out['witness']} is not the lexicographically smallest tie"
    return None


def _check_verify(out: dict, g: Graph, q: Query) -> str | None:
    if out["n"] != g.n or list(out["components"]) != g.sizes:
        return "wrong graph layout"
    if not out["all_pass"]:
        return "all_pass is false"
    orders = [q.r] if q.r else [1, 2]
    if [rep["r"] for rep in out["reports"]] != orders:
        return f"orders {[rep['r'] for rep in out['reports']]} != {orders}"
    unique = "unique" if len(g.blocks) == 1 else "non-unique"
    for rep in out["reports"]:
        want = closed_form_radius(g.sizes, rep["r"])
        if abs(rep["predicted"] - want) > 1e-12:
            return f"order {rep['r']} predicted {rep['predicted']!r} != closed form {want!r}"
        if abs(rep["measured"] - want) > ANSWER_TOL:
            return f"order {rep['r']} measured {rep['measured']!r} != closed form {want!r}"
        if rep["unique"] != unique:
            return f"order {rep['r']} reports {rep['unique']!r}, expected {unique!r}"
    return None


def _check_search(out: dict, g: Graph, q: Query) -> str | None:
    optimum = closed_form_radius(g.sizes, q.r)
    if out["best_rho"] < optimum - SEARCH_TOL:
        return f"best_rho {out['best_rho']!r} beats the proven optimum {optimum!r}"
    if out["best_rho"] > optimum + SEARCH_TOL or out["improved"]:
        return f"best_rho {out['best_rho']!r} misses the canonical optimum {optimum!r}"
    if not 1 <= out["evaluations"] <= SEARCH_BUDGET:
        return f"evaluations {out['evaluations']} outside [1, {SEARCH_BUDGET}]"
    return None


def check(q: Query, g: Graph, stdout: str) -> str | None:
    """Reason the answer is wrong, or None when it is right."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if out.get("schema") != 1 or out.get("command") != q.command:
        return f"schema/command {out.get('schema')}/{out.get('command')} unexpected"
    try:
        if q.command == "build":
            return _check_build(out, g)
        if q.command == "dual":
            return _check_dual(out, g)
        if q.command == "rho":
            return _check_rho(out, g, q)
        if q.command == "verify":
            return _check_verify(out, g, q)
        return _check_search(out, g, q)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed answer: {exc!r}"
