"""Command-line front end.

Subcommands: build, dual, rho, verify, search, reproduce. All reports are
JSON on standard output (or --output <path>) with a top-level schema field.
Exit codes: 0 success or all checks passed, 1 a verification check failed,
2 usage or input error (an unreadable or undecodable input file and an
unwritable output path included), or more erasure sets than the
enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .erasure import EnumerationCapError, erasure_reports, worst_radius
from .frames import (
    DualFrame,
    Frame,
    dual_from_params,
    dual_to_doc,
    frame_bounds,
    frame_from_graph,
    frame_to_doc,
)
from .graph import EdgeListError, parse_edge_list
from .optimality import (
    SearchBudgetError,
    SearchConfig,
    search_optimal_dual,
    verify_order,
)
from .reproduce import run_reproduction


class InputError(ValueError):
    """Bad command input: reported on stderr with exit code 2."""


def _load_frame(path: str) -> Frame:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return frame_from_graph(parse_edge_list(text))
    except (EdgeListError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _check_order(frame: Frame, r: int) -> None:
    """Refuse an erasure order outside [1, n - 1]: an erasure must leave a vector."""
    if not 1 <= r < frame.n:
        need = f" (-r {r} requires at least {r + 1} vertices)" if r >= frame.n else ""
        raise InputError(f"-r must be in [1, {frame.n - 1}] for this graph, got {r}{need}")


def _real(x):
    """A JSON number; ``complex`` alone would also take a boolean as 0 or 1."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a real number")
    return x


def _load_dual(path: str, frame: Frame) -> DualFrame:
    """The dual whose shifts V are in ``path``: a JSON list of V's m columns,
    each a list of k [re, im] pairs."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read dual params from {path}: {exc}") from exc
    if not isinstance(raw, list) or len(raw) != frame.layout.m:
        raise InputError(f"expected a JSON list of {frame.layout.m} shift vectors")
    try:
        columns = [[complex(_real(re), _real(im)) for re, im in entry] for entry in raw]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"each shift must be a list of [re, im] pairs: {exc}") from exc
    for column in columns:
        if len(column) != frame.k:
            raise InputError(f"each shift must have dimension {frame.k}, got ({len(column)},)")
    try:
        return dual_from_params(frame, np.array(columns, dtype=complex).T)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _params_doc(shifts: np.ndarray) -> list:
    """The m columns of k x m shifts as lists of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in column] for column in shifts.T]


def _write(text: str, output: str | None) -> None:
    if not output:
        print(text)
        return
    try:
        Path(output).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc}") from exc


def _emit(payload: dict, output: str | None) -> None:
    _write(json.dumps(payload, indent=2), output)


def _frame_summary(frame: Frame) -> dict:
    lower, upper = frame_bounds(frame)
    return {
        "n": frame.n,
        "k": frame.k,
        "components": list(frame.layout.sizes),
        "spectrum": [float(x) for x in frame.spectrum],
        "frame_bounds": [lower, upper],
    }


def cmd_build(args) -> int:
    frame = _load_frame(args.file)
    _emit({"schema": 1, "command": "build", "frame": frame_to_doc(frame),
           "summary": _frame_summary(frame)}, args.output)
    return 0


def cmd_dual(args) -> int:
    frame = _load_frame(args.file)
    dual = _load_dual(args.params, frame) if args.params else frame.canonical
    _emit({
        "schema": 1,
        "command": "dual",
        "dual": dual_to_doc(dual, frame),
        "params": _params_doc(dual.shifts),
    }, args.output)
    return 0


def cmd_rho(args) -> int:
    frame = _load_frame(args.file)
    _check_order(frame, args.r)
    dual = _load_dual(args.params, frame) if args.params else frame.canonical
    result = worst_radius(frame, dual, args.r)
    payload = {
        "schema": 1,
        "command": "rho",
        "r": args.r,
        "radius": result.radius,
        "witness": list(result.witness.indices),
    }
    if args.verbose:
        payload["reports"] = [rep.to_doc() for rep in erasure_reports(result, frame.k)]
    _emit(payload, args.output)
    return 0


def cmd_verify(args) -> int:
    frame = _load_frame(args.file)
    if args.r:
        _check_order(frame, args.r)
    orders = [args.r] if args.r else [r for r in (1, 2) if r < frame.n]
    reports = []
    for rep in verify_order(frame, orders, seed=args.seed):
        reports.append({
            "r": rep.r,
            "predicted": rep.predicted,
            "measured": rep.measured,
            "canonical_optimal": rep.canonical_optimal,
            "unique": rep.unique,
            "witnesses": [_params_doc(w) for w in rep.witnesses],
            "details": list(rep.details),
            "notes": list(rep.notes),
            **rep.extras,
        })
    all_pass = all(item["pass"] for rep in reports for item in rep["details"])
    _emit({
        "schema": 1,
        "command": "verify",
        "n": frame.n,
        "k": frame.k,
        "components": list(frame.layout.sizes),
        "reports": reports,
        "all_pass": all_pass,
    }, args.output)
    return 0 if all_pass else 1


def cmd_search(args) -> int:
    frame = _load_frame(args.file)
    _check_order(frame, args.r)
    try:
        cfg = SearchConfig(seed=args.seed, budget=args.budget)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        report = search_optimal_dual(frame, args.r, cfg)
    except SearchBudgetError as exc:
        raise InputError(str(exc)) from exc
    _emit({
        "schema": 1,
        "command": "search",
        "r": args.r,
        "best_rho": report.best_rho,
        "improved": report.improved,
        "evaluations": report.evaluations,
        "best_params": _params_doc(report.best_params),
        "near_optima": [
            {"params": _params_doc(p), "rho": value} for p, value in report.near_optima
        ],
    }, args.output)
    return 0


def cmd_reproduce(args) -> int:
    report = run_reproduction(tol=args.tol)
    if args.json:
        _emit(report, args.output)
    else:
        width = max(len(c["name"]) for c in report["checks"])
        lines = [f"{'check'.ljust(width)}  residual    tol       verdict"]
        for c in report["checks"]:
            verdict = "PASS" if c["pass"] else "FAIL"
            lines.append(f"{c['name'].ljust(width)}  {c['residual']:.3e}  {c['tol']:.1e}  {verdict}")
        lines.append("all checks passed" if report["all_pass"] else "SOME CHECKS FAILED")
        _write("\n".join(lines), args.output)
    return 0 if report["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapframes",
        description="Frames from graph Laplacians: duals, erasure radii, optimality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="Build a frame from an edge-list file")
    p.add_argument("file")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("dual", help="Compute the canonical or a parameterized dual")
    p.add_argument("file")
    p.add_argument("--params", help="JSON file: list of m shift vectors as [[re,im],...]")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("rho", help="Worst-case erasure radius of a dual")
    p.add_argument("file")
    p.add_argument("-r", type=int, required=True, help="erasure set size")
    p.add_argument("--params", help="JSON file: list of m shift vectors as [[re,im],...]")
    p.add_argument("-v", "--verbose", action="store_true", help="include per-set reports")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("verify", help="Check the optimality laws for a graph frame")
    p.add_argument("file")
    p.add_argument("-r", type=int, choices=(1, 2), help="erasure order (default: both)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="Search the dual family for a better worst-case radius")
    p.add_argument("file")
    p.add_argument("-r", type=int, required=True, choices=(1, 2))
    p.add_argument("--budget", type=int, default=SearchConfig().budget)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("reproduce", help="Run the bundled reference-example checks")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--tol", type=float, help="override every check tolerance")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
