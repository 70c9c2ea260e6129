"""Command-line front end.

Subcommands: build, dual, rho, verify, search, reproduce. All reports are
JSON on standard output (or --output <path>) with a top-level schema field;
their numbers reach the writer as ndarrays (complex ones as [re, im] pairs
from ``frames.pairs``), and ``rho -v``'s per-set reports are formatted here
from the radius pass's radii and chunks, a chunk of sets at a time. One
streaming writer, the generator ``_pieces``, yields the text of
``json.dumps(payload, indent=2)`` in order, where an array stands for its
``tolist()`` and an iterator for a list: each array is written in pieces of
whole rows, each piece one flat encode of a bounded count of numbers by
json's C encoder joined with the separators of the indent layout (with an
indent json itself would run its pure-Python encoder). ``_write`` gathers
the pieces into blocks of bounded size and writes each, so no report is
held whole in memory.

Exit codes: 0 success or all checks passed, 1 a verification check failed,
2 usage or input error, 3 internal or resource failure. Every refusal in
the package is a ``ValueError`` (an unreadable or undecodable input file,
an unwritable output path or stdout and more erasure sets than the
enumeration cap included), and ``main`` alone maps exceptions to exit
codes: a ``ValueError`` to 2, any other exception (a ``ConvergenceError``,
a ``MemoryError``) to 3, each as one line on stderr. An exception raised
while a report is written leaves the part written before it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from itertools import chain
from pathlib import Path

import numpy as np

from .erasure import RhoResult, worst_radius
from .frames import (
    DualFrame,
    Frame,
    dual_from_params,
    dual_to_doc,
    frame_bounds,
    frame_from_graph,
    frame_to_doc,
    pairs,
)
from .graph import parse_edge_list
from .optimality import SEARCH_BUDGET, search_optimal_dual, verify_order

ENCODE_NUMBERS = 1 << 13  # numbers per flat encode of an array and per chunk of rho -v's spectra
BLOCK_CHARS = 1 << 16  # characters gathered per write


def _load_frame(path: str) -> Frame:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return frame_from_graph(parse_edge_list(text))


def _check_order(frame: Frame, r: int) -> None:
    """Refuse an erasure order outside [1, n - 1]: an erasure must leave a vector."""
    if not 1 <= r < frame.n:
        need = f" (-r {r} requires at least {r + 1} vertices)" if r >= frame.n else ""
        raise ValueError(f"-r must be in [1, {frame.n - 1}] for this graph, got {r}{need}")


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
        raise ValueError(f"cannot read dual params from {path}: {exc}") from exc
    if not isinstance(raw, list) or len(raw) != frame.layout.m:
        raise ValueError(f"expected a JSON list of {frame.layout.m} shift vectors")
    try:
        columns = [[complex(_real(re), _real(im)) for re, im in entry] for entry in raw]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"each shift must be a list of [re, im] pairs: {exc}") from exc
    for column in columns:
        if len(column) != frame.k:
            raise ValueError(f"each shift must have dimension {frame.k}, got ({len(column)},)")
    return dual_from_params(frame, np.array(columns, dtype=complex).T)


def set_reports(result: RhoResult, k: int) -> Iterator[dict]:
    """``rho -v``'s report for every set of a radius pass, in its
    lexicographic order: the 1-based set, its radius, its spectrum sorted by
    magnitude (stable) and padded with zeros or cut to k entries (the
    surplus of r > k being structural zeros of a rank <= k operator), and
    its r x r matrix C[s, s]. Matrices and spectra are formed again by the
    pass a chunk of sets at a time, about ``ENCODE_NUMBERS`` numbers, so no
    N x k, N x r or N x r x r array is held."""
    sets = result.sets
    span = max(1, ENCODE_NUMBERS // (2 * k))
    for lo in range(0, len(sets), span):
        blocks, spectra = result.chunk(lo, lo + span)
        by_mag = np.take_along_axis(spectra, np.argsort(-np.abs(spectra), axis=1, kind="stable"), axis=1)
        eigenvalues = np.zeros((len(spectra), k), dtype=complex)
        eigenvalues[:, :min(k, sets.shape[1])] = by_mag[:, :k]
        for lam, radius, eigs, mat in zip(
            (sets[lo:lo + span] + 1).tolist(), result.radii[lo:lo + span].tolist(),
            pairs(eigenvalues), pairs(blocks),
        ):
            yield {"lambda": lam, "radius": radius, "eigenvalues": eigs, "reduced": mat}


def _write(pieces: Iterable[str], output: str | None) -> None:
    """Write ``pieces`` and a newline to ``output``, or to stdout, gathered
    into blocks of about ``BLOCK_CHARS`` characters (an unbuffered stdout
    makes a system call of every write), flushed here so that a failed write (a
    closed pipe, a full disk) is refused like an unwritable ``--output``
    rather than left for interpreter shutdown. The stdout buffer keeps the
    bytes it could not write, and shutdown would flush them again (exit
    120), so a failed stdout is pointed at the null device before the error
    is raised. An exception raised while the pieces are formed leaves what
    was written before it."""
    try:
        # stdout is looked up here, since a caller may have replaced it
        with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as stream:
            block, size = [], 0
            for piece in chain(pieces, ("\n",)):
                block.append(piece)
                size += len(piece)
                if size >= BLOCK_CHARS:
                    stream.write("".join(block))
                    block, size = [], 0
            stream.write("".join(block))
            stream.flush()
    except OSError as exc:
        if not output:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ValueError(f"cannot write {output or 'stdout'}: {exc}") from exc


def _array_pieces(a: np.ndarray, level: int) -> Iterator[str]:
    """``json.dumps(a.tolist(), indent=2)`` at ``level`` for a numeric array
    of ndim >= 1 with no zero-size axis, in pieces of whole rows: each piece
    is one flat encode of as many rows as fit in ``ENCODE_NUMBERS`` numbers
    (at least one) split into leaf tokens (number text holds no ", ") joined
    with the layout's separators; the one after a leaf that ends c axes
    closes and reopens c brackets."""
    d = a.ndim
    pad = ["\n" + "  " * (level + j) for j in range(d + 1)]
    closers = [pad[j] + "]" for j in range(d - 1, -1, -1)]  # deepest first
    openers = [pad[j] + "[" for j in range(d)]
    seps = ["".join(closers[:c]) + "," + "".join(openers[d - c:]) + pad[d] for c in range(d)]
    seps.append("".join(closers))
    row = [seps[0]]  # the separators after the leaves of one row
    for c, size in enumerate(reversed(a.shape[1:]), 1):
        row *= size
        row[-1] = seps[c]
    step = max(1, ENCODE_NUMBERS // len(row))  # rows per encode
    yield "[" + "".join(openers[1:]) + pad[d]
    for lo in range(0, len(a), step):
        rows = a[lo:lo + step]
        parts = [""] * (2 * rows.size)
        parts[::2] = json.dumps(rows.ravel().tolist())[1:-1].split(", ")
        parts[1::2] = row * len(rows)
        if lo + step >= len(a):
            parts[-1] = seps[d]
        yield "".join(parts)


def _pieces(o, level: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(o, indent=2)``, in order, for dicts with str
    keys, lists, tuples, iterators (as lists) and JSON scalars, where an
    ndarray stands for its ``tolist()``. A numeric array with no zero-size
    axis is written by ``_array_pieces``; everything else is walked the way
    the indent encoder walks it, with each scalar and key written by
    ``json.dumps`` itself (so NaN, Infinity, -0.0 and escapes are json's)."""
    if isinstance(o, np.ndarray):
        if o.size and o.ndim and o.dtype.kind in "biuf":
            yield from _array_pieces(o, level)
            return
        o = o.tolist()
    if isinstance(o, dict):
        items = ((json.dumps(key) + ": ", value) for key, value in o.items())
        brackets = "{}"
    elif isinstance(o, (list, tuple, Iterator)):
        items = (("", value) for value in o)
        brackets = "[]"
    else:
        yield json.dumps(o)
        return
    pad = "\n" + "  " * (level + 1)
    sep, end = brackets[0] + pad, brackets
    for key, value in items:
        yield sep + key
        yield from _pieces(value, level + 1)
        sep, end = "," + pad, "\n" + "  " * level + brackets[1]
    yield end


def _emit(payload: dict, output: str | None) -> None:
    _write(_pieces(payload), output)


def _frame_summary(frame: Frame) -> dict:
    lower, upper = frame_bounds(frame)
    return {
        "n": frame.n,
        "k": frame.k,
        "components": list(frame.layout.sizes),
        "spectrum": frame.spectrum,
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
        "params": pairs(dual.shifts.T),
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
        "witness": list(result.witness),
    }
    if args.verbose:
        payload["reports"] = set_reports(result, frame.k)
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
            "witnesses": [pairs(w.T) for w in rep.witnesses],
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
    report = search_optimal_dual(frame, args.r, seed=args.seed, budget=args.budget)
    _emit({
        "schema": 1,
        "command": "search",
        "r": args.r,
        "best_rho": report.best_rho,
        "improved": report.improved,
        "evaluations": report.evaluations,
        "best_params": pairs(report.best_params.T),
        "near_optima": [
            {"params": pairs(p.T), "rho": value} for p, value in report.near_optima
        ],
    }, args.output)
    return 0


def cmd_reproduce(args) -> int:
    from .reproduce import run_reproduction  # here, so no other command loads it

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
        _write(["\n".join(lines)], args.output)
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
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed of the random restart, the last Nelder-Mead start; it runs only if 2mk + 2 evaluations "
        "of the budget remain (m components, k = n - m), so on large graphs the seed may not change the output",
    )
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the one boundary: no traceback leaves the command
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
