"""Compare the CLI's output under two source trees.

    python tools/output_gate.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``lapframes`` package
(the ``src`` of two checkouts). Every command of the gate set runs once
under each, as ``python -m lapframes ...`` with that tree first on
``PYTHONPATH``, from the same input directory:

* six fixtures (k3k2, k3, k4, one edge, ``n 3`` with one edge, K3 + K2 +
  a singleton) with ``build``, ``dual``, ``verify``, ``rho -r 1`` and
  ``-r 2`` plain and with ``-v``, and ``search -r 1`` and ``-r 2``;
* K3 + K2 + a singleton with the fixed shifts ``K3K2K1_PARAMS``: ``dual``,
  and ``rho -r 1``, ``-r 2`` and ``-r 3``, plain and with ``-v``;
* ``reproduce``, ``reproduce --json`` and ``reproduce --tol 0``;
* round 0 of seeds 1 and 2 of every benchmark workload, written by
  ``perfbench/workloads.write_inputs``: each query of the round, ``-v`` of
  each ``rho``, ``-r 1`` (plain and ``-v``) of each ``rho`` with
  ``--params``, ``verify`` of each ``frame-build`` graph, and ``rho -r 2``
  (plain and ``-v``) of each ``SHIFTED`` graph with seeded shifts of scale
  ``SHIFT_SCALE``, written here.

For each command whose stdout, stderr or exit code differs it prints the
exit codes, whether stderr differs, the JSON keys whose values differ (list
indices written as ``[]``), each value old -> new when at most ``SHOWN``
differ, and the largest relative move of a number, with its path; a
``[re, im]`` pair moves as one complex number z, by |dz| / max(|z_old|,
|z_new|). For a ``search`` whose stdout moved it also applies the search
gate: it prints ``evaluations a -> b``, and an ``improved`` flip or a
``best_rho`` move over ``SEARCH_TOL`` fails. It exits 1 when any exit code
or stderr differs or a search fails its gate, else 0; other stdout moves
are reported for the reader to judge. Nothing under ``perfbench/`` is
written; the inputs go to a temporary directory.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
SHOWN = 3  # differing values printed old -> new when no more differ
SEARCH_TOL = 1e-12  # the largest best_rho move the search gate allows
FIXTURES = {
    "k3k2": "n 5\n1 2\n1 3\n2 3\n4 5\n",
    "k3": "n 3\n1 2\n1 3\n2 3\n",
    "k4": "n 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
    "edge": "n 2\n1 2\n",
    "n3edge": "n 3\n1 2\n",
    "k3k2k1": "n 6\n1 2\n1 3\n2 3\n4 5\n",
}
FIXTURE_COMMANDS = (["build"], ["dual"], ["verify"], ["rho", "-r", "1"], ["rho", "-r", "2"],
                    ["rho", "-r", "1", "-v"], ["rho", "-r", "2", "-v"], ["search", "-r", "1"],
                    ["search", "-r", "2"])
# V's three columns (one per component of k3k2k1, k = 3) as [re, im] pairs
K3K2K1_PARAMS = [[[0.37, -0.21], [-0.58, 0.44], [0.13, 0.29]],
                 [[-0.26, 0.71], [0.49, -0.17], [0.82, 0.05]],
                 [[0.31, 0.62], [-0.43, -0.38], [0.27, -0.91]]]
PARAMS_COMMANDS = (["dual"], *(["rho", "-r", r, *v] for r in "123" for v in ([], ["-v"])))
SHIFTED = ("d40", "d60", "d80")  # erasure-verify graphs of several components
SHIFT_SCALE = 0.3


def gate_set(work: Path) -> list[tuple[Path, list[str]]]:
    """Write every input under ``work`` and return (directory, argv) pairs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, write_inputs

    fixtures = work / "fixtures"
    fixtures.mkdir(parents=True)
    commands = []
    for name, text in FIXTURES.items():
        (fixtures / f"{name}.el").write_text(text, encoding="utf-8")
        commands += [(fixtures, [cmd[0], f"{name}.el", *cmd[1:]]) for cmd in FIXTURE_COMMANDS]
    (fixtures / "k3k2k1.params.json").write_text(json.dumps(K3K2K1_PARAMS), encoding="utf-8")
    commands += [(fixtures, [cmd[0], "k3k2k1.el", *cmd[1:], "--params", "k3k2k1.params.json"])
                 for cmd in PARAMS_COMMANDS]
    commands += [(fixtures, ["reproduce", *flags]) for flags in ([], ["--json"], ["--tol", "0"])]
    for workload in WORKLOADS.values():
        for seed in SEEDS:
            directory = work / f"{workload.name}-seed{seed}"
            graphs = write_inputs(workload, seed, 0, directory)
            argvs = []
            for q in workload.queries:
                argv = q.argv()
                argvs.append(argv)
                if q.command == "rho":
                    argvs.append(argv + ["-v"])
                    if q.params:
                        one = [q.command, f"{q.graph}.el", "-r", "1", "--params", f"{q.graph}.params.json"]
                        argvs += [one, one + ["-v"]]
            if workload.name == "frame-build":
                argvs += [["verify", f"{g.name}.el"] for g in workload.graphs]
            for i, name in enumerate(SHIFTED if workload.name == "erasure-verify" else ()):
                g, rng = graphs[name], np.random.default_rng([seed, i])
                columns = SHIFT_SCALE * rng.normal(size=(len(g.blocks), g.n - len(g.blocks), 2))
                (directory / f"{name}.params.json").write_text(json.dumps(columns.tolist()), encoding="utf-8")
                two = ["rho", f"{name}.el", "-r", "2", "--params", f"{name}.params.json"]
                argvs += [two, two + ["-v"]]
            seen = set()
            for argv in argvs:
                if tuple(argv) not in seen:
                    seen.add(tuple(argv))
                    commands.append((directory, argv))
    return commands


def run(src: Path, directory: Path, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "lapframes", *argv], cwd=directory, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _pair(x) -> bool:
    """Whether ``x`` is a list of two finite numbers, read as a [re, im] pair."""
    return isinstance(x, list) and len(x) == 2 and all(map(_finite, x))


def differences(a, b, path: str = ""):
    """Yield (path, old, new) for every JSON leaf that differs, a [re, im]
    pair being one leaf, or for a key or list that one side lacks or has at
    another length."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() | b.keys():
            yield from differences(a.get(key), b.get(key), f"{path}.{key}".lstrip("."))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b) and not (_pair(a) and _pair(b)):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b


def _move(a, b) -> float | None:
    """The relative move |a - b| / max(|a|, |b|) between two finite numbers
    or two [re, im] pairs of them, a pair read as one complex number, else
    None. So a sign flip of a 1e-17 imaginary part moves a pair of modulus 1
    by 2e-17, not by 2."""
    if _pair(a) and _pair(b):
        a, b = complex(*a), complex(*b)
    elif not (_finite(a) and _finite(b)):
        return None
    return abs(a - b) / max(abs(a), abs(b))


def compare(old, new) -> list[str]:
    """Lines describing how one command's two outcomes differ."""
    (old_code, old_out, old_err), (new_code, new_out, new_err) = old, new
    lines = [f"  exit {old_code} -> {new_code}; stderr {'differs' if old_err != new_err else 'same'}"]
    if old_out == new_out:
        return lines
    try:
        leaves = list(differences(json.loads(old_out), json.loads(new_out)))
    except json.JSONDecodeError:
        return lines + ["  stdout differs and is not JSON"]
    keys = sorted({re.sub(r"\[\d+\]", "[]", p) for p, _, _ in leaves})
    lines.append(f"  {len(leaves)} values differ under: {', '.join(keys)}")
    if len(leaves) <= SHOWN:
        lines += [f"    {p}: {json.dumps(a)[:60]} -> {json.dumps(b)[:60]}" for p, a, b in leaves]
    moves = [(_move(a, b), p) for p, a, b in leaves]
    numeric = [(move, p) for move, p in moves if move is not None]
    if numeric:
        lines.append("  largest relative move {:.3g} at {}".format(*max(numeric)))
    if len(numeric) < len(moves):
        lines.append(f"  {len(moves) - len(numeric)} values differ in kind or are not finite numbers")
    return lines


def search_gate(old_out: str, new_out: str) -> tuple[list[str], bool]:
    """Lines on one ``search`` command's two stdouts under the search gate,
    and whether it fails: an ``improved`` flip or a ``best_rho`` move over
    ``SEARCH_TOL``. ``evaluations`` is free and only reported."""
    try:
        old, new = json.loads(old_out), json.loads(new_out)
    except json.JSONDecodeError:
        return ["  search stdout is not JSON"], True
    lines = [f"  evaluations {old['evaluations']} -> {new['evaluations']}"]
    if old["improved"] != new["improved"]:
        lines.append(f"  search gate: improved {json.dumps(old['improved'])} -> {json.dumps(new['improved'])}")
    move = abs(new["best_rho"] - old["best_rho"])
    if not move <= SEARCH_TOL:
        lines.append(f"  search gate: best_rho moved by {move:.3g}, over {SEARCH_TOL:g}")
    return lines, len(lines) > 1


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    for src in (old_src, new_src):
        if not (src / "lapframes" / "__init__.py").is_file():
            print(f"error: {src} holds no lapframes package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="output-gate-") as tmp:
        work = Path(tmp)
        commands = gate_set(work)
        with ThreadPoolExecutor(max_workers=2) as pool:
            old = list(pool.map(lambda c: run(old_src, *c), commands))
            new = list(pool.map(lambda c: run(new_src, *c), commands))
        failed = moved = 0
        for (directory, args), a, b in zip(commands, old, new):
            if a == b:
                continue
            lines, hard = compare(a, b), a[0] != b[0] or a[2] != b[2]
            if args[0] == "search" and not hard:
                gated, hard = search_gate(a[1], b[1])
                lines += gated
            failed += hard
            moved += not hard
            print(f"{'FAIL' if hard else 'MOVE'} {directory.relative_to(work)}: lapframes {' '.join(args)}")
            print("\n".join(lines))
    print(f"{len(commands)} commands: {len(commands) - failed - moved} identical, {moved} with stdout moves, "
          f"{failed} failing (a different exit code or stderr, or a search outside its gate)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
