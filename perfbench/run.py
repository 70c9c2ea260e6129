"""Benchmark of the lapframes command line over seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload frame-build --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload's round of queries as a closed loop
with one client: one ``python -m lapframes ...`` child at a time, under an
address-space cap, timed from spawn to reaped exit. Every answer is checked
by ``oracle.py`` outside the timed region. With ``--trace 1`` it runs the
same round in-process with spans around the package's public functions and
reports per-layer metrics instead. The last line of standard output is the
result object; the line before it holds the run's details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import check
from spans import TRACED, Tracer
from workloads import WORKLOADS, Graph, Query, Workload, write_inputs

MEM_CAP = 2560 << 20   # address-space cap per child query, bytes
CPU_CAP = 150          # CPU seconds per child query
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
PAIR_SHARE = 0.25      # trace mode: share of --seconds for untraced/traced pairs
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Outcome:
    command: str  # the CLI arguments, joined
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    failure: str | None = None
    output_bytes: int = 0


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP, MEM_CAP))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_CAP, CPU_CAP))


def spawn(argv: list[str], work: Path, env: dict) -> tuple[Outcome, str]:
    """Run one CLI query as a child process; return its outcome and stdout."""
    out_path, err_path = work / "query.out", work / "query.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "lapframes", *argv], cwd=work,
                                stdout=out, stderr=err, env=env, preexec_fn=_limit_child)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    outcome = Outcome(" ".join(argv), wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, output_bytes=len(stdout.encode()))
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if code < 0:
        outcome.failure = f"killed by signal {-code}"
    elif "MemoryError" in stderr:
        outcome.failure = f"memory cap {MEM_CAP >> 20} MiB: {last}"
    elif "Traceback" in stderr:
        outcome.failure = f"traceback (exit {code}): {last}"
    elif code != 0:
        outcome.failure = f"exit {code}: {last}"
    return outcome, stdout


def in_process(cli, argv: list[str]) -> tuple[Outcome, str]:
    """Call ``lapframes.cli.main`` in this process with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash of the program under test is a failed query
        code, failure = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit {code}: {err.getvalue().strip()[-200:]}"
    text = out.getvalue()
    return Outcome(" ".join(argv), wall, failure=failure, output_bytes=len(text.encode())), text


def rounds(workload: Workload, seconds: float, run):
    """Closed loop over whole rounds of the workload's queries.

    Starts another round while the rounds so far predict that it brings the
    measured time closer to ``seconds`` than stopping does, so every run sees
    the same query mix. A round is cut only once measured time passes twice
    ``seconds``. ``run(round_index, query)`` returns the measured seconds of
    one query.
    """
    measured, done = 0.0, 0
    while True:
        for q in workload.queries:
            if measured > 2 * seconds:
                return
            measured += run(done, q)
        done += 1
        if measured + measured / done / 2 > seconds:
            return


class Inputs:
    """Each round's graphs, written on first use to ``<work>/round<k>/``.

    A fresh set of graphs per round averages over more seeded draws than
    repeating one set would, so a run's figures depend less on its seed.
    """

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.rounds: dict[int, tuple[Path, dict[str, Graph]]] = {}

    def write(self, k: int) -> tuple[Path, dict[str, Graph]]:
        directory = self.work / f"round{k}"
        self.rounds[k] = directory, write_inputs(self.workload, self.seed, k, directory)
        return self.rounds[k]

    def __getitem__(self, k: int) -> tuple[Path, dict[str, Graph]]:
        return self.rounds[k] if k in self.rounds else self.write(k)


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution. Rounds mix queries of very
    different sizes, so the plain sample median jumps whenever two queries
    next to it swap places; this estimate moves smoothly instead.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    edges = np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1], left=0.0, right=1.0)
    return float(np.dot(np.diff(edges), x))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, never below
    the median.

    Returns (value, percentile, samples beyond). With 21 samples or fewer the
    rule would pick a percentile under 50, so the median is reported instead.
    """
    n = len(samples)
    i = n - 11
    if i <= (n - 1) / 2:
        return quantile(samples, 0.5), 50.0, n // 2
    return quantile(samples, i / (n - 1)), 100.0 * i / (n - 1), n - 1 - i


def setup(inputs: Inputs, env: dict) -> list[float]:
    """Generate the first round's inputs and run one untimed warm-up query;
    timed as setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        directory, _ = inputs.write(0)
        outcome, _ = spawn(["build", "warmup.el"], directory, env)
        times.append(time.perf_counter() - start)
        if outcome.failure:
            raise SystemExit(f"warm-up query failed: {outcome.failure}")
    return times


def timed_run(workload, inputs, seconds, env):
    outcomes: list[Outcome] = []

    def run(k: int, q: Query) -> float:
        directory, graphs = inputs[k]
        outcome, stdout = spawn(q.argv(), directory, env)
        if outcome.failure is None:
            outcome.failure = check(q, graphs[q.graph], stdout)
        outcomes.append(outcome)
        return outcome.wall

    rounds(workload, seconds, run)
    ok = [o.wall for o in outcomes if o.failure is None] or [o.wall for o in outcomes]
    tail_s, tail_pct, beyond = tail(ok)
    metrics = {
        "queries_per_s": (sum(o.failure is None for o in outcomes) / sum(o.wall for o in outcomes), "1/s"),
        "query_p50_s": (quantile(ok, 0.5), "s"),
        "query_tail_s": (tail_s, "s"),
        "cpu_s_per_query": (sum(o.cpu for o in outcomes) / len(outcomes), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
    }
    walls: dict[str, list[float]] = {}
    for o in outcomes:
        walls.setdefault(o.command, []).append(o.wall)
    details = {"tail_percentile": tail_pct, "tail_samples_beyond": beyond, "samples": len(ok),
               "rounds": len(outcomes) / len(workload.queries),
               "query_median_s": {cmd: statistics.median(w) for cmd, w in walls.items()}}
    return outcomes, metrics, details


def _startup_s(env: dict, work: Path) -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lapframes"], cwd=work, env=env,
                       check=True, preexec_fn=_limit_child)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _useful_reports(q: Query, sizes: list[int]) -> int:
    """Per-set reports the caller reads: verify -r 2 reads each in-component
    pair once; verify -r 1, rho without -v and search read none."""
    if q.command != "verify" or q.r == 1:
        return 0
    return sum(s * (s - 1) // 2 for s in sizes)


def traced_run(workload, inputs, seconds, env, src: Path):
    sys.path.insert(0, str(src))
    import lapframes.cli as cli
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"imported lapframes from {cli.__file__}, not from {src}")
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP, resource.getrlimit(resource.RLIMIT_AS)[1]))
    tracer = Tracer()
    outcomes: list[Outcome] = []
    pairs = {"untraced": 0.0, "traced": 0.0}
    useful = evaluations = 0
    cwd = os.getcwd()
    try:
        def traced(q: Query) -> Outcome:
            tracer.query = len(outcomes)
            tracer.install()
            try:
                return in_process(cli, q.argv())
            finally:
                tracer.uninstall()

        def run(k: int, q: Query) -> float:
            nonlocal useful, evaluations
            directory, graphs = inputs[k]
            os.chdir(directory)
            if pairs["untraced"] + pairs["traced"] < PAIR_SHARE * seconds:
                # alternate which side goes first so warm caches favour neither
                if len(outcomes) % 2:
                    outcome, stdout = traced(q)
                    plain = in_process(cli, q.argv())[0]
                else:
                    plain = in_process(cli, q.argv())[0]
                    outcome, stdout = traced(q)
                pairs["untraced"] += plain.wall
                pairs["traced"] += outcome.wall
            else:
                outcome, stdout = traced(q)
            if outcome.failure is None:
                outcome.failure = check(q, graphs[q.graph], stdout)
            if outcome.failure is None and q.command == "search":
                evaluations += json.loads(stdout)["evaluations"]
            outcomes.append(outcome)
            useful += _useful_reports(q, graphs[q.graph].sizes)
            return outcome.wall

        rounds(workload, seconds, run)

        # one query per command, the first in the round: tracemalloc is slow
        memory = Tracer(memory=True)
        firsts: dict[str, Query] = {}
        for q in workload.queries:
            firsts.setdefault(q.command, q)
        os.chdir(inputs[0][0])
        tracemalloc.start()
        try:
            for q in firsts.values():
                memory.query += 1
                memory.install()
                try:
                    in_process(cli, q.argv())
                finally:
                    memory.uninstall()
        finally:
            tracemalloc.stop()
    finally:
        os.chdir(cwd)
    tracer.write(inputs.work / "spans.tsv.gz")
    memory.write(inputs.work / "memory-spans.tsv.gz")

    wall = sum(o.wall for o in outcomes)
    t = tracer.table()
    peaks = memory.table()

    def f(name: str, key: str) -> float:
        return t[name][key]

    metrics = {}
    for name in ("graph.parse_edge_list", "graph.laplacian", "graph.components",
                 "frames.frame_from_graph", "frames.frame_bounds",
                 "optimality.uniqueness_probe", "optimality.search_optimal_dual", "cli.main"):
        metrics[f"{name}.self_s"] = (f(name, "self_s"), "s")
    metrics["graph.edges"] = (f("graph.parse_edge_list", "work"), "count")
    for name in ("linalg.symmetric_eig", "linalg.hermitian_eigenvalues",
                 "linalg.small_complex_eigenvalues", "frames.canonical_dual",
                 "frames.dual_from_params", "frames.is_dual", "erasure.worst_radius",
                 "optimality.verify_order", "simplex.nelder_mead"):
        metrics[f"{name}.calls"] = (f(name, "calls"), "count")
        metrics[f"{name}.self_s"] = (f(name, "self_s"), "s")
    metrics["linalg.symmetric_eig.order_sum"] = (f("linalg.symmetric_eig", "work"), "count")
    metrics["linalg.small_complex_eigenvalues.qr_calls"] = (f("linalg.small_complex_eigenvalues", "work"), "count")
    canonical_calls = f("frames.canonical_dual", "calls")
    metrics["frames.canonical_dual.useful_ratio"] = (
        f("frames.canonical_dual", "distinct") / canonical_calls if canonical_calls else 0.0, "1")
    sets = f("erasure.worst_radius", "work")
    radius_s = f("erasure.worst_radius", "total_s")
    metrics["erasure.worst_radius.sets"] = (sets, "count")
    metrics["erasure.worst_radius.sets_per_s"] = (sets / radius_s if radius_s else 0.0, "1/s")
    metrics["erasure.worst_radius.peak_mb"] = (peaks["erasure.worst_radius"]["peak_bytes"] / 2**20, "MB")
    metrics["erasure.reports_built"] = (sets, "count")
    metrics["erasure.useful_report_ratio"] = (useful / sets if sets else 0.0, "1")
    search_s = f("optimality.search_optimal_dual", "total_s")
    metrics["optimality.search.evaluations"] = (float(evaluations), "count")
    metrics["optimality.search.evals_per_s"] = (evaluations / search_s if search_s else 0.0, "1/s")
    metrics["simplex.nelder_mead.evaluations"] = (f("simplex.nelder_mead", "work"), "count")
    metrics["cli.output_bytes"] = (float(sum(o.output_bytes for o in outcomes)), "bytes")
    metrics["cli.startup_s"] = (_startup_s(env, inputs.work), "s")
    for module, fns in TRACED.items():
        peak = max(peaks[f"{module}.{fn}"]["peak_bytes"] for fn in fns)
        metrics[f"{module}.peak_mb"] = (peak / 2**20, "MB")
    self_total = sum(row["self_s"] for row in t.values())
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.accounted_ratio"] = (self_total / wall, "1")
    metrics["trace.overhead_ratio"] = (pairs["traced"] / pairs["untraced"] - 1, "1")
    shares = sorted(((row["self_s"] / wall, name) for name, row in t.items()), reverse=True)
    details = {"self_share": {name: round(share, 4) for share, name in shares[:6]},
               "overhead_pairs_s": pairs, "spans": len(tracer.sid)}
    return outcomes, metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "lapframes" / "__init__.py").is_file():
        print(f"error: no lapframes package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = BENCH_DIR / "work" / f"{workload.name}-seed{args.seed}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    inputs = Inputs(workload, args.seed, work)
    setup_times = setup(inputs, env)
    if args.trace:
        outcomes, metrics, details = traced_run(workload, inputs, args.seconds, env, src)
    else:
        outcomes, metrics, details = timed_run(workload, inputs, args.seconds, env)
        metrics["setup_s"] = (statistics.median(setup_times), "s")

    failures = [{"query": o.command, "reason": o.failure} for o in outcomes if o.failure]
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "mem_cap_mib": MEM_CAP >> 20, "cpu_cap_s": CPU_CAP,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "setup_s_samples": setup_times, **details, "failures": failures,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
