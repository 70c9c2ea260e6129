import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lapframes import cli, erasure, optimality, reproduce
from lapframes.cli import main
from lapframes.erasure import worst_radius
from lapframes.frames import DualFrame, dual_from_params, frame_from_graph, pairs
from lapframes.graph import parse_edge_list
from lapframes.linalg import ConvergenceError

from conftest import EDGE_TEXT, K3_TEXT, K3K2_TEXT, K4_TEXT
from sampling import random_connected_graph, random_disconnected_graph, random_dual_params


@pytest.fixture
def k3k2_file(tmp_path):
    path = tmp_path / "k3k2.el"
    path.write_text(K3K2_TEXT)
    return str(path)


@pytest.fixture
def psi1_params_file(tmp_path):
    path = tmp_path / "psi1.json"
    path.write_text(json.dumps([[[0, 0], [0, 0], [1, 0]], [[0, 0], [0, 0], [0, 0]]]))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_summary(capsys, k3k2_file):
    code, out, _ = run(capsys, "build", k3k2_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["summary"]["n"] == 5
    assert doc["summary"]["k"] == 3
    assert doc["summary"]["components"] == [3, 2]
    assert doc["summary"]["spectrum"] == pytest.approx([3.0, 3.0, 2.0], abs=1e-9)
    assert doc["summary"]["frame_bounds"] == pytest.approx([2.0, 3.0], abs=1e-9)
    assert len(doc["frame"]["synthesis"]) == 15


def test_build_single_edge(capsys, tmp_path):
    path = tmp_path / "edge.el"
    path.write_text(EDGE_TEXT)
    code, out, _ = run(capsys, "build", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["summary"]["k"] == 1 and doc["summary"]["n"] == 2
    assert doc["summary"]["spectrum"] == pytest.approx([2.0], abs=1e-9)


def test_build_edgeless_exits_2(capsys, tmp_path):
    path = tmp_path / "none.el"
    path.write_text("n 3\n")
    code, _, err = run(capsys, "build", str(path))
    assert code == 2
    assert "zero-dimensional frame" in err


def test_build_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("n 3\n1 1\n")
    code, _, err = run(capsys, "build", str(path))
    assert code == 2
    assert "self-loop" in err


def test_rho_order_one(capsys, k3k2_file):
    code, out, _ = run(capsys, "rho", k3k2_file, "-r", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["radius"] == pytest.approx(2 / 3, abs=1e-9)
    assert doc["witness"] == [1]
    assert "reports" not in doc


def test_rho_order_two_with_params(capsys, k3k2_file, psi1_params_file):
    code, out, _ = run(capsys, "rho", k3k2_file, "-r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["radius"] == pytest.approx(1.0, abs=1e-9)
    assert doc["witness"] == [1, 2]

    code, out, _ = run(capsys, "rho", k3k2_file, "-r", "2", "--params", psi1_params_file)
    assert code == 0
    assert json.loads(out)["radius"] == pytest.approx(1.0, abs=1e-9)


def test_rho_verbose_reports(capsys, k3k2_file):
    code, out, _ = run(capsys, "rho", k3k2_file, "-r", "1", "-v")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["reports"]) == 5
    assert doc["reports"][0]["lambda"] == [1]


def test_rho_invalid_r(capsys, k3k2_file):
    code, _, err = run(capsys, "rho", k3k2_file, "-r", "5")
    assert code == 2 and "-r must be in" in err


def test_rho_over_enumeration_cap_exits_2(capsys, tmp_path):
    # a 60-vertex path: C(60, 5) = 5 461 512 erasure sets
    path = tmp_path / "path60.el"
    path.write_text("n 60\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 60)))
    code, out, err = run(capsys, "rho", str(path), "-r", "5")
    assert code == 2
    assert out == ""
    assert "C(60, 5) = 5461512 exceeds the enumeration cap 1000000" in err
    assert "Traceback" not in err


def test_verify_over_enumeration_cap_exits_2(capsys, k3k2_file, monkeypatch):
    monkeypatch.setattr(erasure, "MAX_SETS", 5)
    code, out, err = run(capsys, "verify", k3k2_file, "-r", "2")
    assert code == 2
    assert out == ""
    assert "C(5, 2) = 10 exceeds the enumeration cap 5" in err
    assert "Traceback" not in err


def test_dual_canonical_and_params(capsys, k3k2_file, psi1_params_file):
    code, out, _ = run(capsys, "dual", k3k2_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["dual"]["k"] == 3 and doc["dual"]["n"] == 5
    assert doc["params"] == [[[0.0, 0.0]] * 3] * 2

    code, out, _ = run(capsys, "dual", k3k2_file, "--params", psi1_params_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["params"][0][2] == [1.0, 0.0]


def test_verify_passes_both_orders(capsys, k3k2_file):
    code, out, _ = run(capsys, "verify", k3k2_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["all_pass"]
    assert [rep["r"] for rep in doc["reports"]] == [1, 2]
    assert all(rep["unique"] == "non-unique" for rep in doc["reports"])
    assert doc["reports"][1]["conflicting_reference_value"] == 2.0


def test_verify_single_order(capsys, k3k2_file):
    code, out, _ = run(capsys, "verify", k3k2_file, "-r", "1")
    doc = json.loads(out)
    assert code == 0 and len(doc["reports"]) == 1


def test_verify_single_edge_skips_order_two(capsys, tmp_path):
    path = tmp_path / "edge.el"
    path.write_text(EDGE_TEXT)
    code, out, _ = run(capsys, "verify", str(path))
    doc = json.loads(out)
    assert code == 0
    assert [rep["r"] for rep in doc["reports"]] == [1]

    code, _, err = run(capsys, "verify", str(path), "-r", "2")
    assert code == 2 and "at least 3 vertices" in err


def test_verify_order_two_on_single_edge_component(capsys, tmp_path):
    path = tmp_path / "edge3.el"
    path.write_text("n 3\n1 2\n")
    code, out, _ = run(capsys, "verify", str(path), "-r", "2")
    assert code == 0 and json.loads(out)["all_pass"]


def test_verify_runs_probe_once(capsys, tmp_path, monkeypatch):
    # the probe does not depend on the order, so both orders share one run
    path = tmp_path / "k3.el"
    path.write_text(K3_TEXT)
    calls = []
    probe = optimality.uniqueness_probe

    def counted(*args, **kwargs):
        calls.append(args)
        return probe(*args, **kwargs)

    monkeypatch.setattr(optimality, "uniqueness_probe", counted)
    code, out, _ = run(capsys, "verify", str(path))
    doc = json.loads(out)
    assert code == 0 and [rep["r"] for rep in doc["reports"]] == [1, 2]
    assert all(rep["unique"] == "unique" for rep in doc["reports"])
    assert len(calls) == 1


def test_rho_verbose_enumerates_once(capsys, k3k2_file, monkeypatch):
    calls = []
    enumerate_sets = erasure._erasure_sets

    def counted(n, r):
        calls.append(r)
        return enumerate_sets(n, r)

    monkeypatch.setattr(erasure, "_erasure_sets", counted)
    code, out, _ = run(capsys, "rho", k3k2_file, "-r", "2", "-v")
    doc = json.loads(out)
    assert code == 0 and len(doc["reports"]) == 10
    assert calls == [2]


def test_search_connected(capsys, tmp_path):
    path = tmp_path / "k3.el"
    path.write_text("n 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "search", str(path), "-r", "1")
    doc = json.loads(out)
    assert code == 0
    assert not doc["improved"]
    assert doc["best_rho"] == pytest.approx(2 / 3, abs=1e-6)


def test_search_budget_too_small(capsys, k3k2_file):
    code, _, err = run(capsys, "search", k3k2_file, "-r", "1", "--budget", "3")
    assert code == 2 and "grid pass" in err


@pytest.mark.parametrize("text, argv", [
    (EDGE_TEXT, ["-r", "2"]),
    (K3K2_TEXT, ["-r", "1", "--budget", "-1"]),
], ids=["r-not-below-n", "negative-budget"])
def test_search_bad_input_exits_2(capsys, tmp_path, text, argv):
    path = tmp_path / "g.el"
    path.write_text(text)
    code, out, err = run(capsys, "search", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


GOOD_PARAMS = b"[[[0, 0], [0, 0], [1, 0]], [[0, 0], [0, 0], [0, 0]]]"


@pytest.mark.parametrize("graph, params, argv", [
    (K3K2_TEXT.encode(), b"[[[0, 0], [0, 0], [1, 0]]]", ["dual", "g.el", "--params", "p.json"]),
    (K3K2_TEXT.encode(), b"[[[0, 0], [1, 0]], [[0, 0], [0, 0], [0, 0]]]",
     ["rho", "g.el", "-r", "2", "--params", "p.json"]),
    (K3K2_TEXT.encode(), b"[[1, [0, 0], [1, 0]], [[0, 0], [0, 0], [0, 0]]]",
     ["dual", "g.el", "--params", "p.json"]),
    (K3K2_TEXT.encode(), b"[[[NaN, 0], [0, 0], [1, 0]], [[0, 0], [0, 0], [0, 0]]]",
     ["rho", "g.el", "-r", "1", "--params", "p.json"]),
    (K3K2_TEXT.encode(), b"[[[true, false], [0, 0], [1, 0]], [[0, 0], [0, 0], [0, 0]]]",
     ["dual", "g.el", "--params", "p.json"]),
    (K3K2_TEXT.encode(), b"[[[1" + b"0" * 400 + b", 0], [0, 0], [1, 0]], [[0, 0], [0, 0], [0, 0]]]",
     ["dual", "g.el", "--params", "p.json"]),
    (K3K2_TEXT.encode(), GOOD_PARAMS[:-3] + b"\xff]]", ["dual", "g.el", "--params", "p.json"]),
    (K3K2_TEXT.encode() + b"# \xff\n", GOOD_PARAMS, ["build", "g.el"]),
    (K3K2_TEXT.encode(), GOOD_PARAMS, ["build", "g.el", "--output", "missing/x.json"]),
    (K3K2_TEXT.encode(), GOOD_PARAMS, ["reproduce", "--output", "missing/x.txt"]),
    (K3K2_TEXT.encode(), GOOD_PARAMS, ["reproduce", "--json", "--output", "missing/x.json"]),
    (K3_TEXT.encode(), GOOD_PARAMS, ["verify", "g.el", "--seed", "-1"]),
    (K3K2_TEXT.encode(), GOOD_PARAMS, ["search", "g.el", "-r", "1", "--seed", "-1"]),
    (K3K2_TEXT.encode(), GOOD_PARAMS, ["search", "g.el", "-r", "1", "--budget", "0", "--seed", "-1"]),
], ids=["params-count", "params-dimension", "params-non-pair", "params-nan", "params-boolean",
        "params-huge-integer", "params-non-utf8",
        "edge-list-non-utf8", "build-unwritable-output", "reproduce-unwritable-output",
        "reproduce-json-unwritable-output", "verify-negative-seed", "search-negative-seed",
        "search-budget-0-negative-seed"])
def test_input_failures_exit_2(capsys, tmp_path, monkeypatch, graph, params, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.el").write_bytes(graph)
    (tmp_path / "p.json").write_bytes(params)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("text, line", [
    ("n " + "1" * 5000 + "\n1 2\n", 1),
    ("n 3\n1 2\n" + "3" * 5000 + " 1\n", 3),
], ids=["count", "endpoint"])
def test_build_huge_integer_exits_2(capsys, tmp_path, text, line):
    (tmp_path / "g.el").write_text(text)
    code, out, err = run(capsys, "build", str(tmp_path / "g.el"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: ") and "out of range" in err
    assert err.count("\n") == 1 and len(err) < 100


@pytest.mark.parametrize("r", ["1", "2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rho_refuses_a_nonfinite_hand_built_dual(capsys, k3k2_file, psi1_params_file, monkeypatch, bad, r):
    # dual_from_params refuses such shifts itself; a dual that skipped it
    # still meets worst_radius's finiteness check
    def load(path, frame):
        shifts = np.zeros((frame.k, frame.layout.m), dtype=complex)
        shifts[0, 0] = bad
        return DualFrame(frame.canonical.vectors, shifts)

    monkeypatch.setattr(cli, "_load_dual", load)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and numpy prints no warning above the error line
        code, out, err = run(capsys, "rho", k3k2_file, "-r", r, "--params", psi1_params_file)
    assert (code, out, err) == (2, "", "error: matrix entries must be finite\n")


@pytest.mark.parametrize("exc", [
    ConvergenceError("eigvals failed on order 3: did not converge"),
    MemoryError("Unable to allocate 6.71 GiB for an array with shape (30000, 30000)"),
], ids=["convergence", "memory"])
def test_internal_failures_exit_3(capsys, k3k2_file, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "verify_order", fail)
    code, out, err = run(capsys, "verify", k3k2_file)
    assert code == 3
    assert out == ""
    assert err == f"error: {type(exc).__name__}: {exc}\n"
    assert "Traceback" not in err


def _per_set_docs(result, k):
    """rho -v's reports built one set at a time, the way the per-set report
    objects did: spectrum sorted by magnitude (stable), zero-padded or cut to
    k entries, and the pass's own C[s, s]."""
    docs = []
    blocks, spectra = result.chunk(0, len(result.sets))
    for cols, eigs, block in zip(result.sets, spectra, blocks):
        by_mag = eigs[np.argsort(-np.abs(eigs), kind="stable")]
        spectrum = np.concatenate([by_mag, np.zeros(k, dtype=complex)])[:k]
        docs.append({
            "lambda": [int(i) + 1 for i in cols],
            "radius": float(np.max(np.abs(eigs))),
            "eigenvalues": [[float(z.real), float(z.imag)] for z in spectrum],
            "reduced": [[[float(z.real), float(z.imag)] for z in row] for row in block],
        })
    return docs


def test_rho_verbose_matches_per_set_formatting(capsys, tmp_path, monkeypatch):
    # 32 random graphs, connected and not, canonical and shifted duals, r = 1-4
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(73)
    above_k = 0
    for i in range(32):
        g = random_disconnected_graph(rng) if i % 2 else random_connected_graph(rng, (3, 10))
        f = frame_from_graph(g)
        (tmp_path / "g.el").write_text(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
        dual, argv = f.canonical, []
        if i % 3:
            shifts = random_dual_params(f, rng, scale=2.0)
            (tmp_path / "p.json").write_text(json.dumps(pairs(shifts.T).tolist()))
            dual, argv = dual_from_params(f, shifts), ["--params", "p.json"]
        for r in range(1, min(4, f.n - 1) + 1):
            code, out, _ = run(capsys, "rho", "g.el", "-r", str(r), *argv, "-v")
            assert code == 0
            assert json.loads(out)["reports"] == _per_set_docs(worst_radius(f, dual, r), f.k)
            above_k += r > f.k
    assert above_k > 0


def _python_m(*argv, cwd, preexec_fn=None, stdout=subprocess.PIPE):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "lapframes", *argv], cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120, preexec_fn=preexec_fn)


def test_python_m_passes_exit_codes(tmp_path):
    done = _python_m("reproduce", cwd=tmp_path)
    assert done.returncode == 0 and "all checks passed" in done.stdout
    done = _python_m("build", "missing.el", cwd=tmp_path)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: cannot read missing.el")


def test_python_m_build_leaves_reproduce_unloaded(tmp_path):
    # only the reproduce command imports its module (-X importtime lists
    # every module the query loads on stderr)
    (tmp_path / "k3k2.el").write_text(K3K2_TEXT)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "lapframes", "build", "k3k2.el"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and json.loads(done.stdout)["command"] == "build"
    loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert {"lapframes.cli", "lapframes.optimality"} <= loaded
    assert "lapframes.reproduce" not in loaded


_MODULES_AFTER_MAIN = ("import sys; from lapframes.cli import main; code = main(sys.argv[1:]); "
                       "print(code, 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules, file=sys.stderr)")


@pytest.mark.parametrize("argv", [
    ["search", "k4.el", "-r", "1"],
    ["search", "k4.el", "-r", "2", "--seed", "3"],
    ["verify", "k4.el"],
    ["rho", "k4.el", "-r", "3"],
    ["verify", "k3k2k1.el", "-r", "2"],
], ids=["search-1", "search-2", "verify", "rho-3", "verify-disconnected"])
def test_python_search_leaves_numpy_random_unloaded(tmp_path, argv):
    # search's restart and verify's uniqueness probe draw from the standard
    # library's random.Random, and no command loads numpy.ma
    (tmp_path / "k4.el").write_text(K4_TEXT)
    (tmp_path / "k3k2k1.el").write_text("n 6\n1 2\n1 3\n2 3\n4 5\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _MODULES_AFTER_MAIN, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert json.loads(done.stdout)["command"] == argv[0]
    assert done.stderr == "0 False False\n"


def _closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return write


def _full_device():
    return os.open("/dev/full", os.O_WRONLY)


_PIPE = "[Errno 32] Broken pipe"
_FULL = "[Errno 28] No space left on device"
_needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
_PATH_TEXT = "n 80\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 80))  # build writes about 330 KB


@pytest.mark.parametrize("target, command, reason, unbuffered", [
    (_closed_pipe, ["rho", "edge.el", "-r", "1"], _PIPE, False),
    pytest.param(_full_device, ["reproduce"], _FULL, False, marks=_needs_dev_full),
    (_closed_pipe, ["build", "path.el"], _PIPE, False),
    (_closed_pipe, ["build", "path.el"], _PIPE, True),
    pytest.param(_full_device, ["build", "path.el"], _FULL, False, marks=_needs_dev_full),
    pytest.param(_full_device, ["build", "path.el"], _FULL, True, marks=_needs_dev_full),
], ids=["closed-pipe", "full-device", "closed-pipe-build", "closed-pipe-build-unbuffered",
        "full-device-build", "full-device-build-unbuffered"])
def test_python_m_unwritable_stdout_exits_2(tmp_path, monkeypatch, target, command, reason, unbuffered):
    # a report that cannot reach stdout is refused like an unwritable
    # --output: one error line, and nothing left for interpreter shutdown.
    # Buffered, the unwritten bytes stay in the buffer after the failed
    # write; unbuffered, every block is its own write. The build report
    # spans several write blocks, so the failure comes mid-stream.
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    (tmp_path / "edge.el").write_text(EDGE_TEXT)
    (tmp_path / "path.el").write_text(_PATH_TEXT)
    fd = target()
    try:
        done = _python_m(*command, cwd=tmp_path, stdout=fd)
    finally:
        os.close(fd)
    assert done.returncode == 2
    assert done.stderr == f"error: cannot write stdout: {reason}\n"


def test_build_report_spans_several_write_blocks(tmp_path):
    (tmp_path / "path.el").write_text(_PATH_TEXT)
    assert main(["build", str(tmp_path / "path.el"), "--output", str(tmp_path / "out.json")]) == 0
    assert (tmp_path / "out.json").stat().st_size > 4 * cli.BLOCK_CHARS


@_needs_dev_full
def test_output_to_full_device_exits_2(capsys, tmp_path):
    (tmp_path / "path.el").write_text(_PATH_TEXT)
    code, out, err = run(capsys, "build", str(tmp_path / "path.el"), "--output", "/dev/full")
    assert (code, out, err) == (2, "", f"error: cannot write /dev/full: {_FULL}\n")


@pytest.mark.parametrize("command", [["dual", "edge.el"], ["rho", "edge.el", "-r", "1"]])
def test_python_m_infinite_shift_prints_one_error_line(tmp_path, command):
    # json.loads accepts Infinity; the duality check's NaN residual refuses
    # it, with no numpy warning on stderr above the error line
    (tmp_path / "edge.el").write_text(EDGE_TEXT)
    (tmp_path / "inf.json").write_text("[[[Infinity, 0]]]")
    done = _python_m(*command, "--params", "inf.json", cwd=tmp_path)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: duality residual nan above 1e-08\n"


_THREADS = ("import os, sys, lapframes; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1)")


def _import_lapframes(tmp_path, threads=None):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run([sys.executable, "-c", _THREADS], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    value, tasks = done.stdout.split()
    return value, int(tasks)


def test_import_pins_one_blas_thread(tmp_path):
    # numpy loads after the pin, so OpenBLAS starts no worker threads
    assert _import_lapframes(tmp_path) == ("1", 1)


def test_import_keeps_a_preset_thread_count(tmp_path):
    assert _import_lapframes(tmp_path, "2")[0] == "2"


def _address_cap():
    resource = pytest.importorskip("resource")
    cap = 2560 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))

    return limit


def test_python_m_memory_failure_exits_3(tmp_path):
    # 15000 disjoint edges: k = 15000, so the synthesis matrix alone is
    # 15000 x 30000 complex, 6.71 GiB
    limit = _address_cap()
    (tmp_path / "big.el").write_text("n 30000\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 30000, 2)))
    done = _python_m("build", "big.el", cwd=tmp_path, preexec_fn=limit)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("error: MemoryError: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_python_m_order_one_radius_fits_the_cap(tmp_path):
    # one edge and 29998 isolated vertices: at r = 1 the radius pass needs
    # O(n k), never the 13.4 GiB n x n cross-Gramian
    limit = _address_cap()
    (tmp_path / "big.el").write_text("n 30000\n1 2\n")
    done = _python_m("rho", "big.el", "-r", "1", cwd=tmp_path, preexec_fn=limit)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    doc = json.loads(done.stdout)
    assert (doc["radius"], doc["witness"]) == (0.5, [1])


@pytest.mark.parametrize("command", ["build", "dual"])
def test_python_m_many_components_fit_the_cap(tmp_path, command):
    # one edge and 29998 isolated vertices: each component's Laplacian is
    # built from its own edges, never the dense 6.7 GiB n x n matrix
    limit = _address_cap()
    (tmp_path / "big.el").write_text("n 30000\n1 2\n")
    done = _python_m(command, "big.el", cwd=tmp_path, preexec_fn=limit)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    doc = json.loads(done.stdout)
    assert doc["command"] == command and doc["dual" if command == "dual" else "frame"]["k"] == 1


def test_reproduce_all_pass(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "all checks passed" in out


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, "reproduce", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["all_pass"] and doc["schema"] == 1
    assert len(doc["checks"]) >= 15


def test_reproduce_perturbed_reference_fails(capsys, monkeypatch):
    # a correct program must fail the one check whose frozen value is wrong
    wrong = reproduce.EXPECTED_CANONICAL_VECTORS.copy()
    wrong[0, 0] += 1e-6
    monkeypatch.setattr(reproduce, "EXPECTED_CANONICAL_VECTORS", wrong)
    code, out, _ = run(capsys, "reproduce", "--json")
    doc = json.loads(out)
    assert code == 1
    assert not doc["all_pass"]
    failed = [c["name"] for c in doc["checks"] if not c["pass"]]
    assert failed == ["explicit: canonical dual matches the reference vectors"]


def test_reproduce_fails_a_broken_radius_pass(capsys, monkeypatch):
    # the explicit radii are read from the radius pass the other commands
    # run, so spectra off by one part in a million fail both radius checks
    exact = erasure.small_complex_eigenvalues
    monkeypatch.setattr(erasure, "small_complex_eigenvalues", lambda a: exact(a) * (1 + 1e-6))
    failed = {c["name"] for c in reproduce.run_reproduction()["checks"] if not c["pass"]}
    assert {"explicit: ten canonical 2-erasure radii match",
            "explicit: ten shifted-dual 2-erasure radii match"} <= failed
    code, out, _ = run(capsys, "reproduce")
    assert code == 1 and "SOME CHECKS FAILED" in out


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1", "-1e-300"])
def test_reproduce_refuses_a_tolerance_no_check_could_meet_or_miss(capsys, tol):
    code, out, err = run(capsys, "reproduce", f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err == f"error: tolerance must be finite and nonnegative, got {float(tol)}\n"


def test_reproduce_tolerance_zero_is_valid(capsys):
    # every check runs and reports against 0: those with an exact residual
    # pass, the rest fail, and the exit code says so
    code, out, err = run(capsys, "reproduce", "--json", "--tol", "0")
    doc = json.loads(out)
    assert (code, err) == (1, "")
    assert doc["tolerance"] == 0.0
    assert all(c["pass"] == (c["residual"] == 0.0) for c in doc["checks"])
    assert any(c["pass"] for c in doc["checks"]) and not doc["all_pass"]


def test_output_flag_and_determinism(capsys, tmp_path, k3k2_file):
    for command in (
        ["build", k3k2_file],
        ["rho", k3k2_file, "-r", "2", "-v"],
        ["verify", k3k2_file, "--seed", "3"],
        ["search", k3k2_file, "-r", "1", "--seed", "1"],
    ):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main([*command, "--output", str(out1)]) in (0, 1)
        assert main([*command, "--output", str(out2)]) in (0, 1)
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes(), command


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rho"])  # missing file and -r
    assert exc.value.code == 2


_NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**70),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
    st.booleans(),
)
_SCALARS = st.one_of(
    _NUMBERS,
    st.none(),
    st.text(max_size=6),
    st.sampled_from(['", [', "]", "], [", '"', "\\", "é", "\u2603", ", "]),
)


@st.composite
def _number_arrays(draw):
    """Nested lists and tuples of numbers, all leaves at one depth: walked
    like any list (only ndarrays take the writer's flat-encode path)."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    leaves = iter(draw(st.lists(_NUMBERS, min_size=math.prod(shape), max_size=math.prod(shape))))

    def build(dims):
        if not dims:
            return next(leaves)
        items = [build(dims[1:]) for _ in range(dims[0])]
        return tuple(items) if draw(st.booleans()) else items

    return build(shape)


_DOCUMENTS = st.recursive(
    st.one_of(_SCALARS, _number_arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.sampled_from(['"', "é", "a, [b]"])),
                        children, max_size=4),
    ),
    max_leaves=24,
)


# the writer's sizes: tiny ones put every chunk and block boundary inside
# arrays, rows and nested lists
_SIZES = st.sampled_from([1, 2, 3, None])


def _streamed(make_doc, encode, block):
    """The joined ``_pieces`` of a document and ``_emit``'s stdout for another
    copy of it, with ``ENCODE_NUMBERS`` and ``BLOCK_CHARS`` set (None: as
    they are)."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("ENCODE_NUMBERS", encode), ("BLOCK_CHARS", block)):
            if value is not None:
                mp.setattr(cli, name, value)
        text = "".join(cli._pieces(make_doc()))
        with contextlib.redirect_stdout(out):
            cli._emit(make_doc(), None)
    return text, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS, _SIZES, _SIZES)
def test_writer_matches_json_indent_2(doc, encode, block):
    # ragged, empty, mixed-depth and nested-empty lists, tuples, escapes,
    # NaN, +-Infinity, -0.0, subnormals, ints past 2**63, booleans, null
    expected = json.dumps(doc, indent=2)
    assert _streamed(lambda: doc, encode, block) == (expected, expected + "\n")


_ARRAY_ELEMENTS = {
    np.float64: st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308])),
    np.int64: st.integers(-(2**63), 2**63 - 1),
    np.bool_: st.booleans(),
}


@st.composite
def _ndarrays(draw):
    """Float, int and bool arrays of ndim 0 to 4 with axes of size 0 to 3."""
    dtype = draw(st.sampled_from(list(_ARRAY_ELEMENTS)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3))
    return draw(hnp.arrays(dtype, shape, elements=_ARRAY_ELEMENTS[dtype]))


def _tolisted(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, dict):
        return {key: _tolisted(value) for key, value in o.items()}
    if isinstance(o, (list, tuple)):
        return [_tolisted(value) for value in o]
    return o


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    st.one_of(_ndarrays(), _SCALARS),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=8,
), _SIZES, _SIZES)
def test_writer_matches_json_indent_2_on_arrays(doc, encode, block):
    # ndarray leaves are written as their tolist() at every nesting level
    expected = json.dumps(_tolisted(doc), indent=2)
    assert _streamed(lambda: doc, encode, block) == (expected, expected + "\n")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.dictionaries(st.text(max_size=3), st.one_of(_ndarrays(), _SCALARS), max_size=3), max_size=4),
       _SIZES, _SIZES)
def test_writer_streams_an_iterator_as_a_list(reports, encode, block):
    # rho -v hands its reports over as a generator; an empty one is []
    expected = json.dumps({"schema": 1, "reports": _tolisted(reports)}, indent=2)
    streamed = _streamed(lambda: {"schema": 1, "reports": (report for report in reports)}, encode, block)
    assert streamed == (expected, expected + "\n")
    assert "".join(cli._pieces(iter(()))) == "[]"


@pytest.mark.parametrize("encode", [1, 3, 40])
def test_rho_verbose_reports_match_across_chunks(capsys, tmp_path, monkeypatch, encode):
    # set_reports pads and pairs ENCODE_NUMBERS // (2 k) sets at a time:
    # here 1 set (encode 1, 3) or 6 sets (encode 40) per chunk, k = 3
    (tmp_path / "g.el").write_text(K3K2_TEXT)
    f = frame_from_graph(parse_edge_list(K3K2_TEXT))
    expected = {r: run(capsys, "rho", str(tmp_path / "g.el"), "-r", str(r), "-v")[1] for r in (1, 2, 3)}
    monkeypatch.setattr(cli, "ENCODE_NUMBERS", encode)
    for r, text in expected.items():
        code, out, _ = run(capsys, "rho", str(tmp_path / "g.el"), "-r", str(r), "-v")
        assert (code, out) == (0, text)
        assert json.loads(out)["reports"] == _per_set_docs(worst_radius(f, f.canonical, r), f.k)


def test_rho_verbose_memory_stays_flat(tmp_path):
    # 3 160 per-set reports with k = 79 padded eigenvalues, about 14 MB of
    # JSON: the whole document held as text traced 3.5 times its size
    rng = np.random.default_rng(83)
    g = random_connected_graph(rng, (80, 80), p=0.3)
    (tmp_path / "g.el").write_text(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        code = main(["rho", str(tmp_path / "g.el"), "-r", "2", "-v", "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.stat().st_size > 12 * 10**6
    assert peak < out.stat().st_size / 2


def test_rho_verbose_forms_blocks_a_chunk_at_a_time(tmp_path, monkeypatch):
    # 1 140 triples in 21 chunks of the pass and 88 of the reports: -v adds
    # to rho's tracemalloc peak only what one chunk forms, while a stack of
    # every C[s, s], with the C_0[s, s] and W index an earlier pass gathered
    # for it, added 3.1 times the bytes of one N x r x r complex stack here
    monkeypatch.setattr(erasure, "CHUNK_ENTRIES", 512)
    monkeypatch.setattr(cli, "ENCODE_NUMBERS", 512)
    monkeypatch.setattr(cli, "BLOCK_CHARS", 1024)
    g = random_connected_graph(np.random.default_rng(89), (20, 20), p=0.3)
    (tmp_path / "g.el").write_text(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    argv = ["rho", str(tmp_path / "g.el"), "-r", "3", "--output", str(tmp_path / "out.json")]
    main(argv)  # the enumeration is cached before either peak is traced

    def peak(*flags):
        tracemalloc.start()
        try:
            assert main(argv + list(flags)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain, verbose = peak(), peak("-v")
    stack = 1140 * 3 * 3 * 16
    assert len(json.loads((tmp_path / "out.json").read_text())["reports"]) == 1140
    assert verbose - plain < stack / 4


def _documented_commands(graph, params, n):
    yield ["build", graph]
    yield ["dual", graph]
    yield ["dual", graph, "--params", params]
    for r in range(1, min(3, n - 1) + 1):
        yield ["rho", graph, "-r", str(r)]
        yield ["rho", graph, "-r", str(r), "-v"]
        yield ["rho", graph, "-r", str(r), "-v", "--params", params]
    yield ["verify", graph]
    for r in range(1, min(2, n - 1) + 1):
        yield ["search", graph, "-r", str(r), "--budget", "400"]  # past the grid pass here


def test_every_report_is_json_indent_2(capsys, tmp_path, monkeypatch):
    # the fixtures and 10 random graphs, every command, stdout and --output
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(29)
    texts = [K3K2_TEXT, K3_TEXT, K4_TEXT, EDGE_TEXT]
    for i in range(10):
        g = random_disconnected_graph(rng) if i % 2 else random_connected_graph(rng, (3, 7))
        texts.append(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    argvs = [["reproduce", "--json"]]
    for i, text in enumerate(texts):
        f = frame_from_graph(parse_edge_list(text))
        Path(f"g{i}.el").write_text(text)
        Path(f"p{i}.json").write_text(json.dumps(pairs(random_dual_params(f, rng, scale=2.0).T).tolist()))
        argvs += _documented_commands(f"g{i}.el", f"p{i}.json", f.n)
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1), argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        assert main([*argv, "--output", "out.json"]) == code
        assert Path("out.json").read_text(encoding="utf-8") == out, argv


def test_large_reports_are_json_indent_2(capsys, tmp_path, monkeypatch):
    # n = 60 in components of 40, 19 and 1 with shuffled labels: arrays of
    # thousands of rows, rho -v's 1770 per-set reports
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(61)
    parts = [random_connected_graph(rng, (40, 40), p=0.3), random_connected_graph(rng, (19, 19))]
    label = rng.permutation(60) + 1
    edges = sorted(tuple(sorted((int(label[u + offset - 1]), int(label[v + offset - 1]))))
                   for g, offset in zip(parts, (0, 40)) for u, v in g.edges)
    text = "n 60\n" + "".join(f"{u} {v}\n" for u, v in edges)
    f = frame_from_graph(parse_edge_list(text))
    assert sorted(f.layout.sizes) == [1, 19, 40]
    Path("g.el").write_text(text)
    Path("p.json").write_text(json.dumps(pairs(random_dual_params(f, rng, scale=2.0).T).tolist()))
    for argv in (["build", "g.el"], ["dual", "g.el"], ["dual", "g.el", "--params", "p.json"],
                 ["rho", "g.el", "-r", "2", "-v"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
