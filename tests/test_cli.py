import json

import pytest

from lapframes import erasure, reproduce
from lapframes.cli import main

from conftest import EDGE_TEXT, K3K2_TEXT


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
    (K3K2_TEXT.encode(), GOOD_PARAMS[:-3] + b"\xff]]", ["dual", "g.el", "--params", "p.json"]),
    (K3K2_TEXT.encode() + b"# \xff\n", GOOD_PARAMS, ["build", "g.el"]),
    (K3K2_TEXT.encode(), GOOD_PARAMS, ["build", "g.el", "--output", "missing/x.json"]),
    (K3K2_TEXT.encode(), GOOD_PARAMS, ["reproduce", "--output", "missing/x.txt"]),
    (K3K2_TEXT.encode(), GOOD_PARAMS, ["reproduce", "--json", "--output", "missing/x.json"]),
], ids=["params-count", "params-dimension", "params-non-pair", "params-nan", "params-non-utf8",
        "edge-list-non-utf8", "build-unwritable-output", "reproduce-unwritable-output",
        "reproduce-json-unwritable-output"])
def test_input_failures_exit_2(capsys, tmp_path, monkeypatch, graph, params, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.el").write_bytes(graph)
    (tmp_path / "p.json").write_bytes(params)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


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
