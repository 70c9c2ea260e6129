"""The output gate (tools/output_gate.py) on synthetic JSON: the search
gate on ``search`` stdouts, where ``evaluations`` is reported and an
``improved`` flip or a ``best_rho`` move over ``SEARCH_TOL`` fails, and the
relative move of a ``[re, im]`` pair, taken as one complex number."""

import importlib.util
import json
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / "tools" / "output_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("output_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _out(evaluations=100, best_rho=0.75, improved=False):
    return json.dumps({"command": "search", "best_rho": best_rho, "improved": improved,
                       "evaluations": evaluations, "near_optima": []})


@pytest.mark.parametrize("new, fails", [
    (_out(evaluations=120), False),
    (_out(best_rho=0.75 + 5e-13), False),
    (_out(best_rho=0.75 - 3e-12), True),
    (_out(improved=True), True),
    (_out(best_rho=float("nan")), True),
    ("not json", True),
], ids=["evaluations", "best-rho-within", "best-rho-over", "improved-flip", "best-rho-nan", "not-json"])
def test_search_gate_classifies_a_moved_search(gate, new, fails):
    lines, failed = gate.search_gate(_out(), new)
    assert failed is fails
    if new != "not json":
        assert lines[0] == f"  evaluations 100 -> {json.loads(new)['evaluations']}"
        assert len(lines) == 1 + fails


def _rho(eigenvalues):
    return json.dumps({"command": "rho", "reports": [{"lambda": [1, 2], "eigenvalues": eigenvalues}]})


def test_compare_moves_a_complex_pair_as_one_number(gate):
    # a sign flip of a 1e-17 imaginary part moves the pair of modulus about
    # 1 by 2e-17; taken per number it would read as a move of 2
    old, new = _rho([[0.9, 1e-17], [0.5, 0.25]]), _rho([[0.9, -1e-17], [0.5, 0.25]])
    lines = gate.compare((0, old, ""), (0, new, ""))
    assert lines[1] == "  1 values differ under: reports[].eigenvalues[]"
    move, path = lines[-1].removeprefix("  largest relative move ").split(" at ")
    assert path == "reports[0].eigenvalues[0]"
    assert 1e-17 < float(move) < 3e-17
    assert gate._move(1.0, 1.5) == pytest.approx(1 / 3)
    assert gate._move([3.0, 4.0], [3.0, -4.0]) == pytest.approx(8 / 5)
    assert gate._move("a", "b") is None and gate._move([1.0, 2.0], 1.0) is None
