"""The output gate's search gate (tools/output_gate.py), on synthetic
``search`` stdouts: ``evaluations`` is reported, an ``improved`` flip or a
``best_rho`` move over ``SEARCH_TOL`` fails."""

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
