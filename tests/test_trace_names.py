"""The benchmark's tracer (perfbench/spans.py) looks package functions up by
name and reads some of their arguments by position; a rename or a reordered
parameter there would only show up as a crash of ``perfbench --trace 1``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    for mod, names in spans.TRACED.items():
        module = importlib.import_module(f"lapframes.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"lapframes.{mod}.{name}"


def test_worst_radius_takes_r_third():
    # spans.WORK reads worst_radius's r at position 2 (or by keyword)
    from lapframes.erasure import worst_radius

    assert list(inspect.signature(worst_radius).parameters)[2] == "r"


def test_worst_radius_takes_the_frame_first():
    # spans.WORK reads a[0].n, the frame's vertex count, from position 0
    from lapframes.erasure import worst_radius
    from lapframes.frames import Frame

    first = next(iter(inspect.signature(worst_radius).parameters.values()))
    assert first.name == "f" and first.annotation in (Frame, "Frame")
