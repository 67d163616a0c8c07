"""The benchmark's trace points name functions that the library defines."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_perfbench_trace_point_resolves():
    # ``perfbench/spans.py``'s ``Tracer.install`` rebinds each listed name on
    # its module and raises AttributeError on one that is missing, so
    # deleting or renaming a traced function breaks the traced benchmark
    # runs; the benchmark's own tests live outside ``testpaths``
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up there
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    missing = [
        f"{module}.{name}"
        for module, names in spans.TRACE_POINTS.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert spans.TRACE_POINTS
    assert missing == []
