"""The traced benchmark run wraps mwl functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_span_names_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr in spans.SPANS.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing
