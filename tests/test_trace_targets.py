"""The benchmark tracer's target list names functions that exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("holoqsim_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"holoqsim.{module}.{name}"
               for module, names in spans.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"holoqsim.{module}"),
                                       name, None))]
    assert spans.TARGETS
    assert missing == []
