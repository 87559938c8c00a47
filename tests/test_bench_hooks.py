"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
module attribute name; every name it looks up must still exist."""

import importlib.util
import sys
from pathlib import Path

import vh2kg
import vh2kg.pipeline  # noqa: F401  (binds every module the tracer reaches)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    targets = spans.targets(vh2kg)
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert targets and not missing
