"""The benchmark (perfbench/) calls the package by module attribute: its
tracer wraps functions by name, and its workloads call public functions
with keywords.  These tests run both against the package as imported, so
a renamed function or a removed keyword fails here, not only at the
benchmark's own gate."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import vh2kg
import vh2kg.pipeline  # noqa: F401  (binds every module the tracer reaches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """``perfbench/<name>.py`` as a module, without putting perfbench on the
    import path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look it up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


spans = _load("spans")
workloads = _load("workloads")

#: The package's modules as the workloads see them.  Built from the modules
#: already imported: a fresh import, as the benchmark makes, would give later
#: tests classes that differ from the ones they imported.
VH = SimpleNamespace(**{m.name: importlib.import_module(f"vh2kg.{m.name}")
                        for m in pkgutil.iter_modules(vh2kg.__path__)})


def test_tracer_targets_resolve():
    targets = spans.targets(vh2kg)
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert targets and not missing


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.SMALL_WORKLOADS))
def test_small_workload_passes_its_check(name, traced, tmp_path):
    workload = workloads.SMALL_WORKLOADS[name]
    inputs = workload.setup(VH, 7, tmp_path)
    if traced:
        result, recorded = spans.Tracer().traced_pass(
            VH, lambda: workload.run_pass(inputs))
        assert spans.layer_metrics(recorded)["trace.spans"] == len(recorded) > 0
    else:
        result = workload.run_pass(inputs)
    assert workload.check(inputs, result, None) == []
