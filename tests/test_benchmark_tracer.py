"""The benchmark's span tracer wraps mycocat functions by name; a rename or
deletion in the package would make ``perfbench/run.py --trace 1`` skip or
fail silently, so every traced name must still resolve."""

import importlib
import importlib.util
import inspect
import pathlib

import mycocat.kernels

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = load_spans()
    for layer, func in spans.TRACED:
        target = getattr(importlib.import_module(f"mycocat.{layer}"), func, None)
        assert callable(target), f"mycocat.{layer}.{func}"
    for layer, func in spans.TRACED_GENERATORS:
        target = getattr(importlib.import_module(f"mycocat.{layer}"), func, None)
        assert inspect.isgeneratorfunction(target), f"mycocat.{layer}.{func}"


def test_kernel_path_flag_read_by_the_worker():
    assert isinstance(mycocat.kernels.NUMBA_ENABLED, bool)
