"""The benchmark's span tracer wraps mycocat functions by name; a rename or
deletion in the package would make ``perfbench/run.py --trace 1`` skip or
fail silently, so every traced name must still resolve."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

import mycocat.kernels

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load("spans")


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


@pytest.mark.parametrize("name", ["worked_example", "scan_wide", "law_suite", "fusion"])
def test_workload_runs_one_checked_op(name, tmp_path):
    # the benchmark drives the public API; an API change that breaks a
    # workload's op or its oracle check fails here, not only in a benchmark run
    workload = load("workloads").WORKLOADS[name](1, tmp_path)
    workload.check(0, workload.op(0))
