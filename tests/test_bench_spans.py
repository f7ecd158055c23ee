"""The traced benchmark names tmp3 functions and methods by string: a name
that no longer exists makes ``Tracer.install`` raise (a method) or its metric
silently read 0 (a function).  ``bench/spans.py`` is imported, not edited."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
#: span names of functions the extraction no longer has: their metrics read 0
#: until the benchmark's metric list is re-pointed
RETIRED = {"moment.hankel_from_lift", "measure.solve_hankel_R"}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _methods(spans):
    return {f"{layer}.{m}" for layer, classes in spans.METHODS.items()
            for names in classes.values() for m in names}


def test_metric_spans_are_public_functions(spans):
    methods = _methods(spans)
    for metric, names, _ in spans.METRICS:
        for name in names:
            layer, _, attr = name.partition(".")
            assert layer in spans.LAYERS, (metric, name)
            mod = importlib.import_module(f"tmp3.{layer}")
            if not attr or name in methods or name in RETIRED:
                continue  # a whole layer, a traced method, or a retired function
            fn = getattr(mod, attr, None)
            assert not attr.startswith("_") and inspect.isfunction(fn), (metric, name)
            assert fn.__module__ == mod.__name__, (metric, name)


def test_traced_methods_exist(spans):
    for layer, classes in spans.METHODS.items():
        mod = importlib.import_module(f"tmp3.{layer}")
        for cls_name, names in classes.items():
            cls = getattr(mod, cls_name)
            for name in names:
                assert callable(vars(cls).get(name)), (layer, cls_name, name)


def test_retired_spans_are_gone(spans):
    named = {name for _, names, _ in spans.METRICS for name in names}
    for name in RETIRED:
        layer, _, attr = name.partition(".")
        assert name in named, name
        assert not hasattr(importlib.import_module(f"tmp3.{layer}"), attr), name
