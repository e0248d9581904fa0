"""The benchmark tracer's names still resolve in the package.

``perfbench/tracer.py`` wraps functions and reads caches by name.  A rename
in ``laxtop`` would break ``perfbench/run.py --trace 1`` without any other
test noticing, so this test reads the tracer's tables, without changing
them, and resolves every name.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("span", sorted(tracer.SPANS))
def test_every_traced_function_resolves(span):
    module, functions = tracer.SPANS[span]
    assert module in tracer.LAYERS
    home = importlib.import_module(f"laxtop.{module}")
    for name in functions:
        assert callable(getattr(home, name, None)), f"laxtop.{module}.{name}"


@pytest.mark.parametrize("cache", sorted(tracer.CACHES))
def test_every_traced_cache_reports_its_counts(cache):
    module, name = tracer.CACHES[cache]
    cached = getattr(importlib.import_module(f"laxtop.{module}"), name, None)
    assert callable(getattr(cached, "cache_info", None)), f"laxtop.{module}.{name}"

