"""The benchmark's tracer patches package functions and methods by name; a
rename would break every traced run without failing any other test.  The
tracer module is read from perfbench/ without running the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("span", sorted(tracing.FUNCTIONS))
def test_traced_function_resolves(span):
    module, attr = tracing.FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(f"qgelfand.{module}"), attr, None))


@pytest.mark.parametrize("span", sorted(tracing.METHODS))
def test_traced_method_resolves(span):
    for module, cls_name, attr in tracing.METHODS[span]:
        cls = getattr(importlib.import_module(f"qgelfand.{module}"), cls_name, None)
        assert isinstance(cls, type), (module, cls_name)
        # install() reads the class's own __dict__, so an inherited or moved
        # method would resolve through getattr and still crash a traced run
        assert attr in cls.__dict__, (cls_name, attr)
        assert callable(getattr(cls, attr)), (cls_name, attr)
