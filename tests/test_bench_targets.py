"""The benchmark's tracer wraps program functions by name; each name must resolve.

The tracer lives in ``bench/tracing.py`` and is loaded from its file here,
not imported as a package, so that the benchmark directory stays as it is.
Deleting or renaming a traced function fails this test, not only a traced
benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import sympy

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    for module_name, functions in tracing.TARGETS.items():
        module = importlib.import_module(f"unimodal.{module_name}")
        for function in functions:
            if "." in function:
                cls_name, method = function.split(".")
                assert callable(getattr(module, cls_name).__dict__[method]), function
            else:
                assert callable(getattr(module, function)), f"{module_name}.{function}"
    for function in tracing.SYMPY_FUNCTIONS:
        assert callable(getattr(sympy, function)), function
    for method in tracing.SYMPY_METHODS:
        cls_name, attr = method.split(".")
        assert callable(getattr(sympy, cls_name).__dict__[attr]), method


def test_tracer_installs_and_restores():
    import unimodal.planecurves as planecurves

    tracing = _load_tracing()
    original = planecurves.an_type_at
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert planecurves.an_type_at is not original
    finally:
        tracer.uninstall()
    assert planecurves.an_type_at is original
    assert planecurves.sympy is sympy
