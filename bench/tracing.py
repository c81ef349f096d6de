"""Spans around the program's layers, installed from outside the program.

Each wrapped function is replaced at every name through which a module of
the program binds it (``from .planecurves import an_type_at`` binds it in
`scenarios` and `sextics` as well), so calls through any of those names are
seen.  Methods are replaced on their class.  sympy is reached through the
``sympy`` name that `planecurves` binds, which is replaced by a proxy, and
through the Poly and Basic methods that `planecurves` calls on sympy
objects.  A call into sympy made while a sympy span is open is not a new
span: sympy's self time is the time from the program's call into sympy
until control returns to the program.

Spans are (name, start, end, parent) and live in memory until the pass ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# module -> wrapped public functions ("Class.method" for methods)
TARGETS = {
    "cli": ["main"],
    "scenarios": ["run_corpus", "load_scenario", "run_scenario", "emit_report"],
    "pipelines": ["run_en_pipeline", "run_zw_pipeline", "run_riemann_hurwitz_check"],
    "sextics": ["verify_family"],
    "planecurves": [
        "an_type_at", "detect_33_point", "rational_singular_points", "restrict_to_line",
        "mult_sequence", "local_intersection", "stabilizer_dim", "orbit_dim_count",
    ],
    "configurations": [
        "match_catalog", "isomorphic", "fundamental_cycle", "classify_minimally_elliptic",
        "recognize_kodaira_fiber", "is_negative_definite", "blown_up_fiber",
    ],
    "lattice": [
        "blow_up", "double_cover", "attach_resolution", "split_curve", "contract",
        "declare_surface", "nakai_check", "DivisorClass.dot",
    ],
    "rationals": ["rank", "det", "nullspace", "solve", "solve_in_span"],
}
SYMPY_FUNCTIONS = ["Poly", "Rational", "symbols", "gcd", "resultant", "expand", "degree",
                   "total_degree"]
SYMPY_METHODS = ["Poly.factor_list", "Poly.sqf_list", "Poly.ground_roots", "Poly.gcd",
                 "Basic.subs"]
LAYERS = ["scenarios", "pipelines", "sextics", "planecurves", "configurations", "lattice",
          "rationals", "sympy"]


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return "scenarios" if module == "cli" else module


def span_names() -> list[str]:
    names = [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]
    return names + [f"sympy.{f}" for f in SYMPY_FUNCTIONS + SYMPY_METHODS]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, nested_sympy_passes: bool = False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if nested_sympy_passes and stack and spans[stack[-1]][0].startswith("sympy."):
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        import sympy

        modules = {m: importlib.import_module(f"unimodal.{m}") for m in TARGETS}
        bound = [mod for name, mod in sys.modules.items() if name.startswith("unimodal")]
        for module_name, functions in TARGETS.items():
            module = modules[module_name]
            for function in functions:
                name = f"{module_name}.{function}"
                if "." in function:
                    cls_name, method = function.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, method, self._wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(module, function)
                wrapped = self._wrap(name, original)
                for mod in bound:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)
        for method in SYMPY_METHODS:
            cls_name, attr = method.split(".")
            cls = getattr(sympy, cls_name)
            self._set(cls, attr, self._wrap(f"sympy.{method}", cls.__dict__[attr], True))
        proxy = _SympyProxy(sympy, {
            f: self._wrap(f"sympy.{f}", getattr(sympy, f), True) for f in SYMPY_FUNCTIONS
        })
        self._set(modules["planecurves"], "sympy", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Calls and self time per wrapped function, and every run_scenario duration."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = dict.fromkeys(span_names(), 0)
        self_ms = dict.fromkeys(span_names(), 0.0)
        scenario_ms = []
        for (name, start, end, _), inner in zip(self.spans, covered):
            calls[name] += 1
            self_ms[name] += (end - start - inner) * 1000
            if name == "scenarios.run_scenario":
                scenario_ms.append((end - start) * 1000)
        return {"calls": calls, "self_ms": self_ms, "scenario_ms": scenario_ms}

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


class _SympyProxy:
    """Stands in for the sympy module: the wrapped functions, everything else as is."""

    def __init__(self, module, wrapped: dict) -> None:
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, attr: str):
        return getattr(self._module, attr)
