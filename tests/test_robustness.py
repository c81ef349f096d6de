"""Malformed and oversized scenario files end in exit 0, 1 or 2, quickly.

Each case starts from a well-formed scenario (every bundled one and a few
plane-checks) and mutates it: wrong kinds and types, missing fields, bad
exponent keys, degrees, coefficients and candidates past the input bounds,
and lists grown past the component bound.  `cli.main` must return one of the
documented exit codes within a per-case time budget: no traceback, no hang.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from unimodal.cli import main

CORPUS = Path(__file__).parent.parent / "src" / "unimodal" / "corpus"
BUDGET_S = 5.0  # per case; the slowest bundled scenario takes well under 0.1 s

_LINE = {"degree": 1, "coeffs": {"0,0,1": "1"}}
_PLANE_CHECKS = [
    {"name": "cusp", "op": "an-type", "germ": {"terms": {"2,0": "1", "0,3": "1"}}, "candidate": 2},
    {"name": "triple", "op": "detect-33", "germ": {"terms": {"3,0": "1", "2,2": "1", "0,6": "1"}}},
    {"name": "stabilizer", "op": "stabilizer-dim", "points": [["1", "0", "0"], ["1", "1", "0"]]},
    {"name": "tree", "op": "mult-tree", "germ": {"terms": {"2,0": "1", "0,5": "1"}}},
    {
        "name": "restriction",
        "op": "restrict",
        "form": {"degree": 6, "coeffs": {"0,6,0": "1", "1,4,1": "-2"}},
        "line": _LINE,
        "points": [["1", "0", "0"]],
    },
]
BASES = [json.loads(path.read_text()) for path in sorted(CORPUS.glob("*.scn"))] + [
    {"schema": "1", "kind": "plane-check", "name": check["name"], "payload": {"checks": [check]}, "expected": {}}
    for check in _PLANE_CHECKS
]

BAD_VALUES = st.sampled_from(
    [
        None, True, -1, 0, 2.5, 17, 301, 9, "", "x", "-1/0", "1e100000", "9" * 5000,
        str(2**64), "1/" + str(2**64), [], [1], {}, {"a": 1}, "pipeline", "mystery",
        "false", "10", 0.5,
    ]
)
BAD_KEYS = st.sampled_from(["0,17", "17,0,0", "0,301", "-1,2", "1,1,1,1", "a", "", "value"])


def _slots(node, out):
    """Every (container, key) pair below the node, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


@st.composite
def malformed_scenarios(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        container, key = draw(st.sampled_from(_slots(doc, [])))
        action = draw(st.sampled_from(["replace", "delete", "add-key", "grow"]))
        if action == "delete" and isinstance(container, dict):
            del container[key]
        elif action == "add-key" and isinstance(container[key], dict):
            container[key][draw(BAD_KEYS)] = draw(st.sampled_from(["1", "-1", str(2**64)]))
        elif action == "grow" and isinstance(container[key], list) and container[key]:
            container[key] = container[key] * draw(st.sampled_from([2, 65]))
        else:
            container[key] = copy.deepcopy(draw(BAD_VALUES))
    return json.dumps(doc)


@given(st.one_of(malformed_scenarios(), st.sampled_from(["", "{", "[]", "1", "null", '"x"'])))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_malformed_or_oversized_scenario_ends_with_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scn"
        path.write_text(text)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", str(path)])
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert elapsed < BUDGET_S, (elapsed, text[:500])
