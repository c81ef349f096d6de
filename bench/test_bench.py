"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py

The quick mode generates every workload, verifies it in one untraced and one
traced pass and runs the checks, so a broken generator, check or tracer
fails here in well under a minute.  The other tests show that the checks
are not vacuous: a report with one wrong value is caught.
"""

from __future__ import annotations

import copy
import subprocess
import sys
from pathlib import Path

import corpus
import germs
import surfaces

BENCH = Path(__file__).resolve().parent


def _report(generated, values) -> dict:
    """A report in the program's layout whose computed values are `values`."""
    return {
        "scenarios": [
            {
                "name": data["name"],
                "counts": {"pass": 1, "fail": 0, "flagged": 0},
                "assertions": [
                    {"name": k, "computed": v, "status": "pass", "flag": None}
                    for k, v in values[data["name"]].items()
                ],
            }
            for data, _ in generated
        ],
        "summary": {"flags": sorted(corpus.DOCUMENTED_FLAGS)},
    }


def test_quick_mode_passes_every_check():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in ("corpus", "germs", "surfaces"):
        assert f"quick {workload}:" in proc.stdout


def test_germs_check_catches_a_wrong_value():
    generated = germs.generate(seed=7, rounds=1)
    values = {data["name"]: dict(pinned) for data, pinned in generated}
    assert germs.check(_report(generated, values), generated) == []
    wrong = copy.deepcopy(values)
    name = next(n for n in wrong if n.endswith("an-type") and wrong[n]["an-type"].startswith("A"))
    wrong[name]["an-type"] = "A9"
    assert len(germs.check(_report(generated, wrong), generated)) == 1


def test_surfaces_check_catches_a_cycle_that_is_not_anti_nef():
    generated = surfaces.generate(seed=7, rounds=1)
    values = {data["name"]: {k: v["value"] for k, v in data["expected"].items()}
              for data, _ in generated}
    assert surfaces.check(_report(generated, values), generated) == []
    name = next(n for n in values if n.endswith("-E7"))
    coefficients = values[name]["cycle-coefficients"].split(",")
    values[name]["cycle-coefficients"] = ",".join(["1"] * len(coefficients))
    problems = surfaces.check(_report(generated, values), generated)
    assert problems == [f"{name}: cycle {[1] * 7} meets a component positively"]


def test_expected_values_from_the_constructions():
    assert germs.an_tree(3, 1) == "2(2(1,1))"
    assert germs.an_tree(3, -1) == "2(2({2:1}))"
    assert germs.an_tree(2, 1) == "2(1)"
    tree = germs._tree([(0, 0, 0), (0, 1, 0), (1, 0, 0)])
    assert germs._label(tree) == "3(1,2(1,1))"
    # the highest root of E8: 2,4,6,5,4,3,2 along the chain and 3 on the short arm
    assert surfaces.laufer_cycle(surfaces.ade("E", 8)) == [2, 4, 6, 5, 4, 3, 2, 3]
    assert surfaces.catalog_label("IV", (0, 1, 1)) == "W13"
