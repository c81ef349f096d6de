"""Scenario-file helpers shared by the workload generators."""

from __future__ import annotations

import json
from pathlib import Path

DOCUMENTED_FLAGS = frozenset({"noether-c2", "nef-bundle-en-values", "z13-case2-count"})


def scenario(name: str, kind: str, payload: dict, expected: dict) -> dict:
    return {"schema": "1", "kind": kind, "name": name, "payload": payload, "expected": expected}


def dump_germ(g: dict) -> dict:
    return {"terms": {f"{a},{b}": str(c) for (a, b), c in sorted(g.items())}}


def dump_form(degree: int, f: dict) -> dict:
    return {"degree": degree, "coeffs": {",".join(map(str, e)): str(c) for e, c in sorted(f.items())}}


def dump_point(p) -> list[str]:
    return [str(c) for c in p]


def write_scenarios(directory: Path, scenarios: list[dict]) -> None:
    directory.mkdir(parents=True)
    for data in scenarios:
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
        (directory / f"{data['name']}.scn").write_text(text, encoding="utf-8")


def computed(report: dict) -> dict[str, dict[str, str]]:
    """Scenario name -> assertion name -> computed value."""
    return {
        s["name"]: {a["name"]: a["computed"] for a in s["assertions"]}
        for s in report["scenarios"]
    }


def failed_scenarios(report: dict) -> list[str]:
    return [s["name"] for s in report["scenarios"] if s["counts"]["fail"]]


def report_problems(report: dict, names: list[str]) -> list[str]:
    """Checks every workload shares: the scenarios, the flag kinds, the summary."""
    problems = []
    got = [s["name"] for s in report["scenarios"]]
    if got != sorted(names):
        problems.append(f"report lists {len(got)} scenarios, expected {len(names)}")
    flags = set(report["summary"]["flags"])
    if not flags <= DOCUMENTED_FLAGS:
        problems.append(f"undocumented flag kinds {sorted(flags - DOCUMENTED_FLAGS)}")
    for s in report["scenarios"]:
        for a in s["assertions"]:
            if a["status"] == "flagged" and a["flag"] not in DOCUMENTED_FLAGS:
                problems.append(f"{s['name']}: {a['name']} flagged as {a['flag']!r}")
    return problems
