"""The `corpus` workload: the bundled scenarios as shipped, whatever the seed."""

from __future__ import annotations

import json
from pathlib import Path

from common import DOCUMENTED_FLAGS, computed

CONSTRUCTED = ("en", "zw")  # pipeline constructions that end in a K^2 = 1, chi = 3 surface


def generate(root: Path) -> tuple[Path, list[tuple[dict, None]]]:
    directory = root / "src" / "unimodal" / "corpus"
    files = sorted(directory.glob("*.scn"))
    return directory, [(json.loads(p.read_text(encoding="utf-8")), None) for p in files]


def check(report: dict, generated: list[tuple[dict, None]]) -> list[str]:
    """The three documented flag kinds, and K^2 = 1, chi = 3 for every constructed surface."""
    problems = []
    flags = set(report["summary"]["flags"])
    if flags != DOCUMENTED_FLAGS:
        problems.append(f"flag kinds {sorted(flags)}, expected {sorted(DOCUMENTED_FLAGS)}")
    values = computed(report)
    for data, _ in generated:
        if data["kind"] != "pipeline" or data["payload"].get("construction") not in CONSTRUCTED:
            continue
        got = values.get(data["name"], {})
        for key, want in (("contracted-canonical-squared", "1"),
                          ("contracted-euler-characteristic", "3")):
            if got.get(key) != want:
                problems.append(f"{data['name']}: {key} is {got.get(key)!r}, expected {want!r}")
    return problems
