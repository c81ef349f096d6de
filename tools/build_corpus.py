"""Regenerate the bundled scenario corpus.

Every pinned value here is a claim of the verified classification (catalog
invariants, pipeline end states, dimension counts), written out explicitly so
that the corpus stays reviewable; the engine must reproduce each one exactly.
The documented discrepancies are pinned from `pipelines.DISCREPANCIES`.
Run from the repository root:  python3 tools/build_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path

from unimodal.configurations import catalog_entry, config_to_json
from unimodal.pipelines import DISCREPANCIES
from unimodal.sextics import FAMILIES

OUT = Path(__file__).resolve().parent.parent / "src" / "unimodal" / "corpus"


def v(value) -> dict:
    return {"value": str(value)}


def documented(check: str) -> dict:
    """The pin of a documented discrepancy: the engine value, claiming the stated one."""
    d = DISCREPANCIES[check]
    return {"value": str(d.engine), "claimed": str(d.stated), "flag": d.flag}


def write(name: str, kind: str, payload: dict, expected: dict) -> None:
    data = {
        "schema": "1",
        "kind": kind,
        "name": name,
        "payload": payload,
        "expected": expected,
    }
    path = OUT / f"{name}.scn"
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def en_scenarios() -> None:
    write(
        "e12",
        "pipeline",
        {
            "construction": "en",
            "singularity": "E12",
            "profile": 6,
            "config": config_to_json(catalog_entry("E12").config),
        },
        {
            "branch-class": v("4*Cinf + 6*Gamma"),
            "cover-euler-characteristic": v(3),
            "minimal-model-euler-characteristic": v(2),
            "minimal-model-canonical-squared": v(0),
            "canonical-numerically-half-fiber": v("1/2*Gamma_pb"),
            "bisection-degree-on-half-fiber": v(1),
            "exceptional-adjunction-integral": v("integral"),
            "exceptional-self-intersections": v(-1),
            "catalog-match": v("E12"),
            "multiple-fiber-type": v("I0"),
            "euler-budget": v("feasible"),
            "section-class-coefficient": v(0),
            "contracted-canonical-squared": v(1),
            "contracted-euler-characteristic": v(3),
            "contracted-canonical-ample": v("ample"),
        },
    )
    variants = {
        "E13": (("I2", 6), ("I3", 7), ("III", 6), ("IV", 6)),
        "E14": (("I3", 6), ("I4", 7)),
    }
    for singularity, cases in variants.items():
        entry = catalog_entry(singularity)
        self_ints = ",".join(str(c.self_int) for c in entry.config.components)
        for fiber, profile in cases:
            write(
                f"{singularity.lower()}-{fiber.lower()}",
                "pipeline",
                {
                    "construction": "en",
                    "singularity": singularity,
                    "profile": profile,
                    "fiber_variant": fiber,
                    "config": config_to_json(entry.config),
                },
                {
                    "branch-class": v("4*Cinf + 8*Gamma"),
                    "cover-euler-characteristic": v(3),
                    "minimal-model-euler-characteristic": v(2),
                    "minimal-model-canonical-squared": v(0),
                    "noether-euler-number": documented("noether-euler-number"),
                    "bisection-degree-on-half-fiber": v(1),
                    "exceptional-adjunction-integral": v("integral"),
                    "exceptional-self-intersections": v(self_ints),
                    "catalog-match": v(singularity),
                    "multiple-fiber-type": v("I0" if profile == 6 else "I1"),
                    "second-fiber-type": v(fiber),
                    "euler-budget": v("feasible"),
                    "nef-bundle-on-bisection": documented("nef-bundle-on-bisection"),
                    "nef-bundle-squared": documented("nef-bundle-squared"),
                    "branch-germ-33-profile": v(f"true,{profile}"),
                    "section-class-coefficient": v(0),
                    "contracted-canonical-squared": v(1),
                    "contracted-euler-characteristic": v(3),
                    "contracted-canonical-ample": v("ample"),
                },
            )


def catalog_scenarios() -> None:
    for label in ("E12", "E13", "E14", "Z11", "Z12", "Z13", "W12", "W13"):
        entry = catalog_entry(label)
        degree = 1 if label.startswith("E") else 2
        coefficients = ",".join("1" for _ in entry.config.components)
        write(
            f"catalog-{label.lower()}",
            "config-check",
            {
                "config": config_to_json(entry.config),
                "derived_from": {
                    "fiber": entry.kodaira_fiber,
                    "blow_ups": list(entry.blow_ups),
                },
            },
            {
                "negative-definite": v("true"),
                "cycle-coefficients": v(coefficients),
                "cycle-self-intersection": v(-degree),
                "cycle-canonical-degree": v(degree),
                "cycle-genus": v(1),
                "classification": v(f"minimally-elliptic-degree-{degree}"),
                "catalog-match": v(label),
                "blown-up-fiber-match": v("match"),
            },
        )


def zw_scenarios() -> None:
    # the rational double point left by contracting the cycle's trivial part
    ade = {"Z11": "none", "Z12": "A1", "Z13": "A2", "W12": "none", "W13": "A1"}
    for fam in FAMILIES:
        expected = {
            "exceptional-cycle-squared": v(-2),
            "exceptional-canonical-degree": v(2),
            "exceptional-adjunction-integral": v("integral"),
            "catalog-match": v(fam.singularity),
            "canonical-plus-cycle-squared": v(1),
            "cycle-meets-blowdown-curve": v(2),
            "blowdown-kind": v("blow-down"),
            "blowdown-canonical-trivial": v("trivial"),
            "blowdown-euler-characteristic": v(2),
            "pushed-cycle-squared": v(2),
            "pushed-cycle-genus": v(2),
            "pushed-cycle-euler-characteristic": v(3),
            "double-cover-branch-degree": v(6),
            "ade-contraction": v(ade[fam.singularity]),
            "contracted-canonical-squared": v(1),
            "contracted-euler-characteristic": v(3),
            "contracted-canonical-ample": v("ample"),
            "family-restriction-orders": v(",".join(str(o) for o in fam.expected_orders)),
            "family-restriction-residual": v(6 - sum(fam.expected_orders)),
            "family-smoothness-scan": v(0),
            "stabilizer-dim": v(5 if len(fam.marked_points) == 1 else 4),  # one point and the line, or two points
            "affine-parameters": v(fam.counts().affine),
        }
        if fam.singular_mark is not None:
            expected["family-singular-mark"] = v(f"A{fam.singular_mark[1]}")
        if fam.stated_mark_n is None:
            expected["family-orbit-count"] = v(fam.claimed_count)
        else:
            expected["family-orbit-count"] = documented("family-orbit-count")
            # the cusp's tangent rows, beyond the stated double point, reach the stated count
            expected["family-orbit-count-variant"] = v(fam.claimed_count)
        write(
            fam.family_id,
            "pipeline",
            {"construction": "zw", "singularity": fam.singularity, "family_case": fam.case},
            expected,
        )


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for stale in OUT.glob("*.scn"):
        stale.unlink()
    en_scenarios()
    catalog_scenarios()
    zw_scenarios()
    print(f"wrote {len(list(OUT.glob('*.scn')))} scenarios to {OUT}")


if __name__ == "__main__":
    main()
