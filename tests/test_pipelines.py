from __future__ import annotations

import json
from pathlib import Path

import pytest

import unimodal.pipelines as pipelines
from unimodal.configurations import (
    EXCEPTIONAL_LABELS,
    Component,
    CurveConfiguration,
    catalog_entry,
    classify_minimally_elliptic,
)
from unimodal.lattice import replay
from unimodal.pipelines import (
    EnSpec,
    ZwSpec,
    branch_class_for,
    run_en_pipeline,
    run_riemann_hurwitz_check,
    run_zw_pipeline,
    section_class_coefficient,
)
from unimodal.lattice import make_hirzebruch, make_p2
from unimodal.scenarios import corpus_dir, load_scenario
from unimodal.sextics import FAMILIES

from oracles import en_variants

GOLDENS = Path(__file__).parent / "goldens"


def all_en_specs():
    for sing in ("E12", "E13", "E14"):
        for variant in en_variants(sing):
            profile = 7 if (sing, variant) in (("E13", "I3"), ("E14", "I4")) else 6
            yield EnSpec(sing, profile=profile, fiber_variant=variant)


def test_branch_classes():
    f0, f1, p2 = make_hirzebruch(0), make_hirzebruch(1), make_p2()
    assert branch_class_for(f0) == f0.divisor({"Cinf": 4, "Gamma": 6})
    assert branch_class_for(f1) == f1.divisor({"Cinf": 4, "Gamma": 8})
    assert branch_class_for(p2) == p2.divisor({"H": 6})


def test_branch_class_unsupported_base():
    from unimodal.lattice import declare_surface

    odd = declare_surface("odd", ["A"], {"A": {"A": 1}}, {"A": -1}, 1)
    with pytest.raises(ValueError):
        branch_class_for(odd)


def test_section_class_coefficients():
    assert section_class_coefficient(0) == 0
    assert section_class_coefficient(1) == 0
    with pytest.raises(ValueError):
        section_class_coefficient(2)


def test_all_en_variants_end_states():
    count = 0
    for spec in all_en_specs():
        result = run_en_pipeline(spec)
        assert result.failed == (), (spec, result.failed)
        assert result.check("contracted-canonical-squared").computed == "1"
        assert result.check("contracted-euler-characteristic").computed == "3"
        assert result.check("contracted-canonical-ample").computed == "ample"
        assert result.check("geometric-genus").computed == "2"
        count += 1
    assert count == 7


def test_en_nef_bundle_values():
    e12 = run_en_pipeline(EnSpec("E12"))
    assert e12.check("nef-bundle-on-strict-half-fiber").computed == "0"
    assert e12.check("nef-bundle-on-fiber").computed == "2"
    assert e12.check("nef-bundle-on-bisection").computed == "4"
    assert e12.check("nef-bundle-squared").computed == "8"
    assert e12.check("nef-bundle-on-bisection").status == "pass"
    for sing, variant in (("E13", "I2"), ("E14", "I3")):
        result = run_en_pipeline(EnSpec(sing, fiber_variant=variant))
        bisection = result.check("nef-bundle-on-bisection")
        squared = result.check("nef-bundle-squared")
        assert (bisection.computed, squared.computed) == ("2", "6")
        assert bisection.status == "flagged" and squared.status == "flagged"
        assert result.failed == ()


def test_en_nef_bundle_chi_diagnostics():
    e12 = run_en_pipeline(EnSpec("E12"))
    diag = dict(e12.diagnostics)
    assert diag["nef-bundle-euler-characteristic"] == "5"
    assert diag["nef-bundle-pushforward-degree-sum"] == "6"


def test_en_noether_flag():
    result = run_en_pipeline(EnSpec("E12"))
    record = result.check("noether-euler-number")
    assert record.status == "flagged"
    assert record.computed == "24"
    assert record.expected == "23"


def test_blow_up_of_elliptic_model_strict_transforms():
    # blowing up a point on the half-fibre away from the bisection:
    # the bisection pulls back untouched and the strict half-fibre drops to -1
    from fractions import Fraction

    from unimodal.lattice import DivisorClass, blow_up

    surface = run_en_pipeline(EnSpec("E12")).models[3]
    blown = blow_up(surface, {"F": 1}, exceptional="G2")

    def lift(d):
        return DivisorClass(blown.lattice, d.coeffs + (Fraction(0),))

    g2 = blown.basis_class("G2")
    assert blown.curve_class("E1") == lift(surface.curve_class("E1"))
    assert blown.curve_class("F") == lift(surface.curve_class("F")) - g2
    assert blown.intersect(blown.curve_class("F"), blown.curve_class("F")) == -1


def test_en_second_fibers_recognized():
    for sing, variant in (
        ("E13", "I2"),
        ("E13", "I3"),
        ("E13", "III"),
        ("E13", "IV"),
        ("E14", "I3"),
        ("E14", "I4"),
    ):
        result = run_en_pipeline(EnSpec(sing, fiber_variant=variant))
        assert result.check("second-fiber-type").computed == variant
        assert result.check("second-fiber-type").status == "pass"


def test_en_multiple_fiber_follows_profile():
    assert run_en_pipeline(EnSpec("E12", profile=6)).check("multiple-fiber-type").computed == "I0"
    assert run_en_pipeline(EnSpec("E12", profile=7)).check("multiple-fiber-type").computed == "I1"


def test_en_multiple_fiber_carries_the_catalog_marker(monkeypatch):
    # F is the catalog's T237 curve: with a cusp in place of its node the
    # multiple fibre read off the surface is II, and the record fails
    def cusped(label):
        entry = catalog_entry(label)
        if label != "T237":
            return entry
        return entry._replace(config=CurveConfiguration((Component("F", -1, 1, "cusp"),)))

    monkeypatch.setattr(pipelines, "catalog_entry", cusped)
    record = run_en_pipeline(EnSpec("E13", profile=7, fiber_variant="I3")).check("multiple-fiber-type")
    assert (record.computed, record.expected, record.status) == ("II", "I1", "fail")


def test_en_second_fibers_are_the_bundled_scenarios():
    bundled = set()
    for path in corpus_dir().glob("e1[34]-*.scn"):
        payload = load_scenario(path).payload
        bundled.add((payload["singularity"], payload["fiber_variant"]))
    admitted = {(sing, variant) for sing, variants in pipelines._SECOND_FIBERS.items() for variant in variants}
    assert admitted == bundled


def test_route_types_are_the_catalog_degrees():
    degrees = {label: classify_minimally_elliptic(catalog_entry(label).config).degree for label in EXCEPTIONAL_LABELS}
    assert pipelines._EN_TYPES == tuple(label for label, d in degrees.items() if d == 1)
    assert pipelines._ZW_TYPES == tuple(label for label, d in degrees.items() if d == 2)


def test_en_euler_budget_remainder():
    result = run_en_pipeline(EnSpec("E14", profile=7, fiber_variant="I4"))
    assert dict(result.diagnostics)["euler-budget-remainder"] == "19"


def test_en_illegal_variants_rejected():
    with pytest.raises(ValueError):
        run_en_pipeline(EnSpec("E12", fiber_variant="I2"))
    with pytest.raises(ValueError):
        run_en_pipeline(EnSpec("E13", fiber_variant="I4"))
    with pytest.raises(ValueError):
        run_en_pipeline(EnSpec("E13"))
    with pytest.raises(ValueError):
        run_en_pipeline(EnSpec("E12", profile=8))
    with pytest.raises(ValueError):
        run_en_pipeline(EnSpec("Z11"))


def test_en_catalog_mismatch_is_failure_not_exception():
    wrong = CurveConfiguration((Component("E1", -2, 1, "cusp"),))
    result = run_en_pipeline(EnSpec("E12", config=wrong))
    names = {r.name for r in result.failed}
    assert "catalog-match" in names
    assert "exceptional-self-intersections" in names


def test_zw_all_types_end_states():
    for spec_sing in ("Z11", "Z12", "Z13", "W12", "W13"):
        result = run_zw_pipeline(ZwSpec(spec_sing, family_case=1))
        assert result.failed == (), (spec_sing, result.failed)
        assert result.check("pushed-cycle-squared").computed == "2"
        assert result.check("pushed-cycle-genus").computed == "2"
        assert result.check("pushed-cycle-euler-characteristic").computed == "3"
        assert result.check("double-cover-branch-degree").computed == "6"
        assert result.check("contracted-canonical-squared").computed == "1"
        assert result.check("contracted-euler-characteristic").computed == "3"
        assert result.check("contracted-canonical-ample").computed == "ample"


def test_zw_ade_labels():
    assert run_zw_pipeline(ZwSpec("Z11")).check("ade-contraction").computed == "none"
    assert run_zw_pipeline(ZwSpec("W12")).check("ade-contraction").computed == "none"
    assert run_zw_pipeline(ZwSpec("Z12")).check("ade-contraction").computed == "A1"
    assert run_zw_pipeline(ZwSpec("W13")).check("ade-contraction").computed == "A1"
    assert run_zw_pipeline(ZwSpec("Z13")).check("ade-contraction").computed == "A2"


def test_zw_ade_expects_the_branch_sextic_mark():
    # the lattice's rational double point is checked against the A_n mark of
    # the singularity's branch sextic, which every family of it must share
    anchors = {"Z11": "none", "W12": "none", "Z12": "A1", "W13": "A1", "Z13": "A2"}
    for sing, anchor in anchors.items():
        marks = {fam.singular_mark for fam in FAMILIES if fam.singularity == sing}
        assert len(marks) == 1, sing
        (mark,) = marks
        assert ("none" if mark is None else f"A{mark[1]}") == anchor
        record = run_zw_pipeline(ZwSpec(sing, family_case=None)).check("ade-contraction")
        assert (record.expected, record.status) == (anchor, "pass"), sing


def test_zw_family_counts():
    expectations = {
        ("Z11", 1): "18",
        ("Z11", 2): "17",
        ("Z11", 3): "17",
        ("W12", 1): "17",
        ("W12", 2): "16",
        ("W13", 1): "16",
        ("Z12", 1): "17",
        ("Z12", 2): "16",
        ("Z13", 1): "16",
    }
    for (sing, case), value in expectations.items():
        result = run_zw_pipeline(ZwSpec(sing, family_case=case))
        record = result.check("family-orbit-count")
        assert record.computed == value and record.status == "pass", (sing, case)
    flagged = run_zw_pipeline(ZwSpec("Z13", family_case=2))
    record = flagged.check("family-orbit-count")
    assert record.computed == "16" and record.status == "flagged"
    assert dict(flagged.diagnostics)["family-orbit-count-variant"] == "15"
    assert flagged.failed == ()


def test_zw_invalid_inputs():
    with pytest.raises(ValueError):
        run_zw_pipeline(ZwSpec("E12"))
    with pytest.raises(ValueError):
        run_zw_pipeline(ZwSpec("Z11", family_case=9))


def test_standalone_checks():
    hurwitz = run_riemann_hurwitz_check()
    assert hurwitz.failed == ()
    assert len(hurwitz.checks) == 25


def test_double_plane_is_built_once_per_process(monkeypatch):
    # counted calls, no timing: the double plane depends on no input
    original = pipelines.make_p2
    built = []

    def recording():
        built.append(1)
        return original()

    monkeypatch.setattr(pipelines, "make_p2", recording)
    pipelines._double_plane.cache_clear()
    for sing in ("Z11", "W13", "Z11"):
        assert run_zw_pipeline(ZwSpec(sing, family_case=None)).failed == ()
    assert built == [1]


def test_every_record_names_its_claim():
    results = [run_en_pipeline(spec) for spec in all_en_specs()]
    results += [run_zw_pipeline(ZwSpec(s)) for s in ("Z11", "Z12", "Z13", "W12", "W13")]
    for result in results:
        for record in result.checks:
            assert record.anchor, (result.label, record.name)


def test_pipelines_deterministic():
    a = run_en_pipeline(EnSpec("E13", fiber_variant="IV"))
    b = run_en_pipeline(EnSpec("E13", fiber_variant="IV"))
    assert a == b
    c = run_zw_pipeline(ZwSpec("W13"))
    d = run_zw_pipeline(ZwSpec("W13"))
    assert c == d


def test_pipeline_models_replayable():
    result = run_en_pipeline(EnSpec("E14", fiber_variant="I4", profile=7))
    for model in result.models[2:]:
        assert replay(model.provenance) == model
    zw = run_zw_pipeline(ZwSpec("Z13", family_case=None))
    for model in zw.models:
        assert replay(model.provenance) == model


@pytest.mark.parametrize(
    "name,runner",
    [
        ("e12", lambda: run_en_pipeline(EnSpec("E12", profile=6))),
        ("e13", lambda: run_en_pipeline(EnSpec("E13", profile=6, fiber_variant="I2"))),
        ("e14", lambda: run_en_pipeline(EnSpec("E14", profile=6, fiber_variant="I3"))),
        ("z11", lambda: run_zw_pipeline(ZwSpec("Z11", family_case=1))),
        ("z12", lambda: run_zw_pipeline(ZwSpec("Z12", family_case=1))),
        ("z13", lambda: run_zw_pipeline(ZwSpec("Z13", family_case=2))),
        ("w12", lambda: run_zw_pipeline(ZwSpec("W12", family_case=1))),
        ("w13", lambda: run_zw_pipeline(ZwSpec("W13", family_case=1))),
    ],
)
def test_goldens(name, runner):
    golden = json.loads((GOLDENS / f"{name}.json").read_text())
    result = runner()
    computed = {
        "label": result.label,
        "checks": [
            {
                "name": r.name,
                "computed": r.computed,
                "expected": r.expected,
                "status": r.status,
                "flag": r.flag,
            }
            for r in result.checks
        ],
        "diagnostics": {k: v for k, v in result.diagnostics},
    }
    assert computed == golden
