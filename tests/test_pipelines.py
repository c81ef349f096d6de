from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import unimodal.lattice as lattice
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
from unimodal.scenarios import _run_pipeline_payload, corpus_dir, load_scenario, run_corpus, run_scenario
from unimodal.sextics import FAMILIES

from oracles import en_variants

GOLDENS = Path(__file__).parent / "goldens"


def corpus_record(scenario: str, name: str):
    """The report record of one bundled scenario: a computed value as its pin claims it."""
    report = run_scenario(load_scenario(corpus_dir() / f"{scenario}.scn"))
    return next(a for a in report.assertions if a.name == name)


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

    odd = declare_surface(["A"], {"A": {"A": 1}}, {"A": -1}, 1)
    with pytest.raises(ValueError, match=r"no branch class rule for the basis \('A',\)"):
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
    assert corpus_record("e12", "nef-bundle-on-bisection").status == "pass"
    for sing, variant in (("E13", "I2"), ("E14", "I3")):
        result = run_en_pipeline(EnSpec(sing, fiber_variant=variant))
        bisection = result.check("nef-bundle-on-bisection")
        squared = result.check("nef-bundle-squared")
        assert (bisection.computed, squared.computed) == ("2", "6")
        assert result.failed == ()
        for name, stated in (("nef-bundle-on-bisection", "4"), ("nef-bundle-squared", "8")):
            record = corpus_record(f"{sing}-{variant}".lower(), name)
            assert (record.status, record.expected, record.flag) == ("flagged", stated, "nef-bundle-en-values")


def test_en_nef_bundle_chi_diagnostics():
    e12 = run_en_pipeline(EnSpec("E12"))
    diag = {note.name: note.computed for note in e12.notes}
    assert diag["nef-bundle-euler-characteristic"] == "5"
    assert diag["nef-bundle-pushforward-degree-sum"] == "6"


def test_en_noether_flag():
    assert run_en_pipeline(EnSpec("E12")).check("noether-euler-number").computed == "24"
    record = corpus_record("e12", "noether-euler-number")
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


def test_en_multiple_fiber_follows_profile():
    assert run_en_pipeline(EnSpec("E12", profile=6)).check("multiple-fiber-type").computed == "I0"
    assert run_en_pipeline(EnSpec("E12", profile=7)).check("multiple-fiber-type").computed == "I1"


def test_en_multiple_fiber_carries_the_catalog_marker(monkeypatch):
    # F is the catalog's T237 curve: with a cusp in place of its node the
    # multiple fibre read off the surface is II, and the pinned record fails
    def cusped(label):
        entry = catalog_entry(label)
        if label != "T237":
            return entry
        return entry._replace(config=CurveConfiguration((Component("F", -1, 1, "cusp"),)))

    monkeypatch.setattr(pipelines, "catalog_entry", cusped)
    record = corpus_record("e13-i3", "multiple-fiber-type")
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
    assert {note.name: note.computed for note in result.notes}["euler-budget-remainder"] == "19"


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


def test_en_catalog_mismatch_is_failure_not_exception(monkeypatch):
    # the route reads the configuration from the catalog alone: an entry whose
    # E1 is Z11's curve gives failing records, not an exception
    wrong = CurveConfiguration((Component("E1", -2, 1, "cusp"),))

    def patched(label):
        entry = catalog_entry(label)
        return entry._replace(config=wrong) if label == "E12" else entry

    monkeypatch.setattr(pipelines, "catalog_entry", patched)
    result = run_en_pipeline(EnSpec("E12"))
    assert result.check("catalog-match").computed == "Z11"
    assert "exceptional-self-intersections" in {r.name for r in result.failed}
    assert corpus_record("e12", "catalog-match").status == "fail"


def test_e13_i2_and_e14_i3_share_their_cover_inside_a_pass():
    # a model is its provenance, with no label of its singularity, so the two
    # constructions of one cover are one object within a corpus pass
    with lattice.SharedMoves():
        e13 = run_en_pipeline(EnSpec("E13", profile=6, fiber_variant="I2"))
        e14 = run_en_pipeline(EnSpec("E14", profile=6, fiber_variant="I3"))
    assert e13.models[1] is e14.models[1]
    assert replay(e13.models[1].provenance) == e14.models[1]


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


def test_zw_ade_claims_are_the_branch_sextic_mark():
    # the lattice's rational double point is claimed to be the A_n mark of the
    # singularity's branch sextic, which every family of it must share
    anchors = {"Z11": "none", "W12": "none", "Z12": "A1", "W13": "A1", "Z13": "A2"}
    for sing, anchor in anchors.items():
        marks = {fam.singular_mark for fam in FAMILIES if fam.singularity == sing}
        assert len(marks) == 1, sing
        (mark,) = marks
        assert ("none" if mark is None else f"A{mark[1]}") == anchor
        assert run_zw_pipeline(ZwSpec(sing, family_case=None)).check("ade-contraction").computed == anchor
        for fam in FAMILIES:
            if fam.singularity == sing:
                record = corpus_record(fam.family_id, "ade-contraction")
                assert (record.expected, record.status) == (anchor, "pass"), fam.family_id


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
        assert result.check("family-orbit-count").computed == value, (sing, case)
    flagged = run_zw_pipeline(ZwSpec("Z13", family_case=2))
    assert flagged.check("family-orbit-count").computed == "16"
    assert corpus_record("z13-case2", "family-orbit-count").status == "flagged"
    assert {note.name: note.computed for note in flagged.notes}["family-orbit-count-variant"] == "15"
    assert flagged.failed == ()


def test_zw_invalid_inputs():
    with pytest.raises(ValueError):
        run_zw_pipeline(ZwSpec("E12"))
    with pytest.raises(ValueError):
        run_zw_pipeline(ZwSpec("Z11", family_case=9))


def test_standalone_checks():
    # the values the paper states for every K3-route type, with the A_n mark
    # of its branch sextic
    hurwitz = run_riemann_hurwitz_check()
    assert hurwitz.checks == ()
    assert len(hurwitz.notes) == 25
    marks = {"z11": "none", "w12": "none", "z12": "A1", "w13": "A1", "z13": "A2"}
    computed = {note.name: note.computed for note in hurwitz.notes}
    for sing, mark in marks.items():
        assert computed[f"{sing}-pushed-cycle-squared"] == "2"
        assert computed[f"{sing}-pushed-cycle-genus"] == "2"
        assert computed[f"{sing}-pushed-cycle-euler-characteristic"] == "3"
        assert computed[f"{sing}-double-cover-branch-degree"] == "6"
        assert computed[f"{sing}-ade-contraction"] == mark


def test_double_plane_is_built_once_per_pass(monkeypatch):
    # counted runs of the plane's construction, no timing: the double plane
    # depends on no input, so a corpus pass builds it once and the next pass again
    share = lattice._share
    built = []

    def recording(provenance, result):  # every computed move ends in _share
        if provenance[-1].op == "p2":
            built.append(1)
        return share(provenance, result)

    monkeypatch.setattr(lattice, "_share", recording)
    assert run_corpus().exit_code == 0
    assert built == [1]
    assert run_corpus().exit_code == 0
    assert built == [1, 1]


def test_every_record_names_its_claim():
    results = [run_en_pipeline(spec) for spec in all_en_specs()]
    results += [run_zw_pipeline(ZwSpec(s)) for s in ("Z11", "Z12", "Z13", "W12", "W13")]
    for result in results:
        for record in result.checks:
            assert record.anchor, (result.label, record.name)
        for note in result.notes:
            assert note.anchor, (result.label, note.name)


def test_every_pipeline_reports_each_record_name_once():
    # run_scenario keys the records by name, so a second record of one name would hide the first
    results = [
        run_en_pipeline(EnSpec(sing, profile, variant, germ_checks))
        for sing in ("E12", "E13", "E14")
        for variant in en_variants(sing)
        for profile in (6, 7)
        for germ_checks in (True, False)
    ]
    results += [run_zw_pipeline(ZwSpec(fam.singularity, fam.case)) for fam in FAMILIES]
    results += [run_zw_pipeline(ZwSpec(sing, None)) for sing in ("Z11", "Z12", "Z13", "W12", "W13")]
    bundled = [load_scenario(path) for path in sorted(corpus_dir().glob("*.scn"))]
    results += [_run_pipeline_payload(s.payload) for s in bundled if s.kind == "pipeline"]
    assert len(results) == 28 + 10 + 5 + 17
    for result in results:
        names = [r.name for r in result.checks + result.notes]
        assert len(names) == len(set(names)), (result.label, sorted(n for n in names if names.count(n) > 1))


def test_no_record_prints_a_float():
    """Every number a check or note prints is an integer or p/q: a float
    from an inexact division would print as "2.0" or "0.5".  All 14 elliptic-
    route combinations without the germ checks, and the five K3-route types
    without a family."""
    results = [
        run_en_pipeline(EnSpec(sing, profile, variant, germ_checks=False))
        for sing in ("E12", "E13", "E14")
        for variant in en_variants(sing)
        for profile in (6, 7)
    ]
    results += [run_zw_pipeline(ZwSpec(sing, family_case=None)) for sing in ("Z11", "Z12", "Z13", "W12", "W13")]
    assert len(results) == 19
    for result in results:
        texts = [text for r in result.checks for text in (r.computed, r.expected)]
        texts += [note.computed for note in result.notes]
        for text in texts:
            assert not re.search(r"\d\.|\.\d|\de[-+]?\d|\b(inf|nan)\b", text), (result.label, text)
            if re.fullmatch(r"[-+\d./e]+", text):
                assert re.fullmatch(r"-?\d+(/\d+)?", text), (result.label, text)


def test_pipelines_deterministic():
    a = run_en_pipeline(EnSpec("E13", fiber_variant="IV"))
    b = run_en_pipeline(EnSpec("E13", fiber_variant="IV"))
    assert a == b
    c = run_zw_pipeline(ZwSpec("W13"))
    d = run_zw_pipeline(ZwSpec("W13"))
    assert c == d


def test_the_elliptic_route_tracks_each_curve_once_under_its_final_name():
    for spec in all_en_specs():
        base, cover, *_ = run_en_pipeline(spec._replace(germ_checks=False)).models
        names = ["E1", "G"] + (["E2"] if spec.fiber_variant else [])
        assert [step.op for step in cover.provenance] == ["hirzebruch"] + ["track"] * len(names) + ["double_cover"]
        assert [c.name for c in base.tracked] == [c.name for c in cover.tracked] == names


def all_specs():
    """Every EnSpec and ZwSpec a payload can name."""
    for sing in ("E12", "E13", "E14"):
        for variant in en_variants(sing):
            for profile in (6, 7):
                for germ_checks in (True, False):
                    yield EnSpec(sing, profile, variant, germ_checks)
    for sing in pipelines._ZW_TYPES:
        yield ZwSpec(sing, family_case=None)
        yield from (ZwSpec(sing, fam.case) for fam in FAMILIES if fam.singularity == sing)


def test_every_pipeline_model_is_built_by_moves_and_replays():
    # both routes build every surface from the plane or a ruled surface: no
    # model is declared, and replaying a model's provenance reproduces it
    specs = list(all_specs())
    assert len(specs) == 28 + 15
    for spec in specs:
        run = run_en_pipeline if isinstance(spec, EnSpec) else run_zw_pipeline
        for model in run(spec).models:
            assert "declare" not in [step.op for step in model.provenance], spec
            assert replay(model.provenance) == model


def contacts_off_the_mark():
    """The catalog contacts of the K3-route types with a component outside
    the mark's resolution: (type, first, second)."""
    for sing in pipelines._ZW_TYPES:
        entry = catalog_entry(sing)
        mark = {name for name, k in zip(entry.config.names, entry.blow_ups) if k == 0}
        yield from ((sing, c.first, c.second) for c in entry.config.contacts if not c.pair <= mark)


@pytest.mark.parametrize("sing,first,second", list(contacts_off_the_mark()))
def test_a_k3_route_catalog_contact_off_by_one_fails_the_contact_check(monkeypatch, sing, first, second):
    # the resolution is built from the lines through G and the mark's own
    # configuration, so any other catalog contact is checked against the
    # built surface, not written into it
    entry = catalog_entry(sing)
    contacts = tuple(
        c._replace(mult=c.mult + 1) if (c.first, c.second) == (first, second) else c for c in entry.config.contacts
    )
    mutant = entry._replace(config=CurveConfiguration(entry.config.components, contacts, entry.config.concurrent))
    monkeypatch.setattr(pipelines, "catalog_entry", lambda label: mutant if label == sing else catalog_entry(label))
    result = run_zw_pipeline(ZwSpec(sing, family_case=None))
    assert [r.name for r in result.failed] == ["exceptional-contacts"]


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
        "notes": {note.name: note.computed for note in result.notes},
    }
    assert computed == golden
