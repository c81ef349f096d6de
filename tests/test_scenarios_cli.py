from __future__ import annotations

import copy
import functools
import json
import operator
import random
import shutil
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import unimodal.lattice as lattice
import unimodal.pipelines as pipelines
from unimodal.cli import main
from unimodal.configurations import catalog_entry, config_to_json
from unimodal.lattice import make_p2
from unimodal.pipelines import FLAG_KINDS, CheckRecord, run_riemann_hurwitz_check
from unimodal.scenarios import (
    MAX_CANDIDATE,
    Report,
    ScenarioError,
    ScenarioReport,
    corpus_dir,
    emit_report,
    integral_from_json,
    load_scenario,
    parse_scenario,
    rational_from_json,
    report_for,
    run_corpus,
    run_scenario,
)
from unimodal.sextics import FAMILIES

from oracles import emit_report_by_dumps, parse_report

CORPUS = Path(__file__).parent.parent / "src" / "unimodal" / "corpus"


def scn(kind: str, payload: dict, expected: dict, name: str = "t") -> str:
    return json.dumps(
        {"schema": "1", "kind": kind, "name": name, "payload": payload, "expected": expected}
    )


def test_parse_rejects_bad_input():
    with pytest.raises(ScenarioError):
        parse_scenario("{not json")
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps({"schema": "0", "kind": "pipeline", "name": "x", "payload": {}}))
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps({"schema": "1", "kind": "mystery", "name": "x", "payload": {}}))
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps({"schema": "1", "kind": "pipeline", "payload": {}}))
    with pytest.raises(ScenarioError):
        parse_scenario(
            json.dumps(
                {
                    "schema": "1",
                    "kind": "pipeline",
                    "name": "x",
                    "payload": {},
                    "expected": {"a": {}},
                }
            )
        )


def test_corpus_has_25_scenarios():
    assert len(sorted(CORPUS.glob("*.scn"))) == 25


def test_corpus_clean_with_three_flag_kinds():
    report = run_corpus(CORPUS)
    assert report.count("fail") == 0
    assert report.exit_code == 0
    assert report.flags == ("nef-bundle-en-values", "noether-c2", "z13-case2-count")


def test_corpus_pinned_diagnostics_name_their_claim():
    """A pinned pipeline diagnostic reports the anchor the pipeline gives it,
    not the scenario kind's default."""
    report = run_corpus(CORPUS)
    pinned = {
        (a.name, a.anchor)
        for s in report.scenarios
        for a in s.assertions
        if a.name in ("stabilizer-dim", "affine-parameters", "family-orbit-count-variant")
    }
    assert pinned and all(anchor != "pipeline value" for _, anchor in pinned)
    assert len({anchor for _, anchor in pinned}) == 3


def test_corpus_pass_takes_one_jacobian_rank_per_family_and_normal_forms_once(monkeypatch):
    # counted calls, no timing: one modular rank per branch family and no exact
    # fallback, and the [3,3] normal-form verdicts only in the first pass of a process
    import sys

    import unimodal.pipelines as pipelines
    import unimodal.planecurves as planecurves

    original_rows = planecurves._jacobian_rows
    original_modular = planecurves.modular_rank
    original_exact = planecurves.integer_rank
    original_33 = pipelines.detect_33_point
    jacobian, modular, exact, normal_forms = [], [], [], []

    def recording_rows(*args):
        ncols, rows = original_rows(*args)
        jacobian.append(rows)
        return ncols, rows

    def recording_modular(rows):
        modular.append(rows)
        return original_modular(rows)

    def recording_exact(rows):
        if any(rows is built for built in jacobian):  # not the ranks of local algebras
            exact.append(rows)
        return original_exact(rows)

    def recording_33(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_normal_form_verdicts":
            normal_forms.append(args)
        return original_33(*args, **kwargs)

    monkeypatch.setattr(planecurves, "_jacobian_rows", recording_rows)
    monkeypatch.setattr(planecurves, "modular_rank", recording_modular)
    monkeypatch.setattr(planecurves, "integer_rank", recording_exact)
    monkeypatch.setattr(pipelines, "detect_33_point", recording_33)
    pipelines._normal_form_verdicts.cache_clear()
    # three shapes and one decomposition for each of the profiles 6 and 7
    for expected_normal_forms in (8, 0):
        for log in (jacobian, modular, exact, normal_forms):
            log.clear()
        report = run_corpus(CORPUS)
        assert report.exit_code == 0
        assert len(jacobian) == len(modular) == 10 and exact == []
        assert len(normal_forms) == expected_normal_forms


def test_corpus_pass_computes_the_section_coefficient_once_per_genus(monkeypatch):
    # counted calls, no timing: the Hirzebruch base of `section_class_coefficient`
    # is built once per bisection genus in the first pass of a process, never after
    import sys

    import unimodal.pipelines as pipelines

    original = pipelines.make_hirzebruch
    bases = []

    def recording(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "section_class_coefficient":
            bases.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipelines, "make_hirzebruch", recording)
    pipelines.section_class_coefficient.cache_clear()
    assert run_corpus(CORPUS).exit_code == 0
    assert 1 <= len(bases) <= 2
    bases.clear()
    assert run_corpus(CORPUS).exit_code == 0
    assert bases == []


def test_corpus_pass_runs_each_family_once_in_its_pipeline(monkeypatch):
    # counted calls, no timing: each branch family is verified in one place,
    # its K3-route pipeline scenario, and no scenario reaches the standalone
    # Riemann-Hurwitz check
    import unimodal.pipelines as pipelines
    import unimodal.scenarios as scenarios

    verified, zw_runs, hurwitz = [], [], []
    original_verify, original_zw = pipelines.verify_family, scenarios.run_zw_pipeline

    def recording_verify(fam):
        verified.append(fam.family_id)
        return original_verify(fam)

    def recording_zw(spec):
        zw_runs.append(spec)
        return original_zw(spec)

    monkeypatch.setattr(pipelines, "verify_family", recording_verify)
    monkeypatch.setattr(scenarios, "run_zw_pipeline", recording_zw)
    monkeypatch.setattr(pipelines, "run_riemann_hurwitz_check", lambda: hurwitz.append(1))
    assert run_corpus(CORPUS).exit_code == 0
    assert sorted(verified) == sorted(fam.family_id for fam in FAMILIES)
    assert len(zw_runs) == 10
    assert hurwitz == []


def test_corpus_zw_scenarios_restate_the_riemann_hurwitz_check():
    # its 25 records, z11- etc. dropped, are computed by every pipeline of the type
    report = {s.name: s for s in run_corpus(CORPUS).scenarios}
    by_type = {}
    for path in sorted(CORPUS.glob("*.scn")):
        scenario = load_scenario(path)
        if scenario.payload.get("construction") == "zw":
            by_type.setdefault(scenario.payload["singularity"].lower(), []).append(report[scenario.name])
    assert sorted(by_type) == ["w12", "w13", "z11", "z12", "z13"]
    records = run_riemann_hurwitz_check().checks
    assert len(records) == 25
    for record in records:
        prefix, name = record.name.split("-", 1)
        for scenario in by_type[prefix]:
            (pinned,) = [a for a in scenario.assertions if a.name == name]
            assert pinned.computed == record.computed, (scenario.name, name)


def test_every_en_scenario_pins_the_section_class_coefficient():
    genera = {}
    for path in sorted(CORPUS.glob("*.scn")):
        scenario = load_scenario(path)
        if scenario.payload.get("construction") != "en":
            continue
        assert dict(scenario.expected)["section-class-coefficient"].value == "0", scenario.name
        result = run_scenario(scenario)
        (record,) = [a for a in result.assertions if a.name == "section-class-coefficient"]
        assert (record.computed, record.status) == ("0", "pass"), scenario.name
        singularity = scenario.payload["singularity"]
        genera[singularity] = catalog_entry(singularity).config.component("E1").pa
    # both bisection genera, so both ruled bases, occur
    assert genera == {"E12": 1, "E13": 0, "E14": 0}


# text the report must escape: non-ASCII, quotes, backslashes, controls, lone surrogates
_TEXT = st.lists(
    st.one_of(
        st.text(max_size=3),
        st.sampled_from(["λ", "−", "Q̄", '"', "\\", "\x00", "\n", "\x1f", "\x7f", "\ud800", "\udfff", "😀"]),
    ),
    max_size=4,
).map("".join)
_RECORDS = st.builds(
    CheckRecord,
    _TEXT,
    _TEXT,
    _TEXT,
    st.one_of(st.sampled_from(["pass", "fail", "flagged"]), _TEXT),
    _TEXT,
    st.one_of(st.none(), st.sampled_from(FLAG_KINDS), _TEXT),
)
_REPORTS = st.builds(
    Report,
    _TEXT,
    _TEXT,
    st.lists(
        st.builds(ScenarioReport, _TEXT, _TEXT, st.lists(_RECORDS, max_size=4).map(tuple)), max_size=3
    ).map(tuple),
)


@given(_REPORTS)
@example(Report("unimodal", "1", ()))
@example(Report("unimodal", "1", (ScenarioReport("empty", "pipeline", ()),)))
@example(Report("e", "1", (ScenarioReport("s", "k", (CheckRecord("a", "1", "1", "pass", "x"),)),)))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_report_writer_agrees_with_json_dumps(report):
    assert emit_report(report) == emit_report_by_dumps(report)


def test_corpus_deterministic(capsys):
    first = emit_report(run_corpus(CORPUS))
    again = emit_report(run_corpus(CORPUS))
    assert main(["corpus", "--dir", str(CORPUS), "--report=json"]) == 0
    assert first == again == capsys.readouterr().out


@pytest.mark.parametrize("directory", ["bundled", "repeated-constructions"])
def test_a_corpus_pass_reports_each_scenario_as_it_runs_alone(tmp_path, directory):
    # inside a pass the lattice moves are shared between scenarios; outside, in
    # report_for, every scenario builds its own
    if directory == "bundled":
        path = CORPUS
    else:
        path = tmp_path
        for stem in ("e13-i2", "e13-iii", "z11-case1", "z11-case2", "z11-case3"):
            shutil.copy(CORPUS / f"{stem}.scn", path)
        data = json.loads((CORPUS / "e13-i2.scn").read_text())
        (path / "e13-i2-copy.scn").write_text(json.dumps(dict(data, name="e13-i2-copy")))
    alone = tuple(report_for(load_scenario(p)).scenarios[0] for p in sorted(path.glob("*.scn")))
    assert run_corpus(path).scenarios == alone


def test_a_corpus_pass_declares_each_k3_route_resolution_once(monkeypatch):
    # counted calls, no timing: the ten K3-route scenarios of the corpus have
    # five singularities, and the next pass builds all five again
    calls, runs = [], []
    move, share = pipelines.declare_surface, lattice._share

    def calling(*args):
        calls.append(args)
        return move(*args)

    def running(provenance, result):  # every computed move ends in _share
        if provenance[-1].op == "declare":
            runs.append(provenance)
        return share(provenance, result)

    monkeypatch.setattr(pipelines, "declare_surface", calling)
    monkeypatch.setattr(lattice, "_share", running)
    run_corpus(CORPUS)
    assert len(calls) == 10
    assert len(runs) == len(set(runs)) == 5
    run_corpus(CORPUS)
    assert len(calls) == 20 and len(runs) == 10


def test_a_corpus_pass_that_fails_leaves_no_moves_shared(tmp_path):
    shutil.copy(CORPUS / "z11-case1.scn", tmp_path / "a.scn")
    (tmp_path / "b.scn").write_text(scn("plane-check", {"checks": [{"name": "x", "op": "mystery"}]}, {}))
    with pytest.raises(ScenarioError, match="mystery"):
        run_corpus(tmp_path)
    assert make_p2() is not make_p2()


def test_corpus_jobs_is_a_usage_error(capsys):
    # the corpus runs serially; the option that was accepted and ignored is gone
    with pytest.raises(SystemExit) as stopped:
        main(["corpus", "--jobs=4"])
    assert stopped.value.code == 2
    assert "unrecognized arguments: --jobs=4" in capsys.readouterr().err


def test_report_round_trip():
    report = run_corpus(CORPUS)
    assert parse_report(emit_report(report)) == report


def test_e12_scenario_counts():
    scenario = load_scenario(CORPUS / "e12.scn")
    result = run_scenario(scenario)
    assert result.count("pass") == 15
    assert result.count("fail") == 0
    assert result.count("flagged") == 1  # the Euler-number discrepancy surfaces
    assert result.exit_code == 0


def test_scenario_missing_assertion_fails():
    scenario = parse_scenario(
        scn(
            "pipeline",
            dict(_ZW, family_case=None),
            {"no-such-value": {"value": "1"}},
        )
    )
    result = run_scenario(scenario)
    assert result.exit_code == 1
    assert result.assertions[0].computed == "missing"


def test_scenario_value_regression_fails():
    scenario = parse_scenario(
        scn(
            "pipeline",
            dict(_ZW, family_case=None),
            {"pushed-cycle-squared": {"value": "7"}},
        )
    )
    assert run_scenario(scenario).exit_code == 1


def test_config_check_scenario():
    scenario = parse_scenario(
        scn(
            "config-check",
            {
                "config": {
                    "components": [
                        {"name": "E1", "self_int": "-3", "pa": "0", "sing": None},
                        {"name": "E2", "self_int": "-2", "pa": "0", "sing": None},
                    ],
                    "contacts": [{"pair": ["E1", "E2"], "mult": "2", "tangential": True}],
                    "concurrent": [],
                },
                "derived_from": {"fiber": "III", "blow_ups": [1, 0]},
            },
            {
                "negative-definite": {"value": "true"},
                "cycle-self-intersection": {"value": "-1"},
                "cycle-canonical-degree": {"value": "1"},
                "classification": {"value": "minimally-elliptic-degree-1"},
                "catalog-match": {"value": "E13"},
                "blown-up-fiber-match": {"value": "match"},
            },
        )
    )
    result = run_scenario(scenario)
    assert result.exit_code == 0
    assert result.count("pass") == 6


def test_plane_check_scenario():
    scenario = parse_scenario(
        scn(
            "plane-check",
            {
                "checks": [
                    {
                        "name": "cusp-at-origin",
                        "op": "an-type",
                        "germ": {"terms": {"2,0": "1", "0,3": "1"}},
                        "candidate": 2,
                    },
                    {
                        "name": "triple-with-triple",
                        "op": "detect-33",
                        "germ": {"terms": {"3,0": "1", "2,2": "1", "0,6": "1"}},
                    },
                    {
                        "name": "two-point-stabilizer",
                        "op": "stabilizer-dim",
                        "points": [["1", "0", "0"], ["1", "1", "0"]],
                    },
                    {
                        "name": "a4-tree",
                        "op": "mult-tree",
                        "germ": {"terms": {"2,0": "1", "0,5": "1"}},
                    },
                    {
                        "name": "sextic-restriction",
                        "op": "restrict",
                        "form": {"degree": 6, "coeffs": {"0,6,0": "1"}},
                        "line": {"degree": 1, "coeffs": {"0,0,1": "1"}},
                        "points": [["1", "0", "0"]],
                    },
                ]
            },
            {
                "cusp-at-origin": {"value": "A2"},
                "triple-with-triple": {"value": "true;6"},
                "two-point-stabilizer": {"value": "4"},
                "a4-tree": {"value": "2(2(1))"},
                "sextic-restriction": {"value": "orders=6;residual=0"},
            },
        )
    )
    result = run_scenario(scenario)
    assert result.exit_code == 0, [a for a in result.assertions if a.status != "pass"]


@pytest.mark.parametrize("candidate", ["0", "-1", '"x"', "true", "2.5", "10" * 20, "9" * 5000])
def test_an_type_candidate_out_of_range_is_exit_2(tmp_path, capsys, candidate):
    check = {"name": "a1", "op": "an-type", "germ": {"terms": {"2,0": "1", "0,2": "1"}}}
    text = scn("plane-check", {"checks": [dict(check, candidate="CANDIDATE")]}, {})
    path = tmp_path / "candidate.scn"
    path.write_text(text.replace('"CANDIDATE"', candidate))
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_an_type_candidate_bounds_are_accepted():
    for candidate in (1, MAX_CANDIDATE):
        check = {"name": "a1", "op": "an-type", "germ": {"terms": {"2,0": "1", "0,2": "1"}}}
        text = scn("plane-check", {"checks": [dict(check, candidate=candidate)]}, {"a1": {"value": "A1"}})
        assert run_scenario(parse_scenario(text)).exit_code == 0


class _NoSympy:
    def __getattr__(self, attr):
        raise AssertionError(f"sympy.{attr} reached on an input the parser must refuse")


@pytest.mark.parametrize(
    "germ_terms",
    [
        {"2,0": "1", "0,301": "-1"},  # a germ of degree 301
        {"2,0": "1e100000", "0,2": "1"},
        {"-1,2": "1", "0,2": "1"},
        {"2,0": "1", "0,2": "1/" + str(2**64)},  # a denominator past MAX_COEFF_BITS
        {"2,0": "1", "0,17": "1"},  # one degree past MAX_DEGREE
        {"2,0,0": "1"},
        {"2,0": "1/0", "0,2": "1"},
    ],
)
def test_oversized_or_malformed_germ_is_exit_2(tmp_path, capsys, monkeypatch, germ_terms):
    import unimodal.planecurves as planecurves

    monkeypatch.setattr(planecurves, "sympy", _NoSympy())
    check = {"name": "a", "op": "an-type", "germ": {"terms": germ_terms}, "candidate": 2}
    path = tmp_path / "germ.scn"
    path.write_text(scn("plane-check", {"checks": [check]}, {}))
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "form",
    [
        {"degree": 301, "coeffs": {"301,0,0": "1"}},
        {"degree": 2, "coeffs": {"-1,3,0": "1"}},
        {"degree": 2, "coeffs": {"2,0,0": "1e100000"}},
        {"degree": 2, "coeffs": ["2,0,0"]},
        {"degree": 10, "coeffs": {"1_0,0,0": "1"}},  # int() read the exponent "1_0" as 10
    ],
)
def test_oversized_or_malformed_form_is_exit_2(tmp_path, capsys, form):
    line = {"degree": 1, "coeffs": {"0,0,1": "1"}}
    check = {"name": "r", "op": "restrict", "form": form, "line": line}
    path = tmp_path / "form.scn"
    path.write_text(scn("plane-check", {"checks": [check]}, {}))
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("point", [["0", "1", "0"], ["1", "0", "0"]])
def test_repeated_marked_point_is_exit_2(tmp_path, capsys, point):
    form = {"degree": 4, "coeffs": {"1,3,0": "1", "3,1,0": "1"}}
    line = {"degree": 1, "coeffs": {"0,0,1": "1"}}
    check = {"name": "r", "op": "restrict", "form": form, "line": line, "points": [point, point]}
    path = tmp_path / "repeated.scn"
    path.write_text(scn("plane-check", {"checks": [check]}, {}))
    assert main(["verify", str(path)]) == 2
    assert "marked points must be distinct" in capsys.readouterr().err


def test_stabilizer_of_the_zero_line_is_exit_2(tmp_path, capsys):
    check = {"name": "s", "op": "stabilizer-dim", "points": [["1", "0", "0"]], "lines": [["0", "0", "0"]]}
    path = tmp_path / "zero-line.scn"
    path.write_text(scn("plane-check", {"checks": [check]}, {"s": {"value": "6"}}))
    assert main(["verify", str(path)]) == 2
    assert "degenerate line" in capsys.readouterr().err


def test_input_bounds_admit_their_limits():
    from unimodal.scenarios import MAX_COEFF_BITS, MAX_DEGREE

    big = str(2**MAX_COEFF_BITS - 1)
    terms = {"2,0": big, f"0,{MAX_DEGREE}": "-1/" + big}
    check = {"name": "a", "op": "an-type", "germ": {"terms": terms}, "candidate": 2}
    text = scn("plane-check", {"checks": [check]}, {"a": {"value": f"A{MAX_DEGREE - 1}"}})
    assert run_scenario(parse_scenario(text)).exit_code == 0
    form = {"degree": 2, "coeffs": {"2,0,0": "3e-5", "0,1,1": "-2.5"}}
    check = {"name": "r", "op": "restrict", "form": form, "line": {"degree": 1, "coeffs": {"1,0,0": "1"}}}
    text = scn("plane-check", {"checks": [check]}, {"r": {"value": "orders=;residual=2"}})
    assert run_scenario(parse_scenario(text)).exit_code == 0


def test_zw_scenario_flag():
    scenario = load_scenario(CORPUS / "z13-case2.scn")
    result = run_scenario(scenario)
    assert result.exit_code == 0
    flagged = [a for a in result.assertions if a.status == "flagged"]
    assert [a.name for a in flagged] == ["family-orbit-count"]
    assert flagged[0].computed == "16"
    assert flagged[0].expected == "15"


def test_cli_verify_exit_codes(tmp_path, capsys):
    good = main(["verify", str(CORPUS / "e12.scn")])
    assert good == 0
    capsys.readouterr()

    data = json.loads((CORPUS / "e12.scn").read_text())
    data["expected"]["exceptional-self-intersections"]["value"] = "-2"
    bad = tmp_path / "bad.scn"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL exceptional-self-intersections" in out

    trunc = tmp_path / "trunc.scn"
    trunc.write_text((CORPUS / "e12.scn").read_text()[:50])
    assert main(["verify", str(trunc)]) == 2

    missing = tmp_path / "missing.scn"
    assert main(["verify", str(missing)]) == 2


def test_cli_corpus_json(capsys):
    assert main(["corpus", "--report=json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["scenarios"] == 25
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["flags"] == ["nef-bundle-en-values", "noether-c2", "z13-case2-count"]


def test_cli_corpus_env_override(tmp_path, monkeypatch, capsys):
    # UNIMODAL_CORPUS is no setting: only --dir overrides the corpus directory
    sub = tmp_path / "mini"
    sub.mkdir()
    (sub / "e12.scn").write_text((CORPUS / "e12.scn").read_text())
    monkeypatch.setenv("UNIMODAL_CORPUS", str(sub))
    assert corpus_dir() != sub
    assert main(["corpus", "--report=json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["scenarios"] == 25


def test_cli_corpus_dir_flag(tmp_path, capsys):
    sub = tmp_path / "two"
    sub.mkdir()
    for name in ("e12.scn", "w12-case2.scn"):
        (sub / name).write_text((CORPUS / name).read_text())
    assert main(["corpus", "--dir", str(sub), "--report=json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["scenarios"] == 2


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "E12" in out and "W13" in out and "A8" in out
    assert main(["catalog", "--report=json"]) == 0
    data = json.loads(capsys.readouterr().out)
    labels = [entry["label"] for entry in data]
    assert labels[:8] == ["E12", "E13", "E14", "Z11", "Z12", "Z13", "W12", "W13"]
    for entry in data:
        assert entry["recomputed"]["self_int"] == entry["self_int"]
        assert entry["recomputed"]["canonical_degree"] == entry["canonical_degree"]


def test_cli_dims(capsys):
    assert main(["dims"]) == 0
    out = capsys.readouterr().out
    assert "z13-case2" in out and "variant" in out
    assert main(["dims", "--report=json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 10
    flagged = [r for r in rows if r["family"] == "z13-case2"][0]
    assert flagged["computed"] == "16" and flagged["variant"] == "15"


def test_scenario_semantic_payload_error_is_exit_2(tmp_path):
    path = tmp_path / "illegal.scn"
    for text in (
        scn("pipeline", {"construction": "en", "singularity": "E12", "fiber_variant": "I2"}, {}),
        # the retired standalone checks and kind
        scn("pipeline", {"construction": "section-class"}, {}),
        scn("pipeline", {"construction": "riemann-hurwitz"}, {}),
        scn("dims-check", {"family": "z11-case2"}, {}),
    ):
        path.write_text(text)
        assert main(["verify", str(path)]) == 2


_EN = {"construction": "en", "singularity": "E12", "germ_checks": False}
_ZW = {"construction": "zw", "singularity": "Z11"}


@pytest.mark.parametrize(
    "payload",
    [
        dict(_EN, profile=6.9),
        dict(_EN, profile=True),
        dict(_EN, profile="6"),
        dict(_EN, germ_checks="false"),
        dict(_EN, germ_checks=0),
        dict(_EN, singularity=["E12"]),
        {key: value for key, value in _EN.items() if key != "singularity"},
        dict(_EN, singularity="E13", fiber_variant=2),
        dict(_ZW, family_case=True),
        dict(_ZW, family_case=1.0),
        dict(_ZW, family_case="1"),
        dict(_ZW, singularity=11),
    ],
    ids=[
        "profile-float", "profile-bool", "profile-string", "germ-checks-string", "germ-checks-int",
        "singularity-list", "singularity-missing", "fiber-variant-int", "family-case-bool",
        "family-case-float", "family-case-string", "singularity-int",
    ],
)
def test_pipeline_payload_scalars_of_the_wrong_json_type_are_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "typed.scn"
    path.write_text(scn("pipeline", payload, {}))
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [dict(_EN, profile=7), dict(_EN, singularity="E13", fiber_variant="I2"), dict(_ZW, family_case=None)],
    ids=["profile-7", "fiber-variant", "family-case-null"],
)
def test_pipeline_payload_scalars_of_the_right_json_type_run(tmp_path, payload):
    path = tmp_path / "typed.scn"
    path.write_text(scn("pipeline", payload, {}))
    assert main(["verify", str(path)]) == 0


def _renamed(data: dict, old: str, new: str) -> dict:
    return {new if key == old else key: value for key, value in data.items()}


def _with_payload(stem: str, **changes) -> dict:
    data = json.loads((CORPUS / f"{stem}.scn").read_text())
    return dict(data, payload=dict(data["payload"], **changes))


_CHECK_E13 = json.loads((CORPUS / "catalog-e13.scn").read_text())
_GERM_A1 = {"terms": {"2,0": "1", "0,2": "1"}}
_LINE_X = {"degree": 1, "coeffs": {"1,0,0": "1"}}


def _plane(check: dict, pins: dict | None = None) -> dict:
    return json.loads(scn("plane-check", {"checks": [check]}, pins or {}))


@pytest.mark.parametrize(
    "data, message",
    [
        # the retired key, even with the catalog's own configuration
        (_with_payload("e12", config=config_to_json(catalog_entry("E12").config)), "unknown key 'config'"),
        (_with_payload("e12", profle=7), "unknown key 'profle'"),
        (_with_payload("z11-case1", profile=6), "unknown key 'profile'"),
        (_with_payload("e13-i2", family_case=1), "unknown key 'family_case'"),
        (_renamed(json.loads((CORPUS / "e12.scn").read_text()), "expected", "expect"), "unknown key 'expect'"),
        (
            dict(_CHECK_E13, payload=_renamed(_CHECK_E13["payload"], "derived_from", "derived-from")),
            "unknown key 'derived-from'",
        ),
        (json.loads(scn("plane-check", {"checks": [], "check": []}, {})), "unknown key 'check'"),
        # read as p_a 0, so catalog-match gave none where "pa" gives T236
        (
            json.loads(scn(
                "config-check", {"config": {"components": [{"name": "F", "self_int": "-1", "genus": "1"}]}},
                {"catalog-match": {"value": "T236"}},
            )),
            "unknown key 'genus'",
        ),
        # read as transverse, so kodaira-fiber gave I2 where "tangential" gives III
        (
            json.loads(scn("config-check", {"config": {
                "components": [{"name": "E1", "self_int": "-2"}, {"name": "E2", "self_int": "-2"}],
                "contacts": [{"pair": ["E1", "E2"], "mult": "2", "tangent": True}],
            }}, {"kodaira-fiber": {"value": "III"}})),
            "unknown key 'tangent'",
        ),
        (
            _plane({"name": "r", "op": "restrict", "form": {"degree": 2, "coefs": {"2,0,0": "1"}}, "line": _LINE_X}),
            "unknown key 'coefs'",
        ),
        (_plane({"name": "t", "op": "mult-tree", "germ": {"term": {"2,0": "1", "0,3": "1"}}}), "unknown key 'term'"),
        (_plane({"name": "a", "op": "an-type", "germ": _GERM_A1, "candidat": 1}), "unknown key 'candidat'"),
        (
            _plane({"name": "d", "op": "detect-33", "germ": {"terms": {"3,0": "1", "0,3": "1"}},
                    "decompostion": [_GERM_A1, _GERM_A1]}),
            "unknown key 'decompostion'",
        ),
        (
            dict(_CHECK_E13, payload=dict(_CHECK_E13["payload"], derived_from={"fibre": "III", "blow_ups": [1, 0]})),
            "unknown key 'fibre'",
        ),
        (
            _plane({"name": "s", "op": "stabilizer-dim"}, {"s": {"value": "8", "flg": "noether-c2"}}),
            "unknown key 'flg'",
        ),
        # a germ silently won over a form and a point
        (
            _plane({"name": "a", "op": "an-type", "germ": _GERM_A1, "form": {"degree": 2, "coeffs": {"2,0,0": "1"}},
                    "point": ["0", "0", "1"]}),
            "takes a 'germ', or a 'form' and a 'point', and not both",
        ),
        # a traceback and exit 1
        (b"\xff\xfe" + (CORPUS / "e12.scn").read_bytes(), "not UTF-8 at byte 0"),
        # the last copy was read: profile 6 ran, and only the pins failed
        (
            (CORPUS / "e13-i3.scn").read_text().replace('"profile": 7', '"profile": 7, "profile": 6'),
            "the key 'profile' is written twice",
        ),
        (_plane({"name": "t", "op": "mult-tree", "germ": {"terms": {"2,0": "1", "02,0": "1"}}}), "'02,0' twice"),
    ],
    ids=[
        "pipeline-config", "profle", "zw-profile", "en-family-case", "expect", "derived-from", "plane-check",
        "component-genus", "contact-tangent", "form-coefs", "germ-term", "an-type-candidat",
        "detect-33-decompostion", "derived-from-fibre", "pin-flg", "an-type-germ-and-form", "not-utf-8",
        "key-twice", "monomial-twice",
    ],
)
def test_an_unknown_key_is_exit_2_and_named(tmp_path, capsys, data, message):
    # a misspelt, retired, duplicated or unreadable key is never dropped silently
    path = tmp_path / "unknown.scn"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data if isinstance(data, str) else json.dumps(data))
    assert main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


# Every key each object of a scenario file requires, by what the object is (`_what`).
_REQUIRED_KEYS = {
    "scenario": ("schema", "kind", "name", "payload"),
    "pin": ("value",),
    "en": ("construction", "singularity"),
    "zw": ("construction", "singularity"),
    "config-check": ("config",),
    "plane-check": (),
    "derived_from": ("fiber", "blow_ups"),
    "config": (),
    "component": ("name", "self_int"),
    "contact": ("pair", "mult"),
    "restrict": ("name", "op", "form", "line"),
    "an-type": ("name", "op"),
    "detect-33": ("name", "op", "germ"),
    "mult-tree": ("name", "op", "germ"),
    "stabilizer-dim": ("name", "op"),
    "form": ("degree",),
    "germ": (),
}


def _what(path: tuple, obj: dict, doc: dict) -> str | None:
    """What the object at ``path`` of a scenario is; None for a map whose keys are data."""
    parent, last = (None, None, *path)[-2:]
    if not path:
        return "scenario"
    if path[0] == "expected":
        return "pin" if len(path) == 2 else None
    if path == ("payload",):
        return obj.get("construction") if doc["kind"] == "pipeline" else doc["kind"]
    if last in ("coeffs", "terms"):
        return None
    if parent == "checks":
        return obj["op"]
    if last in ("form", "line"):
        return "form"
    if last == "germ" or parent == "decomposition":
        return "germ"
    return {"components": "component", "contacts": "contact"}.get(parent, last)


def _objects(value, path: tuple = ()):
    """(path, object) for every JSON object in ``value``."""
    if isinstance(value, dict):
        yield path, value
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _objects(child, (*path, key))


# One check of every op, with every key its op takes.
_EVERY_PLANE_CHECK = json.loads(scn("plane-check", {"checks": [
    {"name": "r", "op": "restrict", "form": {"degree": 2, "coeffs": {"0,1,1": "1"}}, "line": _LINE_X,
     "points": [["0", "1", "0"]]},
    {"name": "a", "op": "an-type", "germ": _GERM_A1, "candidate": 2},
    {"name": "f", "op": "an-type", "form": {"degree": 2, "coeffs": {"2,0,0": "1", "0,2,0": "1"}},
     "point": ["0", "0", "1"], "candidate": 2},
    {"name": "d", "op": "detect-33", "germ": {"terms": {"3,0": "1", "1,4": "-1", "2,2": "-2", "0,6": "2"}},
     "decomposition": [{"terms": {"2,0": "1", "0,4": "-1"}}, {"terms": {"1,0": "1", "0,2": "-2"}}]},
    {"name": "t", "op": "mult-tree", "germ": {"terms": {"2,0": "1", "0,5": "1"}}},
    {"name": "s", "op": "stabilizer-dim", "points": [["1", "0", "0"]], "lines": [["0", "0", "1"]]},
]}, {}))


@pytest.mark.parametrize(
    "doc",
    [*(json.loads(path.read_text()) for path in sorted(CORPUS.glob("*.scn"))), _EVERY_PLANE_CHECK],
    ids=[*(path.stem for path in sorted(CORPUS.glob("*.scn"))), "every-plane-check"],
)
def test_every_object_of_a_scenario_names_its_keys(tmp_path, capsys, doc):
    # an unknown key and a missing required key are exit 2 and named, in every object but a map of data
    path = tmp_path / "edited.scn"

    def verify(edited: dict) -> tuple[int, str]:
        path.write_text(json.dumps(edited))
        code = main(["verify", str(path)])
        return code, capsys.readouterr().err

    assert verify(doc)[0] == 0
    for where, obj in _objects(doc):
        what = _what(where, obj, doc)
        if what is None:
            continue
        edits = [(key, None) for key in _REQUIRED_KEYS[what]] + [("unknown-key", "1")]
        for key, value in edits:
            edited = copy.deepcopy(doc)
            target = functools.reduce(operator.getitem, where, edited)
            if value is None:
                del target[key]
            else:
                target[key] = value
            code, err = verify(edited)
            assert code == 2 and repr(key) in err, (what, where, key, err)
            assert value is None or f"unknown key {key!r}" in err


def test_report_render_text_mentions_flags():
    report = report_for(load_scenario(CORPUS / "e13-i2.scn"))
    from unimodal.scenarios import render_text

    text = render_text(report)
    assert "FLAG" in text
    assert "nef-bundle-en-values" in text


def test_cli_corpus_json_matches_golden(capsys):
    # the report of the bundled corpus, byte for byte; regenerate with tools/build_goldens.py
    golden = Path(__file__).parent / "goldens" / "corpus-report.json"
    assert main(["corpus", "--report=json"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["dims", "catalog"])
def test_cli_json_matches_golden(capsys, command):
    # regenerate with tools/build_goldens.py
    golden = Path(__file__).parent / "goldens" / f"{command}.json"
    assert main([command, "--report=json"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def _chain(n, head=None):
    components = [{"name": f"A{i}", "self_int": "-2", "pa": "0"} for i in range(n)]
    contacts = [{"pair": [f"A{i}", f"A{i + 1}"], "mult": "1"} for i in range(n - 1)]
    if head is not None:
        components.insert(0, head)
        contacts.append({"pair": [head["name"], "A0"], "mult": "1"})
    return {"components": components, "contacts": contacts}


def _cycle(n):
    components = [{"name": f"E{i}", "self_int": "-3" if i == 0 else "-2"} for i in range(n)]
    contacts = [{"pair": [f"E{i}", f"E{(i + 1) % n}"], "mult": "1"} for i in range(n)]
    return {"components": components, "contacts": contacts}


_CUSP = {"name": "C", "self_int": "-1", "pa": "1", "sing": "cusp"}


@pytest.mark.parametrize(
    "config,expected",
    [
        # every principal minor of an A_40 chain: 2^40 determinants in the semidefinite test
        (_chain(40), {"classification": "rational", "cycle-genus": "0", "kodaira-fiber": "none"}),
        (_chain(40, _CUSP), {"classification": "not-elliptic", "cycle-genus": "1", "kodaira-fiber": "none"}),
        # every connected subset of a 40-cycle in the minimally elliptic classification
        (_cycle(40), {"classification": "minimally-elliptic-degree-1", "kodaira-fiber": "none"}),
        # the largest configuration read
        (_chain(64), {"negative-definite": "true", "cycle-self-intersection": "-2"}),
    ],
    ids=["A40", "cusp-A40", "cycle-40", "A64"],
)
def test_long_configurations_finish_quickly(tmp_path, capsys, config, expected):
    path = tmp_path / "long.scn"
    pins = {name: {"value": value} for name, value in expected.items()}
    path.write_text(scn("config-check", {"config": config}, pins))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - start < 30
    capsys.readouterr()


def _component(**fields):
    return {"components": [dict({"name": "E", "self_int": "-1"}, **fields)]}


@pytest.mark.parametrize(
    "config,derived",
    [
        ([1], None),
        ({"components": [1]}, None),
        ({"components": {"name": "E"}}, None),
        (_component(self_int="1e1000"), None),
        (_component(self_int="1e10000000"), None),
        (_component(self_int="1/2"), None),
        (_component(self_int=2.5), None),
        (_component(self_int=True), None),
        (_component(self_int=str(2**64)), None),
        (_component(pa="-1"), None),
        (_component(name=5), None),
        (_chain(65), None),
        ({"components": [], "contacts": [1]}, None),
        (dict(_chain(2), contacts=[{"pair": "A0A1", "mult": "1"}]), None),
        (dict(_chain(2), contacts=[{"pair": ["A0", "A1"], "mult": "1e99999"}]), None),
        ({"components": [], "concurrent": [1]}, None),
        # a concurrency flag names three distinct components, once
        (dict(_chain(3), concurrent=[["A0", "A1", "A2", "A0"]]), None),
        (dict(_chain(3), concurrent=[["A0", "A1", "A0"]]), None),
        (dict(_chain(3), concurrent=[["A0", "A1", "A2"], ["A2", "A1", "A0"]]), None),
        (_chain(3), {"fiber": "I" + "9" * 12, "blow_ups": [0, 0, 0]}),
        (_chain(3), {"fiber": "I3", "blow_ups": [2.5, 0, 0]}),
        (_chain(3), {"fiber": "I3", "blow_ups": [2**64, 0, 0]}),
        # a fundamental cycle beyond MAX_LAUFER_ITERATIONS steps: Z = (12911, 13816, 19967)
        # after 40 070 steps that add several copies at once
        (
            {
                "components": [
                    {"name": "A", "self_int": "-1339"},
                    {"name": "B", "self_int": "-1490"},
                    {"name": "C", "self_int": "-1020"},
                ],
                "contacts": [
                    {"pair": ["A", "B"], "mult": "283"},
                    {"pair": ["A", "C"], "mult": "670"},
                    {"pair": ["B", "C"], "mult": "848"},
                ],
            },
            None,
        ),
        (_component(pa="-1/0"), None),
    ],
)
def test_malformed_or_oversized_configuration_is_exit_2(tmp_path, capsys, config, derived):
    payload = {"config": config}
    if derived is not None:
        payload["derived_from"] = derived
    path = tmp_path / "config.scn"
    path.write_text(scn("config-check", payload, {}))
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_laufer_step_adds_all_copies_at_once():
    # Z = 20000 E + F: 19 999 single steps on E, one step that adds them at once
    config = {
        "components": [
            {"name": "E", "self_int": "-1"},
            {"name": "F", "self_int": str(-(20000**2 + 1))},
        ],
        "contacts": [{"pair": ["E", "F"], "mult": "20000"}],
    }
    pins = {"negative-definite": {"value": "true"}, "cycle-coefficients": {"value": "20000,1"}}
    result = run_scenario(parse_scenario(scn("config-check", {"config": config}, pins)))
    assert [a.status for a in result.assertions] == ["pass", "pass"]


def test_configuration_bounds_admit_their_limits():
    big = str(-(2**64 - 1))
    text = scn("config-check", {"config": _component(self_int=big)}, {"negative-definite": {"value": "true"}})
    assert run_scenario(parse_scenario(text)).exit_code == 0


# ---------------------------------------------------------------------------
# A pin can confirm a record or fail it; it can never flag or pass on its own
# ---------------------------------------------------------------------------

_CONFIG_E13 = {
    "components": [{"name": "E1", "self_int": "-3"}, {"name": "E2", "self_int": "-2"}],
    "contacts": [{"pair": ["E1", "E2"], "mult": "2", "tangential": True}],
}
_PLANE_CUSP = {"checks": [{"name": "cusp", "op": "an-type", "germ": {"terms": {"2,0": "1", "0,3": "1"}}, "candidate": 2}]}


def _verify_json(tmp_path, capsys, text):
    path = tmp_path / "pinned.scn"
    path.write_text(text)
    code = main(["verify", str(path), "--report=json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if code != 2 else None


# A value that no claim states, of each kind: a config-check value, a plane-check
# value and a pipeline diagnostic, with the anchor of its record.
_PLAIN_VALUES = pytest.mark.parametrize(
    "kind,payload,name,value,anchor",
    [
        ("config-check", {"config": _CONFIG_E13}, "negative-definite", "true", "config-check value"),
        ("plane-check", _PLANE_CUSP, "cusp", "A2", "plane-check value"),
        (
            "pipeline",
            dict(_ZW, family_case=2),
            "stabilizer-dim",
            "4",
            "dimension of the projectivity stabilizer of the marked points and the line",
        ),
    ],
    ids=["config-check", "plane-check", "zw-diagnostic"],
)


@_PLAIN_VALUES
def test_plain_value_pin_confirms_or_fails_its_record(tmp_path, capsys, kind, payload, name, value, anchor):
    wrong = f"{value}0"
    for pin, code, status, expected in ((value, 0, "pass", value), (wrong, 1, "fail", wrong)):
        exit_code, report = _verify_json(tmp_path, capsys, scn(kind, payload, {name: {"value": pin}}))
        assert exit_code == code
        assert report["scenarios"][0]["assertions"] == [
            {"anchor": anchor, "computed": value, "expected": expected, "flag": None, "name": name, "status": status}
        ]


@_PLAIN_VALUES
def test_invented_flag_kind_is_exit_2(tmp_path, capsys, kind, payload, name, value, anchor):
    for flag in ("made-up", ["noether-c2"]):
        pin = {"value": value, "claimed": "false", "flag": flag}
        code, report = _verify_json(tmp_path, capsys, scn(kind, payload, {name: pin}))
        assert code == 2 and report is None


@_PLAIN_VALUES
def test_documented_flag_on_a_plain_value_fails(tmp_path, capsys, kind, payload, name, value, anchor):
    for pin in (
        {"value": value, "claimed": "23", "flag": "noether-c2"},
        {"value": value, "claimed": "23"},
        {"value": value, "flag": "noether-c2"},
    ):
        code, report = _verify_json(tmp_path, capsys, scn(kind, payload, {name: pin}))
        assert code == 1
        assert [a["status"] for a in report["scenarios"][0]["assertions"]] == ["fail"]
        assert report["summary"]["flags"] == [] and report["summary"]["flagged"] == 0


@pytest.mark.parametrize(
    "pin",  # (the pin, the failed record's expected column: the pin as written)
    [
        ({"value": "0", "claimed": "1"}, "0 (claimed 1)"),
        ({"value": "0", "flag": "noether-c2"}, "0 (flag noether-c2)"),
        ({"value": "0", "claimed": "1", "flag": "noether-c2"}, "0 (claimed 1, flag noether-c2)"),
    ],
)
def test_discrepancy_pinned_on_a_passing_engine_record_fails(tmp_path, capsys, pin):
    pin, expected = pin
    text = scn("pipeline", dict(_ZW, family_case=2), {"family-restriction-residual": pin})
    code, report = _verify_json(tmp_path, capsys, text)
    assert code == 1
    assertion = report["scenarios"][0]["assertions"][0]
    assert (assertion["status"], assertion["computed"], assertion["expected"]) == ("fail", "0", expected)
    assert report["summary"]["flags"] == []
    path = tmp_path / "pinned.scn"
    assert main(["verify", str(path)]) == 1
    line = f"FAIL family-restriction-residual: computed 0, expected {expected}"
    assert line in capsys.readouterr().out


@pytest.mark.parametrize(
    "pin",
    [
        {"value": "24"},  # the discrepancy left out
        {"value": "24", "claimed": "23"},
        {"value": "24", "flag": "noether-c2"},
        {"value": "24", "claimed": "22", "flag": "noether-c2"},
        {"value": "24", "claimed": "23", "flag": "nef-bundle-en-values"},
        {"value": "23", "claimed": "23", "flag": "noether-c2"},
    ],
)
def test_pin_that_does_not_restate_the_discrepancy_fails(tmp_path, capsys, pin):
    data = json.loads((CORPUS / "e13-i2.scn").read_text())
    data["expected"] = {"noether-euler-number": pin}
    code, report = _verify_json(tmp_path, capsys, json.dumps(data))
    assert code == 1
    statuses = {a["name"]: a["status"] for a in report["scenarios"][0]["assertions"]}
    assert statuses["noether-euler-number"] == "fail"
    assert "noether-c2" not in report["summary"]["flags"]


def test_kodaira_check_of_a_64_component_complete_graph_is_fast(tmp_path, capsys):
    n = 64
    config = {
        "components": [{"name": f"E{i}", "self_int": str(1 - n)} for i in range(n)],
        "contacts": [{"pair": [f"E{i}", f"E{j}"], "mult": "1"} for i in range(n) for j in range(i)],
    }
    pins = {"negative-definite": {"value": "false"}, "kodaira-fiber": {"value": "none"}}
    path = tmp_path / "complete.scn"
    path.write_text(scn("config-check", {"config": config}, pins))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - start < 0.5
    capsys.readouterr()


def test_an_type_of_a_dense_germ_at_the_input_bounds_is_fast(tmp_path, capsys):
    # degree 16, every monomial from degree 2 on, 64-bit numerators and denominators
    rng = random.Random(16)
    terms = {
        f"{a},{b}": f"{rng.choice(('', '-'))}{rng.randrange(1, 2**64)}/{rng.randrange(1, 2**64)}"
        for a in range(17) for b in range(17 - a) if a + b >= 2
    }
    check = {"name": "dense", "op": "an-type", "germ": {"terms": terms}, "candidate": 8}
    path = tmp_path / "dense.scn"
    path.write_text(scn("plane-check", {"checks": [check]}, {"dense": {"value": "A1"}}))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - start < 0.5
    capsys.readouterr()


# ---------------------------------------------------------------------------
# One reader: a value of the wrong JSON type is malformed input, never a verdict
# ---------------------------------------------------------------------------

_LINE_Z = {"degree": 1, "coeffs": {"0,0,1": "1"}}
_TWO_NODES = {"name": "s", "op": "stabilizer-dim", "points": [["1", "0", "0"], ["0", "1", "0"]]}
_WRONG_JSON_TYPES = {
    # bool("false") is true: two (-2)-curves with contact 2 were recognised as III, not I2
    "tangential-string": ("config-check", {"config": {
        "components": [{"name": "E1", "self_int": "-2"}, {"name": "E2", "self_int": "-2"}],
        "contacts": [{"pair": ["E1", "E2"], "mult": "2", "tangential": "false"}],
    }}),
    # int() read 2.7 as 2 and true as 1
    "degree-float": ("plane-check", {"checks": [
        {"name": "r", "op": "restrict", "form": {"degree": 2.7, "coeffs": {"2,0,0": "1"}}, "line": _LINE_Z}
    ]}),
    "degree-bool": ("plane-check", {"checks": [
        {"name": "r", "op": "restrict", "form": {"degree": True, "coeffs": {"1,0,0": "1"}}, "line": _LINE_Z}
    ]}),
    # str(0.5) read a float coordinate as 1/2
    "point-float": ("plane-check", {"checks": [dict(_TWO_NODES, points=[["1", 0.5, "0"]])]}),
    "line-float": ("plane-check", {"checks": [dict(_TWO_NODES, lines=[["0", 0.5, "1"]])]}),
    # a string was read letter by letter: "100" as the line x = 0, "10" as the counts [1, 0]
    "line-string": ("plane-check", {"checks": [dict(_TWO_NODES, lines=["100"])]}),
    "blow-ups-string": ("config-check", {
        "config": {
            "components": [{"name": "E1", "self_int": "-3"}, {"name": "E2", "self_int": "-2"}],
            "contacts": [{"pair": ["E1", "E2"], "mult": "2", "tangential": True}],
        },
        "derived_from": {"fiber": "III", "blow_ups": "10"},
    }),
    "check-name-int": ("plane-check", {"checks": [dict(_TWO_NODES, name=5)]}),
}


def _case_file(tmp_path, text: str) -> str:
    path = tmp_path / "case.scn"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "case",
    [*_WRONG_JSON_TYPES, "pin-value-bool", "pin-claimed-bool", "nested-file", "corpus-dir-missing",
     "corpus-dir-file"],
)
def test_a_value_of_the_wrong_json_type_a_nested_file_or_a_bad_corpus_dir_is_exit_2(tmp_path, capsys, case):
    if case in _WRONG_JSON_TYPES:
        argv = ["verify", _case_file(tmp_path, scn(*_WRONG_JSON_TYPES[case], {}))]
    elif case.startswith("pin-"):
        # str(True) is "True", which no engine value equals: exit 1 instead of 2
        pin = {"value": True} if case == "pin-value-bool" else {"value": "2", "claimed": True}
        argv = ["verify", _case_file(tmp_path, scn("plane-check", {"checks": [_TWO_NODES]}, {"s": pin}))]
    elif case == "nested-file":
        argv = ["verify", _case_file(tmp_path, "[" * 200_000)]
    elif case == "corpus-dir-missing":
        argv = ["corpus", "--dir", str(tmp_path / "typo")]
    else:
        argv = ["corpus", "--dir", _case_file(tmp_path, scn("plane-check", {"checks": []}, {}))]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "written,value",
    [
        ("-3", -3), ("−3", -3), (" +7 ", 7), ("1e3", 1000), ("10/2", 5), ("٣", 3), ("0", 0),
        (str(2**64 - 1), 2**64 - 1), (str(-(2**64 - 1)), -(2**64 - 1)), (7, 7), (-(2**64 - 1), -(2**64 - 1)),
        ("-1/2", Fraction(-1, 2)), ("3e-5", Fraction(3, 100_000)), ("-2.5", Fraction(-5, 2)),
        ("1/" + str(2**64 - 1), Fraction(1, 2**64 - 1)),
    ],
)
def test_every_written_value_form_reads_as_before(written, value):
    # the forms the corpus, the benchmark generators and the tests write
    read = rational_from_json(written)
    assert read == value and type(read) is type(value)
    if type(value) is int:
        assert integral_from_json(written) == value
