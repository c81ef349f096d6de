"""The engine computes and the corpus claims.

Every value a bundled pipeline computes is a note, claimed by a pin of its
scenario, and the engine keeps a check only for an invariant.  So moving any
computed value must fail its scenario: a note through its pin, an invariant
on its own.  A flagged value moved off the documented engine value fails and
never flags.  The counts `unimodal dims` prints as claimed are the corpus's.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import unimodal.pipelines as pipelines
from unimodal.cli import main
from unimodal.scenarios import FLAG_KINDS, load_scenario, run_scenario
from unimodal.sextics import FAMILIES

CORPUS = Path(__file__).parent.parent / "src" / "unimodal" / "corpus"
PIPELINES = sorted(p for p in CORPUS.glob("*.scn") if load_scenario(p).kind == "pipeline")


def _moved(value):
    """A computed value moved off itself: an integer by one, anything else by a mark."""
    return value + 1 if type(value) is int else pipelines._fmt(value) + "'"


def test_the_corpus_has_seventeen_pipelines():
    assert len(PIPELINES) == 17


@pytest.mark.parametrize("path", PIPELINES, ids=[p.stem for p in PIPELINES])
def test_every_moved_claim_fails_its_scenario(monkeypatch, path):
    # the recorder only records, so moving every note at once moves each
    # record as a mutant of its one value would, and no other
    scenario = load_scenario(path)
    before = {a.name: a for a in run_scenario(scenario).assertions}
    note = pipelines._Recorder.note
    notes = []

    def moving(self, name, value, anchor):
        notes.append(name)
        note(self, name, _moved(value), anchor)

    monkeypatch.setattr(pipelines._Recorder, "note", moving)
    after = {a.name: a for a in run_scenario(scenario).assertions}
    assert notes
    for name in notes:
        assert after[name].status == "fail", name
        assert after[name].computed != before[name].computed, name


@pytest.mark.parametrize("path", PIPELINES, ids=[p.stem for p in PIPELINES])
def test_every_moved_invariant_fails_its_scenario(monkeypatch, path):
    expect = pipelines._Recorder.expect
    checks = []

    def moving(self, name, computed, expected, anchor):
        checks.append(name)
        expect(self, name, _moved(computed), expected, anchor)

    monkeypatch.setattr(pipelines._Recorder, "expect", moving)
    statuses = {a.name: a.status for a in run_scenario(load_scenario(path)).assertions}
    assert checks
    assert all(statuses[name] == "fail" for name in checks)


def test_a_flagged_value_moved_off_the_engine_value_fails_never_flags(monkeypatch):
    note = pipelines._Recorder.note

    def moving(self, name, value, anchor):
        note(self, name, _moved(value), anchor)

    monkeypatch.setattr(pipelines._Recorder, "note", moving)
    kinds = set()
    for path in PIPELINES:
        scenario = load_scenario(path)
        for name, pin in scenario.expected:
            if pin.flag is not None:
                (record,) = (a for a in run_scenario(scenario).assertions if a.name == name)
                assert record.status == "fail" and record.flag is None, (path.stem, name)
                kinds.add(pin.flag)
    assert kinds == set(FLAG_KINDS)


def test_dims_claims_the_counts_the_corpus_pins(capsys):
    assert main(["dims", "--report=json"]) == 0
    rows = {row["family"]: row for row in json.loads(capsys.readouterr().out)}
    assert sorted(rows) == sorted(fam.family_id for fam in FAMILIES)
    for family_id, row in rows.items():
        pin = dict(load_scenario(CORPUS / f"{family_id}.scn").expected)["family-orbit-count"]
        assert row["claimed"] == (pin.claimed if pin.flag else pin.value), family_id
        assert row.get("flag") == pin.flag, family_id
        assert row["computed"] == pin.value, family_id
