"""Records are NamedTuples whose checks run in ``__new__``.

The eight checked records refuse bad fields however they are built: directly,
by keyword, and on every path that copies one with changed fields.  Models
and configurations survive ``pickle`` and ``copy.deepcopy`` as the same
records, not as plain tuples of their fields.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction as F

import pytest

from unimodal import pipelines
from unimodal.configurations import Component, Contact, CurveConfiguration, catalog_entry
from unimodal.lattice import (
    DivisorClass,
    IntersectionLattice,
    LatticeError,
    SurfaceModel,
    make_hirzebruch,
    make_p2,
    replay,
    track,
)
from unimodal.pipelines import CheckRecord, EnSpec, ZwSpec, run_en_pipeline, run_zw_pipeline
from unimodal.planecurves import ConditionSystem, HomogeneousForm, MarkedPoint
from unimodal.scenarios import ExpectedEntry, _agree

_E, _F, _G = Component("E", -2), Component("F", -2), Component("G", -2)
_P2 = track(make_p2(), "C", {"H": 1})
_FOREIGN = make_hirzebruch(0).canonical

REFUSED = [
    (Component, ("E", -2, -1), ValueError),  # negative genus
    (Component, ("E", F(-2)), TypeError),  # a Fraction self-intersection
    (Component, ("E", -2, 0, "tacnode"), ValueError),
    (Contact, ("E", "E", 1), ValueError),
    (Contact, ("E", "F", 0), ValueError),
    (Contact, ("E", "F", True), TypeError),
    (CurveConfiguration, ((_E, _E),), ValueError),
    (CurveConfiguration, ((_E,), (Contact("E", "F", 1),)), ValueError),
    (CurveConfiguration, ((_E, _F), (Contact("E", "F", 1), Contact("F", "E", 1))), ValueError),
    (CurveConfiguration, ((_E, _F), (), (frozenset("EF"),)), ValueError),
    (CurveConfiguration, ((_E, _F, _G), (), (frozenset("EFG"), frozenset("GFE"))), ValueError),
    (HomogeneousForm, (2, (((1, 0, 0), F(1)),)), ValueError),  # degree 1 monomial
    (HomogeneousForm, (1, (((1, 0, 0), F(0)),)), ValueError),  # zero coefficient kept
    (MarkedPoint, ((F(0), F(0), F(0)),), ValueError),
    (MarkedPoint, ((F(2), F(1), F(0)),), ValueError),  # not normalised
    (ConditionSystem, (1, ((F(1),),)), ValueError),  # a row of 1 entry; degree 1 has 3 monomials
    (IntersectionLattice, (("a", "a"), ((F(-1), F(0)), (F(0), F(-1)))), LatticeError),
    (IntersectionLattice, (("a", "b"), ((F(-1), F(1)), (F(2), F(0)))), LatticeError),
    (SurfaceModel, (_P2.lattice, _FOREIGN, 1, (), ()), LatticeError),
    (SurfaceModel, (_P2.lattice, _P2.canonical, 1, _P2.tracked * 2, ()), LatticeError),
]


@pytest.mark.parametrize(
    "record, fields, error", REFUSED, ids=[f"{r.__name__}-{i}" for i, (r, _, _) in enumerate(REFUSED)]
)
def test_checked_records_refuse_bad_fields(record, fields, error):
    with pytest.raises(error):
        record(*fields)


def test_checked_records_refuse_bad_fields_given_by_keyword():
    with pytest.raises(ValueError):
        Component(name="E", self_int=-2, pa=-1)
    with pytest.raises(ValueError):
        CurveConfiguration(components=(_E,), contacts=(Contact("E", "F", 1),))
    with pytest.raises(LatticeError):
        SurfaceModel(**{**_P2._asdict(), "tracked": _P2.tracked * 2})


def test_surface_model_copies_are_checked():
    with pytest.raises(LatticeError, match="duplicate tracked-curve names"):
        _P2._with(tracked=_P2.tracked * 2)
    with pytest.raises(LatticeError, match="canonical class does not belong"):
        _P2._with(canonical=_FOREIGN)


def test_second_fiber_contacts_are_built_through_the_constructor(monkeypatch):
    # NamedTuple._replace skips __new__: a contact copied with it would not be
    # among the contacts built, though it equals one of them.
    built, fibers = [], []
    checked_new = Contact.__new__

    def spy_new(cls, *fields, **named):
        built.append(checked_new(cls, *fields, **named))
        return built[-1]

    recognize = pipelines.recognize_kodaira_fiber

    def spy_recognize(config):
        fibers.append(config)
        return recognize(config)

    monkeypatch.setattr(Contact, "__new__", spy_new)
    monkeypatch.setattr(pipelines, "recognize_kodaira_fiber", spy_recognize)
    result = run_en_pipeline(EnSpec("E13", fiber_variant="III"))
    assert result.check("second-fiber-type").computed == "III"
    tangential = [c for config in fibers for c in config.contacts if c.tangential]
    assert tangential
    assert all(any(c is b for b in built) for c in tangential)


def test_check_record_copies_are_check_records():
    result = pipelines.run_riemann_hurwitz_check()
    record = result.check("z13-ade-contraction")
    assert type(record) is CheckRecord
    assert (record.name, record.computed) == ("z13-ade-contraction", "A2")
    assert all(type(r) is CheckRecord for r in result.notes)

    failed = _agree(ExpectedEntry("2", claimed="3"), record._replace(computed="2"))
    assert type(failed) is CheckRecord
    assert failed == record._replace(computed="2", expected="2 (claimed 3)", status="fail")


def _assert_same(a, b) -> None:
    """Equal, and of the same type all the way down: a record that came back
    as the plain tuple of its fields would still compare equal."""
    assert type(a) is type(b)
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, DivisorClass):
        assert (a.num, a.den) == (b.num, b.den)
        _assert_same(a.lattice, b.lattice)
    else:
        assert a == b


@pytest.mark.parametrize(
    "result",
    [lambda: run_en_pipeline(EnSpec("E12")), lambda: run_zw_pipeline(ZwSpec("Z12"))],
    ids=["en", "zw"],
)
def test_models_pickle_and_deepcopy(result):
    models = result().models
    assert models
    for model in models:
        for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            _assert_same(clone, model)
            _assert_same(replay(clone.provenance), model)


def test_configuration_with_a_cached_gram_pickles_and_deepcopies():
    config = catalog_entry("E12").config
    gram = config.integer_gram()
    for clone in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
        _assert_same(clone, config)
        assert clone.integer_gram() == gram


def test_a_record_is_judged_as_itself_not_as_its_fields():
    record = pipelines.judge("point", MarkedPoint.of(1, 0, 0), "[1:0:0]", "anchor")
    assert (record.computed, record.status) == ("[1:0:0]", "pass")
