"""Acceptance suite: every top-level claim the engine must reproduce exactly.

Each test prints one pass/fail line; run with ``pytest -s tests/test_acceptance.py``
to see the checklist.  All comparisons are exact; there are no tolerances
anywhere.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from unimodal.cli import main
from unimodal.configurations import (
    catalog_entry,
    fundamental_cycle,
    is_negative_definite,
)
from unimodal.lattice import make_hirzebruch, make_p2
from unimodal.pipelines import (
    EnSpec,
    ZwSpec,
    branch_class_for,
    run_en_pipeline,
    run_zw_pipeline,
    section_class_coefficient,
)
from unimodal.planecurves import (
    an_type_at,
    detect_33_point,
    germ,
    linear_form,
    stabilizer_dim,
    MarkedPoint,
)
from unimodal.scenarios import emit_report, run_corpus
from unimodal.sextics import family

from oracles import en_variants, fundamental_cycle_brute_force, stabilizer_dim_by_minors


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {text}")
        raise
    else:
        print(f"criterion {number:2d}: PASS  {text}")


def test_criterion_01_catalog_invariants():
    with criterion(1, "catalog invariants (Z^2, K.Z, pa) for the eight exceptional types"):
        for label in ("E12", "E13", "E14"):
            assert catalog_entry(label).recomputed() == (-1, 1, 1)
        for label in ("Z11", "Z12", "Z13", "W12", "W13"):
            assert catalog_entry(label).recomputed() == (-2, 2, 1)


def test_criterion_02_branch_classes():
    with criterion(2, "bicanonical branch classes on F0, F1 and the plane"):
        f0, f1, p2 = make_hirzebruch(0), make_hirzebruch(1), make_p2()
        assert branch_class_for(f0) == f0.divisor({"Cinf": 4, "Gamma": 6})
        assert branch_class_for(f1) == f1.divisor({"Cinf": 4, "Gamma": 8})
        assert branch_class_for(p2) == p2.divisor({"H": 6})


def test_criterion_03_en_pipelines():
    with criterion(3, "all seven elliptic-route variants end with K^2 = 1, chi = 3, ample"):
        runs = 0
        for sing in ("E12", "E13", "E14"):
            for variant in en_variants(sing):
                result = run_en_pipeline(EnSpec(sing, fiber_variant=variant))
                assert result.failed == ()
                assert result.check("contracted-canonical-squared").computed == "1"
                assert result.check("contracted-euler-characteristic").computed == "3"
                assert result.check("contracted-canonical-ample").computed == "ample"
                runs += 1
        assert runs == 7


def test_criterion_04_nef_bundle_diagnostics():
    with criterion(4, "adjoint-bundle numbers (0,2,4,8) for E12; (0,2,2,6) flagged for E13/E14"):
        e12 = run_en_pipeline(EnSpec("E12"))
        values = tuple(
            e12.check(name).computed
            for name in (
                "nef-bundle-on-strict-half-fiber",
                "nef-bundle-on-fiber",
                "nef-bundle-on-bisection",
                "nef-bundle-squared",
            )
        )
        assert values == ("0", "2", "4", "8")
        report = run_corpus()
        statuses = {
            (s.name, a.name): a.status
            for s in report.scenarios
            for a in s.assertions
            if a.name in ("nef-bundle-on-bisection", "nef-bundle-squared")
        }
        assert len(statuses) == 14
        assert all((status == "pass") == (name == "e12") for (name, _), status in statuses.items())
        for sing in ("E13", "E14"):
            for variant in en_variants(sing):
                run = run_en_pipeline(EnSpec(sing, fiber_variant=variant))
                values = tuple(
                    run.check(name).computed
                    for name in (
                        "nef-bundle-on-strict-half-fiber",
                        "nef-bundle-on-fiber",
                        "nef-bundle-on-bisection",
                        "nef-bundle-squared",
                    )
                )
                assert values == ("0", "2", "2", "6")
                assert statuses[(f"{sing}-{variant}".lower(), "nef-bundle-squared")] == "flagged"
                assert run.failed == ()


def test_criterion_05_section_class():
    with criterion(5, "section-class offset k = 0 in both ruled-base geometries"):
        assert section_class_coefficient(0) == 0
        assert section_class_coefficient(1) == 0


def test_criterion_06_zw_pipelines():
    with criterion(6, "K3-route invariants (2, 2, 3, 6) in all five runs"):
        for sing in ("Z11", "Z12", "Z13", "W12", "W13"):
            result = run_zw_pipeline(ZwSpec(sing, family_case=1))
            assert result.failed == ()
            assert result.check("pushed-cycle-squared").computed == "2"
            assert result.check("pushed-cycle-genus").computed == "2"
            assert result.check("pushed-cycle-euler-characteristic").computed == "3"
            assert result.check("double-cover-branch-degree").computed == "6"


def test_criterion_07_dimension_counts():
    with criterion(7, "orbit dimension counts 18/17/17, 17/16, 17/16, 16+{16|15 flagged}, 16"):
        expected = {
            "z11-case1": 18,
            "z11-case2": 17,
            "z11-case3": 17,
            "w12-case1": 17,
            "w12-case2": 16,
            "z12-case1": 17,
            "z12-case2": 16,
            "z13-case1": 16,
            "w13": 16,
        }
        for family_id, value in expected.items():
            assert family(family_id).counts().orbit == value, family_id
        flagged = family("z13-case2")
        assert flagged.counts().orbit == 16
        assert flagged.counts().variant_orbit == 15
        assert flagged.claimed_count == 15
        run = run_zw_pipeline(ZwSpec("Z13", family_case=2))
        assert run.failed == ()
        (z13,) = (s for s in run_corpus().scenarios if s.name == "z13-case2")
        (count,) = (a for a in z13.assertions if a.name == "family-orbit-count")
        assert (count.status, count.computed, count.expected) == ("flagged", "16", "15")


def test_criterion_08_stabilizer_dims():
    with criterion(8, "stabilizer dimensions 4 / 5 / 0, confirmed by the minor-rank oracle"):
        two = (MarkedPoint.of(1, 0, 0), MarkedPoint.of(1, 1, 0))
        flag = ((MarkedPoint.of(1, 0, 0),), (linear_form(0, 0, 1),))
        four = (
            MarkedPoint.of(1, 0, 0),
            MarkedPoint.of(0, 1, 0),
            MarkedPoint.of(0, 0, 1),
            MarkedPoint.of(1, 1, 1),
        )
        assert stabilizer_dim(two) == stabilizer_dim_by_minors(two) == 4
        assert stabilizer_dim(*flag) == stabilizer_dim_by_minors(*flag) == 5
        assert stabilizer_dim(four) == stabilizer_dim_by_minors(four) == 0


def test_criterion_09_fundamental_cycle_oracle():
    with criterion(9, "incremental fundamental cycle equals brute force on 200 random graphs"):
        import random

        rng = random.Random(171)
        start = time.monotonic()
        cases = 0
        while cases < 200:
            n = rng.randint(1, 4)
            comps = [(f"C{i}", -rng.randint(1, 5), rng.choice([0, 0, 0, 1])) for i in range(n)]
            contacts = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.55:
                        contacts.append((f"C{i}", f"C{j}", rng.randint(1, 2)))
            from unimodal.configurations import Component, Contact, CurveConfiguration

            config = CurveConfiguration(
                tuple(Component(*c) for c in comps), tuple(Contact(*c) for c in contacts)
            )
            if not is_negative_definite(config):
                continue
            cases += 1
            cycle = fundamental_cycle(config)
            assert all(p <= 0 for p in cycle.pairings)
            oracle = fundamental_cycle_brute_force(config, bound=max(4, *cycle.coeffs))
            assert oracle is not None and oracle.coeffs == cycle.coeffs
        elapsed = time.monotonic() - start
        assert cases == 200
        assert elapsed < 10, f"property suite took {elapsed:.1f}s"


def test_criterion_10_germ_suite():
    with criterion(10, "[3,3] detection at profiles 6 and 7, and A_n golden germs"):
        six = detect_33_point(germ({(3, 0): 1, (2, 2): 1, (0, 6): 1}))
        assert six.is_33 and six.profile == 6
        seven = detect_33_point(germ({(3, 0): 1, (2, 2): 1, (0, 7): 1}))
        assert seven.is_33 and seven.profile == 7
        assert not detect_33_point(germ({(3, 0): 1, (0, 3): 1})).is_33
        for n in range(1, 7):
            verdict = an_type_at(germ({(2, 0): 1, (0, n + 1): 1}))
            assert verdict.kind == "A" and verdict.n == n


def test_criterion_11_noether_flag():
    with criterion(11, "Euler number 24 computed, stated 23 flagged, exit code 0"):
        report = run_corpus()
        assert "noether-c2" in report.flags
        noether = [
            a
            for s in report.scenarios
            for a in s.assertions
            if a.name == "noether-euler-number"
        ]
        assert noether, "the Euler-number record must appear"
        assert all(a.status == "flagged" and a.computed == "24" and a.expected == "23" for a in noether)
        assert report.exit_code == 0


def test_criterion_12_determinism(capsys):
    with criterion(12, "two full corpus runs produce byte-identical machine reports"):
        first = emit_report(run_corpus())
        assert main(["corpus", "--report=json"]) == 0
        assert first == capsys.readouterr().out
