from __future__ import annotations

from fractions import Fraction

import pytest

from unimodal.planecurves import monomial_basis, restrict_to_line, stabilizer_dim, tjurina_number
from unimodal.sextics import FAMILIES, LINE, family, verify_family


def test_family_table_is_complete():
    assert len(FAMILIES) == 10
    by_type = {}
    for fam in FAMILIES:
        by_type.setdefault(fam.singularity, []).append(fam.case)
    assert by_type == {
        "Z11": [1, 2, 3],
        "W12": [1, 2],
        "W13": [1],
        "Z12": [1, 2],
        "Z13": [1, 2],
    }


def test_claimed_counts_match_computation():
    for fam in FAMILIES:
        computed = fam.orbit_dim_count()
        if fam.variant_exclusions is None:
            assert computed == fam.claimed_count, fam.family_id
        else:
            assert computed == 16
            assert fam.claimed_count == 15
            assert fam.orbit_dim_count(fam.variant_exclusions) == 15


def test_orbit_counts_by_hand():
    # 21 quintic coefficients, one lambda, two fixed points
    z11 = family("z11-case1")
    assert z11.affine_parameter_count() == 22
    assert stabilizer_dim(z11.marked_points, z11.marked_lines) == 4
    assert z11.orbit_dim_count() == 18
    # 21 coefficients, fixed flag
    w12 = family("w12-case2")
    assert w12.affine_parameter_count() == 21
    assert stabilizer_dim(w12.marked_points, w12.marked_lines) == 5
    assert w12.orbit_dim_count() == 16
    # quintics without x^5: 20 coefficients, one lambda, two points
    z12 = family("z12-case1")
    assert z12.affine_parameter_count() == 21
    assert z12.orbit_dim_count() == 17


def test_restriction_patterns_all_families():
    for fam in FAMILIES:
        for lam in fam.lambda_samples():
            pattern = restrict_to_line(fam.base(lam), LINE, fam.restriction_points(lam))
            assert pattern.orders == fam.expected_orders, fam.family_id
            assert pattern.residual_degree == 0


def test_verify_family_outcomes():
    for fam in FAMILIES:
        outcome = verify_family(fam)
        assert outcome.orders == fam.expected_orders
        assert outcome.excess == 0
        if fam.singular_mark is None:
            assert outcome.mark is None
        else:
            assert outcome.mark.is_a(fam.singular_mark[1]), fam.family_id


def test_representatives_have_no_singular_point_beyond_the_mark():
    for fam in FAMILIES:
        mark_tau = 0 if fam.singular_mark is None else fam.singular_mark[1]
        for lam in fam.lambda_samples():
            assert tjurina_number(fam.representative(lam)) == mark_tau, (fam.family_id, lam)


def test_representatives_certify_with_one_rank(monkeypatch):
    import unimodal.planecurves as planecurves

    original_rows = planecurves._jacobian_rows
    original_modular = planecurves.modular_rank
    original_exact = planecurves.integer_rank
    widths, jacobian, modular, exact = [], [], [], []

    def recording_rows(generators, degree, k):
        ncols, rows = original_rows(generators, degree, k)
        widths.append(ncols)
        jacobian.append(rows)
        return ncols, rows

    def recording_modular(rows):
        modular.append(rows)
        return original_modular(rows)

    def recording_exact(rows):
        if any(rows is built for built in jacobian):  # not the ranks of local algebras
            exact.append(rows)
        return original_exact(rows)

    monkeypatch.setattr(planecurves, "_jacobian_rows", recording_rows)
    monkeypatch.setattr(planecurves, "modular_rank", recording_modular)
    monkeypatch.setattr(planecurves, "integer_rank", recording_exact)
    first = len(monomial_basis(3 * (6 - 2) + 1))  # columns in degree k = 3(d - 2) + 1
    for fam in FAMILIES:
        for log in (widths, jacobian, modular, exact):
            log.clear()
        verify_family(fam)
        # the mark's Tjurina number as a lower bound: h_p(k) = tau(mark) <= k at the first k
        assert widths == [first] * len(fam.lambda_samples()), fam.family_id
        assert len(modular) == len(fam.lambda_samples()) and exact == [], fam.family_id
        for lam in fam.lambda_samples():
            widths.clear()
            tjurina_number(fam.representative(lam))
            # without a bound h(k) = 0 still certifies at once; a mark takes the equal pair
            assert len(widths) == (1 if fam.singular_mark is None else 2), (fam.family_id, lam)


def test_representative_respects_exclusions():
    fam = family("z13-case1")
    for lam in fam.lambda_samples():
        rep = fam.representative(lam)
        assert rep.coeff((5, 0, 0)) == 0  # x^5 never appears with z^0... (base is z-free of x^5)
        # no z * x^5 or z * y x^4 contributions from the quintic part
        assert rep.coeff((5, 0, 1)) == 0
        assert rep.coeff((4, 1, 1)) == 0


def test_lambda_samples_avoid_excluded_values():
    z11 = family("z11-case1")
    assert Fraction(0) not in z11.lambda_samples()
    assert Fraction(1) not in z11.lambda_samples()
    assert len(z11.lambda_samples()) >= 2


def test_unknown_family_rejected():
    with pytest.raises(KeyError):
        family("nope")
