from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from unimodal.planecurves import (
    ConditionSystem,
    HomogeneousForm,
    MarkedPoint,
    an_type_at,
    germ_of,
    monomial_basis,
    restrict_to_line,
    stabilizer_dim,
    tjurina_number,
)
from unimodal.rationals import nullspace
from unimodal.sextics import FAMILIES, LINE, family, verify_family

from oracles import (
    FAMILY_EXCLUSIONS,
    VARIANT_EXCLUSIONS,
    excluded_affine_count,
    hand_representative,
    is_a,
    verify_family_by_samples,
)


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
        counts = fam.counts()
        if fam.stated_mark_n is None:
            assert counts.orbit == fam.claimed_count, fam.family_id
            assert counts.variant_orbit is None
        else:
            assert counts.orbit == 16
            assert fam.claimed_count == 15
            assert counts.variant_orbit == 15


def test_orbit_counts_by_hand():
    # orders 3, 2, 1 pin the restriction to z = 0 up to scale: 28 - 6 rows is a
    # P^21 of sextics, 21 quintic coefficients; one lambda, two fixed points
    z11 = family("z11-case1")
    assert z11.counts().affine == 22
    assert stabilizer_dim(z11.marked_points, (LINE,)) == 4
    assert z11.counts().orbit == 18
    # order 6 at one point: 7 rows, 21 coefficients, fixed flag
    w12 = family("w12-case2")
    assert w12.counts().affine == 21
    assert stabilizer_dim(w12.marked_points, (LINE,)) == 5
    assert w12.counts().orbit == 16
    # a double point at [1:0:0] adds the row of x^5 z to the 6 line rows:
    # 20 coefficients, one lambda, two points
    z12 = family("z12-case1")
    assert z12.counts().affine == 21
    assert z12.counts().orbit == 17
    # its cusp adds the row of x^4 y z
    z13 = family("z13-case1")
    assert z13.counts().affine == 20
    assert z13.counts().orbit == 16


def test_derived_counts_match_the_monomial_exclusions():
    # the counts read off the conditions equal those of the hand-picked table
    assert set(FAMILY_EXCLUSIONS) == {fam.family_id for fam in FAMILIES}
    for fam in FAMILIES:
        counts = fam.counts()
        stabilizer = stabilizer_dim(fam.marked_points, (LINE,))
        expected = excluded_affine_count(FAMILY_EXCLUSIONS[fam.family_id], fam.parametrized)
        assert counts.affine == expected, fam.family_id
        assert counts.orbit == expected - stabilizer, fam.family_id
        variant = VARIANT_EXCLUSIONS.get(fam.family_id)
        if variant is None:
            assert counts.variant_orbit is None, fam.family_id
        else:
            assert counts.variant_orbit == excluded_affine_count(variant, fam.parametrized) - stabilizer


def _members(system, rng, count):
    """Random members of the linear system the rows cut out on sextics."""
    basis = monomial_basis(6)
    kernel = nullspace([list(row) for row in system.rows], len(basis))
    for _ in range(count):
        weights = [rng.randint(-1000, 1000) for _ in kernel]
        coeffs = [sum(w * v[i] for w, v in zip(weights, kernel)) for i in range(len(basis))]
        yield HomogeneousForm.from_dict(6, dict(zip(basis, coeffs)))


def test_random_members_have_the_declared_orders_and_mark():
    # the conditions are the geometry: a general member shows the restriction
    # pattern and the A_n mark, and the stated z13-case2 family only an A1
    rng = random.Random(41)
    for fam in FAMILIES:
        lam = fam.lambda_0
        stated, beyond = fam.conditions(lam)
        mark_n = fam.singular_mark[1] if fam.singular_mark else None
        cases = [(stated, mark_n)]
        if fam.stated_mark_n is not None:
            cases = [(stated, fam.stated_mark_n), (stated.extend(beyond), mark_n)]
        for system, n in cases:
            for member in _members(system, rng, 10):
                pattern = restrict_to_line(member, LINE, fam.restriction_points(lam))
                assert pattern.orders == fam.expected_orders, fam.family_id
                assert pattern.residual_degree == 0
                if n:
                    verdict = an_type_at(germ_of(member, fam.singular_mark[0]), candidate=max(2, n))
                    assert is_a(verdict, n), (fam.family_id, verdict)


def test_condition_rank_is_the_same_at_every_lambda():
    for fam in FAMILIES:
        ranks = set()
        for lam in (fam.lambda_0, Fraction(3), Fraction(5), Fraction(7), Fraction(-3), Fraction(1, 2)):
            stated, beyond = fam.conditions(lam)
            ranks.add((stated.rank(), stated.extend(beyond).rank()))
        assert len(ranks) == 1, (fam.family_id, ranks)


def test_every_cusp_mark_is_a_restriction_point_of_order_at_least_three():
    # what makes the tangent-cone rows linear: the line is the cusp's tangent
    cusps = [fam for fam in FAMILIES if fam.singular_mark and fam.singular_mark[1] == 2]
    assert {fam.family_id for fam in cusps} == {"z13-case1", "z13-case2"}
    for fam in cusps:
        point = fam.singular_mark[0]
        points = fam.restriction_points(fam.lambda_0)
        assert point in points
        assert fam.expected_orders[points.index(point)] >= 3


def test_verify_family_builds_each_restriction_point_once(monkeypatch):
    import unimodal.sextics as sextics

    original = sextics.line_order_conditions
    built = []

    def recording(*args):
        built.append(args[2])
        return original(*args)

    monkeypatch.setattr(sextics, "line_order_conditions", recording)
    for fam in FAMILIES:
        built.clear()
        verification = verify_family(fam)
        assert built == list(fam.restriction_points(fam.lambda_0)), fam.family_id
        assert verification.counts == fam.counts(), fam.family_id


def test_dims_check_takes_one_rank_per_system_and_one_stabilizer(monkeypatch):
    import unimodal.sextics as sextics
    from unimodal.pipelines import ZwSpec, run_zw_pipeline

    ranks, stabilizers = [], []
    original_rank, original_stabilizer = ConditionSystem.rank, sextics.stabilizer_dim

    def recording_rank(system):
        ranks.append(system)
        return original_rank(system)

    def recording_stabilizer(*markings):
        stabilizers.append(markings)
        return original_stabilizer(*markings)

    monkeypatch.setattr(ConditionSystem, "rank", recording_rank)
    monkeypatch.setattr(sextics, "stabilizer_dim", recording_stabilizer)
    for fam in FAMILIES:
        ranks.clear()
        stabilizers.clear()
        notes = {note.name: note.computed for note in run_zw_pipeline(ZwSpec(fam.singularity, fam.case)).notes}
        # the stated system, and the one with the full mark for the flagged family
        assert len(ranks) == (1 if fam.stated_mark_n is None else 2), fam.family_id
        assert len(stabilizers) == 1, fam.family_id
        assert notes["stabilizer-dim"] == str(original_stabilizer(fam.marked_points, (LINE,)))


def test_restriction_patterns_all_families():
    for fam in FAMILIES:
        pattern = restrict_to_line(fam.base(fam.lambda_0), LINE, fam.restriction_points(fam.lambda_0))
        assert pattern.orders == fam.expected_orders, fam.family_id
        assert pattern.residual_degree == 0


def test_one_specialization_agrees_with_the_sampled_oracle():
    # the checks the generic certificate replaces, at five values besides lambda_0
    samples = (Fraction(3), Fraction(5), Fraction(7), Fraction(-3), Fraction(1, 2))
    for fam in FAMILIES:
        assert verify_family_by_samples(fam, samples) == verify_family(fam), fam.family_id


def _with_points(monkeypatch, family_id, points):
    """The family with its restriction points, the one statement of its shape,
    replaced by `points` (a function of lambda)."""
    import unimodal.sextics as sextics

    table = dict(sextics._RESTRICTION_POINTS)
    table[family_id] = points
    monkeypatch.setattr(sextics, "_RESTRICTION_POINTS", table)
    return family(family_id)


# The mark sits on [1:0:0] at the first one or two values the certificate
# takes: a point of order >= 2 passes through it there and nowhere else.  No
# table keeps it at more leading values than it has such moving points, and
# each of them adds at least 2 to deg P, so the values fall short of deg P.
# In the last case the points collide at lambda = 3, which the certificate
# skips, so the mark is first missed at 4.
@pytest.mark.parametrize(
    "family_id, points, refused_at",
    [
        ("z12-case1", lambda lam: ((1, lam - 2, 0), (0, 1, 0), (lam, 1, 0)), 3),
        ("z12-case1", lambda lam: ((1, lam - 2, 0), (1, lam - 3, 0), (lam, 1, 0)), 4),
        ("z13-case1", lambda lam: ((1, lam - 2, 0), (0, 1, 0), (lam, 1, 0)), 3),
        ("z13-case1", lambda lam: ((1, lam - 2, 0), (0, 1, 0), (lam - 3, 1, 0)), 4),
    ],
    ids=["z12-case1-1", "z12-case1-2", "z13-case1-1", "z13-case1-1-past-a-collision"],
)
def test_certificate_refuses_a_mark_broken_off_lambda_0(monkeypatch, family_id, points, refused_at):
    # at lambda_0 the points put the order-3 point on the mark and every specialized check passes
    fam = _with_points(monkeypatch, family_id, points)
    lam0 = fam.lambda_0
    assert lam0 == 2
    assert is_a(verify_family_by_samples(fam, (lam0,)).mark, fam.singular_mark[1])
    with pytest.raises(ValueError, match=f"representative misses its mark at lambda = {refused_at}$"):
        verify_family(fam)


def test_lambda_0_and_certificate_skip_colliding_points(monkeypatch):
    import unimodal.sextics as sextics

    # the moving point meets the fixed [0:1:0] at lambda = 2
    fam = _with_points(monkeypatch, "z12-case1", lambda lam: ((1, 0, 0), (0, 1, 0), (lam - 2, 1, 0)))
    assert not fam.points_distinct(2) and fam.points_distinct(3)
    assert fam.lambda_0 == Fraction(3)
    original = sextics.SexticFamily.representative
    seen = []

    def recording(self, lam):
        seen.append(lam)
        return original(self, lam)

    monkeypatch.setattr(sextics.SexticFamily, "representative", recording)
    outcome = verify_family(fam)
    # lambda_0, then the certificate's deg P + 1 = 2 values
    assert seen == [3, 3, 4]
    assert outcome.orders == fam.expected_orders and is_a(outcome.mark, 1)


def test_base_coefficients_have_degree_at_most_the_moving_orders():
    # the degree bound the certificate counts its values by: the finite
    # difference of order bound + 1 of every coefficient of P vanishes
    for fam in FAMILIES:
        bound = sum(k for k, moves in zip(fam.expected_orders, fam.moving()) if moves)
        values = [fam.base(lam) for lam in range(bound + 2)]
        for mono in monomial_basis(6):
            column = [form.coeff(mono) for form in values]
            difference = sum((-1) ** i * math.comb(bound + 1, i) * c for i, c in enumerate(column))
            assert difference == 0, (fam.family_id, mono)


def test_parameter_and_markings_are_read_off_the_points():
    px, py, p11 = MarkedPoint.of(1, 0, 0), MarkedPoint.of(0, 1, 0), MarkedPoint.of(1, 1, 0)
    parametrized = {fam.family_id for fam in FAMILIES if fam.parametrized}
    assert parametrized == {"z11-case1", "w12-case1", "z12-case1", "z13-case1"}
    for fam in FAMILIES:
        expected = {"Z11": (px, p11), "W12": (px,)}.get(fam.singularity, (px, py))
        assert fam.marked_points == expected, fam.family_id
        # one point and the line, or two points (which fix the line)
        assert fam.counts().stabilizer == (5 if len(expected) == 1 else 4), fam.family_id


def _curve_verdict(fam, form, lam):
    """The orders and residual degree of a member at lam, its mark, and its
    total Tjurina number beyond the mark's n."""
    pattern = restrict_to_line(form, LINE, fam.restriction_points(lam))
    mark, mark_tau = None, 0
    if fam.singular_mark is not None:
        point, n = fam.singular_mark
        mark = an_type_at(germ_of(form, point), candidate=max(2, n))
        mark_tau = mark.n
    return pattern.orders, pattern.residual_degree, mark, tjurina_number(form) - mark_tau


def test_representatives_share_the_hand_written_verdicts():
    # the quintic of the mark kind and the one once written by hand for the
    # family give different curves with the same orders, mark and excess 0
    for fam in FAMILIES:
        values = (fam.lambda_0, Fraction(3), Fraction(5), Fraction(7), Fraction(-3), Fraction(1, 2))
        for lam in values if fam.parametrized else (fam.lambda_0,):
            ours = _curve_verdict(fam, fam.representative(lam), lam)
            assert ours == _curve_verdict(fam, hand_representative(fam.family_id, lam), lam), (fam.family_id, lam)
            orders, residual, mark, excess = ours
            assert orders == fam.expected_orders and residual == 0 and excess == 0, (fam.family_id, lam)
            assert mark is None if fam.singular_mark is None else is_a(mark, fam.singular_mark[1])


def test_verify_family_outcomes():
    for fam in FAMILIES:
        outcome = verify_family(fam)
        assert outcome.orders == fam.expected_orders
        assert outcome.excess == 0
        if fam.singular_mark is None:
            assert outcome.mark is None
        else:
            assert is_a(outcome.mark, fam.singular_mark[1]), fam.family_id


def test_representatives_have_no_singular_point_beyond_the_mark():
    for fam in FAMILIES:
        mark_tau = 0 if fam.singular_mark is None else fam.singular_mark[1]
        assert tjurina_number(fam.representative(fam.lambda_0)) == mark_tau, fam.family_id


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
        # the mark's Tjurina number as a lower bound: h_p(k) = tau(mark) <= k at the first k,
        # at lambda_0 alone
        assert widths == [first], fam.family_id
        assert len(jacobian) == len(modular) == 1 and exact == [], fam.family_id
        widths.clear()
        tjurina_number(fam.representative(fam.lambda_0))
        # without a bound h(k) = 0 still certifies at once; a mark takes the equal pair
        assert len(widths) == (1 if fam.singular_mark is None else 2), fam.family_id


def test_representative_satisfies_its_conditions():
    for fam in FAMILIES:
        stated, beyond = fam.conditions(fam.lambda_0)
        vector = [fam.representative(fam.lambda_0).coeff(mono) for mono in monomial_basis(6)]
        for row in stated.rows + beyond.rows:
            assert sum(c * x for c, x in zip(row, vector)) == 0, fam.family_id
    # z13-case1: a cusp at [1:0:0] along z = 0, so no x^5 z and no x^4 y z
    rep = family("z13-case1").representative(Fraction(2))
    assert rep.coeff((5, 0, 1)) == 0 and rep.coeff((4, 1, 1)) == 0


def test_verify_family_refuses_a_representative_off_its_conditions(monkeypatch):
    import unimodal.sextics as sextics

    fam = family("z13-case1")
    quintics = dict(sextics._QUINTICS)
    quintics[2] = quintics[2] + HomogeneousForm.from_dict(5, {(4, 1, 0): 1})  # the cusp's quintic
    monkeypatch.setattr(sextics, "_QUINTICS", quintics)
    with pytest.raises(ValueError, match="misses a condition"):
        verify_family(fam)


def test_lambda_0_avoids_excluded_values():
    # one specialization, lambda_0 = 2, outside every family's excluded values
    for fam in FAMILIES:
        assert fam.lambda_0 == (Fraction(2) if fam.parametrized else Fraction(0))
        assert fam.points_distinct(fam.lambda_0)


def test_unknown_family_rejected():
    with pytest.raises(KeyError):
        family("nope")
