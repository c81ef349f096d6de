"""The ten normalized plane-sextic branch families and their orbit counts.

Each family is stated once: its restriction points on the line z = 0, with
coordinates affine in lambda, their contact orders, and its A_n mark.  The
rest is derived from the points.  The base P = prod (p_y x - p_x y)^k over
the points p with orders k is the restriction of every member to z = 0; the
family has the parameter lambda when some point moves; the markings are the
points that do not move and the line z = 0.  The family is the linear
system of sextics cut out by the contact orders and the mark, normalised to
an affine chart.  Its affine parameter dimension is the system's projective
dimension plus the parameter, and the orbit dimension count is that minus
the dimension of the projectivity stabilizer of the markings.

Each family's representative P + z f5 takes the one quintic f5 of its mark
kind (none, a node or a cusp), a sum of two or three monomials.  It
verifies the curve-level claims: restriction pattern, the A-type at the
marked point, and the absence of any further singular point over the
algebraic closure.  The last is certified by the total Tjurina number: an
A_n point is quasi-homogeneous, so its Tjurina number is n, and a curve
whose total equals that of its mark has no other singular point.  A family
with the parameter lambda is verified at one value lambda_0 and certified
for all lambda outside a finite set by one polynomial identity in lambda
and the semicontinuity of rank (:func:`verify_family`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple

from .planecurves import (
    AnVerdict,
    ConditionSystem,
    HomogeneousForm,
    MarkedPoint,
    an_type_at,
    germ_of,
    line_order_conditions,
    linear_form,
    monomial,
    monomial_basis,
    multiplicity_conditions,
    orbit_dim_count,
    restrict_to_line,
    stabilizer_dim,
    tangent_cone_conditions,
    tjurina_number,
)
from .rationals import frac

LINE = linear_form(0, 0, 1)  # the distinguished line z = 0


class SexticFamily(NamedTuple):
    family_id: str
    singularity: str
    case: int
    expected_orders: tuple[int, ...]  # of the restriction points, in order
    singular_mark: tuple[MarkedPoint, int] | None  # (point, n) for an A_n on the sextic
    claimed_count: int
    stated_mark_n: int | None = None  # the A_n the stated family imposes, below the mark's

    def base(self, lam: Fraction | int) -> HomogeneousForm:
        """P = prod (p_y x - p_x y)^k over the restriction points p, as written
        in `_RESTRICTION_POINTS`, with their orders k: the restriction of every
        member to z = 0."""
        product = [1]  # coefficients of x^a y^(deg - a)
        for (px, py, _), k in zip(_RESTRICTION_POINTS[self.family_id](lam), self.expected_orders):
            for _ in range(k):
                product = [py * u - px * v for u, v in zip([0] + product, product + [0])]
        degree = len(product) - 1
        return HomogeneousForm.from_dict(degree, {(a, degree - a, 0): c for a, c in enumerate(product)})

    def restriction_points(self, lam: Fraction | int) -> tuple[MarkedPoint, ...]:
        return tuple(MarkedPoint.of(*coords) for coords in _RESTRICTION_POINTS[self.family_id](lam))

    def moving(self) -> tuple[bool, ...]:
        """Whether each restriction point moves with lambda.  Its coordinates
        are affine in lambda, so it moves when they differ at 0 and 1."""
        points = _RESTRICTION_POINTS[self.family_id]
        return tuple(p != q for p, q in zip(points(0), points(1)))

    @property
    def parametrized(self) -> bool:
        return any(self.moving())

    @property
    def marked_points(self) -> tuple[MarkedPoint, ...]:
        """The restriction points that do not move; with the line z = 0 they
        are the markings the stabilizer fixes."""
        points = _RESTRICTION_POINTS[self.family_id]
        return tuple(MarkedPoint.of(*p) for p, q in zip(points(0), points(1)) if p == q)

    def points_distinct(self, lam: Fraction | int) -> bool:
        points = self.restriction_points(lam)
        return len(set(points)) == len(points)

    def lambdas(self) -> Iterator[int]:
        """2, 3, 4, ... where the restriction points are pairwise distinct:
        lambda_0, then the further values of the certificate."""
        return (v for v in itertools.count(2) if self.points_distinct(v))

    @property
    def lambda_0(self) -> Fraction:
        """The one value at which the family is specialized: the first of
        `lambdas` (0 without lambda)."""
        return frac(next(self.lambdas()) if self.parametrized else 0)

    def representative(self, lam: Fraction | int) -> HomogeneousForm:
        """P + z f5, with the quintic f5 of the family's mark kind."""
        return self.base(lam) + LINE * _QUINTICS[self.singular_mark[1] if self.singular_mark else 0]

    def conditions(
        self, lam: Fraction, mark: tuple[ConditionSystem, ConditionSystem] | None = None
    ) -> tuple[ConditionSystem, ConditionSystem]:
        """The stated family's conditions on sextics at lam, and the rows its mark
        imposes beyond them (none unless `stated_mark_n` is set).

        Each restriction point gives the line-order rows of its order; an A_n
        mark gives a double point and, for a cusp, the tangent cone l^2, linear
        because every cusp mark is a restriction point of order >= 3.  The
        mark's rows are `mark_conditions`, built here unless given.
        """
        stated = ConditionSystem(6)
        for point, order in zip(self.restriction_points(lam), self.expected_orders):
            stated = stated.extend(line_order_conditions(6, LINE, point, order))
        double, cusp = mark or self.mark_conditions()
        if self.stated_mark_n == 1:
            return stated.extend(double), cusp
        return stated.extend(double).extend(cusp), ConditionSystem(6)

    def mark_conditions(self) -> tuple[ConditionSystem, ConditionSystem]:
        """The rows of a double point at the mark and, for an A_2 mark, of its
        tangent cone l^2 (both empty without a mark).  Neither depends on lambda:
        the mark is a fixed point and l the fixed line."""
        if self.singular_mark is None:
            return ConditionSystem(6), ConditionSystem(6)
        point, n = self.singular_mark
        cusp = tangent_cone_conditions(6, LINE, point) if n == 2 else ConditionSystem(6)
        return multiplicity_conditions(6, point, 2), cusp

    def counts(self, conditions: tuple[ConditionSystem, ConditionSystem] | None = None) -> FamilyCounts:
        """The stated family's affine and orbit counts, and the orbit count with
        the full mark when the stated one is less, from the conditions at
        lambda_0 (built here unless given): one rank per system, and one of the
        stabilizer of the markings."""
        stated, beyond = conditions or self.conditions(self.lambda_0)
        params = 1 if self.parametrized else 0
        stabilizer = stabilizer_dim(self.marked_points, (LINE,))
        orbit = orbit_dim_count(stated, params, stabilizer)
        variant = None
        if self.stated_mark_n is not None:
            variant = orbit_dim_count(stated.extend(beyond), params, stabilizer)
        return FamilyCounts(orbit + stabilizer, orbit, variant, stabilizer)


class FamilyCounts(NamedTuple):
    affine: int
    orbit: int
    variant_orbit: int | None  # with the full mark; None unless the stated one is less
    stabilizer: int  # dimension of the projectivity stabilizer of the markings


# Each family's restriction points on z = 0, the one statement of its shape:
# the base, the parameter and the markings are derived from it.  The
# coordinates are written before normalisation, which fixes the sign of the
# base, and every one that depends on lambda is affine in lambda (see
# `verify_family`).
_RESTRICTION_POINTS = {
    "z11-case1": lambda lam: ((1, 0, 0), (1, lam, 0), (1, 1, 0)),
    "z11-case2": lambda _: ((1, 0, 0), (1, 1, 0)),
    "z11-case3": lambda _: ((1, 0, 0), (1, 1, 0)),
    "w12-case1": lambda lam: ((1, 0, 0), (1, lam, 0)),
    "w12-case2": lambda _: ((1, 0, 0),),
    "w13": lambda _: ((1, 0, 0), (0, 1, 0)),
    "z12-case1": lambda lam: ((1, 0, 0), (0, 1, 0), (lam, 1, 0)),
    "z12-case2": lambda _: ((1, 0, 0), (0, 1, 0)),
    "z13-case1": lambda lam: ((1, 0, 0), (0, 1, 0), (lam, 1, 0)),
    "z13-case2": lambda _: ((1, 0, 0), (0, 1, 0)),
}

# The quintic f5 of every representative P + z f5, keyed by the n of the
# family's A_n mark (0 without one).  In the chart x = 1 of the mark [1:0:0],
# z x^4 y makes the quadratic part y z (a node) and z x^4 z makes it z^2 (a
# cusp along the line); z x^5 keeps an unmarked one smooth there.
# `verify_family` certifies each outcome.
_QUINTICS = {
    0: monomial(5, 0, 0) + monomial(1, 0, 4),
    1: monomial(0, 5, 0) + monomial(1, 0, 4) + monomial(4, 1, 0),
    2: monomial(0, 5, 0) + monomial(1, 0, 4) + monomial(4, 0, 1),
}

_PX = MarkedPoint.of(1, 0, 0)

# id, type, case, orders of the restriction points, mark, claimed count
FAMILIES: tuple[SexticFamily, ...] = (
    SexticFamily("z11-case1", "Z11", 1, (3, 2, 1), None, 18),
    SexticFamily("z11-case2", "Z11", 2, (3, 3), None, 17),
    SexticFamily("z11-case3", "Z11", 3, (5, 1), None, 17),
    SexticFamily("w12-case1", "W12", 1, (4, 2), None, 17),
    SexticFamily("w12-case2", "W12", 2, (6,), None, 16),
    SexticFamily("w13", "W13", 1, (4, 2), (_PX, 1), 16),
    SexticFamily("z12-case1", "Z12", 1, (3, 2, 1), (_PX, 1), 17),
    SexticFamily("z12-case2", "Z12", 2, (3, 3), (_PX, 1), 16),
    SexticFamily("z13-case1", "Z13", 1, (3, 2, 1), (_PX, 2), 16),
    SexticFamily("z13-case2", "Z13", 2, (3, 3), (_PX, 2), 15, stated_mark_n=1),
)


def family(family_id: str) -> SexticFamily:
    for fam in FAMILIES:
        if fam.family_id == family_id:
            return fam
    raise KeyError(family_id)


class FamilyVerification(NamedTuple):
    family_id: str
    orders: tuple[int, ...]
    residual_degree: int
    mark: AnVerdict | None
    excess: int | None  # total Tjurina number beyond the mark's; None if uncertified
    counts: FamilyCounts


def verify_family(fam: SexticFamily) -> FamilyVerification:
    """Restrict, classify and count one family at lambda_0, and certify the
    outcome for every lambda outside a finite set.

    At lambda_0 the representative F = P + z f5, f5 the quintic of the
    family's mark kind, must satisfy every condition the counts are taken
    from (built once here) and show exactly the declared singular point (for
    the flagged family that is the full mark, a cusp, not the double point
    the stated count imposes).  The excess is the
    total Tjurina number of F minus that of the mark (n for a certified A_n,
    0 without a mark); 0 certifies that no other singular point exists over
    the algebraic closure.

    The mark's Tjurina number is passed to `tjurina_number` as a lower
    bound.  An A_n point is quasi-homogeneous, so its Jacobian scheme has
    length tau = mu = n, and the Hilbert function h of S/J is at least n in
    every degree k >= n - 1.  Once h(k) = n <= k, Macaulay's bound gives
    h(k+1) <= h(k), hence h(k+1) = h(k), and Gotzmann's persistence theorem
    (Math. Z. 158, 1978) certifies the total n from that single rank.  The
    rank is taken mod a small prime, and a rank mod p is at most the rank
    over Q, so n <= h(k) <= h_p(k): h_p(k) = n is exact.  On every
    representative this one modular rank certifies at the first degree
    3(d-2) + 1.

    A family with the parameter takes no further rank.  F restricted to
    z = 0 is P = prod (p_y x - p_x y)^k by construction
    (`SexticFamily.base`), so wherever the restriction points are pairwise
    distinct its orders are exactly the k and its residual degree is 0: for
    the orders, the exceptional set is exactly the set of lambda where two
    restriction points meet.  The coordinates of every point are affine in
    lambda, so the coefficients of P have degree at most the sum of the k of
    the points that move (an affine map equal at two values is constant).
    One identity in lambda is checked exactly, by evaluation at deg P + 1
    values where the points are distinct, lambda_0 the first
    (:func:`_certify_generic`):

    (a) the rows of the mark (`SexticFamily.mark_conditions`), which do not
        depend on lambda, annihilate F; each product has degree at most
        deg P.  So for every lambda the mark is a double point, and for
        n = 2 its quadratic part is a multiple of l^2, not a node:
        tau(mark) >= n.  Without a mark there is nothing to check.
    (b) Ranks only drop under specialization, and rank_p <= rank_Q.  So for
        all but finitely many lambda, h(k) <= h_p(k) at lambda_0, which is
        n <= k; (a) gives h(k) >= n.  Then Gotzmann certifies the total n
        as above: the mark is A_n and no other singular point exists.

    The finite exceptional set of (b) is not computed, and the counts are
    read at lambda_0.
    """
    lam = fam.lambda_0
    mark_rows = fam.mark_conditions()
    conditions = fam.conditions(lam, mark_rows)
    rep = fam.representative(lam)
    if not _annihilate(conditions[0].rows + conditions[1].rows, rep):
        raise ValueError(f"{fam.family_id}: representative misses a condition")
    pattern = restrict_to_line(rep, LINE, fam.restriction_points(lam))
    if pattern.contained:
        raise ValueError(f"{fam.family_id}: representative contains the line")
    mark: AnVerdict | None = None
    mark_tau: int | None = 0
    if fam.singular_mark is not None:
        point, n = fam.singular_mark
        mark = an_type_at(germ_of(rep, point), candidate=max(2, n))
        mark_tau = mark.n if mark.kind == "A" else None
    tau = tjurina_number(rep, at_least=mark_tau or 0)
    excess = None if tau is None or mark_tau is None else tau - mark_tau
    if fam.parametrized and fam.singular_mark is not None:
        _certify_generic(fam, mark_rows[0].rows + mark_rows[1].rows)
    return FamilyVerification(
        fam.family_id, pattern.orders, pattern.residual_degree, mark, excess, fam.counts(conditions)
    )


def _annihilate(rows: tuple[tuple[Fraction, ...], ...], form: HomogeneousForm) -> bool:
    """Whether every row, a functional over `monomial_basis(6)`, vanishes on the form."""
    coeffs = dict(form.terms)
    vector = [coeffs.get(mono, 0) for mono in monomial_basis(6)]
    return not any(sum(c * x for c, x in zip(row, vector) if c and x) for row in rows)


def _certify_generic(fam: SexticFamily, rows: tuple[tuple[Fraction, ...], ...]) -> None:
    """Check identity (a) of :func:`verify_family` at deg P + 1 values of
    lambda, given the rows of `SexticFamily.mark_conditions`."""
    degree = sum(k for k, moves in zip(fam.expected_orders, fam.moving()) if moves)
    for lam in itertools.islice(fam.lambdas(), degree + 1):
        if not _annihilate(rows, fam.representative(lam)):
            raise ValueError(f"{fam.family_id}: representative misses its mark at lambda = {lam}")
