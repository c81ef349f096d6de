"""The ten normalized plane-sextic branch families and their orbit counts.

Each family is a sextic of the shape ``base + z * f5``: the linear system
cut out by its contact orders with the line z = 0 at the restriction points
and by its A_n mark, normalised to an affine chart, with markings (points,
lines) fixed in the plane.  The affine parameter dimension is the system's
projective dimension plus the continuous parameter, and the orbit dimension
count is that minus the dimension of the projectivity stabilizer of the
markings.

Representatives carry fixed small-integer quintic parts used to verify the
curve-level claims: restriction pattern, the A-type at the marked point, and
the absence of any further singular point over the algebraic closure.  The
last is certified by the total Tjurina number: an A_n point is
quasi-homogeneous, so its Tjurina number is n, and a curve whose total equals
that of its mark has no other singular point.  The symbolic parameter is
handled by specialization at several rational values away from the excluded
ones, demanding identical combinatorial output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .planecurves import (
    AnVerdict,
    ConditionSystem,
    HomogeneousForm,
    MarkedPoint,
    an_type_at,
    line_order_conditions,
    linear_form,
    linear_system_dim,
    monomial,
    monomial_basis,
    multiplicity_conditions,
    orbit_dim_count,
    restrict_to_line,
    tangent_cone_conditions,
    tjurina_number,
)
from .rationals import frac

LINE = linear_form(0, 0, 1)  # the distinguished line z = 0

_LAMBDA_SAMPLES = (Fraction(2), Fraction(3), Fraction(5))


def _pt(x, y, z) -> MarkedPoint:
    return MarkedPoint.of(x, y, z)


class SexticFamily(NamedTuple):
    family_id: str
    singularity: str
    case: int
    parametrized: bool
    bad_lambdas: tuple[Fraction, ...]
    marked_points: tuple[MarkedPoint, ...]
    marked_lines: tuple[HomogeneousForm, ...]
    expected_orders: tuple[int, ...]
    singular_mark: tuple[MarkedPoint, int] | None  # (point, n) for an A_n on the sextic
    claimed_count: int
    stated_mark_n: int | None = None  # the A_n the stated family imposes, below the mark's

    def base(self, lam: Fraction) -> HomogeneousForm:
        return _BASES[self.family_id](lam)

    def restriction_points(self, lam: Fraction) -> tuple[MarkedPoint, ...]:
        return _RESTRICTION_POINTS[self.family_id](lam)

    def lambda_samples(self) -> tuple[Fraction, ...]:
        if not self.parametrized:
            return (frac(0),)
        return tuple(v for v in _LAMBDA_SAMPLES if v not in self.bad_lambdas)

    def representative(self, lam: Fraction) -> HomogeneousForm:
        return self.base(lam) + LINE * _REPRESENTATIVE_QUINTICS[self.family_id]

    def conditions(self, lam: Fraction) -> tuple[ConditionSystem, ConditionSystem]:
        """The stated family's conditions on sextics at lam, and the rows its mark
        imposes beyond them (none unless `stated_mark_n` is set).

        Each restriction point gives the line-order rows of its order; an A_n
        mark gives a double point and, for a cusp, the tangent cone l^2, linear
        because every cusp mark is a restriction point of order >= 3.
        """
        stated = beyond = ConditionSystem(6)
        for point, order in zip(self.restriction_points(lam), self.expected_orders):
            stated = stated.extend(line_order_conditions(6, LINE, point, order))
        if self.singular_mark is not None:
            point, n = self.singular_mark
            stated = stated.extend(multiplicity_conditions(6, point, 2))
            if n == 2:
                cusp = tangent_cone_conditions(6, LINE, point)
                if self.stated_mark_n == 1:
                    beyond = cusp
                else:
                    stated = stated.extend(cusp)
        return stated, beyond

    def counts(self, conditions: tuple[ConditionSystem, ConditionSystem] | None = None) -> FamilyCounts:
        """The stated family's affine and orbit counts, and the orbit count with
        the full mark when the stated one is less, from the conditions at the
        first lambda sample (built here unless given)."""
        stated, beyond = conditions or self.conditions(self.lambda_samples()[0])
        params = 1 if self.parametrized else 0
        markings = (self.marked_points, self.marked_lines)
        variant = None
        if self.stated_mark_n is not None:
            variant = orbit_dim_count(stated.extend(beyond), params, *markings)
        return FamilyCounts(
            linear_system_dim(stated) + params,
            orbit_dim_count(stated, params, *markings),
            variant,
        )


class FamilyCounts(NamedTuple):
    affine: int
    orbit: int
    variant_orbit: int | None  # with the full mark; None unless the stated one is less


def _z11_base(lam: Fraction) -> HomogeneousForm:
    y3 = monomial(0, 3, 0)
    return y3 * linear_form(lam, -1, 0) * linear_form(lam, -1, 0) * linear_form(1, -1, 0)


def _z11_case2_base(_: Fraction) -> HomogeneousForm:
    y3 = monomial(0, 3, 0)
    step = linear_form(1, -1, 0)
    return y3 * step * step * step


def _z11_case3_base(_: Fraction) -> HomogeneousForm:
    return monomial(0, 5, 0) * linear_form(1, -1, 0)


def _w12_base(lam: Fraction) -> HomogeneousForm:
    factor = linear_form(-lam, 1, 0)
    return monomial(0, 4, 0) * factor * factor


def _w12_case2_base(_: Fraction) -> HomogeneousForm:
    return monomial(0, 6, 0)


def _w13_base(_: Fraction) -> HomogeneousForm:
    return monomial(2, 4, 0)


def _z12_case1_base(lam: Fraction) -> HomogeneousForm:
    return monomial(2, 3, 0) * linear_form(1, -lam, 0)


def _z12_case2_base(_: Fraction) -> HomogeneousForm:
    return monomial(3, 3, 0)


_BASES = {
    "z11-case1": _z11_base,
    "z11-case2": _z11_case2_base,
    "z11-case3": _z11_case3_base,
    "w12-case1": _w12_base,
    "w12-case2": _w12_case2_base,
    "w13": _w13_base,
    "z12-case1": _z12_case1_base,
    "z12-case2": _z12_case2_base,
    "z13-case1": _z12_case1_base,
    "z13-case2": _z12_case2_base,
}

_RESTRICTION_POINTS = {
    "z11-case1": lambda lam: (_pt(1, 0, 0), _pt(1, lam, 0), _pt(1, 1, 0)),
    "z11-case2": lambda _: (_pt(1, 0, 0), _pt(1, 1, 0)),
    "z11-case3": lambda _: (_pt(1, 0, 0), _pt(1, 1, 0)),
    "w12-case1": lambda lam: (_pt(1, 0, 0), _pt(1, lam, 0)),
    "w12-case2": lambda _: (_pt(1, 0, 0),),
    "w13": lambda _: (_pt(1, 0, 0), _pt(0, 1, 0)),
    "z12-case1": lambda lam: (_pt(1, 0, 0), _pt(0, 1, 0), _pt(lam, 1, 0)),
    "z12-case2": lambda _: (_pt(1, 0, 0), _pt(0, 1, 0)),
    "z13-case1": lambda lam: (_pt(1, 0, 0), _pt(0, 1, 0), _pt(lam, 1, 0)),
    "z13-case2": lambda _: (_pt(1, 0, 0), _pt(0, 1, 0)),
}

# Fixed quintic parts for the verified representatives.  Chosen once so that
# the marked singularity comes out right and the total Tjurina number shows no
# other singular point; the tests pin the outcome.
_UNMARKED = monomial(5, 0, 0) + monomial(0, 0, 5) + monomial(0, 5, 0, 2) + monomial(2, 0, 3, 3)
_NODE = monomial(4, 1, 0) + monomial(4, 0, 1, 2) + monomial(0, 5, 0, 3) + monomial(0, 0, 5, 5)
_CUSP = monomial(4, 0, 1, 2) + monomial(0, 5, 0, 3) + monomial(0, 0, 5, 5) + monomial(2, 3, 0, 7)
_REPRESENTATIVE_QUINTICS = {
    "z11-case1": _UNMARKED,
    "z11-case2": _UNMARKED,
    "z11-case3": _UNMARKED,
    "w12-case1": monomial(5, 0, 0) + monomial(0, 0, 5) + monomial(0, 5, 0, 2) + monomial(3, 0, 2, 3),
    "w12-case2": monomial(5, 0, 0) + monomial(0, 0, 5) + monomial(1, 4, 0, 2) + monomial(3, 0, 2, 3),
    "w13": _NODE,
    "z12-case1": _NODE,
    "z12-case2": _NODE,
    "z13-case1": _CUSP,
    "z13-case2": _CUSP,
}

_PX, _PY = _pt(1, 0, 0), _pt(0, 1, 0)

# id, type, case, parametrized, bad lambdas, marked points and lines, orders, mark, claimed count
FAMILIES: tuple[SexticFamily, ...] = (
    SexticFamily("z11-case1", "Z11", 1, True, (frac(0), frac(1)), (_PX, _pt(1, 1, 0)), (), (3, 2, 1), None, 18),
    SexticFamily("z11-case2", "Z11", 2, False, (), (_PX, _pt(1, 1, 0)), (), (3, 3), None, 17),
    SexticFamily("z11-case3", "Z11", 3, False, (), (_PX, _pt(1, 1, 0)), (), (5, 1), None, 17),
    SexticFamily("w12-case1", "W12", 1, True, (frac(0),), (_PX,), (LINE,), (4, 2), None, 17),
    SexticFamily("w12-case2", "W12", 2, False, (), (_PX,), (LINE,), (6,), None, 16),
    SexticFamily("w13", "W13", 1, False, (), (_PX, _PY), (), (4, 2), (_PX, 1), 16),
    SexticFamily("z12-case1", "Z12", 1, True, (frac(0),), (_PX, _PY), (), (3, 2, 1), (_PX, 1), 17),
    SexticFamily("z12-case2", "Z12", 2, False, (), (_PX, _PY), (), (3, 3), (_PX, 1), 16),
    SexticFamily("z13-case1", "Z13", 1, True, (frac(0),), (_PX, _PY), (), (3, 2, 1), (_PX, 2), 16),
    SexticFamily("z13-case2", "Z13", 2, False, (), (_PX, _PY), (), (3, 3), (_PX, 2), 15, stated_mark_n=1),
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
    """Specialize, restrict, classify and count one family.

    All lambda specializations must give the same combinatorial output; the
    representative member must show exactly the declared singular point (for
    the flagged family that is the full mark, a cusp, not the double point the
    stated count imposes), and at the first lambda sample it must satisfy
    every condition the counts are taken from, built once here.
    The excess is the total Tjurina number of the representative minus that
    of the mark (n for a certified A_n, 0 without a mark); 0 certifies that
    no other singular point exists over the algebraic closure.

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
    """
    samples = fam.lambda_samples()
    conditions = fam.conditions(samples[0])
    seen: set[tuple] = set()
    mark: AnVerdict | None = None
    excess: int | None = None
    orders: tuple[int, ...] = ()
    residual = 0
    for lam in samples:
        rep = fam.representative(lam)
        if lam == samples[0]:
            coeffs = dict(rep.terms)
            vector = [coeffs.get(mono, 0) for mono in monomial_basis(6)]
            for row in conditions[0].rows + conditions[1].rows:
                if sum(c * x for c, x in zip(row, vector) if c and x):
                    raise ValueError(f"{fam.family_id}: representative misses a condition")
        pattern = restrict_to_line(rep, LINE, fam.restriction_points(lam))
        if pattern.contained:
            raise ValueError(f"{fam.family_id}: representative contains the line")
        orders, residual = pattern.orders, pattern.residual_degree
        if fam.singular_mark is None:
            mark, mark_tau = None, 0
        else:
            point, n = fam.singular_mark
            mark = an_type_at(rep, point, candidate=max(2, n))
            mark_tau = mark.n if mark.kind == "A" else None
        tau = tjurina_number(rep, at_least=mark_tau or 0)
        excess = None if tau is None or mark_tau is None else tau - mark_tau
        seen.add((orders, residual, excess) + ((mark.kind, mark.n) if mark else ()))
    if len(seen) != 1:
        raise ValueError(f"{fam.family_id}: specializations disagree: {sorted(map(str, seen))}")
    return FamilyVerification(fam.family_id, orders, residual, mark, excess, fam.counts(conditions))
