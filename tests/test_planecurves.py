from __future__ import annotations

import random
from fractions import Fraction

import pytest

import unimodal.planecurves as planecurves
from unimodal.planecurves import (
    AnVerdict,
    ConditionSystem,
    Direction,
    GermNode,
    HomogeneousForm,
    MarkedPoint,
    _blow_up_at_direction,
    _integer_terms,
    _jacobian_rows,
    an_type_at,
    detect_33_point,
    germ,
    germ_mul,
    germ_of,
    linear_form,
    linear_system_dim,
    line_order_conditions,
    local_intersection,
    monomial,
    monomial_basis,
    multiplicity_conditions,
    mult_sequence,
    rational_singular_points,
    restrict_to_line,
    stabilizer_dim,
    tangent_cone_conditions,
    tjurina_number,
)
from unimodal.rationals import MODULAR_PRIME, integer_rank, irreducible_factors, nullspace
from unimodal.scenarios import form_from_json

from oracles import (
    exclusion_system,
    form_to_json,
    is_a,
    stabilizer_dim_by_minors,
    substitute_linear,
    tjurina_number_exact,
)

X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def pt(x, y, z):
    return MarkedPoint.of(x, y, z)


def lam_family(lam):
    """y^3 (lam x - y)^2 (x - y) + z*f5 with f5 = 0: the restriction test case."""
    y3 = monomial(0, 3, 0)
    lx_y = linear_form(lam, -1, 0)
    x_y = linear_form(1, -1, 0)
    return y3 * lx_y * lx_y * x_y


# -- forms ------------------------------------------------------------------


def test_form_arithmetic_and_json():
    f = monomial(2, 1, 0, 3) + monomial(0, 3, 0, Fraction(-1, 2))
    assert f.coeff((2, 1, 0)) == 3
    assert f.coeff((0, 3, 0)) == Fraction(-1, 2)
    assert form_from_json(form_to_json(f)) == f
    g = linear_form(1, 0, 0) * linear_form(0, 1, 0)
    assert g == monomial(1, 1, 0)


def test_form_degree_mismatch():
    with pytest.raises(ValueError):
        monomial(1, 0, 0) + monomial(2, 0, 0)


# -- restriction --------------------------------------------------------------


def test_restriction_z11_pattern():
    lam = Fraction(5)
    f = lam_family(lam)
    line = linear_form(0, 0, 1)
    marked = (pt(1, 0, 0), pt(1, lam, 0), pt(1, 1, 0))
    pattern = restrict_to_line(f, line, marked)
    assert not pattern.contained
    assert pattern.orders == (3, 2, 1)
    assert pattern.residual_degree == 0
    assert sum(pattern.orders) + pattern.residual_degree == 6


def test_restriction_w12_pattern():
    f = monomial(0, 6, 0)
    pattern = restrict_to_line(f, linear_form(0, 0, 1), (pt(1, 0, 0),))
    assert pattern.orders == (6,)
    assert pattern.residual_degree == 0


def test_restriction_generic_sextic_residual():
    f = (
        monomial(6, 0, 0)
        + monomial(0, 6, 0)
        + monomial(5, 1, 0, 3)
        + monomial(0, 0, 6)
    )
    pattern = restrict_to_line(f, linear_form(0, 0, 1))
    assert pattern.orders == ()
    assert pattern.residual_degree == 6


def test_restriction_containment_signal():
    f = linear_form(0, 0, 1) * monomial(2, 0, 0)
    pattern = restrict_to_line(f, linear_form(0, 0, 1))
    assert pattern.contained


def test_restriction_refuses_a_repeated_marked_point():
    # x y^3 + x^3 y on z = 0 vanishes once at [0:1:0] and at [1:0:0]; listing
    # [0:1:0] twice was reported as orders 1,1 with residual degree 2
    f = monomial(1, 3, 0) + monomial(3, 1, 0)
    line = linear_form(0, 0, 1)
    for p, same in ((pt(0, 1, 0), pt(0, 2, 0)), (pt(1, 0, 0), pt(-3, 0, 0))):
        pattern = restrict_to_line(f, line, (p,))
        assert (pattern.orders, pattern.residual_degree) == ((1,), 3)
        with pytest.raises(ValueError, match="distinct"):
            restrict_to_line(f, line, (p, same))
    pattern = restrict_to_line(f, line, (pt(0, 1, 0), pt(1, 0, 0)))
    assert (pattern.orders, pattern.residual_degree) == ((1, 1), 2)


def test_restriction_sum_rule_random():
    rng = random.Random(5)
    line = linear_form(0, 0, 1)
    marked = (pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0))
    for _ in range(25):
        coeffs = {}
        for i in range(5):
            for j in range(5 - i):
                coeffs[(i, j, 4 - i - j)] = rng.randint(-3, 3)
        f = HomogeneousForm.from_dict(4, coeffs)
        if f.is_zero:
            continue
        pattern = restrict_to_line(f, line, marked)
        if pattern.contained:
            continue
        assert sum(pattern.orders) + pattern.residual_degree == 4


def _random_form(rng, degree):
    coeffs = {
        (i, j, degree - i - j): rng.randint(-3, 3) for i in range(degree + 1) for j in range(degree + 1 - i)
    }
    return HomogeneousForm.from_dict(degree, coeffs)


def _random_line_with_points(rng, count):
    """A line with small coefficients, some of them zero, and distinct rational points on it."""
    while True:
        ell = [rng.randint(-2, 2) for _ in range(3)]
        if any(ell):
            break
    base = nullspace([[Fraction(c) for c in ell]], 3)
    points = []
    while len(points) < count:
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        if (s, t) != (0, 0):
            p = pt(*(s * a + t * b for a, b in zip(*base)))
            if p not in points:
                points.append(p)
    return linear_form(*ell), points


def _form_through(rng, p, avoid=None):
    """A nonzero random linear form vanishing at p and not at the point ``avoid``."""
    pivot = next(i for i, c in enumerate(p.coords) if c)
    while True:
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        coeffs[pivot] -= linear_form(*coeffs).evaluate(p)  # p is normalised: p[pivot] = 1
        form = linear_form(*coeffs)
        if not form.is_zero and (avoid is None or form.evaluate(avoid) != 0):
            return form


def _nonvanishing_form(rng, degree, points):
    while True:
        form = _random_form(rng, degree)
        if all(form.evaluate(p) != 0 for p in points):
            return form


def test_restriction_orders_are_local_intersections_with_the_line():
    # F = prod m_i^k_i * R + L * H, with m_i through p_i and R nonzero at every
    # p_i.  No m_i vanishes at the spare point, so none is a multiple of L, and
    # F restricted to L vanishes to order exactly k_i at p_i.  The local
    # intersection number of F and L at a marked point is an independent
    # oracle for its order, planted or not.
    rng = random.Random(16)
    for _ in range(60):
        degree = rng.randint(1, 6)
        line, points = _random_line_with_points(rng, rng.randint(2, 5))
        spare = points.pop()
        planted, form = {}, HomogeneousForm.from_dict(0, {(0, 0, 0): 1})
        for p in points:
            k = rng.randint(1, 3)
            if sum(planted.values()) + k > degree:
                break
            planted[p] = k
            m = _form_through(rng, p, avoid=spare)
            for _ in range(k):
                form = form * m
        form = form * _nonvanishing_form(rng, degree - sum(planted.values()), list(planted))
        form = form + line * _random_form(rng, degree - 1)
        marked = tuple(rng.sample(points, rng.randint(0, len(points))))
        pattern = restrict_to_line(form, line, marked)
        assert not pattern.contained
        oracle = tuple(local_intersection(germ_of(form, p), germ_of(line, p)) for p in marked)
        assert pattern.orders == oracle
        assert all(order == planted[p] for p, order in zip(marked, oracle) if p in planted)
        assert pattern.residual_degree == degree - sum(oracle)


def test_restriction_detects_containment_with_and_without_marked_points():
    rng = random.Random(61)
    for _ in range(30):
        degree = rng.randint(1, 5)
        line, points = _random_line_with_points(rng, 2)
        cofactor = _random_form(rng, degree - 1)
        if cofactor.is_zero:
            continue
        form = line * cofactor
        for marked in ((), (points[0],), tuple(points)):
            assert restrict_to_line(form, line, marked) == (True, (), 0)
        with pytest.raises(ValueError, match="infinite"):
            local_intersection(germ_of(form, points[0]), germ_of(line, points[0]))
        # one term off the line breaks the containment
        off = next(e for e in monomial_basis(degree) if monomial(*e).evaluate(points[1]) != 0)
        assert not restrict_to_line(form + monomial(*off), line).contained


# -- germs and multiplicity trees ---------------------------------------------


def test_germ_of_chart():
    f = monomial(0, 3, 0) + monomial(2, 0, 1)  # y^3 + x^2 z
    g = germ_of(f, pt(1, 0, 0))
    assert g == germ({(3, 0): 1, (0, 1): 1})


def test_mult_sequence_33_normal_form_n6():
    g = germ({(3, 0): 1, (2, 2): 1, (0, 6): 1})  # y^3 + y^2 z^2 + z^6
    tree = mult_sequence(g)
    assert tree.multiplicity == 3
    assert len(tree.children) == 1
    inner = tree.children[0]
    assert inner.multiplicity == 3
    # three distinct branch directions, conjugate over Q: one grouped cubic packet
    assert inner.grouped == ((3, 1),)
    assert inner.children == ()


def test_mult_sequence_ordinary_triple_point():
    g = germ({(3, 0): 1, (0, 3): 1})
    tree = mult_sequence(g)
    assert tree.multiplicity == 3
    assert all(child.multiplicity == 1 for child in tree.children)
    assert not any(child.multiplicity == 3 for child in tree.children)


def _delta(node) -> int:
    """The oracle delta = sum of m(m-1)/2 over a multiplicity tree; an
    irrational direction must be simple, a smooth branch that adds nothing."""
    assert all(mult == 1 for _, mult in node.grouped)
    return node.multiplicity * (node.multiplicity - 1) // 2 + sum(map(_delta, node.children))


def test_mult_sequence_a4_delta():
    g = germ({(2, 0): 1, (0, 5): 1})  # y^2 + z^5
    tree = mult_sequence(g)
    assert tree.multiplicity == 2
    assert tree.children[0].multiplicity == 2
    assert _delta(tree) == 2


def test_mult_sequence_point_off_curve():
    f = monomial(0, 1, 0)
    assert mult_sequence(germ_of(f, pt(1, 1, 1))).multiplicity == 0


def test_mult_sequence_depth_validation():
    with pytest.raises(ValueError):
        mult_sequence(germ({(1, 0): 1}), depth=0)


def test_delta_consistency_with_an():
    # delta(A_n) = ceil(n/2) on the normal forms y^2 + z^(n+1)
    for n in range(1, 7):
        g = germ({(2, 0): 1, (0, n + 1): 1})
        tree = mult_sequence(g)
        assert _delta(tree) == (n + 1) // 2
        verdict = an_type_at(g)
        assert is_a(verdict, n)


def test_mult_sequence_projectivity_equivariance():
    rng = random.Random(12)
    f = lam_family(Fraction(3)) + monomial(0, 0, 3) * monomial(0, 3, 0)
    for _ in range(6):
        while True:
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            from unimodal.rationals import det

            if det(m) != 0:
                break
        p = pt(1, 0, 0)
        image = [sum(m[i][j] * p.coords[j] for j in range(3)) for i in range(3)]
        q = MarkedPoint.of(*image)
        g = substitute_linear(f, m)  # g(x) = f(m x), so germs of g at p match f at m p
        assert mult_sequence(germ_of(g, p)) == mult_sequence(germ_of(f, q))


# -- [3,3]-points --------------------------------------------------------------


def test_detect_33_n6():
    g = germ({(3, 0): 1, (2, 2): 1, (0, 6): 1})
    verdict = detect_33_point(g)
    assert verdict.is_33
    assert verdict.profile == 6


def test_detect_33_n7():
    g = germ({(3, 0): 1, (2, 2): 1, (0, 7): 1})
    verdict = detect_33_point(g)
    assert verdict.is_33
    assert verdict.profile == 7


def test_detect_33_false_on_ordinary_triple():
    assert not detect_33_point(germ({(3, 0): 1, (0, 3): 1})).is_33


def test_detect_33_beyond_catalog_has_no_profile():
    g = germ({(3, 0): 1, (2, 2): 1, (0, 8): 1})
    verdict = detect_33_point(g)
    assert verdict.is_33
    assert verdict.profile is None


def test_detect_33_factors_only_the_repeated_linear_parts(monkeypatch):
    # only a triple direction can carry a triple point, and only a double one
    # a profile-7 tail; in a cubic cone both are linear, so the squarefree
    # cubics (u^3 + v^3, and u^3 + u^2 v + v^3 after one blow-up) go unfactored
    degrees = []

    def recording(part):
        degrees.append(len(part) - 1)
        return irreducible_factors(part)

    monkeypatch.setattr(planecurves, "irreducible_factors", recording)
    for k, profile in ((6, 6), (7, 7), (8, None)):
        verdict = detect_33_point(germ({(3, 0): 1, (2, 2): 1, (0, k): 1}))
        assert verdict.is_33 and verdict.profile == profile
    assert not detect_33_point(germ({(3, 0): 1, (0, 3): 1})).is_33
    assert degrees and set(degrees) == {1}


def test_a_blow_up_builds_no_fraction(monkeypatch):
    # the strict transform is a primitive integer germ, up to a positive factor
    g = germ({(3, 0): Fraction(1, 2), (2, 1): Fraction(-3, 4), (1, 3): 5, (0, 5): Fraction(7, 3)})
    directions = (Direction(None, 1), Direction(Fraction(0), 1), Direction(Fraction(-2, 3), 1))
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    blown = [_blow_up_at_direction(g, d) for d in directions]
    monkeypatch.undo()
    assert made == []
    assert all(type(c) is int for child in blown for c in child.values())
    assert blown[0] == {(0, 0): 6, (0, 1): -9, (1, 3): 60, (2, 5): 28}  # 12 times the transform


def test_detect_33_with_decomposition_n6():
    smooth = germ({(1, 0): 1, (0, 2): -2})  # y - 2 z^2
    residual = germ({(2, 0): 1, (0, 4): -1})  # y^2 - z^4, a tacnode
    total = germ_mul(smooth, residual)
    verdict = detect_33_point(total, decomposition=(residual, smooth))
    assert verdict.is_33 and verdict.profile == 6
    assert verdict.local_intersection == 4
    assert is_a(verdict.residual, 3)


def test_detect_33_with_decomposition_n7():
    smooth = germ({(1, 0): 1, (0, 2): -2})
    residual = germ({(2, 0): 1, (0, 5): -1})  # y^2 - z^5
    total = germ_mul(smooth, residual)
    verdict = detect_33_point(total, decomposition=(residual, smooth))
    assert verdict.is_33 and verdict.profile == 7
    assert verdict.local_intersection == 4
    assert is_a(verdict.residual, 4)


# -- local intersections --------------------------------------------------------


def test_local_intersection_transverse_and_tangent():
    assert local_intersection(germ({(1, 0): 1}), germ({(0, 1): 1})) == 1
    assert local_intersection(germ({(1, 0): 1}), germ({(1, 0): 1, (0, 2): -1})) == 2
    # the cuspidal tangent line meets y^2 - z^3 with multiplicity three
    assert local_intersection(germ({(2, 0): 1, (0, 3): -1}), germ({(1, 0): 1})) == 3
    # a transverse line meets it with the multiplicity of the point
    assert local_intersection(germ({(2, 0): 1, (0, 3): -1}), germ({(0, 1): 1})) == 2


def test_local_intersection_common_component_rejected():
    f = germ({(1, 0): 1})
    with pytest.raises(ValueError):
        local_intersection(f, germ_mul(f, germ({(0, 1): 1, (1, 0): 1})))


def test_local_intersection_checks_for_a_common_component_once(monkeypatch):
    import unimodal.planecurves as planecurves

    calls = []
    share = planecurves._share_component
    monkeypatch.setattr(planecurves, "_share_component", lambda f, g: calls.append(1) or share(f, g))
    # v = u^4 and v = u^4 + u^5 meet with contact 5, five blow-ups deep
    f, g = germ({(0, 1): 1, (4, 0): -1}), germ({(0, 1): 1, (4, 0): -1, (5, 0): -1})
    assert local_intersection(f, g) == 5
    assert calls == [1]


def test_local_intersection_through_a_common_irrational_tangent():
    f = germ({(2, 0): 1, (0, 2): -2})  # tangent directions y = ±sqrt(2) z
    g = germ({(2, 0): 1, (0, 2): -2, (0, 3): 1})
    # (f, g) = (f, z^3), of colength 2 * 3
    assert local_intersection(f, g) == 6


def test_an_type_inconclusive_when_bound_exhausted():
    # mu = 39 lies beyond the cap b <= 16 * candidate + 16 = 32 of the Nakayama search
    verdict = an_type_at(germ({(2, 0): 1, (0, 40): 1}), candidate=1)
    assert verdict.kind == "inconclusive"
    assert verdict.reason == "Milnor number failed to stabilize"


# -- A_n detection ---------------------------------------------------------------


def _compose(g, first, second):
    """g(first(u, v), second(u, v)) for germs given as dicts."""
    out = {}
    for (a, b), coeff in g.items():
        term = {(0, 0): Fraction(1)}
        for factor in [first] * a + [second] * b:
            term = germ_mul(term, factor)
        for key, value in term.items():
            out[key] = out.get(key, 0) + coeff * value
    return germ({k: v for k, v in out.items() if v})


def _partial(g, var):
    out = {}
    for (a, b), coeff in g.items():
        power = (a, b)[var]
        if power:
            key = (a - 1, b) if var == 0 else (a, b - 1)
            out[key] = coeff * power
    return out


def _disguised_an(n, rng):
    """u^2 - v^(n+1) under a random invertible change of coordinates fixing 0."""
    small = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    while True:
        a, b, c, d = (small() for _ in range(4))
        if a * d != b * c:
            break
    second = {(1, 0): c, (0, 1): d}
    first = {(1, 0): a, (0, 1): b}
    for key, value in germ_mul(second, second).items():
        first[key] = first.get(key, 0) + small() * value
    return _compose({(2, 0): Fraction(1), (0, n + 1): Fraction(-1)}, first, second)


def test_an_milnor_matches_intersection_of_partials():
    # mu = dim O/(f_u, f_v) is the intersection number of the two partials,
    # which local_intersection computes without the candidate's cap
    rng = random.Random(7)
    for n in range(1, 9):
        g = _disguised_an(n, rng)
        assert local_intersection(_partial(g, 0), _partial(g, 1)) == n
        for candidate in (1, n, 3 * n):
            verdict = an_type_at(g, candidate=candidate)
            assert is_a(verdict, n) and verdict.milnor == n, (n, candidate, verdict)


def test_an_cost_follows_milnor_number_not_candidate(monkeypatch):
    import unimodal.planecurves as planecurves

    bounds = []
    original = planecurves._local_algebra_dim

    def recording(gu, gv, bound):
        bounds.append(bound)
        return original(gu, gv, bound)

    monkeypatch.setattr(planecurves, "_local_algebra_dim", recording)
    assert is_a(an_type_at(_disguised_an(1, random.Random(3)), candidate=60), 1)
    assert bounds and max(bounds) <= 3
    bounds.clear()
    assert is_a(an_type_at(germ({(2, 0): 1, (0, 5): 1}), candidate=60), 4)
    assert bounds == [2, 3, 4, 5]  # d(b) = b up to b = 4, then d(4) = d(5)


def test_an_golden_suite():
    for n in range(1, 7):
        g = germ({(2, 0): 1, (0, n + 1): 1})
        verdict = an_type_at(g)
        assert verdict.kind == "A" and verdict.n == n and verdict.milnor == n


def test_an_on_forms():
    cusp = monomial(0, 2, 1) - monomial(3, 0, 0)  # y^2 z - x^3
    assert is_a(an_type_at(germ_of(cusp, pt(0, 0, 1))), 2)
    node = monomial(1, 1, 0)
    assert is_a(an_type_at(germ_of(node, pt(0, 0, 1))), 1)


def test_an_smooth_and_other():
    assert an_type_at(germ({(1, 0): 1, (0, 3): 2})).kind == "smooth"
    assert an_type_at(germ({(3, 0): 1, (0, 3): 1})).kind == "other"
    double_line = germ({(2, 0): 1})
    assert an_type_at(double_line).kind == "other"


@pytest.mark.parametrize(
    "shape,candidate,label",
    [
        ({(1, 0): 1, (0, 3): 2}, 6, "smooth"),
        ({(2, 0): 1, (0, 3): 1}, 6, "A2"),
        ({(3, 0): 1, (0, 3): 1}, 6, "other"),
        ({(2, 0): 1, (0, 40): 1}, 1, "inconclusive"),  # mu = 39 lies beyond the cap 32
    ],
    ids=["smooth", "A", "other", "inconclusive"],
)
def test_an_verdict_label_is_a_n_or_the_kind(shape, candidate, label):
    assert an_type_at(germ(shape), candidate=candidate).label == label


def test_an_w13_shape():
    # y^4 x^2 + z f5 with f5(1,0,0) = 0 and the y x^4 coefficient nonzero: a node
    f5 = monomial(4, 1, 0) + monomial(4, 0, 1) + monomial(0, 5, 0) + monomial(0, 0, 5)
    f = monomial(2, 4, 0) + linear_form(0, 0, 1) * f5
    assert is_a(an_type_at(germ_of(f, pt(1, 0, 0)), candidate=2), 1)


def test_an_z13_shape_without_yx4():
    # dropping y x^4 from f5 turns the marked point into a cusp
    f5 = monomial(4, 0, 1) + monomial(0, 5, 0) + monomial(0, 0, 5)
    f = monomial(2, 3, 0) * linear_form(1, -2, 0) + linear_form(0, 0, 1) * f5
    assert is_a(an_type_at(germ_of(f, pt(1, 0, 0)), candidate=2), 2)


# -- linear systems ---------------------------------------------------------------


def test_linear_system_dims():
    p = pt(0, 0, 1)
    system = multiplicity_conditions(6, p, 3)
    assert len(system.rows) == 6
    assert linear_system_dim(system) == 21  # 27 - 6 on sextics

    quintic_point = multiplicity_conditions(5, pt(1, 2, 3), 1)
    assert linear_system_dim(quintic_point) == 19

    no_x5 = exclusion_system(5, [(5, 0, 0)])
    assert linear_system_dim(no_x5) == 19


def test_linear_system_empty_is_minus_one():
    everything = ConditionSystem(0, ())
    assert linear_system_dim(everything) == 0  # constants form a point
    kill = ConditionSystem(0, ((Fraction(1),),))
    assert linear_system_dim(kill) == -1


def test_linear_system_bounds_random():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.randint(1, 4)
        count = rng.randint(0, 6)
        points = [pt(rng.randint(-3, 3), rng.randint(-3, 3), 1) for _ in range(count)]
        system = ConditionSystem(d, ())
        for p in points:
            system = system.extend(multiplicity_conditions(d, p, 1))
        dim = linear_system_dim(system)
        unconditioned = len(monomial_basis(d)) - 1
        assert dim <= unconditioned
        assert dim >= unconditioned - len(system.rows)


def _annihilated(system, form):
    vector = _coeff_vector(form)
    return all(sum(c * v for c, v in zip(row, vector)) == 0 for row in system.rows)


def test_line_order_conditions_match_restrictions():
    line = linear_form(0, 0, 1)
    system = line_order_conditions(6, line, pt(1, 0, 0), 3)
    # a form with a triple restriction zero at the point passes the functionals
    assert _annihilated(system, lam_family(Fraction(2)))


def test_line_order_system_rank_and_planted_contact():
    rng = random.Random(17)
    for _ in range(40):
        degree = rng.randint(0, 6)
        line, (p, q) = _random_line_with_points(rng, 2)
        at_least = rng.randint(1, degree + 3)
        system = line_order_conditions(degree, line, p, at_least)
        assert len(system.rows) == at_least
        assert system.rank() == min(at_least, degree + 1)
        if at_least > degree:
            continue
        # contact of order at_least at p, plus anything through the line
        m = _form_through(rng, p, avoid=q)
        contact = HomogeneousForm.from_dict(0, {(0, 0, 0): 1})
        for _ in range(at_least - 1):
            contact = contact * m
        cofactor = line * _random_form(rng, degree - 1)
        rest = _nonvanishing_form(rng, degree - at_least, [p])
        assert _annihilated(system, contact * m * rest + cofactor)
        # one order less is seen by the system
        rest = _nonvanishing_form(rng, degree - at_least + 1, [p])
        assert not _annihilated(system, contact * rest + cofactor)


def test_multiplicity_system_rank_and_planted_multiplicity():
    rng = random.Random(18)
    for _ in range(40):
        degree = rng.randint(0, 6)
        coords = [rng.randint(-2, 2) for _ in range(3)]
        if not any(coords):
            continue
        p = pt(*coords)
        m = rng.randint(0, degree + 1)
        system = multiplicity_conditions(degree, p, m)
        assert len(system.rows) == system.rank() == m * (m + 1) // 2
        if not 1 <= m <= degree:
            continue
        # a product of m forms through p, times anything, has multiplicity >= m there
        through = [_form_through(rng, p) for _ in range(m)]
        product = HomogeneousForm.from_dict(0, {(0, 0, 0): 1})
        for factor in through[:-1]:
            product = product * factor
        assert _annihilated(system, product * through[-1] * _random_form(rng, degree - m))
        # m - 1 of them times a form nonzero at p has multiplicity m - 1 exactly
        assert not _annihilated(system, product * _nonvanishing_form(rng, degree - m + 1, [p]))


def _coeff_vector(form: HomogeneousForm):
    return [form.coeff(mono) for mono in monomial_basis(form.degree)]


def test_monomial_germs_are_truncated_germs_of_the_monomials():
    from unimodal.planecurves import _monomial_germs

    rng = random.Random(19)
    for _ in range(30):
        degree, below = rng.randint(0, 6), rng.randint(0, 8)
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
        if not any(coords):
            continue
        p = pt(*coords)
        for mono, g in zip(monomial_basis(degree), _monomial_germs(degree, p, below)):
            full = germ_of(monomial(*mono), p)
            assert g == {e: c for e, c in full.items() if sum(e) < below}, (mono, p, below)


def test_tangent_cone_system_rank_and_planted_cusp_tangent():
    # L^2 R + m1 m2 m3 S has quadratic part l^2 R(p) at p; L M R with M through p
    # but not along L has quadratic part l mu R(p), whose gradient at the line's
    # direction is mu(alpha, beta) grad(l), not zero
    rng = random.Random(20)
    for _ in range(40):
        degree = rng.randint(0, 6)
        line, (p, q) = _random_line_with_points(rng, 2)
        system = tangent_cone_conditions(degree, line, p)
        assert len(system.rows) == 2
        assert system.rank() == (2 if degree >= 2 else 0)
        if degree < 3:
            continue
        triple = _form_through(rng, p) * _form_through(rng, p) * _form_through(rng, p)
        planted = line * line * _random_form(rng, degree - 2) + triple * _random_form(rng, degree - 3)
        assert _annihilated(system, planted)
        across = _form_through(rng, p, avoid=q)
        assert not _annihilated(system, line * across * _nonvanishing_form(rng, degree - 2, [p]))
    with pytest.raises(ValueError, match="point must lie on the line"):
        tangent_cone_conditions(6, linear_form(0, 0, 1), pt(0, 0, 1))


# -- stabilizers -------------------------------------------------------------------


def test_stabilizer_dims_match_spec_values():
    two_points = (pt(1, 0, 0), pt(1, 1, 0))
    assert stabilizer_dim(two_points) == 4
    flag = ((pt(1, 0, 0),), (linear_form(0, 0, 1),))
    assert stabilizer_dim(*flag) == 5
    four_general = (pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1))
    assert stabilizer_dim(four_general) == 0


def test_stabilizer_oracle_agreement():
    cases = [
        ((pt(1, 0, 0), pt(1, 1, 0)), ()),
        ((pt(1, 0, 0),), (linear_form(0, 0, 1),)),
        ((pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1)), ()),
        ((pt(1, 2, 1),), ()),
        ((), (linear_form(1, 1, 1),)),
        ((pt(0, 1, 0),), (linear_form(1, 0, 0),)),
    ]
    for points, lines in cases:
        assert stabilizer_dim(points, lines) == stabilizer_dim_by_minors(points, lines)


def test_stabilizer_single_point_and_line():
    assert stabilizer_dim((pt(1, 0, 0),)) == 6
    assert stabilizer_dim((), (linear_form(0, 0, 1),)) == 6
    # point NOT on the line: dim 4
    assert stabilizer_dim((pt(0, 0, 1),), (linear_form(0, 0, 1),)) == 4


def _z_free_rows(keep):
    """Sextic rows killing every z-free monomial but ``keep``: the restriction to
    z = 0 is pinned to one binary sextic up to scale."""
    basis = monomial_basis(6)
    return ConditionSystem(
        6,
        tuple(
            tuple(Fraction(mono == e) for mono in basis)
            for e in basis
            if e[2] == 0 and e != keep
        ),
    )


def test_orbit_dim_count_generic():
    from unimodal.planecurves import orbit_dim_count

    # the restriction pinned, z * f5 free: 21 quintic coefficients
    pinned = _z_free_rows((3, 3, 0))
    assert linear_system_dim(pinned) == 21
    # one parameter, two fixed points: the largest family count
    assert orbit_dim_count(pinned, 1, stabilizer_dim((pt(1, 0, 0), pt(1, 1, 0)))) == 18
    # fixed flag, no parameter
    assert orbit_dim_count(pinned, 0, stabilizer_dim((pt(1, 0, 0),), (linear_form(0, 0, 1),))) == 16
    # an empty family is an error, not a count, with or without a parameter
    kill_all = ConditionSystem(0, ((Fraction(1),),))
    for params in (0, 1):
        with pytest.raises(ValueError, match="empty family"):
            orbit_dim_count(kill_all, params)
    with pytest.raises(ValueError):
        orbit_dim_count(pinned, -1)


def test_orbit_count_transport_invariance():
    # transporting a family by a projectivity leaves its orbit count unchanged:
    # the stabilizer is conjugated and the rank of the family's sextic system
    # is preserved under the induced coefficient-space map
    from unimodal.rationals import det, rank
    from unimodal.sextics import family

    rng = random.Random(33)
    for family_id in ("z12-case1", "z13-case1"):
        fam = family(family_id)
        base_count = fam.counts().orbit
        stated, _ = fam.conditions(fam.lambda_0)
        conditions = [list(row) for row in stated.rows]
        basis = monomial_basis(6)
        for _ in range(3):
            while True:
                m = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
                if det(m) != 0:
                    break
            # induced linear map on sextic coefficients: column per basis monomial
            induced = []
            for mono in basis:
                image = substitute_linear(HomogeneousForm.from_dict(6, {mono: 1}), m)
                induced.append([image.coeff(target) for target in basis])
            transported = [
                [sum(row[k] * induced[k][j] for k in range(len(basis))) for j in range(len(basis))]
                for row in conditions
            ]
            assert rank(transported) == rank(conditions)
            moved_points = tuple(
                MarkedPoint.of(*[sum(m[i][j] * p.coords[j] for j in range(3)) for i in range(3)])
                for p in fam.marked_points
            )
            assert stabilizer_dim(moved_points) == stabilizer_dim(fam.marked_points)
            transported_count = (
                len(basis) - 1 - rank(transported) + (1 if fam.parametrized else 0)
            ) - stabilizer_dim(moved_points)
            assert transported_count == base_count


def test_stabilizer_conjugation_invariance():
    rng = random.Random(21)
    from unimodal.rationals import det

    points = (pt(1, 0, 0), pt(1, 1, 0))
    base = stabilizer_dim(points)
    for _ in range(5):
        while True:
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            if det(m) != 0:
                break
        moved = tuple(
            MarkedPoint.of(*[sum(m[i][j] * p.coords[j] for j in range(3)) for i in range(3)])
            for p in points
        )
        assert stabilizer_dim(moved) == base


# -- rational singular points --------------------------------------------------------


def test_singular_scan_finds_marked_node():
    f5 = monomial(4, 1, 0) + monomial(4, 0, 1) + monomial(0, 5, 0) + monomial(0, 0, 5)
    f = monomial(2, 4, 0) + linear_form(0, 0, 1) * f5
    report = rational_singular_points(f)
    assert pt(1, 0, 0) in report.singular_points


def test_singular_scan_smooth_fermat():
    fermat = monomial(6, 0, 0) + monomial(0, 6, 0) + monomial(0, 0, 6)
    report = rational_singular_points(fermat)
    assert report.singular_points == ()


def test_singular_scan_cuspidal_cubic():
    cusp = monomial(0, 2, 1) - monomial(3, 0, 0)
    report = rational_singular_points(cusp)
    assert report.singular_points == (pt(0, 0, 1),)


def test_singular_scan_skips_zero_partials():
    three_lines = linear_form(1, 0, 0) * linear_form(0, 1, 0) * linear_form(1, -1, 0)
    assert three_lines.partial(2).is_zero
    assert rational_singular_points(three_lines).singular_points == (pt(0, 0, 1),)


# -- total Tjurina numbers ----------------------------------------------------------


def _conic(a, b, c):
    return monomial(2, 0, 0, a) + monomial(0, 2, 0, b) + monomial(0, 0, 2, c)


_NODAL_CUBIC = monomial(0, 2, 1) - monomial(3, 0, 0) - monomial(2, 0, 1)

_TJURINA_VALUES = [
    (monomial(6, 0, 0) + monomial(0, 6, 0) + monomial(0, 0, 6), 0),  # Fermat sextic
    (_NODAL_CUBIC, 1),
    (monomial(0, 2, 1) - monomial(3, 0, 0), 2),  # cuspidal cubic
    (_conic(1, 1, -1) * linear_form(1, 0, 0), 2),  # conic and a secant line: two nodes
    (linear_form(1, 0, 0) * linear_form(0, 1, 0) * linear_form(1, -1, 0), 4),  # a D4 point
    (linear_form(1, 2, 3), 0),
    (_conic(1, 1, 1), 0),
    (linear_form(1, 0, 0) * linear_form(0, 1, 0), 1),
]


@pytest.mark.parametrize("form, tau", _TJURINA_VALUES)
def test_tjurina_number_exact_values(form, tau):
    assert tjurina_number(form) == tau


@pytest.mark.parametrize("form, tau", _TJURINA_VALUES)
def test_tjurina_number_with_its_own_value_as_bound(form, tau):
    assert tjurina_number(form, at_least=tau) == tjurina_number(form) == tau


@pytest.mark.parametrize("at_least", [2, 4, 100])
def test_tjurina_bound_above_the_truth_raises(at_least):
    # 100 is past every degree searched: the contradiction shows only through persistence
    with pytest.raises(ValueError, match="below the certified Tjurina number"):
        tjurina_number(_NODAL_CUBIC, at_least=at_least)


def test_tjurina_bound_below_the_truth_takes_the_equal_pair(monkeypatch):
    import unimodal.planecurves as planecurves

    original = planecurves._jacobian_rows
    degrees = []

    def recording(generators, degree, k):
        degrees.append(k)
        return original(generators, degree, k)

    monkeypatch.setattr(planecurves, "_jacobian_rows", recording)
    d4 = linear_form(1, 0, 0) * linear_form(0, 1, 0) * linear_form(1, -1, 0)
    assert tjurina_number(d4, at_least=4) == 4 and degrees == [4]
    degrees.clear()
    assert tjurina_number(d4, at_least=1) == 4 and degrees == [4, 5]  # a nonzero excess


def test_tjurina_falls_back_to_exact_ranks_when_the_prime_drops_one(monkeypatch):
    import unimodal.planecurves as planecurves

    exact = []

    def recording(rows):
        exact.append(rows)
        return integer_rank(rows)

    monkeypatch.setattr(planecurves, "integer_rank", recording)
    # F_z = 6p z^5 vanishes mod p, so h_p is positive in every degree
    curve = monomial(6, 0, 0) + monomial(0, 6, 0) + monomial(0, 0, 6, MODULAR_PRIME)
    assert tjurina_number(curve) == 0 and len(exact) == 1


def _recording_jacobian_rows(monkeypatch) -> list[tuple[int, list[dict[int, int]]]]:
    import unimodal.planecurves as planecurves

    built = []

    def recording(generators, degree, k):
        ncols, rows = _jacobian_rows(generators, degree, k)
        built.append((k, rows))
        return ncols, rows

    monkeypatch.setattr(planecurves, "_jacobian_rows", recording)
    return built


def test_tjurina_rows_mod_p_leave_out_the_koszul_rows_of_the_reduced_partials(monkeypatch):
    built = _recording_jacobian_rows(monkeypatch)
    # F_x = 6x^5 + p y^5: its leading term y^5 (the lex-smallest exponent) vanishes mod p,
    # its other term does not
    curve = monomial(6, 0, 0) + monomial(0, 6, 0) + monomial(0, 0, 6) + monomial(1, 5, 0, MODULAR_PRIME)
    partials = [_integer_terms(dict(curve.partial(v).terms)) for v in range(3)]
    assert partials[0] == {(5, 0, 0): 6, (0, 5, 0): MODULAR_PRIME} and min(partials[0]) == (0, 5, 0)
    assert tjurina_number(curve) == tjurina_number_exact(curve) == 0
    # the modular rows come from the partials with the terms that vanish mod p dropped, so F_x
    # leads with x^5 and the rows x^5 m F_y are left out: h_p(13) = 0 certifies, with no exact rank
    reduced = [{e: c % MODULAR_PRIME for e, c in g.items() if c % MODULAR_PRIME} for g in partials]
    assert reduced[0] == {(5, 0, 0): 6}
    assert [k for k, _ in built] == [13]
    assert built[0][1] == _jacobian_rows(reduced, 5, 13)[1]


def test_tjurina_rows_mod_p_drop_a_partial_that_vanishes_mod_p(monkeypatch):
    built = _recording_jacobian_rows(monkeypatch)
    # F_z = 6p z^5 vanishes mod p: the modular rows come from F_x and F_y alone
    curve = monomial(6, 0, 0) + monomial(0, 6, 0) + monomial(0, 0, 6, MODULAR_PRIME)
    partials = [_integer_terms(dict(curve.partial(v).terms)) for v in range(3)]
    assert tjurina_number(curve) == 0
    assert built[0] == (13, _jacobian_rows(partials[:2], 5, 13)[1])


def test_tjurina_fallback_pairs_h_p_with_the_next_exact_value_only_when_equal(monkeypatch):
    built = _recording_jacobian_rows(monkeypatch)
    # four general lines (six nodes) plus p z^4, which smooths the three nodes off z = 0:
    # h_p(7) = 6, then h(8) = h(9) = 3
    curve = linear_form(1, 0, 0) * linear_form(0, 1, 0) * linear_form(0, 0, 1) * linear_form(1, 1, 1)
    curve = curve + monomial(0, 0, 4, MODULAR_PRIME)
    assert tjurina_number(curve) == tjurina_number_exact(curve) == 3
    assert [k for k, _ in built] == [7, 8, 9]


def test_tjurina_number_sees_irrational_nodes():
    # two conics meeting in four nodes (+-i : +-sqrt2 : 1), none of them rational
    curve = _conic(1, 1, -1) * _conic(1, 2, -3)
    assert rational_singular_points(curve).singular_points == ()
    assert tjurina_number(curve) == 4


def test_tjurina_number_inconclusive_on_double_lines():
    x = linear_form(1, 0, 0)
    assert tjurina_number(x * x) is None
    assert tjurina_number(x * x * linear_form(0, 1, 0) * linear_form(0, 0, 1)) is None


def test_tjurina_number_rejects_constants():
    with pytest.raises(ValueError):
        tjurina_number(monomial(0, 0, 0, 5))
    with pytest.raises(ValueError):
        tjurina_number(HomogeneousForm.from_dict(3, {}))
