"""The integer-polynomial kernels of `rationals` against sympy as an oracle.

sympy is not on the engine's import path; the tests import it to check
squarefree decomposition (Yun) against `sqf_list`, factorization (Zassenhaus)
against `factor_list`, and the common-component decision of `planecurves`
against a bivariate `gcd`.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import unimodal.rationals as rationals
from unimodal.planecurves import _directions, _share_component, germ_mul
from unimodal.rationals import (
    bivariate_gcd,
    irreducible_factors,
    poly_gcd,
    squarefree_decomposition,
)

X = sympy.Symbol("x")
U, V = sympy.symbols("u v")


def _mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _sympy_poly(f: list[int]) -> sympy.Poly:
    return sympy.Poly(list(reversed(f)), X, domain="ZZ")


def _fraction(r: sympy.Rational) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def _coeffs(p: sympy.Poly) -> tuple[int, ...]:
    return tuple(int(c) for c in reversed(p.all_coeffs()))


def _factorization(f: list[int]) -> list[tuple[tuple[int, ...], int]]:
    return sorted(
        (tuple(factor), mult)
        for part, mult in squarefree_decomposition(f)
        for factor in irreducible_factors(part)
    )


# products of factors with multiplicities, times a content, degree <= 16
coefficient_st = st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64))
factor_st = st.lists(coefficient_st, min_size=2, max_size=5).filter(lambda c: c[-1] != 0)
polynomial_st = st.tuples(
    st.lists(st.tuples(factor_st, st.integers(1, 3)), min_size=1, max_size=5),
    st.integers(-12, 12).filter(bool),
).map(lambda fs: _product(*fs)).filter(lambda f: 2 <= len(f) <= 17)


def _product(factors, content: int) -> list[int]:
    out = [content]
    for factor, mult in factors:
        for _ in range(mult):
            out = _mul(out, factor)
    while out and out[-1] == 0:
        out.pop()
    return out or [content]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(polynomial_st)
def test_yun_agrees_with_sqf_list(f):
    _, expected = _sympy_poly(f).sqf_list()
    assert sorted((tuple(a), i) for a, i in squarefree_decomposition(f)) == sorted(
        (_coeffs(p), int(i)) for p, i in expected
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(polynomial_st)
def test_zassenhaus_agrees_with_factor_list(f):
    _, expected = _sympy_poly(f).factor_list()
    assert _factorization(f) == sorted((_coeffs(p), int(i)) for p, i in expected)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    polynomial_st,
    st.lists(st.fractions(max_denominator=50).filter(bool), min_size=17, max_size=17),
)
def test_tangent_directions_agree_with_factor_list_over_q(f, scales):
    # the cone of degree m with rational coefficients, read as a polynomial in u/v
    m = len(f) - 1 + scales[0].denominator % 3
    cone = {(a, m - a): Fraction(c) / scales[a] * scales[0] for a, c in enumerate(f) if c}
    poly = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * X**a
                          for (a, _), c in cone.items()), X, domain="QQ")
    _, factors = poly.factor_list()
    roots = sorted((-_fraction(p.all_coeffs()[1] / p.all_coeffs()[0]), int(i))
                   for p, i in factors if p.degree() == 1)
    packets = sorted((int(p.degree()), int(i)) for p, i in factors if p.degree() > 1)
    directions = _directions(cone, m)
    infinity = [d.multiplicity for d in directions if d.root is None and d.degree == 1]
    assert infinity == ([m - poly.degree()] if m > poly.degree() else [])
    assert [(d.root, d.multiplicity) for d in directions if d.root is not None] == roots
    assert [(d.degree, d.multiplicity) for d in directions if d.degree > 1] == packets


@pytest.mark.parametrize(
    "f, expected",
    [
        ([1, 0, 0, 0, 1], [[1, 0, 0, 0, 1]]),  # x^4 + 1: reducible mod every prime
        ([1, 0, -10, 0, 1], [[1, 0, -10, 0, 1]]),  # x^4 - 10x^2 + 1, the same
        (_mul([-2, 0, 1], [-3, 0, 1]), [[-3, 0, 1], [-2, 0, 1]]),
        (_mul([1, 0, 0, -2], [5, 1, 0, 3]), [[-1, 0, 0, 2], [5, 1, 0, 3]]),
        (_mul([7, 0, 0, 2], [-3, 1, 0, 1]), [[-3, 1, 0, 1], [7, 0, 0, 2]]),
        (_mul([1, 0, 1], _mul([-2, 0, 0, 1], [1, 0, 0, 0, 1])),
         [[-2, 0, 0, 1], [1, 0, 0, 0, 1], [1, 0, 1]]),
        # non-monic, with content, and with rational roots among irreducible factors
        ([6 * c for c in _mul(_mul([-3, 0, 2], [5, 1, 0, 3]), [1, 2])],
         [[-3, 0, 2], [1, 2], [5, 1, 0, 3]]),
    ],
)
def test_recombination_finds_the_true_factors(monkeypatch, f, expected):
    calls = []
    recombine = rationals._recombine
    monkeypatch.setattr(rationals, "_recombine", lambda *a: calls.append(1) or recombine(*a))
    assert sorted(list(p) for p, _ in _factorization(f)) == sorted(expected)
    assert calls, "no recombination was needed"


def test_quadratics_by_their_discriminant():
    assert irreducible_factors([-6, 1, 1]) == [[-2, 1], [3, 1]]
    assert irreducible_factors([3, 0, 2]) == [[3, 0, 2]]
    assert irreducible_factors([-1, 0, 4]) == [[-1, 2], [1, 2]]


def test_gcd_with_and_without_the_modular_test():
    f, g = _mul([1, 1], [2, 0, 3]), _mul([1, 1], [-5, 7])
    assert poly_gcd(f, g) == [1, 1]
    assert poly_gcd([2, 0, 3], [-5, 7]) == [1]
    # leading coefficients divisible by the prime of the modular test
    p = rationals._LARGE_PRIME
    assert poly_gcd([1, p], [1, 1]) == [1] and poly_gcd([1, p], [-2, -2 * p]) == [1, p]
    # coprime over Z, not mod p
    assert poly_gcd([1, 1], [1 + p, 1]) == [1]


# germs: a chosen common factor (or none) times two random germs of small degree
germ_st = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-4, 4).filter(bool), max_size=8
).map(lambda d: {e: Fraction(c) for e, c in d.items()})
COMMON = [{(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}, {(1, 0): 1, (0, 2): -1}, {(1, 0): 1, (0, 0): 1},
          {(0, 1): 1, (0, 0): -1}, {(1, 1): 1, (1, 0): 1, (0, 1): -1}, {(2, 0): 1, (0, 2): 2},
          {(2, 0): 1, (1, 1): -2, (0, 2): 1}, {(2, 0): 1, (0, 3): -1, (0, 0): 3}]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(germ_st, germ_st, st.sampled_from(COMMON), st.fractions(max_denominator=9).filter(bool))
def test_common_component_decision_agrees_with_bivariate_gcd(f, g, common, scale):
    common = {e: Fraction(c) for e, c in common.items()}
    f, g = germ_mul(f, common), germ_mul({e: c * scale for e, c in g.items()}, common)
    assume(f and g)

    def poly(h):
        return sympy.Poly({e: sympy.Rational(c.numerator, c.denominator) for e, c in h.items()},
                          U, V, domain="QQ")

    gcd = sympy.gcd(poly(f), poly(g))
    expected = gcd.total_degree() > 0 and gcd.eval({U: 0, V: 0}) == 0
    assert _share_component(f, g) == expected


def test_bivariate_gcd_past_unlucky_values():
    # f = (u - v^2)(u + 2v + 1), g = (u - v^2)(u v - 3): the gcd is u - v^2
    f = [[0, 0, -1, -2], [1, 2, -1], [1]]  # by powers of u, coefficients in Z[v]
    g = [[0, 0, 3], [-3, 0, 0, -1], [0, 1]]
    assert bivariate_gcd(f, g) in ([[0, 0, -1], [1]], [[0, 0, 1], [-1]])
    # (u - v^2)(u - 1) and (u - v^2)(u - v) share u - 1 at v = 1 as well
    f = [[0, 0, 1], [-1, 0, -1], [1]]
    g = [[0, 0, 0, 1], [0, -1, -1], [1]]
    assert bivariate_gcd(f, g) in ([[0, 0, -1], [1]], [[0, 0, 1], [-1]])
    # u + (v - 1)(v - 2)(v - 3) and u agree at v = 1, 2, 3: candidates are rejected
    assert bivariate_gcd([[-6, 11, -6, 1], [1]], [[], [1]]) in ([[1]], [[-1]])
    assert bivariate_gcd(f, [[1, 1], [0, 1]]) in ([[1]], [[-1]])
