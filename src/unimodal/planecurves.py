"""Exact plane-curve computations over the rationals.

Homogeneous forms in three variables with rational coefficients, affine germs
at rational points (each coefficient and coordinate an int where it is
integral, `rationals.plain`), multiplicity trees via chart-by-chart blow-up, A_n
detection through exact Milnor numbers, [3,3]-point recognition with the
degree-one elliptic profile, restriction patterns along lines, linear systems
with imposed conditions, and infinitesimal stabilizers of marked points and
lines in the plane.  Every local computation at a plane point reads one
germ, :func:`germ_of`, in the point's chart: A_n and [3,3] checks,
multiplicity trees, the orders of a restriction to a line, and the
multiplicity, line-order and tangent-cone conditions of a linear system.
Milnor numbers and local intersection numbers are both the colength
dim O/(f, g) of two germs, certified by one kernel, :func:`_colength`.

Everything that cannot be decided over the rationals is reported as grouped
degree data or raised as :class:`UndecidableOverQ`; nothing is approximated.
Tangent directions and common components come from the integer-polynomial
kernels of `rationals`; sympy is loaded only by the
:func:`rational_singular_points` diagnostic.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .rationals import (
    MODULAR_PRIME,
    bivariate_gcd,
    frac,
    integer_rank,
    integer_rows,
    irreducible_factors,
    modular_rank,
    plain,
    poly_gcd,
    poly_value,
    rank,
    rat_str,
    squarefree_decomposition,
)


def __getattr__(name: str):
    """Load sympy on first access of ``planecurves.sympy`` (PEP 562).

    Only the :func:`rational_singular_points` diagnostic uses it, so the
    engine imports no sympy until that diagnostic runs.
    """
    if name == "sympy":
        import sympy

        globals()["sympy"] = sympy
        return sympy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sympy():
    """The module attribute ``sympy``: loaded on first use, or what stands in for it."""
    return getattr(sys.modules[__name__], "sympy")


class UndecidableOverQ(ValueError):
    """A branch datum needs an irrational direction the engine will not chase."""


# ---------------------------------------------------------------------------
# Homogeneous forms and marked points
# ---------------------------------------------------------------------------

Exponent = tuple[int, int, int]


class _HomogeneousFormFields(NamedTuple):
    degree: int
    terms: tuple[tuple[Exponent, int | Fraction], ...]  # sorted, nonzero, `plain`


class HomogeneousForm(_HomogeneousFormFields):
    __slots__ = ()

    def __new__(cls, *fields, **named) -> "HomogeneousForm":
        self = super().__new__(cls, *fields, **named)
        for (i, j, k), coeff in self.terms:
            if i + j + k != self.degree:
                raise ValueError(f"monomial {(i, j, k)} does not have degree {self.degree}")
            if coeff == 0:
                raise ValueError("zero coefficients must be dropped")
        return self

    @staticmethod
    def from_dict(degree: int, coeffs: dict[Exponent, int | Fraction]) -> "HomogeneousForm":
        cleaned = {e: c for e, c in zip(coeffs, map(plain, coeffs.values())) if c}
        return HomogeneousForm(degree, tuple(sorted(cleaned.items())))

    def coeff(self, exponent: Exponent) -> int | Fraction:
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        if self.degree != other.degree and not (self.is_zero or other.is_zero):
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return HomogeneousForm.from_dict(max(self.degree, other.degree), out)

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return self + (-1) * other

    def __rmul__(self, scalar: int | Fraction) -> "HomogeneousForm":
        s = plain(scalar)
        return HomogeneousForm.from_dict(self.degree, {e: s * c for e, c in self.terms})

    def __mul__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        out: dict[Exponent, int | Fraction] = {}
        for (a, b, c), x in self.terms:
            for (d, e, f), y in other.terms:
                key = (a + d, b + e, c + f)
                out[key] = out.get(key, 0) + x * y
        return HomogeneousForm.from_dict(self.degree + other.degree, out)

    def evaluate(self, point: "MarkedPoint") -> int | Fraction:
        x, y, z = point.coords
        return sum(c * x**i * y**j * z**k for (i, j, k), c in self.terms)

    def partial(self, var: int) -> "HomogeneousForm":
        out: dict[Exponent, int | Fraction] = {}
        for e, c in self.terms:
            if e[var] == 0:
                continue
            new = list(e)
            new[var] -= 1
            out[tuple(new)] = out.get(tuple(new), 0) + c * e[var]
        return HomogeneousForm.from_dict(max(self.degree - 1, 0), out)


def monomial(i: int, j: int, k: int, coeff: int | Fraction = 1) -> HomogeneousForm:
    return HomogeneousForm.from_dict(i + j + k, {(i, j, k): coeff})


def linear_form(a: int | Fraction, b: int | Fraction, c: int | Fraction) -> HomogeneousForm:
    return HomogeneousForm.from_dict(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})


class _MarkedPointFields(NamedTuple):
    coords: tuple[int | Fraction, int | Fraction, int | Fraction]  # each `plain`


class MarkedPoint(_MarkedPointFields):
    __slots__ = ()

    def __new__(cls, *fields, **named) -> "MarkedPoint":
        self = super().__new__(cls, *fields, **named)
        if all(c == 0 for c in self.coords):
            raise ValueError("a projective point needs a nonzero coordinate")
        pivot = next(c for c in self.coords if c != 0)
        if pivot != 1:
            raise ValueError("points must be normalized: first nonzero coordinate 1")
        return self

    @staticmethod
    def of(x: int | Fraction, y: int | Fraction, z: int | Fraction) -> "MarkedPoint":
        coords = (plain(x), plain(y), plain(z))
        pivot = next((c for c in coords if c != 0), None)
        if pivot is None:
            raise ValueError("a projective point needs a nonzero coordinate")
        if pivot != 1:
            coords = tuple(plain(Fraction(c) / pivot) for c in coords)
        return MarkedPoint(coords)

    def __str__(self) -> str:
        return "[" + ":".join(rat_str(c) for c in self.coords) + "]"


# Bounds on forms and germs read from input; beyond them the reader in
# `scenarios` refuses the input as malformed (exit 2).  The
# largest generated inputs have degree 12 and coefficients of 39 bits.  At
# the bounds, degree 16 and 64-bit rational coefficients, the integer
# kernels of `rationals` stay in the tens of milliseconds (Python 3.11, one
# Xeon core, worst of five dense random germs): `_share_component` of the
# partials takes 6 ms, 27 ms with a common component of degree 8; the
# factorization of a tangent cone (`_directions`) 44 ms; an `an-type` check
# 12 ms, as the Milnor number of a dense random germ is small.  A high
# colength with large coefficients costs far more: seconds to minutes, with
# the worst cases in the `_colength` docstring.
# The bounds were set when sympy's bivariate gcd took 2 s at these bounds;
# they stay, as changing them changes exit codes.  The coefficient bounds
# live with the reader, `scenarios.MAX_COEFF_BITS`.
MAX_DEGREE = 16  # form degree and total degree of a germ monomial


# ---------------------------------------------------------------------------
# Affine germs
# ---------------------------------------------------------------------------

Germ = dict[tuple[int, int], int | Fraction]


def germ(terms: dict[tuple[int, int], int | Fraction]) -> Germ:
    return {e: c for e, c in zip(terms, map(plain, terms.values())) if c}


def germ_of(form: HomogeneousForm, point: MarkedPoint) -> Germ:
    """Affine germ of the form at a rational point, in the chart of its pivot.

    The form is dehomogenised at x_pivot = 1, each term keyed by its two other
    exponents, and translated by the point's two other coordinates
    (:func:`_translate`).
    """
    u, v = _chart_axes(point)
    affine = {(e[u], e[v]): c for e, c in form.terms}
    return _translate(affine, (point.coords[u], point.coords[v]))


def _chart_axes(point: MarkedPoint) -> tuple[int, int]:
    """The two coordinates other than the point's pivot, in order: its chart (u, v)."""
    pivot = next(i for i, c in enumerate(point.coords) if c != 0)
    u, v = (i for i in range(3) if i != pivot)
    return u, v


def _translate(g: Germ, shift: tuple[int | Fraction, int | Fraction]) -> Germ:
    """The germ g(u + s, v + t) for ``shift = (s, t)``, zero terms dropped.

    The germ is scaled once to integer numerators over one denominator
    (`rationals.integer_rows`) and shifted one variable at a time; only the
    result is divided back, a term an int where the denominator divides it.
    """
    den, (numerators,) = integer_rows([list(g.values())])
    terms = dict(zip(g, numerators))
    for var, value in enumerate(shift):
        terms, scale = _shift(terms, var, value.numerator, value.denominator)
        den *= scale
    return {e: c // den if c % den == 0 else Fraction(c, den) for e, c in terms.items() if c}


def _shift(
    terms: dict[tuple[int, int], int], var: int, p: int, q: int
) -> tuple[dict[tuple[int, int], int], int]:
    """``(q^n h(.., x + p/q, ..), q^n)`` for integer terms h, x the variable
    ``var`` and n its largest exponent in h.

    The terms are grouped by the other variable's exponent.  A group
    sum c_a x^a of top degree m becomes q^(n - m) sum c_a q^(m - a) (q x + p)^a,
    by Horner's rule in (q x + p) on integers.
    """
    if not p or not terms:
        return terms, 1
    groups: dict[int, dict[int, int]] = {}
    for e, c in terms.items():
        groups.setdefault(e[1 - var], {})[e[var]] = c
    n = max(max(group) for group in groups.values())
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * q)
    out: dict[tuple[int, int], int] = {}
    for other, group in groups.items():
        m = max(group)
        acc = [group[m]]
        for a in range(m - 1, -1, -1):  # acc <- acc * (q x + p) + c_a q^(m - a)
            acc = (
                [p * acc[0] + group.get(a, 0) * powers[m - a]]
                + [p * x + q * y for x, y in zip(acc[1:], acc)]
                + [q * acc[-1]]
            )
        for i, c in enumerate(acc):
            if c:
                out[(i, other) if var == 0 else (other, i)] = c * powers[n - m]
    return out, powers[n]


def germ_multiplicity(g: Germ) -> int:
    if not g:
        raise ValueError("zero germ has no multiplicity")
    return min(a + b for a, b in g)


def germ_evaluate_origin(g: Germ) -> int | Fraction:
    return g.get((0, 0), 0)


def _germ_partial(g: Germ, var: int) -> Germ:
    out: Germ = {}
    for (a, b), c in g.items():
        e = (a, b)[var]
        if e == 0:
            continue
        key = (a - 1, b) if var == 0 else (a, b - 1)
        out[key] = out.get(key, 0) + c * e
    return out


def germ_mul(f: Germ, g: Germ) -> Germ:
    out: Germ = {}
    for (a, b), x in f.items():
        for (c, d), y in g.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return {e: c for e, c in out.items() if c != 0}


def _tangent_cone(g: Germ) -> Germ:
    m = germ_multiplicity(g)
    return {e: c for e, c in g.items() if e[0] + e[1] == m}


class Direction(NamedTuple):
    """One tangent direction of a germ: either rational or a grouped conjugate packet."""

    root: Fraction | None  # None encodes the direction of the second chart axis
    multiplicity: int  # multiplicity as a root of the tangent cone
    degree: int = 1  # 1 for rational; the factor degree for grouped packets


def _directions(g: Germ) -> list[Direction]:
    """The tangent directions: the second chart axis, then the rational roots
    ascending, then the irreducible non-linear packets by (degree, multiplicity).

    The tangent cone, a binary form in (u, v), is read as a polynomial in
    t = u/v; a drop in its degree is the multiplicity of the axis v = 0.
    """
    m = germ_multiplicity(g)
    cone = _integer_terms(_tangent_cone(g))
    poly = [cone.get((a, m - a), 0) for a in range(m + 1)]
    while poly[-1] == 0:
        poly.pop()
    roots, packets = [], []
    for part, mult in squarefree_decomposition(poly):
        for factor in irreducible_factors(part):
            if len(factor) == 2:
                roots.append(Direction(Fraction(-factor[0], factor[1]), mult))
            else:
                packets.append(Direction(None, mult, degree=len(factor) - 1))
    infinity = [Direction(None, m + 1 - len(poly))] if len(poly) <= m else []
    return (
        infinity
        + sorted(roots, key=lambda d: d.root)
        + sorted(packets, key=lambda d: (d.degree, d.multiplicity))
    )


def _blow_up_at_direction(g: Germ, direction: Direction) -> Germ:
    """Strict-transform germ at the point of the exceptional line the direction marks.

    In the first chart, (u, v) -> (v (root + u'), v) divided by v^m, the term
    c u^a v^b becomes c (u' + root)^a v^(a + b - m): the germ is re-keyed to
    (a, a + b - m) and translated by (root, 0) (:func:`_translate`).
    """
    m = germ_multiplicity(g)
    if direction.root is None and direction.degree == 1:
        # second chart: (u, v) -> (u, u v'); divide by u^m
        out: Germ = {}
        for (a, b), c in g.items():
            key = (a + b - m, b)
            out[key] = out.get(key, 0) + c
        return {e: c for e, c in out.items() if c != 0}
    if direction.degree != 1:
        raise UndecidableOverQ("cannot follow an irrational tangent direction")
    return _translate({(a, a + b - m): c for (a, b), c in g.items()}, (direction.root, 0))


class GermNode(NamedTuple):
    """A node of a multiplicity tree: rational children plus grouped packets."""

    multiplicity: int
    children: tuple["GermNode", ...] = ()
    grouped: tuple[tuple[int, int], ...] = ()  # (factor degree, root multiplicity)

    def key(self):
        return (self.multiplicity, self.grouped, tuple(c.key() for c in self.children))


def mult_sequence(g: Germ, depth: int = 8) -> GermNode:
    """Multiplicity tree of a germ at the origin: blow up along rational
    directions, depth-bounded (for a point of a plane curve, pass `germ_of`).

    Children are canonically sorted; irrational directions appear as grouped
    (degree, multiplicity) packets and are not followed.  Multiplicity 0 means
    the point does not lie on the curve.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    if not g:
        raise ValueError("zero form")
    if germ_evaluate_origin(g) != 0:
        return GermNode(0)
    return _mult_tree(g, depth)


def _mult_tree(g: Germ, depth: int) -> GermNode:
    m = germ_multiplicity(g)
    if m <= 1 or depth == 1:
        return GermNode(m)
    children = []
    grouped = []
    for direction in _directions(g):
        if direction.degree != 1:
            grouped.append((direction.degree, direction.multiplicity))
            continue
        child_germ = _blow_up_at_direction(g, direction)
        child = _mult_tree(child_germ, depth - 1)
        if child.multiplicity > 0:
            children.append(child)
    children.sort(key=GermNode.key)
    grouped.sort()
    return GermNode(m, tuple(children), tuple(grouped))


# ---------------------------------------------------------------------------
# Local intersection numbers
# ---------------------------------------------------------------------------


def local_intersection(f: Germ, g: Germ) -> int:
    """Intersection multiplicity dim O/(f, g) of two germs at the origin.

    A germ that misses the origin meets the other with multiplicity 0; a zero
    germ and a common component through the origin are errors.  Otherwise
    (f, g) is primary to the maximal ideal and :func:`_colength` returns the
    exact number, also when the germs share an irrational tangent direction.
    """
    if not f or not g:
        raise ValueError("zero germ")
    if germ_evaluate_origin(f) != 0 or germ_evaluate_origin(g) != 0:
        return 0
    if _share_component(f, g):
        raise ValueError("infinite intersection: the germs share a component through the point")
    return _colength(f, g)


def _share_component(f: Germ, g: Germ) -> bool:
    """Whether two nonzero germs share an irreducible component through the origin.

    The only component in v alone through the origin is v = 0, common
    exactly when v divides both.  Every other common component involves u.
    Written in u over Z[v] and specialized at the first v0 = 1, 2, ... where
    neither leading coefficient in u vanishes, such a component keeps its
    degree in u and divides both specializations, so coprime specializations
    rule it out.  Only otherwise is the gcd over Z[v][u] formed
    (`rationals.bivariate_gcd`) and evaluated at the origin.
    """
    if all(b for _, b in f) and all(b for _, b in g):
        return True
    fu, gu = _over_zv(f), _over_zv(g)
    if len(fu) == 1 or len(gu) == 1:  # a germ in v alone: its components are lines v = c
        return False
    v0 = next(v for v in itertools.count(1) if poly_value(fu[-1], v) and poly_value(gu[-1], v))
    if len(poly_gcd([poly_value(c, v0) for c in fu], [poly_value(c, v0) for c in gu])) == 1:
        return False
    common = bivariate_gcd(fu, gu)
    return len(common) > 1 and not (common[0] and common[0][0])


def _over_zv(h: Germ) -> list[list[int]]:
    """The germ scaled to integer coefficients, as a polynomial in u over Z[v]."""
    out: list[list[int]] = [[] for _ in range(max(a for a, _ in h) + 1)]
    for (a, b), c in _integer_terms(h).items():
        out[a] += [0] * (b + 1 - len(out[a]))
        out[a][b] = c
    return out


# ---------------------------------------------------------------------------
# A_n detection via exact Milnor numbers
# ---------------------------------------------------------------------------


class AnVerdict(NamedTuple):
    kind: str  # "smooth" | "A" | "other" | "inconclusive"
    n: int | None
    multiplicity: int
    milnor: int | None = None
    reason: str | None = None

    @property
    def label(self) -> str:
        """``A<n>`` for an A_n point, else the kind."""
        return f"A{self.n}" if self.kind == "A" else self.kind


def an_type_at(g: Germ, candidate: int = 6) -> AnVerdict:
    """Classify the origin of a germ as smooth, A_n, or other (for a point of
    a plane curve, pass `germ_of`).

    A_n means multiplicity two with Milnor number n.  The Milnor number
    mu = dim O/(f_u, f_v) is the colength of the partials, certified by
    :func:`_colength` (an equal pair d(b) = d(b+1) and Nakayama's lemma),
    whose search ends by b = mu.  The candidate only caps b at
    16*candidate + 16: reaching the cap without an equal pair certifies
    mu > 16*candidate + 16, reported as inconclusive, never silenced.  The
    corank needs no test of its own: at multiplicity two, mu = 1 iff
    (g_u, g_v) = m iff the linear parts of g_u and g_v are independent iff
    b^2 - 4ac != 0 for the quadratic part a u^2 + b uv + c v^2.
    """
    if not g:
        raise ValueError("zero form")
    if germ_evaluate_origin(g) != 0:
        return AnVerdict("smooth", None, 0)
    m = germ_multiplicity(g)
    if m == 1:
        return AnVerdict("smooth", None, 1)
    if m >= 3:
        return AnVerdict("other", None, m, reason="multiplicity at least three")

    gu, gv = _germ_partial(g, 0), _germ_partial(g, 1)
    if not gu or not gv or _share_component(gu, gv):
        return AnVerdict("other", None, m, reason="non-isolated singular point")

    mu = _colength(gu, gv, 16 * candidate + 16)
    if mu is None:
        return AnVerdict("inconclusive", None, m, None, "Milnor number failed to stabilize")
    return AnVerdict("A", mu, m, mu)


def _colength(f: Germ, g: Germ, cap: int | None = None) -> int | None:
    """dim O/(f, g) of two germs through the origin with no common component
    there; None once the search passes ``cap``.

    Let d(b) = dim O/(f, g, m^b).  If d(b) = d(b+1), then m^b lies in
    (f, g) + m^(b+1), hence in (f, g) by Nakayama's lemma, and
    dim O/(f, g) = d(b).  The search raises b from 1, where d(1) = 1.  With
    no common component (f, g) is m-primary, so an equal pair exists; d
    rises strictly before it, so d(b) >= b and the search stops by
    b = dim O/(f, g).  Passing ``cap`` certifies dim O/(f, g) > cap.

    A detect-33 decomposition multiplies back to a germ of degree at most
    :data:`MAX_DEGREE`, so deg f + deg g <= 16 and Bezout's theorem bounds
    dim O/(f, g) <= 64.  There, f = v - u^8 - 2 u v^3 + 3 u^2 v^5 against
    v^8 + 5 f takes 1.1 s (Python 3.11, one Xeon core).  Large coefficients
    cost far more, as the integers of the elimination grow: a dense residual
    of degree 15 with 64-bit coefficients against v (i = 15) took 265 s.
    """
    dim = 1
    for b in itertools.count(1):
        if cap is not None and b > cap:
            return None
        previous, dim = dim, _local_algebra_dim(f, g, b + 1)
        if dim == previous:
            return dim


def _local_algebra_dim(f: Germ, g: Germ, bound: int) -> int:
    """d(bound) = dim O/(f, g, m^bound), the truncation :func:`_colength` steps.

    The generators are scaled to integer coefficients, which leaves the ideal
    as it is.  The rows, the generators times each monomial below the bound,
    come monomial by monomial: with the columns in the same order this keeps
    the fill-in of the elimination small.
    """
    monomials = [(a, b) for a in range(bound) for b in range(bound - a)]
    index = {mono: i for i, mono in enumerate(monomials)}
    generators = [_integer_terms(f), _integer_terms(g)]
    rows: list[dict[int, int]] = []
    for a, b in monomials:
        for generator in generators:
            row = {}
            for (c, d), coeff in generator.items():
                col = index.get((a + c, b + d))
                if col is not None:
                    row[col] = coeff
            if row:
                rows.append(row)
    return len(monomials) - integer_rank(rows)


def _integer_terms(terms: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], int]:
    """The terms times the lcm of their denominators (`rationals.integer_rows`)."""
    return dict(zip(terms, integer_rows([list(terms.values())])[1][0]))


# ---------------------------------------------------------------------------
# Total Tjurina numbers
# ---------------------------------------------------------------------------


def tjurina_number(form: HomogeneousForm, at_least: int = 0) -> int | None:
    """Total Tjurina number of the plane curve F = 0, or None if not certified.

    Let h(k) = dim S_k - rank J_k for the Jacobian ideal J = (F_x, F_y, F_z),
    with ranks over Q.  J is generated in degree d - 1, so for
    k >= d - 1 an equal pair h(k) = h(k+1) <= k is the largest growth
    Macaulay's bound allows (h(k+1) <= h(k)^<k> = h(k) once h(k) <= k), and
    Gotzmann's persistence theorem (Math. Z. 158, 1978; Bruns-Herzog,
    Thm 4.3.3) gives h(t) = h(k) for every t >= k.  The Hilbert polynomial of
    S/J is then that constant: the length of the Jacobian scheme, the sum of
    the local Tjurina numbers.  A constant also certifies finitely many
    singular points, so the curve is reduced.

    ``at_least`` is the Tjurina number of singular points the caller has
    already certified, and the result is certified only if it is.  Their
    local Jacobian scheme Z has length at_least, and S/J maps onto S/I_Z,
    whose Hilbert function is at_least in every degree t >= at_least - 1 (a
    zero-dimensional scheme of length l imposes independent conditions in
    degree l - 1).  So h(t) >= at_least there, and h(k) = at_least <= k
    already forces h(k+1) = h(k): one rank certifies the equal pair.  With
    the default 0 this is h(k) = 0, a smooth curve.  Any exact h(k) <
    at_least at k >= at_least - 1 contradicts the bound and raises ValueError.

    The first rank, at k = start, is taken mod the prime p of
    `rationals.modular_rank`, on rows built from the partials reduced mod p
    once.  A nonzero minor mod p is a nonzero integer minor, so
    rank_p <= rank_Q and h_p(k) >= h(k) >= at_least; h_p(k) = at_least <= k
    is then exact.  Otherwise exact rows are built from the integer partials,
    from degree k + 1 on, and h_p(k) stands in for h(k) in the first pair:
    h(k) <= h_p(k) = h(k+1) <= k and Macaulay's bound h(k+1) <= h(k) make it
    an equal pair.

    The rows are those of `_jacobian_rows`, which leaves out the Koszul rows
    m g_j whose multiplier m is divisible by the leading monomial L_i of an
    earlier generator g_i = c_i L_i + (terms after L_i in lex order), i < j.
    Over any field a dropped row lies in the span of the kept ones: for
    m = m' L_i, c_i m g_j = (m' g_j) g_i - (g_i - c_i L_i) m' g_j, where the
    first part is a combination of rows of g_i and the second of rows of g_j
    with multipliers m' t > m in lex order.  Induction on j, and for one j on
    the multiplier from the lex-largest down, puts each in the span of the
    kept rows, so the kept rows have the rank of all rows.  The modular
    generators are the partials reduced mod p, with the terms and the
    partials that vanish mod p dropped, so they have leading terms of their
    own and skip their own Koszul rows: rank_p(kept) is the rank mod p of all
    rows of the integer partials, which is at most rank_Q, and
    h_p(k) >= h(k) still holds.

    The search starts at 3(d-2) + 1, one past the socle degree of the Milnor
    algebra of a smooth curve, and takes no rank in a degree above
    (d-1)^2 + 3(d-2).  Reaching that cap (a non-reduced curve always does)
    returns None: inconclusive, never a pass.
    """
    d = form.degree
    if form.is_zero or d < 1:
        raise ValueError("a plane curve needs a nonzero form of positive degree")
    generators = [_integer_terms(dict(form.partial(v).terms)) for v in range(3)]
    generators = [g for g in generators if g]
    reduced = [{e: r for e, c in g.items() if (r := c % MODULAR_PRIME)} for g in generators]
    reduced = [g for g in reduced if g]

    def checked(dim: int, k: int) -> int:
        """h(k) = dim, refused when below the bound in a degree k >= at_least - 1."""
        if dim < at_least and k >= at_least - 1:
            raise ValueError(f"h({k}) = {dim} is below the certified Tjurina number {at_least}")
        return dim

    start = max(3 * (d - 2) + 1, d - 1)
    cap = max((d - 1) ** 2 + 3 * (d - 2), start + 1)
    ncols, rows = _jacobian_rows(reduced, d - 1, start)
    dim = checked(ncols - modular_rank(rows), start)  # h_p(start) >= h(start)
    for k in range(start, cap):
        if dim == at_least <= k:  # at start, h_p(start) >= h(start) >= at_least
            return dim
        ncols, rows = _jacobian_rows(generators, d - 1, k + 1)
        previous, dim = dim, checked(ncols - integer_rank(rows), k + 1)
        if dim == previous <= k:  # h(t) = dim for every t >= k, so also at at_least - 1
            return checked(dim, max(k, at_least - 1))
    return None


def _jacobian_rows(
    generators: list[dict[Exponent, int]], degree: int, k: int
) -> tuple[int, list[dict[int, int]]]:
    """dim S_k and sparse integer rows spanning J_k, for generators of one
    degree: h(k) is the first minus the rank of the second.

    The columns follow the reversed monomial basis, z-heavy monomials first,
    so the pivots fall there first, while the rows come in the basis order,
    x-heavy multipliers first.  On the branch sextics this takes a quarter to
    a half of the elimination time of columns in basis order.

    The Koszul rows are left out: m g_j is skipped when the multiplier m is
    divisible by the leading monomial min(g_i) of an earlier generator,
    i < j (the lex-smallest exponent, the column the elimination pivots on).
    Those rows lie in the span of the kept ones (see :func:`tjurina_number`).

    In the reversed basis (x ascending, then y) the x^i y^j z^(k-i-j) sit at
    column ``first[i] + j``, where ``first[i]`` = i(2k + 3 - i)/2 counts the
    monomials with a smaller power of x.
    """
    first = [i * (2 * k + 3 - i) // 2 for i in range(k + 1)]
    leading = [min(generator) for generator in generators]
    rows = []
    for a, b, c in monomial_basis(k - degree):
        for n, generator in enumerate(generators):
            if any(a >= i and b >= j and c >= l for i, j, l in leading[:n]):
                continue
            rows.append({first[a + i] + b + j: coeff for (i, j, _), coeff in generator.items()})
    return (k + 1) * (k + 2) // 2, rows


# ---------------------------------------------------------------------------
# [3,3]-points
# ---------------------------------------------------------------------------


class ThreeThreeVerdict(NamedTuple):
    is_33: bool
    profile: int | None  # 6 or 7 when the resolution matches the degree-one catalog
    local_intersection: int | None = None
    residual: AnVerdict | None = None


def detect_33_point(g: Germ, decomposition: tuple[Germ, Germ] | None = None) -> ThreeThreeVerdict:
    """Detect a triple point of a germ at the origin with one infinitely-near
    triple point.

    The profile says which degree-one elliptic double-cover point the germ
    produces: 6 when the second neighborhood has three distinct directions, 7
    when it has a double direction that immediately smooths; anything deeper
    is reported as no profile (outside the supported catalog).

    When a decomposition (residual, smooth) of the germ is supplied, the
    classical consequences are verified as well: the two pieces meet with
    local intersection number four and the residual piece carries the A-type
    the profile dictates (A_3 for 6, A_4 for 7).
    """
    if not g:
        raise ValueError("zero form")
    if germ_evaluate_origin(g) != 0 or germ_multiplicity(g) != 3:
        return ThreeThreeVerdict(False, None)

    # a direction of higher degree is simple: doubled, it would take degree >= 4 of the cubic cone
    children = [_blow_up_at_direction(g, d) for d in _directions(g) if d.degree == 1]
    triple_children = [child for child in children if child and germ_multiplicity(child) == 3]
    if len(triple_children) != 1:
        return ThreeThreeVerdict(False, None)

    profile = _t_profile(triple_children[0])
    if decomposition is None:
        return ThreeThreeVerdict(True, profile)

    residual, smooth = decomposition
    if germ_mul(residual, smooth) != g:
        raise ValueError("decomposition does not multiply back to the germ")
    if germ_multiplicity(smooth) != 1:
        raise ValueError("second decomposition factor must be smooth at the point")
    meeting = local_intersection(residual, smooth)
    residual_type = an_type_at(residual, candidate=max(4, (profile or 7) - 3))
    return ThreeThreeVerdict(True, profile, meeting, residual_type)


def _t_profile(g: Germ) -> int | None:
    """Match the infinitely-near triple germ against the two supported patterns."""
    directions = _directions(g)
    simple = all(d.multiplicity == 1 for d in directions)
    if simple:
        return 6
    rational = [d for d in directions if d.degree == 1]
    doubles = [d for d in rational if d.multiplicity == 2]
    if len(doubles) == 1 and sum(d.multiplicity * d.degree for d in directions) == 3:
        child = _blow_up_at_direction(g, doubles[0])
        if child and germ_multiplicity(child) == 1:
            return 7
    # no irrational direction is doubled: it would take degree >= 4 of the cubic cone
    return None


# ---------------------------------------------------------------------------
# Restriction to a line
# ---------------------------------------------------------------------------


class RestrictionPattern(NamedTuple):
    contained: bool
    orders: tuple[int, ...]
    residual_degree: int


def restrict_to_line(
    form: HomogeneousForm,
    line: HomogeneousForm,
    marked_points: tuple[MarkedPoint, ...] = (),
) -> RestrictionPattern:
    """Vanishing orders of the restriction at marked points and the residual degree.

    Each order is read off the germ at the point (:func:`_line_order`).  The
    marked points must be distinct, so the residual degree is the degree of
    the form minus the orders.  Containment of the line in the curve is a
    result, not an error: every coefficient of the restriction vanishes,
    which one point of the line decides, the first marked one or else
    [l_y : -l_x : 0] ([1:0:0] on the line z = 0).
    """
    if line.degree != 1:
        raise ValueError("restriction needs a line")
    if len(set(marked_points)) != len(marked_points):
        raise ValueError("marked points must be distinct")
    for p in marked_points:
        if line.evaluate(p) != 0:
            raise ValueError(f"marked point {p} does not lie on the line")
    ell = _line_coefficients(line)
    points = marked_points or (
        MarkedPoint.of(ell[1], -ell[0], 0) if ell[0] or ell[1] else MarkedPoint.of(1, 0, 0),
    )
    orders = [_line_order(form, line, p) for p in points]
    if None in orders:
        return RestrictionPattern(True, (), 0)
    orders = orders[: len(marked_points)]
    return RestrictionPattern(False, tuple(orders), form.degree - sum(orders))


def _line_coefficients(line: HomogeneousForm) -> tuple[int | Fraction, ...]:
    """(l_x, l_y, l_z) of a line l, refused when all three are zero."""
    ell = (line.coeff((1, 0, 0)), line.coeff((0, 1, 0)), line.coeff((0, 0, 1)))
    if not any(ell):
        raise ValueError("degenerate line")
    return ell


def _line_direction(line: HomogeneousForm, point: MarkedPoint) -> tuple[int | Fraction, ...]:
    """(alpha, beta) = (l_v, -l_u) at a point of the line: in the point's chart
    (u, v) the line l = 0 is l_u u + l_v v = 0, through the origin in this direction."""
    ell = _line_coefficients(line)
    if line.evaluate(point) != 0:
        raise ValueError("point must lie on the line")
    u, v = _chart_axes(point)
    return ell[v], -ell[u]


def _line_values(g: Germ, direction: tuple[int | Fraction, ...]) -> dict[int, int | Fraction]:
    """k -> g_k(alpha, beta), g_k the degree-k part of the germ g at a point of a
    line with direction (alpha, beta) there: the restriction is sum_k g_k(alpha, beta) t^k."""
    alpha, beta = direction
    values: dict[int, int | Fraction] = {}
    for (a, b), c in g.items():
        values[a + b] = values.get(a + b, 0) + c * alpha**a * beta**b
    return values


def _line_order(form: HomogeneousForm, line: HomogeneousForm, point: MarkedPoint) -> int | None:
    """Order at the point of the form restricted to the line; None if the
    restriction vanishes identically."""
    values = _line_values(germ_of(form, point), _line_direction(line, point))
    return min((k for k, value in values.items() if value), default=None)


# ---------------------------------------------------------------------------
# Linear systems with imposed conditions
# ---------------------------------------------------------------------------


@functools.cache
def monomial_basis(degree: int) -> tuple[Exponent, ...]:
    """The (d+1)(d+2)/2 exponents of degree d, x-heavy first; built once per degree."""
    return tuple(
        (i, j, degree - i - j) for i in range(degree, -1, -1) for j in range(degree - i, -1, -1)
    )


class _ConditionSystemFields(NamedTuple):
    degree: int
    rows: tuple[tuple[int | Fraction, ...], ...] = ()  # one functional per row, over monomial_basis


class ConditionSystem(_ConditionSystemFields):
    __slots__ = ()

    def __new__(cls, *fields, **named) -> "ConditionSystem":
        self = super().__new__(cls, *fields, **named)
        expected = (self.degree + 1) * (self.degree + 2) // 2
        if any(len(row) != expected for row in self.rows):
            raise ValueError(f"a condition row for degree {self.degree} needs {expected} entries")
        return self

    def extend(self, more: "ConditionSystem") -> "ConditionSystem":
        if more.degree != self.degree:
            raise ValueError("condition systems for different degrees")
        return ConditionSystem(self.degree, self.rows + more.rows)

    def rank(self) -> int:
        return rank(self.rows)


def _monomial_germs(degree: int, point: MarkedPoint, below: int) -> list[Germ]:
    """The terms of degree below ``below`` of the germ at the point of each
    monomial of the basis, in basis order.

    In the point's chart (u, v) a monomial is U^a V^b, and at the point (s, t)
    its germ is (u + s)^a (v + t)^b: the coefficient of u^i v^j is
    C(a, i) s^(a - i) C(b, j) t^(b - j), as :func:`germ_of` would give, an
    int when s and t are integers.
    """

    def powers(x: int | Fraction) -> list[list[tuple[int, int | Fraction]]]:
        """For a = 0..degree the nonzero terms (i, C(a, i) x^(a - i)) of (w + x)^a, i < below."""
        return [
            [(i, math.comb(a, i) * x ** (a - i)) for i in range(min(a, below - 1) + 1) if x or i == a]
            for a in range(degree + 1)
        ]

    u, v = _chart_axes(point)
    us, vs = powers(point.coords[u]), powers(point.coords[v])
    return [
        {(i, j): c * d for i, c in us[mono[u]] for j, d in vs[mono[v]] if i + j < below}
        for mono in monomial_basis(degree)
    ]


def multiplicity_conditions(degree: int, point: MarkedPoint, at_least: int) -> ConditionSystem:
    """The germ's coefficients of u^a v^b, a + b below ``at_least``, at the point.

    m(m+1)/2 functionals for multiplicity at least m, read in the point's
    chart (:func:`germ_of`).
    """
    germs = _monomial_germs(degree, point, at_least)
    rows = tuple(
        tuple(g.get((a, order - a), 0) for g in germs)
        for order in range(at_least)
        for a in range(order + 1)
    )
    return ConditionSystem(degree, rows)


def line_order_conditions(
    degree: int, line: HomogeneousForm, point: MarkedPoint, at_least: int
) -> ConditionSystem:
    """Vanishing of the restriction to the line at the point to order ``at_least``:
    the coefficients g_k(alpha, beta), k below ``at_least``, of :func:`_line_values`."""
    direction = _line_direction(line, point)
    values = [_line_values(g, direction) for g in _monomial_germs(degree, point, at_least)]
    rows = tuple(tuple(v.get(k, 0) for v in values) for k in range(at_least))
    return ConditionSystem(degree, rows)


def tangent_cone_conditions(degree: int, line: HomogeneousForm, point: MarkedPoint) -> ConditionSystem:
    """Tangent cone l^2 at a double point: the gradient of the germ's quadratic
    part G_2 = a u^2 + b uv + c v^2 vanishes at the line's direction (alpha, beta),
    the rows 2a alpha + b beta and b alpha + 2c beta.

    That a cusp's tangent cone is a square is not linear; it is here only because
    the line is given, as where the curve meets it with order >= 3 at the double
    point: there the line is the cusp's tangent.
    """
    alpha, beta = _line_direction(line, point)
    quadratic = [
        [g.get(e, 0) for e in ((2, 0), (1, 1), (0, 2))]
        for g in _monomial_germs(degree, point, 3)
    ]
    rows = (
        tuple(2 * a * alpha + b * beta for a, b, _ in quadratic),
        tuple(b * alpha + 2 * c * beta for _, b, c in quadratic),
    )
    return ConditionSystem(degree, rows)


def linear_system_dim(system: ConditionSystem) -> int:
    """Projective dimension of the linear system cut out by the conditions."""
    total = len(monomial_basis(system.degree))
    return total - system.rank() - 1


def orbit_dim_count(conditions: ConditionSystem, continuous_params: int = 0, stabilizer: int = 0) -> int:
    """Dimension of the projectivity orbit of a normalized curve family.

    The family is the linear system the conditions cut out, normalised to an
    affine chart, so its parameter dimension is the system's projective
    dimension plus the declared continuous parameters; the count is that minus
    the stabilizer dimension of the markings (:func:`stabilizer_dim`).  An
    empty system is an error, not a count.
    """
    if continuous_params < 0:
        raise ValueError("continuous parameter count cannot be negative")
    dim = linear_system_dim(conditions)
    if dim == -1:
        raise ValueError("empty family")
    return dim + continuous_params - stabilizer


# ---------------------------------------------------------------------------
# Stabilizers in the plane
# ---------------------------------------------------------------------------

def _stabilizer_rows(
    points: tuple[MarkedPoint, ...],
    lines: tuple[HomogeneousForm, ...],
) -> list[list[int]]:
    """The functionals A -> u^T A p on the traceless matrices A, on integers.

    A point p, scaled to integer coordinates, gives the pairs (u, p) for the
    nonzero cross products u = e_i x p, which span the u with u.p = 0; a line
    l, scaled alike, the pairs (l, v) for v = e_i x l.  The basis of the
    traceless matrices is E11 - E22, E22 - E33, then Eij for i != j, so each
    row is u1 p1 - u2 p2, u2 p2 - u3 p3, then ui pj.
    """

    def crossed(w: list[int]) -> list[tuple[int, int, int]]:
        a, b, c = w
        return [u for u in ((0, -c, b), (c, 0, -a), (-b, a, 0)) if any(u)]

    pairs = []
    for point in points:
        p = integer_rows([point.coords])[1][0]
        pairs += [(u, p) for u in crossed(p)]
    for line in lines:
        ell = integer_rows([_line_coefficients(line)])[1][0]
        pairs += [(ell, v) for v in crossed(ell)]
    return [
        [u[0] * p[0] - u[1] * p[1], u[1] * p[1] - u[2] * p[2]]
        + [u[i] * p[j] for i in range(3) for j in range(3) if i != j]
        for u, p in pairs
    ]


def stabilizer_dim(
    points: tuple[MarkedPoint, ...] = (),
    lines: tuple[HomogeneousForm, ...] = (),
) -> int:
    """Dimension of the projectivity stabilizer of marked points and lines.

    Computed on the eight-dimensional traceless Lie algebra: each point
    contributes functionals of rank two forcing its image into its own
    direction, each line the dual ones; the answer is 8 minus the rank.
    """
    return 8 - rank(_stabilizer_rows(points, lines))


# ---------------------------------------------------------------------------
# Rational singular points of a plane curve
# ---------------------------------------------------------------------------


class SmoothnessReport(NamedTuple):
    """Rational singular points plus degree bookkeeping for the rest.

    The scan eliminates the partials by resultants and inspects rational
    roots; it certifies only "no rational singular points" plus the degree
    accounting of the eliminant, never smoothness over the algebraic closure.
    It is a diagnostic only, which no engine path calls: the family check
    reads singular points beyond the marked ones off :func:`tjurina_number`.
    """

    singular_points: tuple[MarkedPoint, ...]
    eliminant_degree: int
    unresolved_degree: int  # degree of the eliminant part without rational roots


def rational_singular_points(form: HomogeneousForm) -> SmoothnessReport:
    """Find all rational singular points by resultant elimination.

    Any common zero of the three partials forces the pairwise x-resultants,
    hence their gcd, to vanish at the (y : z) direction; rational directions
    are then lifted back through a univariate gcd in x.  The direction with
    y = z = 0 is the coordinate point, checked directly.

    A diagnostic that no engine path calls: it needs sympy, which the
    package's ``test`` extra installs.
    """
    sympy = _sympy()
    x, y, z = sympy.symbols("x y z")

    def to_expr(f: HomogeneousForm):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * x**i * y**j * z**k
            for (i, j, k), c in f.terms
        )

    # an identically zero partial imposes nothing
    partials = [to_expr(p) for p in (form.partial(v) for v in range(3)) if not p.is_zero]
    if not partials:
        raise ValueError("zero form")
    # an x-free partial already constrains (y : z); pairs varying in x eliminate it
    eliminants = [sympy.expand(p) for p in partials if sympy.degree(p, x) == 0]
    varying = [p for p in partials if sympy.degree(p, x) >= 1]
    for f, g in itertools.combinations(varying, 2):
        eliminants.append(sympy.expand(sympy.resultant(f, g, x)))
    if not eliminants:
        raise ValueError("cannot eliminate: a single partial varies in x")
    eliminant = eliminants[0]
    for item in eliminants[1:]:
        eliminant = sympy.gcd(eliminant, item)
    if eliminant == 0:
        raise ValueError("degenerate eliminant; the partials share a component")
    total_deg = int(sympy.total_degree(sympy.expand(eliminant)))

    directions: list[tuple[Fraction, Fraction]] = []
    accounted = 0
    if total_deg > 0:
        uni = sympy.Poly(eliminant.subs(z, 1), y)
        for root, mult in uni.ground_roots().items():
            directions.append((Fraction(sympy.Rational(root)), frac(1)))
            accounted += mult
        z_mult = total_deg - (uni.degree() if uni.degree() is not None else 0)
        if uni.is_zero:
            raise ValueError("eliminant vanishes along the z = 1 chart")
        if z_mult > 0:
            directions.append((frac(1), frac(0)))
            accounted += z_mult

    found: list[MarkedPoint] = []

    def check(px, py, pz) -> None:
        values = {x: sympy.Rational(px), y: sympy.Rational(py), z: sympy.Rational(pz)}
        if all(p.subs(values) == 0 for p in partials):
            point = MarkedPoint.of(px, py, pz)
            if point not in found:
                found.append(point)

    check(1, 0, 0)
    for y0, z0 in directions:
        for x0 in _x_solutions(partials, y0, z0, x, y, z):
            check(x0, y0, z0)
    return SmoothnessReport(tuple(found), total_deg, max(total_deg - accounted, 0))


def _x_solutions(partials, y0, z0, x, y, z) -> list[Fraction]:
    sympy = _sympy()
    values = {y: sympy.Rational(y0), z: sympy.Rational(z0)}
    gcd_poly = None
    for p in partials:
        specialized = sympy.expand(p.subs(values))
        poly = sympy.Poly(specialized, x)
        gcd_poly = poly if gcd_poly is None else gcd_poly.gcd(poly)
    if gcd_poly.is_zero:
        raise ValueError("the partials vanish along a whole line")
    out: list[Fraction] = []
    for root in gcd_poly.ground_roots():
        value = Fraction(sympy.Rational(root))
        if value not in out:
            out.append(value)
    return sorted(out)
