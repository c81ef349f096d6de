"""Independent brute-force oracles that the tests compare the engine against,
and the helpers only the tests need.

None of these is called by the engine; each oracle recomputes a value by a
slower or more direct route than the kernel it checks.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Sequence

from unimodal.configurations import (
    CATALOG,
    CatalogEntry,
    Component,
    Contact,
    CurveConfiguration,
    FundamentalCycle,
    _pairings,
    isomorphic,
)
from unimodal.pipelines import _SECOND_FIBERS, CheckRecord
from unimodal.planecurves import (
    AnVerdict,
    ConditionSystem,
    Direction,
    Germ,
    GermNode,
    HomogeneousForm,
    MarkedPoint,
    UndecidableOverQ,
    _blow_up_at_direction,
    _directions,
    _integer_terms,
    _line_coefficients,
    an_type_at,
    germ_evaluate_origin,
    germ_multiplicity,
    germ_of,
    linear_form,
    monomial,
    monomial_basis,
    restrict_to_line,
    tjurina_number,
)
from unimodal.rationals import det, frac, integer_rank, rat_str
from unimodal.scenarios import Report, ScenarioReport
from unimodal.sextics import LINE, FamilyVerification, SexticFamily


def _copy(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    return [list(row) for row in rows]


def row_reduce(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q and the list of pivot columns, by
    Gauss-Jordan elimination in Fractions (pivots left to right, each on the
    first remaining row that is nonzero there)."""
    m = _copy(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank_by_minors(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank as the largest size of a nonvanishing minor (exponential)."""
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    for size in range(min(nrows, ncols), 0, -1):
        for rsel in itertools.combinations(range(nrows), size):
            for csel in itertools.combinations(range(ncols), size):
                if det([[rows[i][j] for j in csel] for i in rsel]) != 0:
                    return size
    return 0


def stabilizer_dim_by_minors(
    points: tuple[MarkedPoint, ...] = (),
    lines: tuple[HomogeneousForm, ...] = (),
) -> int:
    """`planecurves.stabilizer_dim` from its definition, with the rank by minors.

    The rows are the functionals A -> u^T A p, evaluated on the eight matrices
    E11 - E22, E22 - E33 and Eij (i != j), for (u, p) a point p and a basis
    e_j - (p_j / p_i) e_i of the u with u.p = 0, or a line l and a basis of
    the v with l.v = 0.  Duplicate rows are dropped.  The rank is found by
    bordering minors: a nonzero minor none of whose bordered minors is nonzero
    gives the rank (Kronecker), which keeps tall matrices of low rank cheap.
    """

    def unit(i: int, j: int) -> list[list[Fraction]]:
        return [[Fraction(int((a, b) == (i, j))) for b in range(3)] for a in range(3)]

    def minus(m: list[list[Fraction]], n: list[list[Fraction]]) -> list[list[Fraction]]:
        return [[x - y for x, y in zip(r, s)] for r, s in zip(m, n)]

    basis = [minus(unit(0, 0), unit(1, 1)), minus(unit(1, 1), unit(2, 2))]
    basis += [unit(i, j) for i in range(3) for j in range(3) if i != j]
    pairs = [(u, list(p.coords)) for p in points for u in _perpendicular(p.coords)]
    for line in lines:
        ell = list(_line_coefficients(line))
        pairs += [(ell, v) for v in _perpendicular(ell)]
    rows = []
    for u, p in pairs:
        row = [sum(u[a] * m[a][b] * p[b] for a in range(3) for b in range(3)) for m in basis]
        if row not in rows:
            rows.append(row)
    rsel: list[int] = []
    csel: list[int] = []
    while True:
        border = next(
            (
                (i, j)
                for i in range(len(rows))
                if i not in rsel
                for j in range(8)
                if j not in csel and det([[rows[a][b] for b in csel + [j]] for a in rsel + [i]]) != 0
            ),
            None,
        )
        if border is None:
            return 8 - len(rsel)
        rsel.append(border[0])
        csel.append(border[1])


def _perpendicular(w: Sequence[Fraction]) -> list[list[Fraction]]:
    """The basis e_j - (w_j / w_i) e_i, j != i, of the u with u.w = 0, w_i the
    first nonzero coordinate."""
    i = next(k for k, x in enumerate(w) if x != 0)
    out = []
    for j in (j for j in range(3) if j != i):
        u = [Fraction(0)] * 3
        u[j], u[i] = Fraction(1), -Fraction(w[j]) / w[i]
        out.append(u)
    return out


# The branch families counted the old way: quintic parts f5 of base + z * f5
# with the monomials of this table left out, 21 - rank(exclusions) + [lambda]
# affine parameters.  The exclusions are hand-picked: x^5 z kills the linear
# term of a double point at [1:0:0], x^4 y z the uv term of its tangent cone.
_X5, _YX4 = (5, 0, 0), (4, 1, 0)
FAMILY_EXCLUSIONS = {
    "z11-case1": (),
    "z11-case2": (),
    "z11-case3": (),
    "w12-case1": (),
    "w12-case2": (),
    "w13": (_X5,),
    "z12-case1": (_X5,),
    "z12-case2": (_X5,),
    "z13-case1": (_X5, _YX4),
    "z13-case2": (_X5,),
}
VARIANT_EXCLUSIONS = {"z13-case2": (_X5, _YX4)}  # the z13-case2 family with the cusp forced


def exclusion_system(degree: int, excluded: Sequence[tuple[int, int, int]]) -> ConditionSystem:
    """One unit row per excluded monomial of the given degree."""
    basis = monomial_basis(degree)
    return ConditionSystem(
        degree, tuple(tuple(Fraction(mono == e) for mono in basis) for e in excluded)
    )


def excluded_affine_count(excluded: Sequence[tuple[int, int, int]], parametrized: bool) -> int:
    """21 free quintic coefficients less the excluded ones, plus the parameter."""
    return 21 - exclusion_system(5, excluded).rank() + (1 if parametrized else 0)


# The branch-sextic representatives as once written by hand: each base apart
# from its restriction points, plus z times the quintic chosen against it.
_X_MINUS_Y = linear_form(1, -1, 0)
HAND_BASES = {
    "z11-case1": lambda lam: monomial(0, 3, 0) * linear_form(lam, -1, 0) * linear_form(lam, -1, 0) * _X_MINUS_Y,
    "z11-case2": lambda _: monomial(0, 3, 0) * _X_MINUS_Y * _X_MINUS_Y * _X_MINUS_Y,
    "z11-case3": lambda _: monomial(0, 5, 0) * _X_MINUS_Y,
    "w12-case1": lambda lam: monomial(0, 4, 0) * linear_form(-lam, 1, 0) * linear_form(-lam, 1, 0),
    "w12-case2": lambda _: monomial(0, 6, 0),
    "w13": lambda _: monomial(2, 4, 0),
    "z12-case1": lambda lam: monomial(2, 3, 0) * linear_form(1, -lam, 0),
    "z12-case2": lambda _: monomial(3, 3, 0),
    "z13-case1": lambda lam: monomial(2, 3, 0) * linear_form(1, -lam, 0),
    "z13-case2": lambda _: monomial(3, 3, 0),
}
_UNMARKED = monomial(5, 0, 0) + monomial(0, 0, 5) + monomial(0, 5, 0, 2) + monomial(2, 0, 3, 3)
_NODE = monomial(4, 1, 0) + monomial(4, 0, 1, 2) + monomial(0, 5, 0, 3) + monomial(0, 0, 5, 5)
_CUSP = monomial(4, 0, 1, 2) + monomial(0, 5, 0, 3) + monomial(0, 0, 5, 5) + monomial(2, 3, 0, 7)
HAND_QUINTICS = {
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


def hand_representative(family_id: str, lam: Fraction) -> HomogeneousForm:
    return HAND_BASES[family_id](lam) + LINE * HAND_QUINTICS[family_id]


def verify_family_by_samples(fam: SexticFamily, samples: Sequence[Fraction]) -> FamilyVerification:
    """`sextics.verify_family` by specialization: restrict, classify and take
    the total Tjurina number at every sample where the restriction points are
    pairwise distinct (0 alone without lambda), which must all agree; the
    conditions are checked and the counts taken at the first sample."""
    samples = [frac(v) for v in samples if fam.points_distinct(v)] if fam.parametrized else [frac(0)]
    conditions = fam.conditions(samples[0])
    seen: set[tuple] = set()
    for lam in samples:
        rep = fam.representative(lam)
        if lam == samples[0]:
            vector = [rep.coeff(mono) for mono in monomial_basis(6)]
            for row in conditions[0].rows + conditions[1].rows:
                if sum(c * x for c, x in zip(row, vector)):
                    raise ValueError(f"{fam.family_id}: representative misses a condition")
        pattern = restrict_to_line(rep, LINE, fam.restriction_points(lam))
        if pattern.contained:
            raise ValueError(f"{fam.family_id}: representative contains the line")
        mark, mark_tau = None, 0
        if fam.singular_mark is not None:
            point, n = fam.singular_mark
            mark = an_type_at(germ_of(rep, point), candidate=max(2, n))
            mark_tau = mark.n if mark.kind == "A" else None
        tau = tjurina_number(rep, at_least=mark_tau or 0)
        excess = None if tau is None or mark_tau is None else tau - mark_tau
        seen.add((pattern.orders, pattern.residual_degree, excess, mark))
    if len(seen) != 1:
        raise ValueError(f"{fam.family_id}: specializations disagree: {sorted(map(str, seen))}")
    ((orders, residual, excess, mark),) = seen
    return FamilyVerification(fam.family_id, orders, residual, mark, excess, fam.counts(conditions))


def fundamental_cycle_brute_force(
    config: CurveConfiguration, bound: int = 6
) -> FundamentalCycle | None:
    """Coordinatewise minimum of all anti-nef cycles in the box [1, bound]^n;
    None when no anti-nef cycle lies in the box."""
    g = config.integer_gram()
    n = len(config.components)
    anti_nef = [
        z
        for z in itertools.product(range(1, bound + 1), repeat=n)
        if all(p <= 0 for p in _pairings(g, z))
    ]
    if not anti_nef:
        return None
    z = tuple(min(z[i] for z in anti_nef) for i in range(n))
    return FundamentalCycle(config, z, tuple(_pairings(g, z)))


def fraction_gram(config: CurveConfiguration) -> list[list[Fraction]]:
    """The Gram matrix in Fractions, built from the components and contacts."""
    index = {name: i for i, name in enumerate(config.names)}
    gram = [[Fraction(0)] * len(index) for _ in index]
    for i, c in enumerate(config.components):
        gram[i][i] = Fraction(c.self_int)
    for contact in config.contacts:
        i, j = index[contact.first], index[contact.second]
        gram[i][j] = gram[j][i] = Fraction(contact.mult)
    return gram


def cycle_invariants_by_fractions(cycle: FundamentalCycle) -> tuple[Fraction, Fraction, Fraction]:
    """Z^2, K.Z and p_a(Z) summed in Fractions on :func:`fraction_gram`, with
    K.E_i = 2 p_a(E_i) - 2 - E_i^2."""
    z, gram = cycle.coeffs, fraction_gram(cycle.config)
    self_int = sum((Fraction(a) * g * b for a, row in zip(z, gram) for g, b in zip(row, z)), Fraction(0))
    canonical = sum((a * Fraction(2 * c.pa - 2 - c.self_int) for a, c in zip(z, cycle.config.components)), Fraction(0))
    return self_int, canonical, 1 + (self_int + canonical) / 2


def int_when_integral(value) -> bool:
    """Whether a computed number keeps the int contract: an int exactly when
    it is integral, a Fraction only when it is not, never a bool or a float."""
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


def match_catalog_by_scan(config: CurveConfiguration) -> CatalogEntry | None:
    """The first CATALOG entry isomorphic to ``config``, by a scan of every entry."""
    return next((entry for entry in CATALOG if isomorphic(config, entry.config)), None)


def rational_by_fraction(value: int | str) -> Fraction:
    """A rational read from input (`scenarios.rational_from_json`) by
    :class:`Fraction` alone: a string of at most 64 characters with at most
    three exponent digits, or an int that is not a bool; numerator and
    denominator of at most 64 bits.  ValueError otherwise."""
    if type(value) is str:
        exponent = value.lower().partition("e")[2].strip().lstrip("+-")
        if len(value) > 64 or len(exponent) > 3:
            raise ValueError(f"{value[:32]!r} exceeds the input bounds")
        try:
            q = Fraction(value.replace("−", "-").strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    elif type(value) is int:
        q = Fraction(value)
    else:
        raise ValueError(f"{value!r} is no string or int")
    if max(abs(q.numerator), q.denominator).bit_length() > 64:
        raise ValueError(f"{value!r} exceeds 64 bits")
    return q


def integral_by_fraction(value: int | str) -> int:
    """An integral rational read from input (`scenarios.integral_from_json`):
    :func:`rational_by_fraction` with denominator 1.  ValueError otherwise."""
    q = rational_by_fraction(value)
    if q.denominator != 1:
        raise ValueError(f"{value!r} is no integer")
    return q.numerator


def is_connected_by_union(config: CurveConfiguration) -> bool:
    """Whether the contact graph is connected, by merging the two ends of
    every contact into one class (union-find); the empty configuration is."""
    parent = {name: name for name in config.names}

    def root(name: str) -> str:
        while parent[name] != name:
            name = parent[name]
        return name

    for contact in config.contacts:
        parent[root(contact.first)] = root(contact.second)
    return len({root(name) for name in config.names}) <= 1


def tjurina_number_exact(form: HomogeneousForm, at_least: int = 0) -> int | None:
    """`planecurves.tjurina_number` with every rank exact (`integer_rank`)
    and no modular shortcut: the same search, bound and ValueError."""
    d = form.degree
    if form.is_zero or d < 1:
        raise ValueError("a plane curve needs a nonzero form of positive degree")
    generators = [g for g in (_integer_terms(dict(form.partial(v).terms)) for v in range(3)) if g]

    def h(k: int) -> int:
        dim = _jacobian_quotient_dim(generators, d - 1, k)
        if dim < at_least and k >= at_least - 1:
            raise ValueError(f"h({k}) = {dim} is below the certified Tjurina number {at_least}")
        return dim

    start = max(3 * (d - 2) + 1, d - 1)
    cap = max((d - 1) ** 2 + 3 * (d - 2), start + 1)
    dim = h(start)
    for k in range(start, cap):
        if dim == at_least <= k:
            return dim
        previous, dim = dim, h(k + 1)
        if dim == previous <= k:  # h(t) = dim for every t >= k
            if dim < at_least:
                t = max(k, at_least - 1)
                raise ValueError(f"h({t}) = {dim} is below the certified Tjurina number {at_least}")
            return dim
    return None


def _jacobian_quotient_dim(generators: list[dict], degree: int, k: int) -> int:
    ncols, rows = jacobian_rows_all(generators, degree, k)
    return ncols - integer_rank(rows)


def jacobian_rows_all(generators: list[dict], degree: int, k: int) -> tuple[int, list[dict[int, int]]]:
    """`planecurves._jacobian_rows` with every row m g_j, the Koszul rows too:
    dim S_k and the rows, on the same columns (reversed monomial basis)."""
    index = {mono: i for i, mono in enumerate(monomial_basis(k)[::-1])}
    rows = [
        {index[(a + i, b + j, c + l)]: coeff for (i, j, l), coeff in generator.items()}
        for a, b, c in monomial_basis(k - degree)
        for generator in generators
    ]
    return len(index), rows


def germ_of_by_expansion(form: HomogeneousForm, point: MarkedPoint) -> Germ:
    """`planecurves.germ_of` term by term in Fractions: x_pivot = 1 and each
    other coordinate p + (local variable), expanded by the binomial theorem."""
    pivot = next(i for i, c in enumerate(point.coords) if c != 0)
    others = [i for i in range(3) if i != pivot]
    out: Germ = {}
    for e, c in form.terms:
        contributions = {(0, 0): c}
        for slot, var in enumerate(others):
            power = e[var]
            base = point.coords[var]
            expanded: Germ = {}
            for (a, b), coeff in contributions.items():
                for m in range(power + 1):
                    key = (a + m, b) if slot == 0 else (a, b + m)
                    term = coeff * math.comb(power, m) * base ** (power - m)
                    expanded[key] = expanded.get(key, Fraction(0)) + term
            contributions = expanded
        for key, coeff in contributions.items():
            out[key] = out.get(key, Fraction(0)) + coeff
    return {e: c for e, c in out.items() if c != 0}


def blow_up_at_direction_by_expansion(g: Germ, direction: Direction) -> Germ:
    """`planecurves._blow_up_at_direction` term by term in Fractions: in the
    first chart each c u^a v^b expanded by the binomial theorem."""
    m = germ_multiplicity(g)
    out: Germ = {}
    if direction.root is None and direction.degree == 1:  # (u, v) -> (u, u v')
        for (a, b), c in g.items():
            key = (a + b - m, b)
            out[key] = out.get(key, Fraction(0)) + c
        return {e: c for e, c in out.items() if c != 0}
    if direction.degree != 1:
        raise UndecidableOverQ("cannot follow an irrational tangent direction")
    for (a, b), c in g.items():  # (u, v) -> (v (root + u'), v)
        for i in range(a + 1):
            key = (i, a + b - m)
            out[key] = out.get(key, Fraction(0)) + c * math.comb(a, i) * direction.root ** (a - i)
    return {e: c for e, c in out.items() if c != 0}


def mult_tree_by_expansion(g: Germ, depth: int = 8) -> GermNode:
    """`planecurves.mult_sequence` with no truncation: every term of the germ
    blown up in Fractions (:func:`blow_up_at_direction_by_expansion`), along
    every rational direction of the fully factored tangent cone."""
    if germ_evaluate_origin(g) != 0:
        return GermNode(0)
    m = germ_multiplicity(g)
    if m <= 1 or depth == 1:
        return GermNode(m)
    directions = _directions(g)
    children = [
        mult_tree_by_expansion(blow_up_at_direction_by_expansion(g, d), depth - 1)
        for d in directions
        if d.degree == 1
    ]
    grouped = sorted((d.degree, d.multiplicity) for d in directions if d.degree != 1)
    return GermNode(m, tuple(sorted(children, key=GermNode.key)), tuple(grouped))


def detect_33_by_expansion(g: Germ) -> tuple[bool, int | None]:
    """``(is_33, profile)`` of `planecurves.detect_33_point`, from the whole
    germ blown up in Fractions along every rational direction, each cone
    factored in full: one triple point among the first neighbours, then
    profile 6 for three simple directions there and 7 for one double
    direction whose blow-up is smooth."""
    if germ_evaluate_origin(g) != 0 or germ_multiplicity(g) != 3:
        return False, None
    children = [blow_up_at_direction_by_expansion(g, d) for d in _directions(g) if d.degree == 1]
    triple = [child for child in children if germ_multiplicity(child) == 3]
    if len(triple) != 1:
        return False, None
    directions = _directions(triple[0])
    if all(d.multiplicity == 1 for d in directions):
        return True, 6
    doubles = [d for d in directions if d.degree == 1 and d.multiplicity == 2]
    if len(doubles) == 1:
        if germ_multiplicity(blow_up_at_direction_by_expansion(triple[0], doubles[0])) == 1:
            return True, 7
    return True, None


def intersection_by_blow_ups(f: Germ, g: Germ) -> int:
    """The local intersection number of two germs through the origin with no
    common component there, by the blow-up recursion: m(f) m(g) plus the
    numbers of the strict transforms at each common tangent direction.

    A common component of the strict transforms at a point of the exceptional
    line would map to a common component of the germs, and both strict
    transforms at a common tangent direction pass through the new origin.
    Common irrational directions raise :class:`UndecidableOverQ`.
    """
    total = germ_multiplicity(f) * germ_multiplicity(g)
    directions_f, directions_g = _directions(f), _directions(g)
    dirs_f = {d.root: d for d in directions_f if d.degree == 1}
    dirs_g = {d.root: d for d in directions_g if d.degree == 1}
    if any(d.degree != 1 for d in directions_f) and any(d.degree != 1 for d in directions_g):
        raise UndecidableOverQ("possible common irrational tangent direction")
    for root, df in dirs_f.items():
        if root in dirs_g:
            total += intersection_by_blow_ups(
                _blow_up_at_direction(f, df), _blow_up_at_direction(g, dirs_g[root])
            )
    return total


def report_to_json(report: Report) -> dict:
    """The report as JSON data, in the layout of the report schema."""
    return {
        "engine": report.engine,
        "schema": report.schema,
        "scenarios": [
            {
                "name": s.name,
                "kind": s.kind,
                "assertions": [
                    {
                        "name": a.name,
                        "computed": a.computed,
                        "expected": a.expected,
                        "status": a.status,
                        "anchor": a.anchor,
                        "flag": a.flag,
                    }
                    for a in s.assertions
                ],
                "counts": {
                    "pass": s.count("pass"),
                    "fail": s.count("fail"),
                    "flagged": s.count("flagged"),
                },
            }
            for s in report.scenarios
        ],
        "summary": {
            "scenarios": len(report.scenarios),
            "pass": report.count("pass"),
            "fail": report.count("fail"),
            "flagged": report.count("flagged"),
            "flags": list(report.flags),
            "exit_code": report.exit_code,
        },
    }


def emit_report_by_dumps(report: Report) -> str:
    """The report text as :func:`json.dumps` writes :func:`report_to_json`."""
    return json.dumps(report_to_json(report), sort_keys=True, indent=2) + "\n"


# Helpers the tests share and the engine does not need.


def substitute_linear(form: HomogeneousForm, matrix: Sequence[Sequence[Fraction]]) -> HomogeneousForm:
    """The form composed with x_i -> sum_j m[i][j] x_j."""
    images = [linear_form(*row) for row in matrix]
    total = HomogeneousForm.from_dict(form.degree, {})
    for exponents, c in form.terms:
        term = HomogeneousForm.from_dict(0, {(0, 0, 0): c})
        for power, image in zip(exponents, images):
            for _ in range(power):
                term = term * image
        total = total + term
    return total


def form_to_json(form: HomogeneousForm) -> dict:
    """The form as a scenario file writes it (`planecurves.form_from_json`)."""
    return {
        "degree": form.degree,
        "coeffs": {f"{i},{j},{k}": rat_str(c) for (i, j, k), c in form.terms},
    }


def parse_report(text: str) -> Report:
    """The report that `scenarios.emit_report` wrote as `text`."""
    data = json.loads(text)
    scenarios = tuple(
        ScenarioReport(
            s["name"],
            s["kind"],
            tuple(
                CheckRecord(
                    a["name"], a["computed"], a["expected"], a["status"], a["anchor"], a.get("flag")
                )
                for a in s["assertions"]
            ),
        )
        for s in data["scenarios"]
    )
    return Report(data["engine"], data["schema"], scenarios)


def relabel(config: CurveConfiguration, mapping: dict[str, str]) -> CurveConfiguration:
    """The configuration with its components renamed by `mapping` (others kept)."""

    def m(name: str) -> str:
        return mapping.get(name, name)

    return CurveConfiguration(
        components=tuple(Component(m(c.name), c.self_int, c.pa, c.sing) for c in config.components),
        contacts=tuple(Contact(m(c.first), m(c.second), c.mult, c.tangential) for c in config.contacts),
        concurrent=tuple(frozenset(m(x) for x in t) for t in config.concurrent),
    )


def _config(comps, contacts=(), concurrent=()) -> CurveConfiguration:
    return CurveConfiguration(
        tuple(Component(*c) for c in comps),
        tuple(Contact(*c) for c in contacts),
        tuple(frozenset(t) for t in concurrent),
    )


# The exceptional dual graphs written out component by component: the oracle
# for the catalog, which builds them from Kodaira fibres and blow-ups.
HAND_EXCEPTIONAL = {
    "E12": _config([("E1", -1, 1, "cusp")]),
    "E13": _config([("E1", -3, 0), ("E2", -2, 0)], [("E1", "E2", 2, True)]),
    "E14": _config(
        [("E1", -3, 0), ("E2", -2, 0), ("E3", -2, 0)],
        [("E1", "E2", 1), ("E1", "E3", 1), ("E2", "E3", 1)],
        [("E1", "E2", "E3")],
    ),
    "Z11": _config([("E1", -2, 1, "cusp")]),
    "Z12": _config([("E1", -4, 0), ("E2", -2, 0)], [("E1", "E2", 2, True)]),
    "Z13": _config(
        [("E1", -4, 0), ("E2", -2, 0), ("E3", -2, 0)],
        [("E1", "E2", 1), ("E1", "E3", 1), ("E2", "E3", 1)],
        [("E1", "E2", "E3")],
    ),
    "W12": _config([("E1", -3, 0), ("E2", -3, 0)], [("E1", "E2", 2, True)]),
    "W13": _config(
        [("E1", -3, 0), ("E2", -3, 0), ("E3", -2, 0)],
        [("E1", "E2", 1), ("E1", "E3", 1), ("E2", "E3", 1)],
        [("E1", "E2", "E3")],
    ),
}


def en_variants(singularity: str) -> tuple[str | None, ...]:
    """The second-fibre variants an elliptic-route type admits; (None,) for E12."""
    return _SECOND_FIBERS.get(singularity, (None,))


def is_a(verdict: AnVerdict, n: int) -> bool:
    """Whether a verdict of `an_type_at` is A_n."""
    return verdict.kind == "A" and verdict.n == n
