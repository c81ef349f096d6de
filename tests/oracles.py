"""Independent brute-force oracles that the tests compare the engine against.

None of these is called by the engine; each recomputes a value by a slower
or more direct route than the kernel it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from unimodal.configurations import CurveConfiguration, FundamentalCycle, _pairings
from unimodal.planecurves import (
    HomogeneousForm,
    MarkedPoint,
    _integer_terms,
    _stabilizer_rows,
    monomial_basis,
)
from unimodal.rationals import det, integer_rank, negative_semidefinite_nullity


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


def is_negative_semidefinite(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Whether the symmetric matrix M has x.M.x <= 0 for every x."""
    return negative_semidefinite_nullity(matrix) is not None


def stabilizer_dim_by_minors(
    points: tuple[MarkedPoint, ...] = (),
    lines: tuple[HomogeneousForm, ...] = (),
) -> int:
    """`planecurves.stabilizer_dim` with the rank by minor enumeration."""
    return 8 - rank_by_minors(_stabilizer_rows(points, lines))


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
    return FundamentalCycle(config, tuple(min(z[i] for z in anti_nef) for i in range(n)))


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
    """dim S_k - rank J_k, on columns in the monomial basis order."""
    index = {mono: i for i, mono in enumerate(monomial_basis(k))}
    rows = [
        {index[(a + i, b + j, c + l)]: coeff for (i, j, l), coeff in generator.items()}
        for a, b, c in monomial_basis(k - degree)
        for generator in generators
    ]
    return len(index) - integer_rank(rows)
