"""Exact linear algebra over the rationals.

Every rank, nullity and definiteness question goes to one of two
fraction-free eliminations over the integers, after the denominators are
cleared by :func:`integer_rows`: :func:`integer_rank` for the rank of sparse
integer rows (:func:`rank` scales each row and calls it), and the symmetric
elimination of :func:`negative_semidefinite_nullity` for definite,
semidefinite and the nullity.  :func:`row_reduce` serves only the callers that
need a reduced matrix: solving, inversion and nullspaces.  :func:`det` and
:func:`rank_by_minors` are independent oracles for the tests.  A bounded
reader for rationals from input completes the module.  Floating point never
appears; every result is exact.  Matrices are plain lists of lists (rows) of
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = list[Fraction]
Matrix = list[Vector]


def frac(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a ``"p/q"`` string or a Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.replace("−", "-").strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(value: Fraction | int) -> str:
    """Canonical string form: ``"3"``, ``"-3/2"``.  Inverse of :func:`frac`."""
    value = frac(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# Bounds on a rational read from input.  They are set by the sympy gcd of
# plane-curve germs (see `planecurves.MAX_DEGREE`) and shared by the reader
# of curve configurations.
MAX_COEFF_BITS = 64  # numerator and denominator of a coefficient
_MAX_COEFF_CHARS = 64  # length of a coefficient string
_MAX_EXPONENT_DIGITS = 3  # digits of a decimal exponent, as in "1e-5"


def bounded_rational(value: int | str | Fraction) -> Fraction:
    """A coefficient read from input, with numerator and denominator bounded.

    A string's decimal exponent is bounded before :class:`Fraction` expands
    it, so "1e100000" is refused at once instead of being built.
    """
    if isinstance(value, str):
        exponent = value.lower().partition("e")[2].strip().lstrip("+-")
        if len(value) > _MAX_COEFF_CHARS or len(exponent) > _MAX_EXPONENT_DIGITS:
            raise ValueError(f"coefficient {value[:32]!r} exceeds the input bounds")
    q = frac(value)
    if max(abs(q.numerator), q.denominator).bit_length() > MAX_COEFF_BITS:
        raise ValueError(f"coefficient exceeds {MAX_COEFF_BITS} bits")
    return q


def _copy(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(row) for row in rows]


def row_reduce(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
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


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q: each row scaled to integers, then :func:`integer_rank`."""
    return integer_rank(
        {j: x for j, x in enumerate(integer_rows([row])[1][0]) if x} for row in rows
    )


def integer_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows (column -> nonzero entry).

    Fraction-free elimination: a row is reduced against the pivot row of its
    first column by an integer combination that cancels that entry; a new
    pivot row is divided by the gcd of its entries to keep the numbers small.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            col = min(row)
            pivot_row = pivots.get(col)
            if pivot_row is None:
                content = gcd(*row.values())
                pivots[col] = {k: v // content for k, v in row.items()}
                break
            common = gcd(pivot_row[col], row[col])
            keep, cancel = pivot_row[col] // common, row[col] // common
            row = {k: keep * v for k, v in row.items()}
            for k, v in pivot_row.items():
                new = row.get(k, 0) - cancel * v
                if new:
                    row[k] = new
                else:
                    del row[k]
    return len(pivots)


def rank_by_minors(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank as the largest size of a nonvanishing minor.

    Exponential; intended as an independent oracle on small matrices.
    """
    m = _copy(rows)
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    for size in range(min(nrows, ncols), 0, -1):
        for rsel in combinations(range(nrows), size):
            for csel in combinations(range(ncols), size):
                sub = [[m[i][j] for j in csel] for i in rsel]
                if det(sub) != 0:
                    return size
    return 0


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int | None = None) -> list[Vector]:
    """Basis of the right kernel of the matrix."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if not rows:
        return [[frac(1 if i == j else 0) for j in range(ncols)] for i in range(ncols)]
    reduced, pivots = row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vector] = []
    for f in free:
        v = [frac(0)] * ncols
        v[f] = frac(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


def det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-free-enough Gaussian elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return frac(1)
    m = _copy(matrix)
    result = frac(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return frac(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    return result


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector:
    """Solve a square nonsingular system exactly.

    Raises ValueError if the matrix is singular.
    """
    n = len(matrix)
    if len(rhs) != n:
        raise ValueError("dimension mismatch")
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    reduced, pivots = row_reduce(aug)
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [reduced[i][n] for i in range(n)]


def solve_in_span(columns: Sequence[Vector], target: Vector) -> Vector:
    """Coordinates of ``target`` in the span of ``columns``.

    The columns must be linearly independent and the target must lie in their
    span; otherwise ValueError.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    reduced, pivots = row_reduce(aug)
    if ncols in pivots:
        raise ValueError("target not in span")
    if pivots != list(range(ncols)):
        raise ValueError("columns are linearly dependent")
    coords = [frac(0)] * ncols
    for r, c in enumerate(pivots):
        coords[c] = reduced[r][ncols]
    return coords


def inverse(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    """Inverse of a square nonsingular matrix, from one reduction of ``[M | I]``.

    Raises ValueError if the matrix is singular.
    """
    n = len(matrix)
    aug = [list(row) + [frac(1 if i == j else 0) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots = row_reduce(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular system")
    return [row[n:] for row in reduced]


def integer_rows(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(d, N)`` with ``N = d * matrix`` integral, ``d`` the lcm of the denominators.

    The scale is positive, so every entry keeps its sign.
    """
    scale = lcm(*(x.denominator for row in matrix for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in matrix]


def is_negative_definite(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Whether the symmetric matrix M has x.M.x < 0 for every x != 0."""
    return negative_semidefinite_nullity(matrix) == 0


def is_negative_semidefinite(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Whether the symmetric matrix M has x.M.x <= 0 for every x."""
    return negative_semidefinite_nullity(matrix) is not None


def negative_semidefinite_nullity(matrix: Sequence[Sequence[Fraction]]) -> int | None:
    """The dimension of the radical of a negative semidefinite symmetric M;
    None when some x has x.M.x > 0.

    A fraction-free symmetric elimination of the integral -d*M on diagonal
    pivots: a negative diagonal entry refutes, a positive one is eliminated
    (Bareiss's exact division by the previous pivot, applied to rows and
    columns alike), and when every remaining diagonal entry is 0 the rest
    must vanish.  After pivots on the set S, the entry (i, j) is the minor of
    -d*M on rows S+i and columns S+j, which is the last pivot (a positive
    principal minor) times the entry of the Schur complement, so its sign is
    the sign there.  The Schur complement then vanishes, so the rank is the
    number of pivots and the nullity the number of rows left.
    """
    a = [[-x for x in row] for row in integer_rows(matrix)[1]]
    rest = list(range(len(a)))
    previous = 1
    while rest:
        if any(a[i][i] < 0 for i in rest):
            return None
        k = next((i for i in rest if a[i][i] > 0), None)
        if k is None:
            return len(rest) if all(a[i][j] == 0 for i in rest for j in rest) else None
        rest.remove(k)
        pivot, pivot_row = a[k][k], a[k]
        for i in rest:
            row, factor = a[i], a[i][k]
            for j in rest:
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // previous
        previous = pivot
    return 0
