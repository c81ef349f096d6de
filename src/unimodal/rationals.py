"""Exact linear algebra over the rationals.

Small dense routines built on :class:`fractions.Fraction`: rank, determinant,
solving, inversion and nullspaces, plus definiteness tests that clear
denominators and eliminate over the integers, and a bounded reader for
rationals from input.  Floating point never appears;
every result is exact.  Matrices are plain lists of lists (rows) of
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

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
    return len(row_reduce(rows)[1])


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
    """Sylvester's criterion on -M, from one fraction-free elimination.

    Bareiss's elimination of the integral -d*M without row exchanges divides
    each update exactly by the previous pivot (Sylvester's identity), so the
    k-th pivot is the k-th leading principal minor of -d*M and every entry
    stays a minor of it.  M is negative definite iff every pivot is positive;
    the test stops at the first that is not.
    """
    a = [[-x for x in row] for row in integer_rows(matrix)[1]]
    n = len(a)
    previous = 1
    for k in range(n):
        pivot, pivot_row = a[k][k], a[k]
        if pivot <= 0:
            return False
        tail = pivot_row[k + 1 :]
        for row in a[k + 1 :]:
            factor = row[k]
            row[k + 1 :] = [(x * pivot - factor * y) // previous for x, y in zip(row[k + 1 :], tail)]
        previous = pivot
    return True


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
