"""Exact linear algebra over the rationals.

Every exact rank goes to :func:`integer_rank`, a fraction-free elimination
of sparse integer rows after the denominators are cleared by
:func:`integer_rows` (:func:`rank` scales each row and calls it); negative
definiteness is Sylvester's criterion on the pivots of a fraction-free
(Bareiss) elimination in :func:`is_negative_definite`.  :func:`modular_rank`
is the same sparse elimination over Z/p for one small prime p; its rank is
only a lower bound for the rank over Q, so a caller uses it where a matching
upper bound makes the value exact.  :func:`integer_reduce` is the fraction-free
Gauss-Jordan elimination of integer rows that the lattice contraction takes
its kernel vectors and Schur complements from; :func:`nullspace`,
:func:`solve` and :func:`solve_in_span` read the reduced row echelon form
off it.  :func:`det` is an independent oracle for the tests;
:func:`nullspace` and :func:`solve_in_span` have no caller in the engine
either, and all three stay because the benchmark's tracer
(``bench/tracing.py``) wraps them by name.  A bounded reader for rationals
from input follows.  Floating point never appears; every result is exact.
Matrices are plain lists of lists (rows) of exact rationals: an ``int``
where the value is integral (:func:`plain`), else a ``Fraction``.

The last section holds the integer-polynomial kernels of the plane-curve
layer: gcds (a modular test, then the primitive PRS), Yun's squarefree
decomposition, Zassenhaus factorization (Berlekamp mod a small prime,
quadratic Hensel lifting, recombination checked by exact division) and a
bivariate gcd by interpolation for the common-component test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

Vector = list[Fraction]


def frac(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a ``"p/q"`` string or a Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.replace("−", "-").strip()
        # a plain integer skips the Fraction regex; int reads the same digits
        if (text[1:] if text[:1] in ("-", "+") else text).isdecimal():
            return Fraction(int(text))
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def plain(value: int | str | Fraction) -> int | Fraction:
    """The rational :func:`frac` reads, stored as an int when it is one.

    An int and the equal Fraction compare and hash the same, and
    :func:`rat_str` prints them alike, while int arithmetic is much faster.
    """
    if type(value) is int:
        return value
    value = frac(value)
    return value.numerator if value.denominator == 1 else value


def rat_str(value: Fraction | int) -> str:
    """Canonical string form: ``"3"``, ``"-3/2"``.  Inverse of :func:`frac`."""
    if type(value) is int:  # not a bool, which frac refuses
        return str(value)
    value = frac(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# Bounds on a rational read from input, shared by the readers of plane-curve
# germs and forms and of curve configurations.  With the polynomial kernels
# below, a germ at the bounds costs tens of milliseconds (timings at
# `planecurves.MAX_DEGREE`).
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


# The prime of :func:`modular_rank`, the largest below 2^16: a product of two
# residues stays below 2^32, in CPython's fast path for small ints.
MODULAR_PRIME = 65521


def modular_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Z/p, p = :data:`MODULAR_PRIME`, of sparse integer rows
    (column -> entry).

    The elimination of :func:`integer_rank` over the field: a row is reduced
    against the pivot row of its first column that is nonzero mod p.  Each
    pivot row is kept as it came, beside the inverse of its pivot, so no
    entry is reduced before an update touches it; rows already reduced mod p
    stay below p.  A minor that is nonzero mod p is a nonzero integer
    minor, so the result is at most the rank over Q; it is exact only where
    the caller has a matching upper bound.
    """
    p = MODULAR_PRIME
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            lead = row[col] % p
            if not lead:
                del row[col]
                continue
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = (row, pow(lead, -1, p))
                break
            pivot_row, inverse = pivot
            factor = lead * inverse % p
            for k, v in pivot_row.items():
                new = (row.get(k, 0) - factor * v) % p
                if new:
                    row[k] = new
                else:
                    row.pop(k, None)
    return len(pivots)


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int | None = None) -> list[Vector]:
    """Basis of the right kernel of the matrix."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if not rows:
        return [[frac(1 if i == j else 0) for j in range(ncols)] for i in range(ncols)]
    reduced, pivots, d = integer_reduce(integer_rows(rows)[1])
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vector] = []
    for f in free:
        v = [frac(0)] * ncols
        v[f] = frac(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-reduced[r][f], d)
        basis.append(v)
    return basis


def det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-free-enough Gaussian elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return frac(1)
    m = [list(row) for row in matrix]
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
    reduced, pivots, d = integer_reduce(integer_rows(aug)[1])
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [Fraction(reduced[i][n], d) for i in range(n)]


def solve_in_span(columns: Sequence[Vector], target: Vector) -> Vector:
    """Coordinates of ``target`` in the span of ``columns``.

    The columns must be linearly independent and the target must lie in their
    span; otherwise ValueError.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    reduced, pivots, d = integer_reduce(integer_rows(aug)[1])
    if ncols in pivots:
        raise ValueError("target not in span")
    if pivots != list(range(ncols)):
        raise ValueError("columns are linearly dependent")
    return [Fraction(reduced[c][ncols], d) for c in pivots]


def integer_rows(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(d, N)`` with ``N = d * matrix`` integral, ``d`` the lcm of the denominators.

    The scale is positive, so every entry keeps its sign.
    """
    scale = lcm(*(x.denominator for row in matrix for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in matrix]


def integer_reduce(
    rows: Sequence[Sequence[int]], columns: int | None = None
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows: ``(rows, pivots, d)``.

    Pivots are taken left to right among the first ``columns`` columns (all
    by default), each on the first remaining row that is nonzero there; every
    row is updated by Bareiss's exact division by the previous pivot.  The
    pivot rows come first, in pivot order; each is 0 at the other pivot
    columns and ``d``, the last pivot, at its own, so row / d is the reduced
    row echelon form.  A row that is no pivot row holds at column j the minor
    on the pivot rows and itself and the pivot columns and j, which is ``d``
    times the entry (row, j) of the Schur complement of the pivot block.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    previous = 1
    for c in range(ncols if columns is None else columns):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        pivot_row = m[r]
        pivot = pivot_row[c]
        for i, row in enumerate(m):
            if i != r:
                factor = row[c]
                m[i] = [(x * pivot - factor * y) // previous for x, y in zip(row, pivot_row)]
        pivots.append(c)
        previous = pivot
        if len(pivots) == len(m):
            break
    return m, pivots, previous


def is_negative_definite(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Whether the symmetric matrix M has x.M.x < 0 for every x != 0.

    Sylvester's criterion on the integral -d*M: M is negative definite iff
    every leading principal minor of -d*M is positive.  A fraction-free
    elimination without row exchanges has these minors as its pivots: each
    step updates the remaining block by Bareiss's exact division by the
    previous pivot, after which its entry (i, j) is the minor of -d*M on the
    leading rows and i, and the leading columns and j.  So the elimination
    stops at the first pivot that is not positive.
    """
    a = [[-x for x in row] for row in integer_rows(matrix)[1]]
    n = len(a)
    previous = 1
    for k in range(n):
        pivot, pivot_row = a[k][k], a[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            row, factor = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // previous
        previous = pivot
    return True


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------
# A polynomial is a list of coefficients, index = power, without trailing
# zeros; [] is zero.  Over Z the coefficients are ints, over Z/m they are
# residues in 0..m-1.  Every factor and every gcd below is accepted by exact
# division or by a stated degree argument; the primes only steer the search.

Poly = list[int]


def _trim(f: Poly) -> Poly:
    while f and f[-1] == 0:
        f.pop()
    return f


def _add(f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    return _trim([a + b for a, b in zip(f, g)] + f[len(g):])


def _sub(f: Poly, g: Poly) -> Poly:
    return _add(f, [-b for b in g])


def _mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _mod(f: Poly, m: int) -> Poly:
    return _trim([a % m for a in f])


def _derivative(f: Poly) -> Poly:
    return [i * a for i, a in enumerate(f)][1:]


def _primitive(f: Poly) -> Poly:
    """f divided by its content, with a positive leading coefficient."""
    content = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [a // content for a in f]


def _divexact(f: Poly, g: Poly) -> Poly | None:
    """f / g when the quotient lies in Z[x], else None."""
    r, n = list(f), len(g) - 1
    q = [0] * max(len(f) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + n], g[-1])
        if rem:
            return None
        q[k] = c
        if c:
            for i, b in enumerate(g):
                r[k + i] -= c * b
    return q if not any(r[:n]) else None


def _divmod_mod(f: Poly, g: Poly, m: int) -> tuple[Poly, Poly]:
    """Quotient and remainder over Z/m; the leading coefficient of g is a unit."""
    inverse, r, n = pow(g[-1], -1, m), [a % m for a in f], len(g) - 1
    q = [0] * max(len(f) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n] * inverse % m
        if c:
            for i, b in enumerate(g):
                r[k + i] = (r[k + i] - c * b) % m
    return _trim(q), _trim(r[:n])


def _monic_mod(f: Poly, m: int) -> Poly:
    inverse = pow(f[-1], -1, m)
    return [a * inverse % m for a in f]


def _gcd_mod(f: Poly, g: Poly, p: int) -> Poly:
    """The monic gcd over the field Z/p ([] when both are zero)."""
    while g:
        f, g = g, _divmod_mod(f, g, p)[1]
    return _monic_mod(f, p) if f else []


def _prem(f: Poly, g: Poly) -> Poly:
    """Pseudo-remainder: lc(g)^k f mod g over Z."""
    r, n = list(f), len(g) - 1
    while len(r) > n:
        lead, shift = r[-1], len(r) - 1 - n
        r = [g[-1] * a for a in r]
        for i, b in enumerate(g):
            r[shift + i] -= lead * b
        _trim(r)
    return r


_LARGE_PRIME = 2**61 - 1


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """The primitive gcd in Z[x] (over Q, up to a unit) by the primitive PRS.

    A modular test comes first.  Mod a prime p that does not divide lc(f),
    the gcd h over Z, which divides f, keeps its degree and divides both
    residues, so a gcd of degree 0 mod p proves f and g coprime.
    """
    f, g = (_primitive(f) if f else []), (_primitive(g) if g else [])
    if len(f) < len(g):
        f, g = g, f
    p = _LARGE_PRIME
    if g and f[-1] % p and len(_gcd_mod(_mod(f, p), _mod(g, p), p)) == 1:
        return [1]
    while g:
        r = _prem(f, g)
        f, g = g, (_primitive(r) if r else [])
    return f


def bivariate_gcd(f: list[Poly], g: list[Poly]) -> list[Poly]:
    """The gcd in Z[v][u] of the parts of f and g primitive in u, for f and g
    polynomials in u with coefficients in Z[v] (index = power of u).

    Dense interpolation in v (Brown, 1971), checked by exact division.  Let
    H be the gcd and c = gcd(lc f, lc g) in Z[v]; lc H divides c, so
    G = (c / lc H) H has degree at most D = deg c + min(deg_v f, deg_v g)
    in v.  At v = x = 1, 2, ... where neither leading coefficient in u
    vanishes, H(u, x) divides the gcd h of f(u, x) and g(u, x) and keeps
    its degree, so no h has smaller degree than H, and where the degrees
    agree, c(x) h / lc(h) = G(u, x).  D + 1 such values of the least degree
    seen interpolate a candidate, accepted once it divides f and g.  A
    rejected candidate proves that degree too large; at most finitely many
    x (the roots of a resultant) give a gcd of more than deg H, so the
    search ends, and a gcd of degree 0 at one x ends it at once.
    """
    f, g = _primitive_in_u(f), _primitive_in_u(g)
    c = poly_gcd(f[-1], g[-1])
    bound = len(c) - 1 + min(max(map(len, f)), max(map(len, g))) - 1
    degree, points = len(f) + len(g), []
    for x in count(1):
        if not (poly_value(f[-1], x) and poly_value(g[-1], x)):
            continue
        h = poly_gcd([poly_value(a, x) for a in f], [poly_value(a, x) for a in g])
        if len(h) == 1:
            return [[1]]
        if len(h) > degree:
            continue
        if len(h) < degree:
            degree, points = len(h), []
        scale = Fraction(poly_value(c, x), h[-1])
        points.append((x, [a * scale for a in h]))
        if len(points) > bound:
            xs = [point for point, _ in points]
            columns = [_interpolate(xs, [ys[j] for _, ys in points]) for j in range(degree)]
            _, columns = integer_rows(columns)
            candidate = _primitive_in_u([_trim(a) for a in columns])
            if _divides(candidate, f) and _divides(candidate, g):
                return candidate
            degree, points = degree - 1, []


def _interpolate(xs: list[int], ys: list[Fraction]) -> list[Fraction]:
    """The polynomial of degree below len(xs) through the points (Newton)."""
    coeffs, n = list(ys), len(xs)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - k])
    out = [coeffs[-1]]
    for i in range(n - 2, -1, -1):  # out = out * (v - xs[i]) + coeffs[i]
        out = [coeffs[i] - xs[i] * out[0]] + [
            out[k - 1] - xs[i] * out[k] for k in range(1, len(out))
        ] + [out[-1]]
    return out


def _primitive_in_u(h: list[Poly]) -> list[Poly]:
    """h divided by the gcd of its coefficients in Z[v] and then in Z."""
    content: Poly = []
    for c in h:
        content = poly_gcd(content, c)
    h = [_divexact(c, content) for c in h]
    common = gcd(*(a for c in h for a in c))
    return [[a // common for a in c] for c in h]


def _divides(h: list[Poly], f: list[Poly]) -> bool:
    """Whether h divides f in Z[v][u]."""
    r, n = list(f), len(h) - 1
    for k in range(len(f) - 1 - n, -1, -1):
        c = _divexact(r[k + n], h[-1])
        if c is None:
            return False
        for i, b in enumerate(h):
            r[k + i] = _sub(r[k + i], _mul(c, b))
    return not any(r)


def poly_value(poly: Poly, x: int) -> int:
    """The value of an integer polynomial at an integer (Horner)."""
    out = 0
    for c in reversed(poly):
        out = out * x + c
    return out


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: primitive squarefree a_i, pairwise coprime, with
    pp(f) = prod a_i^i up to sign; only the a_i of positive degree are listed.

    Every division is by a primitive polynomial that divides over Q, so by
    Gauss's lemma it is exact over Z.
    """
    f = _primitive(f)
    if len(f) <= 1:
        return []
    df = _derivative(f)
    a = poly_gcd(f, df)
    b, c = _divexact(f, a), _divexact(df, a)
    d = _sub(c, _derivative(b))
    out, i = [], 1
    while len(b) > 1:
        a = poly_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _divexact(b, a), _divexact(d, a)
        d = _sub(c, _derivative(b))
        i += 1
    return out


def irreducible_factors(f: Poly) -> list[Poly]:
    """The irreducible factors over Q of a primitive squarefree f in Z[x],
    each primitive with a positive leading coefficient.

    Degree 1 is irreducible, and a quadratic splits exactly when its
    discriminant is a square.  Above that, Zassenhaus: among a few primes p
    that divide neither lc(f) nor the discriminant (f mod p squarefree),
    take one with the fewest factors mod p (Berlekamp's count).  One factor
    mod p proves f irreducible.  Otherwise the factors mod p are
    Hensel-lifted past twice the Mignotte bound and recombined.
    """
    n = len(f) - 1
    if n == 1:
        return [_primitive(f)]
    if n == 2:
        c, b, a = f
        root = isqrt(max(b * b - 4 * a * c, 0))
        if root * root != b * b - 4 * a * c:
            return [_primitive(f)]
        return sorted(_primitive([b - sign * root, 2 * a]) for sign in (1, -1))
    best = None
    for p in _good_primes(f):
        fp = _monic_mod(_mod(f, p), p)
        basis = _berlekamp_basis(fp, p)
        if len(basis) == 1:
            return [_primitive(f)]
        if best is None or len(basis) < len(best[2]):
            best = (p, fp, basis)
    p, fp, basis = best
    return _recombine(f, *_hensel_lift(f, _berlekamp_split(fp, basis, p), p))


def _good_primes(f: Poly, wanted: int = 5):
    """The first `wanted` odd primes dividing neither lc(f) nor disc(f)."""
    p = 1
    while wanted:
        p += 2
        if any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)) or f[-1] % p == 0:
            continue
        fp = _mod(f, p)
        if len(_gcd_mod(fp, _mod(_derivative(fp), p), p)) == 1:
            wanted -= 1
            yield p


def _berlekamp_basis(f: Poly, p: int) -> list[Poly]:
    """A basis of {h : deg h < deg f, h^p = h mod f} for monic squarefree f
    over Z/p; its dimension is the number of irreducible factors of f."""
    n = len(f) - 1
    xp, power, columns = _powmod([0, 1], p, f, p), [1], []
    for i in range(n):
        column = power + [0] * (n - len(power))  # x^(ip) mod f, minus x^i
        column[i] = (column[i] - 1) % p
        columns.append(column)
        power = _divmod_mod(_mul(power, xp), f, p)[1]
    # h = sum h_i x^i is in the algebra exactly when sum_i h_i columns[i] = 0
    return [_trim(v) for v in _nullspace_mod([list(row) for row in zip(*columns)], n, p)]


def _powmod(f: Poly, e: int, g: Poly, p: int) -> Poly:
    out = [1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul(out, f), g, p)[1]
        f = _divmod_mod(_mul(f, f), g, p)[1]
        e >>= 1
    return out


def _nullspace_mod(rows: list[list[int]], n: int, p: int) -> list[list[int]]:
    """A basis of {v : rows . v = 0} over Z/p, from the reduced echelon form."""
    pivots: list[int] = []
    reduced: list[list[int]] = []
    for col in range(n):
        k = next((i for i in range(len(reduced), len(rows)) if rows[i][col] % p), None)
        if k is None:
            continue
        rows[len(reduced)], rows[k] = rows[k], rows[len(reduced)]
        pivot = rows[len(reduced)]
        inverse = pow(pivot[col], -1, p)
        pivot[:] = [a * inverse % p for a in pivot]
        for i, row in enumerate(rows):
            if i != len(reduced) and row[col] % p:
                factor = row[col]
                row[:] = [(a - factor * b) % p for a, b in zip(row, pivot)]
        reduced.append(pivot)
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for row, col in zip(reduced, pivots):
            v[col] = -row[free] % p
        basis.append(v)
    return basis


def _berlekamp_split(f: Poly, basis: list[Poly], p: int) -> list[Poly]:
    """The monic irreducible factors of f over Z/p.

    Each factor g of f divides h^p - h = prod_s (h - s), so it is the product
    of the gcd(g, h - s) over s; running h over the basis separates every
    pair of irreducible factors (Berlekamp, 1967).
    """
    factors = [f]
    for h in (h for h in basis if len(h) > 1):  # a constant h splits nothing
        if len(factors) == len(basis):
            break
        refined = []
        for g in factors:
            rest = g
            for s in range(p):
                if len(rest) <= 2:
                    break
                d = _gcd_mod(rest, _mod(_sub(h, [s]), p), p)
                if len(d) == len(rest):  # h = s mod rest: no other s splits it
                    break
                if len(d) > 1:
                    refined.append(d)
                    rest = _divmod_mod(rest, d, p)[0]
            refined.append(rest)
        factors = refined
    return factors


def _hensel_lift(f: Poly, factors: list[Poly], p: int) -> tuple[list[Poly], int]:
    """Monic u_i mod M = p^(2^k) with f = lc(f) prod u_i mod M and M more
    than twice the Mignotte bound lc(f) 2^n |f|_2 on the coefficients of
    lc(h) g for any factorization f = g h in Z[x].

    The factors are split off one at a time, each by quadratic Hensel steps
    on the pair (factor, product of the rest) (von zur Gathen and Gerhard,
    Modern Computer Algebra, Algorithm 15.10).
    """
    bound = abs(f[-1]) * 2 ** (len(f) - 1) * (isqrt(sum(a * a for a in f)) + 1)
    modulus = p
    while modulus <= 2 * bound:
        modulus *= modulus
    lifted, target = [], f
    for i, u in enumerate(factors[:-1]):
        g = _mod([target[-1] * a for a in u], p)
        h = [1]
        for w in factors[i + 1:]:
            h = _mod(_mul(h, w), p)
        s, t = _bezout_mod(g, h, p)
        m = p
        while m < modulus:
            g, h, s, t = _hensel_step(target, g, h, s, t, m * m)
            m *= m
        lifted.append(_monic_mod(g, modulus))
        target = h
    return lifted + [target], modulus


def _bezout_mod(g: Poly, h: Poly, p: int) -> tuple[Poly, Poly]:
    """s, t over Z/p with s g + t h = 1, deg s < deg h, deg t < deg g."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _mod(_sub(t0, _mul(q, t1)), p)
    inverse = pow(r0[0], -1, p)
    return _mod([a * inverse for a in s0], p), _mod([a * inverse for a in t0], p)


def _hensel_step(f: Poly, g: Poly, h: Poly, s: Poly, t: Poly, mm: int):
    """From f = g h and s g + t h = 1 mod m, with h monic, the same mod mm = m^2."""
    e = _mod(_sub(f, _mul(g, h)), mm)
    q, r = _divmod_mod(_mul(s, e), h, mm)
    g = _mod(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    h = _mod(_add(h, r), mm)
    b = _mod(_sub(_add(_mul(s, g), _mul(t, h)), [1]), mm)
    c, d = _divmod_mod(_mul(s, b), h, mm)
    s = _mod(_sub(s, d), mm)
    t = _mod(_sub(t, _add(_mul(t, b), _mul(c, g))), mm)
    return g, h, s, t


def _recombine(f: Poly, lifted: list[Poly], modulus: int) -> list[Poly]:
    """Zassenhaus recombination of the lifted factors, smallest subsets first.

    A candidate lc(f) prod_S u_i, in symmetric residues, is accepted only
    when its primitive part divides f exactly.  A true factor g of f is
    lc(g) prod_S u_i over the p-adic integers for one subset S, and M
    exceeds twice the bound on lc(f/g) g, so the candidate of S is lc(f/g) g
    and is found.  Once every subset of at most half the factors has failed,
    what is left is irreducible.
    """
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            candidate = [f[-1]]
            for i in subset:
                candidate = _mod(_mul(candidate, lifted[i]), modulus)
            candidate = [a - modulus if 2 * a > modulus else a for a in candidate]
            if candidate[0] == 0 and f[0] != 0 or candidate[0] and (f[-1] * f[0]) % candidate[0]:
                continue  # the constant term of lc(f/g) g divides lc(f) f(0)
            quotient = _divexact(f, _primitive(candidate))
            if quotient is None:
                continue
            found.append(_primitive(candidate))
            f = quotient
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    return found + [_primitive(f)]
