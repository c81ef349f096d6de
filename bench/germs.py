"""The `germs` workload: generated `plane-check` scenarios.

Every germ is built from a construction whose invariants are known, then
disguised by a random invertible polynomial change of coordinates over Q
that fixes the origin (an invertible linear map followed by a triangular
map u -> u + e v^2).  The seed picks signs, places and which branches meet,
never the sizes of the numbers, so that every seed costs about the same.  The expected value of each check is written from
the construction, never from the program:

* A_n normal forms u^2 -/+ v^(n+1): the n of A_n and the multiplicity tree;
* smooth branches: "smooth" and the one-node tree "1";
* unions of smooth branches u = f_i(v) with prescribed contact orders: the
  multiplicity tree (branches sharing their first j coefficients share j
  infinitely near points), A_(2k-1) for two branches of contact order k and
  "other" for three or more (triple points and worse);
* [3,3]-points of profile 6 (residual u^2 - v^4) and 7 (residual
  u^2 - c v^5) with a smooth piece u = l v^2 + ..., l = +-2: the profile,
  local intersection 4 and a residual of type A3 or A4;
* restrictions of plane curves F = prod(l_i^o_i) * R + L * G to the line L:
  the contact order o_i at each marked point p_i and the residual degree.

Nothing here imports the program: the arithmetic is the benchmark's own.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from common import computed, dump_form, dump_germ, dump_point, scenario

ONE = {(0, 0): F(1)}
TWISTS = (F(1, 2), F(-1, 2))
MAX_AN = 3  # largest n of a generated A_n normal form


# -- local germs: dicts (a, b) -> coefficient of u^a v^b ---------------------


def g_add(*germs: dict) -> dict:
    out: dict = {}
    for g in germs:
        for k, c in g.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def g_scale(g: dict, s) -> dict:
    return {k: s * c for k, c in g.items() if s * c}


def g_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a, b), x in f.items():
        for (c, d), y in g.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return {k: c for k, c in out.items() if c}


def g_compose(g: dict, U: dict, V: dict) -> dict:
    """g(U(u, v), V(u, v))."""
    top_a = max(a for a, _ in g)
    top_b = max(b for _, b in g)
    upow, vpow = [ONE], [ONE]
    for _ in range(top_a):
        upow.append(g_mul(upow[-1], U))
    for _ in range(top_b):
        vpow.append(g_mul(vpow[-1], V))
    return g_add(*(g_scale(g_mul(upow[a], vpow[b]), c) for (a, b), c in g.items()))


def coordinate_change(rng: random.Random) -> tuple[dict, dict]:
    """A random invertible polynomial map of the plane fixing the origin.

    The map is (u, v) -> (L1 + e L2^2, L2) for the linear map
    L1 = a u + b v, L2 = c u + d v with |a| = |b| = |c| = 1, |d| = 2 and
    determinant +-1, and e = 1/2 or -1/2.  Only the signs are random: the
    sizes of the numbers set the cost of a disguised germ, and they stay the
    same for every seed.
    """
    a, b, c = (F(rng.choice((-1, 1))) for _ in range(3))
    d = 2 * a * b * c  # a d and b c have the same sign, so a d - b c = +-1
    first, second = {(1, 0): a, (0, 1): b}, {(1, 0): c, (0, 1): d}
    return g_add(first, g_scale(g_mul(second, second), rng.choice(TWISTS))), second


def branch(coeffs: tuple) -> dict:
    """The smooth branch u - sum_j coeffs[j-1] v^j."""
    return g_add({(1, 0): F(1)}, {(0, j + 1): -F(c) for j, c in enumerate(coeffs)})


# -- expected multiplicity trees, in the report's label format ---------------


def _tree(branches: list[tuple], level: int = 0) -> tuple:
    if len(branches) <= 1:
        return (1, ())
    groups: dict = {}
    for br in branches:
        groups.setdefault(br[level], []).append(br)
    children = sorted((_tree(g, level + 1) for g in groups.values()), key=_key)
    return (len(branches), tuple(children))


def _key(node: tuple) -> tuple:
    m, children = node
    return (m, (), tuple(_key(c) for c in children))


def _label(node: tuple) -> str:
    m, children = node
    if not children:
        return str(m)
    return f"{m}(" + ",".join(_label(c) for c in children) + ")"


def an_tree(n: int, sign: int) -> str:
    """Tree of u^2 - sign * v^(n+1): k blow-ups separate or smooth the branches."""
    if n % 2 == 0:
        inner, depth = "1", n // 2
    else:
        inner, depth = ("1,1" if sign > 0 else "{2:1}"), (n + 1) // 2
    return "2(" * depth + inner + ")" * depth


# -- items --------------------------------------------------------------------


def _an_item(rng, n):
    sign = rng.choice((1, -1))
    U, V = coordinate_change(rng)
    shape = g_compose({(2, 0): F(1), (0, n + 1): F(-sign)}, U, V)
    checks = [
        {"name": "an-type", "op": "an-type", "germ": dump_germ(shape), "candidate": n},
        {"name": "mult-tree", "op": "mult-tree", "germ": dump_germ(shape)},
    ]
    return f"a{n}", checks, {"an-type": f"A{n}", "mult-tree": an_tree(n, sign)}


def _smooth_item(rng):
    U, V = coordinate_change(rng)
    shape = g_compose(branch(tuple(rng.choice((-1, 0, 1, 2)) for _ in range(3))), U, V)
    checks = [
        {"name": "an-type", "op": "an-type", "germ": dump_germ(shape)},
        {"name": "mult-tree", "op": "mult-tree", "germ": dump_germ(shape)},
    ]
    return "smooth", checks, {"an-type": "smooth", "mult-tree": "1"}


def _branches_item(rng, count, contact=None):
    """`count` smooth branches; two branches meet with the given contact order."""
    if count == 2:
        first = tuple(rng.choice((-1, 1)) for _ in range(3))
        second = list(first)
        second[contact - 1] = -second[contact - 1]
        branches = [first, tuple(second)]
    else:
        branches = []
        while len(branches) < count:
            br = tuple(rng.choice((-1, 1)) for _ in range(3))
            if br not in branches:
                branches.append(br)
    U, V = coordinate_change(rng)
    product = ONE
    for br in branches:
        product = g_mul(product, branch(br))
    shape = g_compose(product, U, V)
    if count == 2:
        an = f"A{2 * contact - 1}"
        an_check = {"name": "an-type", "op": "an-type", "germ": dump_germ(shape),
                    "candidate": 2 * contact - 1}
    else:
        an = "other"
        an_check = {"name": "an-type", "op": "an-type", "germ": dump_germ(shape)}
    checks = [an_check, {"name": "mult-tree", "op": "mult-tree", "germ": dump_germ(shape)}]
    return f"branches{count}", checks, {"an-type": an, "mult-tree": _label(_tree(branches))}


def _t33_item(rng, profile):
    if profile == 6:
        residual = {(2, 0): F(1), (0, 4): F(-1)}
    else:
        residual = {(2, 0): F(1), (0, 5): -rng.choice(TWISTS)}
    smooth = branch((0, rng.choice((-2, 2)), rng.choice((-1, 1))))
    U, V = coordinate_change(rng)
    residual, smooth = g_compose(residual, U, V), g_compose(smooth, U, V)
    check = {
        "name": "detect-33",
        "op": "detect-33",
        "germ": dump_germ(g_mul(residual, smooth)),
        "decomposition": [dump_germ(residual), dump_germ(smooth)],
    }
    residual_type = "A3" if profile == 6 else "A4"
    return f"t33-{profile}", [check], {"detect-33": f"true;{profile};4;{residual_type}"}


# -- plane curves and lines: dicts (i, j, k) -> coefficient of x^i y^j z^k -----


def f_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a, b, c), x in f.items():
        for (d, e, h), y in g.items():
            key = (a + d, b + e, c + h)
            out[key] = out.get(key, 0) + x * y
    return {k: c for k, c in out.items() if c}


def f_eval(f: dict, p: tuple) -> F:
    return sum(c * p[0] ** i * p[1] ** j * p[2] ** k for (i, j, k), c in f.items())


def line(coeffs) -> dict:
    return {e: F(c) for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs) if c}


def cross(p, q) -> tuple:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def random_form(rng, degree: int, terms: int) -> dict:
    out = {}
    for _ in range(terms):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        out[(i, j, degree - i - j)] = F(rng.choice((-3, -2, -1, 1, 2, 3)))
    return out


def _restrict_item(rng):
    degree = rng.choice((4, 5, 6))
    while True:
        L = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(L):
            break
    # two independent integer points of the line span all its points
    basis = [q for q in (cross(L, (1, 0, 0)), cross(L, (0, 1, 0)), cross(L, (0, 0, 1))) if any(q)]
    k0, k1 = basis[0], next(q for q in basis[1:] if any(cross(basis[0], q)))
    marked = rng.randint(1, 3)
    params: list[tuple] = []
    while len(params) < marked:
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        if (s or t) and all(s * t2 - t * s2 for s2, t2 in params):
            params.append((s, t))
    points = [tuple(s * a + t * b for a, b in zip(k0, k1)) for s, t in params]
    orders = [1] * marked
    for _ in range(rng.randint(0, degree - marked)):
        orders[rng.randrange(marked)] += 1
    rest = degree - sum(orders)
    product = {(0, 0, 0): F(1)}
    for p, order in zip(points, orders):
        while True:
            q = tuple(rng.randint(-3, 3) for _ in range(3))
            if sum(a * b for a, b in zip(L, q)):
                break
        through = line(cross(p, q))
        for _ in range(order):
            product = f_mul(product, through)
    while True:
        residual = random_form(rng, rest, 3) if rest else {(0, 0, 0): F(rng.choice((1, 2, 3)))}
        if residual and all(f_eval(residual, p) for p in points):
            break
    form = f_mul(product, residual)
    for e, c in f_mul(line(L), random_form(rng, degree - 1, 4)).items():
        form[e] = form.get(e, 0) + c
    form = {e: c for e, c in form.items() if c}
    check = {
        "name": "restrict",
        "op": "restrict",
        "form": dump_form(degree, form),
        "line": dump_form(1, line(L)),
        "points": [dump_point(p) for p in points],
    }
    expected = "orders=" + ",".join(map(str, orders)) + f";residual={rest}"
    return f"restrict-d{degree}", [check], {"restrict": expected}


def items(rng: random.Random, rounds: int):
    """`rounds` rounds of the fixed mix; each round has the same item kinds."""
    for _ in range(rounds):
        for n in range(1, MAX_AN + 1):
            yield _an_item(rng, n)
        yield _smooth_item(rng)
        yield _branches_item(rng, 2, contact=1)
        yield _branches_item(rng, 2, contact=2)
        yield _branches_item(rng, 3)
        yield _branches_item(rng, 4)
        yield _t33_item(rng, 6)
        yield _t33_item(rng, 7)
        yield _restrict_item(rng)
        yield _restrict_item(rng)


def generate(seed: int, rounds: int) -> list[tuple[dict, dict]]:
    """One scenario per check, with the values its construction dictates."""
    rng = random.Random(f"germs-{seed}")
    out = []
    for name, checks, expected in items(rng, rounds):
        for check in checks:
            pinned = {check["name"]: expected[check["name"]]}
            data = scenario(f"{len(out):03d}-{name}-{check['op']}", "plane-check",
                            {"checks": [check]}, {k: {"value": v} for k, v in pinned.items()})
            out.append((data, pinned))
    return out


def check(report: dict, generated: list[tuple[dict, dict]]) -> list[str]:
    """Every computed value is the one its construction dictates."""
    values = computed(report)
    problems = []
    for data, pinned in generated:
        got = values.get(data["name"], {})
        for key, want in pinned.items():
            if got.get(key) != want:
                problems.append(f"{data['name']}: {key} is {got.get(key)!r}, expected {want!r}")
    return problems
