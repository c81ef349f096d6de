from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import unimodal.pipelines as pipelines
from unimodal.configurations import (
    CATALOG,
    Component,
    Contact,
    CurveConfiguration,
    classify_minimally_elliptic,
    fundamental_cycle,
    is_negative_definite as config_negative_definite,
    match_catalog,
)
from unimodal.lattice import (
    DivisorClass,
    _adjunction_pa,
    IntersectionLattice,
    SurfaceModel,
    attach_resolution,
    blow_up,
    contract,
    double_cover,
    make_hirzebruch,
    make_p2,
    nakai_check,
    replay,
    track,
)
from unimodal.pipelines import EnSpec, ZwSpec, run_en_pipeline, run_zw_pipeline
from unimodal.planecurves import (
    MAX_DEGREE,
    Direction,
    HomogeneousForm,
    MarkedPoint,
    UndecidableOverQ,
    _blow_up_at_direction,
    _integer_terms,
    _jacobian_rows,
    _share_component,
    an_type_at,
    germ,
    germ_mul,
    germ_of,
    linear_form,
    local_intersection,
    monomial,
    monomial_basis,
    stabilizer_dim,
    tjurina_number,
)
from unimodal.rationals import (
    det,
    frac,
    rat_str,
    MODULAR_PRIME,
    integer_rank,
    integer_reduce,
    integer_rows,
    is_negative_definite,
    modular_rank,
    plain,
    rank,
    solve,
)
from unimodal.scenarios import integral_from_json, rational_from_json

from oracles import (
    blow_up_at_direction_by_expansion,
    cycle_invariants_by_fractions,
    en_variants,
    germ_of_by_expansion,
    int_when_integral,
    integral_by_fraction,
    intersection_by_blow_ups,
    is_connected_by_union,
    jacobian_rows_all,
    match_catalog_by_scan,
    rank_by_minors,
    rational_by_fraction,
    row_reduce,
    stabilizer_dim_by_minors,
    tjurina_number_exact,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def lattices_with_classes(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = draw(rationals)
            entries[i][j] = entries[j][i] = value
    lattice = IntersectionLattice(
        tuple(f"b{i}" for i in range(n)), tuple(tuple(row) for row in entries)
    )
    a = DivisorClass(lattice, tuple(draw(rationals) for _ in range(n)))
    b = DivisorClass(lattice, tuple(draw(rationals) for _ in range(n)))
    return a, b


@given(lattices_with_classes())
@settings(max_examples=60, derandomize=True)
def test_pairing_symmetry(pair):
    a, b = pair
    assert a.dot(b) == b.dot(a)


@given(lattices_with_classes(), st.integers(min_value=-3, max_value=3))
@settings(max_examples=200, derandomize=True)
def test_pairings_are_ints_exactly_when_integral(pair, chi):
    """The pairing, adjunction, Riemann-Roch, K^2 and c2 each give an int
    exactly when the value is integral, a Fraction otherwise, never a float;
    Riemann-Roch agrees with the formula in Fractions."""
    canonical, d = pair
    model = SurfaceModel(canonical.lattice, canonical, chi, (), ())
    values = [d.dot(canonical), d.dot(d), model.adjunction_pa(d), model.rr_chi(d), model.k_squared, model.c2]
    assert all(map(int_when_integral, values)), values
    assert model.rr_chi(d) == chi + Fraction((d - canonical).dot(d)) / 2


def _normalised(cls):
    return cls.den > 0 and gcd(cls.den, *cls.num) == 1 and (any(cls.num) or cls.den == 1)


@given(lattices_with_classes(), st.integers(min_value=-6, max_value=6), rationals)
@settings(max_examples=200, derandomize=True)
def test_integer_classes_agree_with_fraction_tuples(pair, n, q):
    """Sums, differences, negatives, multiples, pairings, equality and hashing
    of the integer classes against plain Fraction-tuple arithmetic."""
    a, b = pair
    lattice = a.lattice
    fa, fb = a.coeffs, b.coeffs
    assert all(isinstance(x, Fraction) for x in fa)
    assert fa == tuple(Fraction(x, a.den) for x in a.num)
    expected = [
        (a + b, tuple(x + y for x, y in zip(fa, fb))),
        (a - b, tuple(x - y for x, y in zip(fa, fb))),
        (b - b, tuple(Fraction(0) for _ in fb)),
        (-a, tuple(-x for x in fa)),
        (n * a, tuple(n * x for x in fa)),
        (q * b, tuple(q * x for x in fb)),
    ]
    for cls, coeffs in expected:
        assert cls.coeffs == coeffs
        assert _normalised(cls)
        assert cls == DivisorClass(lattice, coeffs) and hash(cls) == hash(DivisorClass(lattice, coeffs))
        assert cls.is_zero == all(x == 0 for x in coeffs)
        assert cls.coeff_map() == {name: x for name, x in zip(lattice.basis, coeffs) if x != 0}
    assert _normalised(a) and _normalised(b)
    gram = lattice.gram
    assert a.dot(b) == sum(
        (x * gram[i][j] * y for i, x in enumerate(fa) for j, y in enumerate(fb)), Fraction(0)
    )
    assert (a == b) == (fa == fb)
    assert a == DivisorClass(lattice, fa) and hash(a) == hash(DivisorClass(lattice, fa))


def test_pairing_of_built_classes_rescales_nothing(monkeypatch):
    import unimodal.lattice as lattice_module

    model = blow_up(make_hirzebruch(1), exceptional="G")
    a = model.divisor({"Cinf": Fraction(1, 2), "Gamma": 3, "G": Fraction(-2, 3)})
    b = Fraction(1, 5) * model.canonical
    expected = a.dot(b)
    calls = []

    def recording(matrix):
        calls.append(matrix)
        return integer_rows(matrix)

    monkeypatch.setattr(lattice_module, "integer_rows", recording)
    assert [a.dot(b) for _ in range(3)] == [expected] * 3
    assert b.dot(a) == expected
    assert calls == []


def base_models():
    return st.sampled_from(["p2", "f0", "f1", "f2"])


def _model(tag: str):
    return make_p2() if tag == "p2" else make_hirzebruch(int(tag[1]))


@given(base_models(), st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=2),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=2))
@settings(max_examples=40, derandomize=True)
def test_blow_up_pullback_is_isometry(tag, coeffs_a, coeffs_b):
    model = _model(tag)
    n = model.lattice.rank
    a = DivisorClass(model.lattice, tuple(Fraction(c) for c in (coeffs_a * n)[:n]))
    b = DivisorClass(model.lattice, tuple(Fraction(c) for c in (coeffs_b * n)[:n]))
    blown = blow_up(model, exceptional="G")
    lift = lambda d: DivisorClass(blown.lattice, d.coeffs + (Fraction(0),))
    assert blown.intersect(lift(a), lift(b)) == model.intersect(a, b)


@given(base_models(), st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=2),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=2))
@settings(max_examples=40, derandomize=True)
def test_double_cover_pullback_doubles(tag, coeffs_a, coeffs_b):
    model = _model(tag)
    half = branchless_half(model)
    cover = double_cover(model, half)
    n = model.lattice.rank
    a = DivisorClass(model.lattice, tuple(Fraction(c) for c in (coeffs_a * n)[:n]))
    b = DivisorClass(model.lattice, tuple(Fraction(c) for c in (coeffs_b * n)[:n]))
    lift = lambda d: DivisorClass(cover.lattice, d.coeffs)
    assert cover.intersect(lift(a), lift(b)) == 2 * model.intersect(a, b)


def branchless_half(model):
    # a 2-divisible smooth-cover half-branch keeping chi integral
    if model.lattice.basis == ("H",):
        return model.divisor({"H": 3})
    return model.divisor({"Cinf": 2, "Gamma": 4})


@given(base_models(), st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=2))
@settings(max_examples=60, derandomize=True)
def test_adjunction_parity(tag, coeffs):
    model = _model(tag)
    n = model.lattice.rank
    d = DivisorClass(model.lattice, tuple(Fraction(c) for c in (coeffs * n)[:n]))
    parity = model.intersect(d, d) + model.intersect(model.canonical, d)
    assert parity % 2 == 0


@given(lattices_with_classes(), st.sampled_from([1, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 6)]))
@settings(max_examples=200, derandomize=True)
def test_integer_adjunction_agrees_with_the_class_pairing(pair, scale):
    """One integer pairing gives 1 + (d + K).d / 2, also on classes with
    denominator 2 such as the half-branch classes of a double cover."""
    canonical, d = pair
    d = scale * d
    assert _adjunction_pa(canonical, d) == 1 + Fraction((d + canonical).dot(d)) / 2


def test_tracked_genera_of_every_elliptic_model_agree_with_the_class_pairing():
    for sing in ("E12", "E13", "E14"):
        for variant in en_variants(sing):
            for profile in (6, 7):
                result = run_en_pipeline(EnSpec(sing, profile, variant, germ_checks=False))
                for model in result.models:
                    k = model.canonical
                    for curve in model.tracked:
                        assert curve.pa == 1 + Fraction((curve.cls + k).dot(curve.cls)) / 2


def _outcome(read, value):
    """What a reader makes of a value: the int it returns, or ValueError when
    it refuses the value (`scenarios.ScenarioError` is one)."""
    try:
        result = read(value)
    except ValueError:
        return ValueError
    assert type(result) is int
    return result


@given(
    st.one_of(
        st.text(alphabet="0123456789+-−/_.e \t٣", max_size=72),
        st.integers(min_value=-(2**66), max_value=2**66),
    )
)
@example("1e3")
@example("10/2")
@example(" +7 ")
@example("−3")
@example("٣")
@example(2**64)
@example(str(2**64))
@example(str(2**64 - 1))
@example("1" * 65)
@example(" " * 60 + "7")
@example(True)
@example(1.0)
@example(Fraction(4, 2))
@settings(max_examples=500, derandomize=True)
def test_bounded_int_agrees_with_the_rational_route(value):
    assert _outcome(integral_from_json, value) == _outcome(integral_by_fraction, value)


@given(st.text(alphabet="0123456789+-−/_.e \t\n٣", max_size=8))
@example("")
@example("-")
@example("--5")
@example("1/0")
@example(" +٣0_7 ")
@example("1e100")  # past 64 bits
@example("1e-9999")  # past three exponent digits
@settings(max_examples=500, derandomize=True)
def test_rational_from_json_of_a_string_agrees_with_the_fraction_regex(text):
    # the reader's rule for a string: every string through the Fraction regex, within the bounds
    try:
        expected = rational_by_fraction(text)
    except ValueError:
        with pytest.raises(ValueError):
            rational_from_json(text)
    else:
        value = rational_from_json(text)
        assert value == expected and int_when_integral(value)


@given(st.one_of(st.integers(), rationals))
@settings(max_examples=100, derandomize=True)
def test_rat_str_of_an_int_is_the_fraction_form(value):
    q = Fraction(value)
    expected = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    assert rat_str(value) == expected
    assert Fraction(rat_str(value)) == q


def test_booleans_are_no_rationals_but_format_as_json():
    for value in (True, False):
        with pytest.raises(TypeError):
            rat_str(value)
        with pytest.raises(TypeError):
            frac(value)
    assert pipelines._fmt(True) == "true" and pipelines._fmt(False) == "false"


def test_the_kernels_read_no_strings():
    # the scenario reader owns the string rule; a kernel takes an int or a Fraction
    for read in (frac, plain):
        with pytest.raises(TypeError):
            read("1/2")


@given(
    base_models(),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1),
)
@settings(max_examples=40, derandomize=True)
def test_blow_up_is_attaching_the_resolution_of_a_smooth_point(tag, coeffs, mult, section_mult):
    model = _model(tag)
    center = {"D": mult}
    if tag != "p2":  # the section of a Hirzebruch surface passes through the point too
        model = track(model, "Cinf", {"Cinf": 1})
        center["Cinf"] = section_mult
    model = track(model, "D", dict(zip(model.lattice.basis, coeffs)), irreducible=False)
    blown = blow_up(model, center, exceptional="G")
    smooth_point = CurveConfiguration((Component("G", -1, 0),))
    attached = attach_resolution(model, smooth_point, {c: {"G": m} for c, m in center.items()})
    assert attached.lattice == blown.lattice
    assert attached.canonical == blown.canonical
    assert attached.chi == blown.chi == model.chi
    assert attached.tracked == blown.tracked
    # the strict transform of a curve with multiplicity m loses m(m-1)/2 of its genus
    for curve in model.tracked:
        m = center.get(curve.name, 0)
        assert blown.curve(curve.name).pa == curve.pa - Fraction(m * (m - 1), 2)


@given(base_models())
@settings(max_examples=8, derandomize=True)
def test_blow_up_contract_round_trip(tag):
    """The lattice that comes back through a Schur complement equals the one
    built from its Gram matrix, fields and hash alike (the integer rows are
    normalised)."""
    model = _model(tag)
    blown = blow_up(model, exceptional="G")
    assert blown.c2 == model.c2 + 1
    back = contract(blown, ["G"]).model
    assert back.chi == model.chi
    assert back.canonical.coeffs == model.canonical.coeffs
    assert back.lattice.gram == model.lattice.gram
    assert back.lattice == model.lattice and hash(back.lattice) == hash(model.lattice)
    assert back.c2 == model.c2


def test_nef_verdict_examples_on_the_elliptic_model():
    result = run_en_pipeline(EnSpec("E12"))
    surface = result.models[3]
    half_fiber = surface.curve_class("F")
    # the half-fibre itself is nef but never ample
    assert nakai_check(surface, half_fiber) == "nef-not-ample"
    # the pulled-back canonical class of the contraction is nef on the resolution
    pulled = surface.canonical + surface.curve_class("E1")
    assert nakai_check(surface, pulled) == "nef-not-ample"
    # the adjoint bundle on the blown model is nef and not ample (trivial on the strict half-fibre)
    blown = blow_up(surface, {"F": 1}, exceptional="G2")
    fhat = blown.curve_class("F")
    ghat = blown.basis_class("G2")
    bundle = blown.canonical + 2 * (2 * fhat + 2 * ghat) + blown.curve_class("E1") - 2 * ghat
    assert blown.intersect(bundle, bundle) > 0
    assert nakai_check(blown, bundle) == "nef-not-ample"


def test_replay_after_full_pipeline_is_identity():
    result = run_en_pipeline(EnSpec("E13", fiber_variant="III"))
    final = result.models[-1]
    assert replay(final.provenance) == final


def test_tracked_integral_pairings_are_integral():
    # integral classes on an integral Gram pair integrally
    model = track(make_hirzebruch(2), "D", {"Cinf": 3, "Gamma": 5})
    value = model.intersect(model.curve_class("D"), model.canonical)
    assert value.denominator == 1


# ---------------------------------------------------------------------------
# Definiteness from one elimination, against the leading minors
# ---------------------------------------------------------------------------


def _negative_definite_by_minors(m):
    """Sylvester: the leading principal minors alternate in sign, starting negative."""
    return all((-1) ** (k + 1) * det([row[: k + 1] for row in m[: k + 1]]) > 0 for k in range(len(m)))


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices: random entries, or -B^T.B of rank r <= n
    (semidefinite, singular when r < n), optionally shifted on the diagonal
    to land on either side of the boundary."""
    n = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(["entries", "gram", "shifted"]))
    if kind == "entries":
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(rationals)
        return m
    r = draw(st.integers(min_value=0, max_value=n))
    b = [[draw(rationals) for _ in range(n)] for _ in range(r)]
    m = [[-sum((b[k][i] * b[k][j] for k in range(r)), Fraction(0)) for j in range(n)] for i in range(n)]
    if kind == "shifted":
        shift = draw(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4)))
        for i in range(n):
            m[i][i] += shift
    return m


@given(symmetric_matrices())
@settings(max_examples=400, derandomize=True)
def test_definiteness_agrees_with_minor_enumeration(m):
    assert is_negative_definite(m) == _negative_definite_by_minors(m)


@st.composite
def rational_matrices(draw):
    """Matrices up to 5 x 6 of fractions, with zero rows, repeated rows and
    rational combinations of earlier rows, so that every rank occurs."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(["entries", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(rationals), draw(rationals)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([draw(rationals) for _ in range(ncols)])
    return rows


@given(rational_matrices())
@settings(max_examples=300, derandomize=True)
def test_rank_agrees_with_minor_enumeration(m):
    assert rank(m) == rank_by_minors(m)


@given(rational_matrices())
@settings(max_examples=300, derandomize=True)
def test_integer_reduction_agrees_with_row_reduction(m):
    """The pivot rows over the last pivot are the reduced row echelon form;
    the other rows vanish."""
    assume(m)
    _, rows = integer_rows(m)
    reduced, pivots, d = integer_reduce(rows)
    echelon, expected_pivots = row_reduce(m)
    assert pivots == expected_pivots
    assert [[Fraction(x, d) for x in row] for row in reduced[: len(pivots)]] == echelon[: len(pivots)]
    assert all(x == 0 for row in reduced[len(pivots) :] for x in row)


@given(symmetric_matrices(), st.integers(min_value=1, max_value=5))
@settings(max_examples=300, derandomize=True)
def test_integer_reduction_of_a_definite_block_gives_its_schur_complement(m, k):
    """Eliminating the first k columns of a matrix whose leading k x k block
    is negative definite leaves det(block) times the Schur complement below."""
    k = min(k, len(m))
    block = [row[:k] for row in m[:k]]
    assume(is_negative_definite(block))
    scale, rows = integer_rows(m)
    reduced, pivots, d = integer_reduce(rows, k)
    assert pivots == list(range(k))
    for j in range(k, len(m)):
        x = solve(block, [m[l][j] for l in range(k)])
        for i in range(k, len(m)):
            schur = m[i][j] - sum(m[i][l] * x[l] for l in range(k))
            assert Fraction(reduced[i][j], d * scale) == schur


def test_definiteness_on_long_chains_and_cycles():
    # A_40 is negative definite; the 40-cycle (an I_40 fibre) is not: its
    # leading minors are those of A_39 up to the last, which is 0
    n = 40
    chain = [[Fraction(-2 if i == j else int(abs(i - j) == 1)) for j in range(n)] for i in range(n)]
    cycle = [[Fraction(-2 if i == j else int((i - j) % n in (1, n - 1))) for j in range(n)] for i in range(n)]
    assert is_negative_definite(chain)
    assert not is_negative_definite(cycle)
    cycle[-1][-1] -= 1
    assert is_negative_definite(cycle)


# ---------------------------------------------------------------------------
# Ranks mod the small prime, and the Tjurina numbers they shortcut
# ---------------------------------------------------------------------------


@st.composite
def sparse_integer_rows(draw):
    """Sparse integer rows over up to 8 columns, with small entries, entries
    that are multiples of the modular prime, and rows that agree with an
    earlier row mod the prime, so that the rank mod p can fall short."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    p = MODULAR_PRIME
    entries = st.one_of(st.integers(-5, 5), st.integers(-3, 3).map(lambda a: a * p))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        if rows and draw(st.booleans()):
            base = draw(st.sampled_from(rows))
            row = {k: v + p * draw(st.integers(-2, 2)) for k, v in base.items()}
            col = draw(st.integers(0, ncols - 1))
            row[col] = row.get(col, 0) + p
        else:
            row = {k: draw(entries) for k in draw(st.sets(st.integers(0, ncols - 1)))}
        rows.append({k: v for k, v in row.items() if v})
    return rows


@given(sparse_integer_rows())
@settings(max_examples=400, derandomize=True)
def test_modular_rank_is_at_most_the_integer_rank(rows):
    assert modular_rank(rows) <= integer_rank(rows)
    assert modular_rank([{k: MODULAR_PRIME * v for k, v in row.items()} for row in rows]) == 0


@pytest.mark.parametrize("k", range(16))
def test_jacobian_columns_follow_the_reversed_monomial_basis(k):
    """With the unit generator every row is one multiplier, in basis order,
    with its one entry at the multiplier's column in the reversed basis."""
    columns = monomial_basis(k)[::-1]
    ncols, rows = _jacobian_rows([{(0, 0, 0): 1}], 0, k)
    assert ncols == len(columns)
    assert rows == [{columns.index(m): 1} for m in monomial_basis(k)]


@st.composite
def plane_curves(draw):
    """Cubics and quartics with small coefficients: random sparse forms, and
    products with a line, which are singular where the factors meet."""
    degree = draw(st.sampled_from([3, 4]))

    def form(d):
        support = draw(st.sets(st.sampled_from(monomial_basis(d)), min_size=1))
        return HomogeneousForm.from_dict(d, {m: draw(st.integers(-3, 3)) for m in support})

    curve = form(degree) if draw(st.booleans()) else form(1) * form(degree - 1)
    assume(not curve.is_zero)
    return curve


@given(plane_curves())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_tjurina_number_agrees_with_exact_ranks_alone(curve):
    tau = tjurina_number_exact(curve)
    assert tjurina_number(curve) == tau
    if tau is not None:
        assert tjurina_number(curve, at_least=tau) == tjurina_number_exact(curve, at_least=tau) == tau


# ---------------------------------------------------------------------------
# Koszul rows of the Jacobian ideal, against every row
# ---------------------------------------------------------------------------


@st.composite
def curves_with_singularities(draw):
    """Cubics, quartics and sextics: x^d + y^d + z^d plus random terms (mostly
    smooth), x^d + y^d + (x^2 + y^2) z^(d-2) plus random terms of z-degree
    below d - 1 (singular at [0:0:1]), and a line or conic times such a
    smooth form.  The base terms keep the curves reduced, as a non-reduced
    sextic would run both Tjurina searches to their cap."""
    degree = draw(st.sampled_from([3, 4, 6]))

    def form(d, singular_at_z=False):
        basis = [m for m in monomial_basis(d) if not (singular_at_z and m[2] >= d - 1)]
        support = draw(st.sets(st.sampled_from(basis), max_size=8))
        terms = {m: draw(st.integers(-9, 9)) for m in support}
        base = [(d, 0, 0), (0, d, 0)]
        base += [(2, 0, d - 2), (0, 2, d - 2)] if singular_at_z else [(0, 0, d)]
        for m in base:
            terms[m] = terms.get(m, 0) + 1
        return HomogeneousForm.from_dict(d, terms)

    shape = draw(st.sampled_from(["smooth", "singular", "product"]))
    if shape == "product":
        factor = draw(st.sampled_from([1, 2]))
        return form(factor) * form(degree - factor)
    return form(degree, singular_at_z=shape == "singular")


@given(curves_with_singularities())
@settings(max_examples=45, derandomize=True, deadline=None)
def test_koszul_rows_keep_the_rank_of_all_rows(curve):
    d = curve.degree
    generators = [g for g in (_integer_terms(dict(curve.partial(v).terms)) for v in range(3)) if g]
    k = max(3 * (d - 2) + 1, d - 1)  # the start degree of `tjurina_number`
    ncols, kept = _jacobian_rows(generators, d - 1, k)
    all_ncols, every = jacobian_rows_all(generators, d - 1, k)
    assert ncols == all_ncols and all(row in every for row in kept)
    assert integer_rank(kept) == integer_rank(every)
    assert tjurina_number(curve) == tjurina_number_exact(curve)


def test_koszul_rows_of_the_fermat_sextic():
    # F = x^6 + y^6 + z^6: leading monomials x^5, y^5, z^5 of the partials
    curve = monomial(6, 0, 0) + monomial(0, 6, 0) + monomial(0, 0, 6)
    generators = [_integer_terms(dict(curve.partial(v).terms)) for v in range(3)]
    ncols, kept = _jacobian_rows(generators, 5, 13)
    _, every = jacobian_rows_all(generators, 5, 13)
    # multipliers of degree 8: y^5 rows skipped where x^5 | m (10 of 45), z^5 rows
    # where x^5 | m or y^5 | m (20); the 105 kept rows are a basis of S_13
    assert len(every) == 3 * 45 and len(kept) == 3 * 45 - 10 - 20 == ncols
    assert integer_rank(kept) == integer_rank(every) == ncols


# ---------------------------------------------------------------------------
# Stabilizers of marked points and lines, against the definition and minors
# ---------------------------------------------------------------------------

small_rationals = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
nonzero_triples = st.tuples(small_rationals, small_rationals, small_rationals).filter(any)


@st.composite
def markings(draw):
    """Up to four points and two lines: free points, coordinate points,
    repeated points and points on a drawn line (l x w for a drawn w)."""
    triples = draw(st.lists(nonzero_triples, max_size=2))
    points = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["free", "coordinate", "repeated", "on a line"]))
        if kind == "repeated" and points:
            points.append(draw(st.sampled_from(points)))
            continue
        coords = draw(nonzero_triples)
        if kind == "coordinate":
            coords = draw(st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        elif kind == "on a line" and triples:
            (a, b, c), (x, y, z) = draw(st.sampled_from(triples)), coords
            coords = (b * z - c * y, c * x - a * z, a * y - b * x)
            assume(any(coords))
        points.append(MarkedPoint.of(*coords))
    return tuple(points), tuple(linear_form(*t) for t in triples)


@given(markings())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_stabilizer_dim_agrees_with_the_definition_by_minors(case):
    points, lines = case
    assert stabilizer_dim(points, lines) == stabilizer_dim_by_minors(points, lines)


# ---------------------------------------------------------------------------
# Germ translation, against the term-by-term Fraction expansion
# ---------------------------------------------------------------------------

small_or_huge = st.one_of(
    st.integers(-5, 5).map(Fraction),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**64)),
)


@st.composite
def germs(draw, max_degree=30):
    """Germs up to degree 30 (blow-ups reach 29), constant term allowed."""
    support = draw(st.sets(
        st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)).filter(
            lambda e: sum(e) <= max_degree
        ),
        min_size=1,
        max_size=10,
    ))
    g = {e: draw(small_or_huge) for e in support}
    g = {e: c for e, c in g.items() if c}
    assume(g)
    return g


@st.composite
def forms_and_points(draw):
    degree = draw(st.integers(0, MAX_DEGREE + 4))
    support = draw(st.sets(st.sampled_from(monomial_basis(degree)), min_size=1, max_size=10))
    form = HomogeneousForm.from_dict(degree, {m: draw(small_or_huge) for m in support})
    assume(not form.is_zero)
    pivot = draw(st.integers(0, 2))
    coords = [draw(st.one_of(st.just(Fraction(0)), small_or_huge)) for _ in range(3)]
    coords[pivot] = Fraction(1)
    coords[:pivot] = [Fraction(0)] * pivot
    return form, MarkedPoint(tuple(coords))


@given(forms_and_points())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_germ_of_agrees_with_the_fraction_expansion(case):
    form, point = case
    assert germ_of(form, point) == germ_of_by_expansion(form, point)


def _ints_where_integral(values) -> list:
    return [c.numerator if c.denominator == 1 else c for c in map(Fraction, values)]


def _integral_values_are_ints(values) -> bool:
    return all(type(c) is int for c in values if Fraction(c).denominator == 1)


@given(forms_and_points())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_integral_values_are_stored_as_ints_equal_to_their_fractions(case):
    # built from Fractions and from ints where integral: equal, hashed and printed alike,
    # and every integral value stored as an int
    form, point = case
    exponents = [e for e, _ in form.terms]
    fractions = [Fraction(c) for _, c in form.terms]
    ints = _ints_where_integral(fractions)
    forms = [HomogeneousForm.from_dict(form.degree, dict(zip(exponents, v))) for v in (fractions, ints)]
    points = [MarkedPoint.of(*map(Fraction, point.coords)), MarkedPoint.of(*_ints_where_integral(point.coords))]
    germs_at = [germ_of(f, p) for f, p in zip(forms, points)]
    germs_of_terms = [germ({(a, b): c for (a, b, _), c in zip(exponents, v)}) for v in (fractions, ints)]
    cases = [
        (forms[0], forms[1], [c for _, c in forms[0].terms]),
        (points[0], points[1], list(points[0].coords)),
    ]
    for g, h in (germs_at, germs_of_terms):
        cases.append((tuple(sorted(g.items())), tuple(sorted(h.items())), list(g.values())))
    for first, second, values in cases:
        assert first == second and hash(first) == hash(second)
        assert _integral_values_are_ints(values)
        assert [rat_str(c) for c in values] == [rat_str(Fraction(c)) for c in values]
        assert pipelines._fmt(tuple(values)) == pipelines._fmt(tuple(map(Fraction, values)))
    assert str(points[0]) == str(points[1])
    for v in range(3):
        assert _integral_values_are_ints(c for _, c in forms[0].partial(v).terms)


directions = st.one_of(
    st.just(Direction(None, 1)),
    st.just(Direction(Fraction(0), 1)),
    small_or_huge.map(lambda root: Direction(root, 1)),
)


@given(germs(), directions)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_blow_up_agrees_with_the_fraction_expansion(g, direction):
    assert _blow_up_at_direction(g, direction) == blow_up_at_direction_by_expansion(g, direction)


def test_blow_up_of_an_irrational_direction_is_refused_by_both():
    g = {(2, 0): Fraction(1), (0, 2): Fraction(1)}
    for blow_up in (_blow_up_at_direction, blow_up_at_direction_by_expansion):
        with pytest.raises(UndecidableOverQ):
            blow_up(g, Direction(None, 1, degree=2))


small_nonzero = st.builds(Fraction, st.integers(1, 7) | st.integers(-7, -1), st.integers(1, 4))


@st.composite
def smooth_branches(draw):
    """A germ a u + b v + higher terms through the origin, (a, b) != (0, 0):
    smooth, with a rational tangent."""
    a, b = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -2), (2, 3)]))
    g = {(1, 0): Fraction(a), (0, 1): Fraction(b)}
    for e in draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: 2 <= sum(e) <= 3
    ), max_size=3)):
        g[e] = draw(small_nonzero)
    return germ({e: c for e, c in g.items() if c})


@st.composite
def germ_pairs(draw):
    """Two germs through the origin, each a product of one to three smooth
    branches with rational tangents, so every tangent direction is rational;
    pairs with a common component are left out."""
    f, g = ({(0, 0): Fraction(1)}, {(0, 0): Fraction(1)})
    for _ in range(draw(st.integers(1, 3))):
        f = germ_mul(f, draw(smooth_branches()))
    for _ in range(draw(st.integers(1, 3))):
        g = germ_mul(g, draw(smooth_branches()))
    assume(not _share_component(f, g))
    return f, g, None


@st.composite
def branches_with_contact(draw):
    """v - p(u) and v - p(u) - c u^k, or the same with u and v swapped: two
    smooth branches with contact k, so their intersection number is k."""
    k = draw(st.integers(1, 12))
    p = {(a, 0): draw(small_nonzero) for a in draw(st.sets(st.integers(1, 6), max_size=3))}
    f = {(0, 1): Fraction(1), **{e: -c for e, c in p.items()}}
    c = draw(small_nonzero)
    g = dict(f)
    g[(k, 0)] = g.get((k, 0), Fraction(0)) - c
    f, g = germ(f), germ({e: x for e, x in g.items() if x})
    if draw(st.booleans()):
        f, g = ({(b, a): x for (a, b), x in h.items()} for h in (f, g))
    return f, g, k


@given(st.one_of(germ_pairs(), branches_with_contact()))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_local_intersection_agrees_with_the_blow_up_recursion(case):
    f, g, contact = case
    number = local_intersection(f, g)
    assert number == intersection_by_blow_ups(f, g)
    assert contact is None or number == contact


@st.composite
def double_points(draw):
    """a u^2 + b uv + c v^2 plus up to four terms of degree 3 to 6; half of
    the quadratic parts are squares (p u + q v)^2, of discriminant zero."""
    if draw(st.booleans()):
        p, q = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        a, b, c = p * p, 2 * p * q, q * q
    else:
        a, b, c = draw(st.tuples(*[st.integers(-4, 4)] * 3).filter(any))
    g = {(2, 0): Fraction(a), (1, 1): Fraction(b), (0, 2): Fraction(c)}
    for e in draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
        lambda e: 3 <= sum(e) <= 6
    ), max_size=4)):
        g[e] = draw(small_nonzero)
    return germ({e: x for e, x in g.items() if x}), b * b - 4 * a * c


@given(double_points())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_a1_exactly_when_the_quadratic_part_is_nondegenerate(case):
    g, disc = case
    verdict = an_type_at(g)
    assume(verdict.kind == "A")  # an isolated point
    assert (verdict.n == 1) == (disc != 0)


# ---------------------------------------------------------------------------
# Minimally elliptic classification, against the subset enumeration
# ---------------------------------------------------------------------------


def _classify_by_subsets(config):
    """p_a(Z) = 1 and every proper connected subconfiguration rational (2^n subsets)."""
    pa = fundamental_cycle(config).pa
    if pa == 0:
        return "rational"
    if pa != 1:
        return "not-elliptic"
    for size in range(1, len(config.names)):
        for keep in combinations(config.names, size):
            sub = config.subconfiguration(keep)
            if is_connected_by_union(sub) and fundamental_cycle(sub).pa != 0:
                return "not-elliptic"
    return "minimally-elliptic"


@st.composite
def negative_definite_configurations(draw):
    """Configurations with genus 0 and 1 components whose self-intersection is
    at most minus the total contact, so the Gram matrix is diagonally dominant;
    the negative definite ones are kept."""
    n = draw(st.integers(min_value=1, max_value=6))
    mults = {}
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(st.sampled_from([0, 0, 0, 1, 1, 2]))
            if m:
                mults[i, j] = m
    components = []
    for i in range(n):
        degree = sum(m for pair, m in mults.items() if i in pair)
        extra = draw(st.integers(min_value=0, max_value=2))
        components.append(Component(f"C{i}", -degree - extra, draw(st.sampled_from([0, 0, 0, 0, 1]))))
    contacts = tuple(Contact(f"C{i}", f"C{j}", m) for (i, j), m in mults.items())
    config = CurveConfiguration(tuple(components), contacts)
    assume(config_negative_definite(config))
    return config


@given(negative_definite_configurations())
@settings(max_examples=500, derandomize=True)
def test_classification_agrees_with_subset_enumeration(config):
    assert classify_minimally_elliptic(config).kind == _classify_by_subsets(config)


@given(negative_definite_configurations())
@settings(max_examples=200, derandomize=True)
def test_connectivity_agrees_with_union_find(config):
    assert config.is_connected() == is_connected_by_union(config)
    for name in config.names:
        sub = config.subconfiguration(tuple(n for n in config.names if n != name))
        assert sub.is_connected() == is_connected_by_union(sub)


@given(negative_definite_configurations())
@settings(max_examples=200, derandomize=True)
def test_cycle_invariants_agree_with_fraction_formulas(config):
    cycle = fundamental_cycle(config)
    computed = (cycle.self_int, cycle.canonical_degree, cycle.pa)
    assert all(map(int_when_integral, computed))
    assert computed == cycle_invariants_by_fractions(cycle)


@given(negative_definite_configurations())
@settings(max_examples=200, derandomize=True)
def test_match_catalog_agrees_with_a_scan(config):
    assert match_catalog(config) is match_catalog_by_scan(config)


def test_classification_of_the_catalog_agrees_with_subset_enumeration():
    for entry in CATALOG:
        assert classify_minimally_elliptic(entry.config).kind == _classify_by_subsets(entry.config)


# ---------------------------------------------------------------------------
# Every contraction in the pipelines, against an independent projection
# ---------------------------------------------------------------------------


def _check_contraction(before, names, after):
    """The surviving classes are the projections of the old ones onto the
    orthogonal complement of the contracted classes, computed here by one
    `solve` per class; each pairs to 0 with every contracted class."""
    classes = [before.curve_class(n) for n in names]
    gram = [[a.dot(b) for b in classes] for a in classes]

    def project(d):
        x = solve(gram, [d.dot(c) for c in classes])
        coeffs = [
            a - sum((xi * c.coeffs[k] for xi, c in zip(x, classes)), Fraction(0))
            for k, a in enumerate(d.coeffs)
        ]
        return DivisorClass(before.lattice, tuple(coeffs))

    images = [project(before.basis_class(b)) for b in after.lattice.basis]

    def lift(cls):
        total = before.zero()
        for coefficient, image in zip(cls.coeffs, images):
            total = total + coefficient * image
        return total

    for image in images:
        assert all(image.dot(c) == 0 for c in classes)
    assert after.lattice.gram == tuple(tuple(a.dot(b) for b in images) for a in images)
    assert lift(after.canonical) == project(before.canonical)
    for curve in after.tracked:
        lifted = lift(curve.cls)
        assert lifted == project(before.curve_class(curve.name))
        assert all(lifted.dot(c) == 0 for c in classes)
    assert replay(after.provenance) == after


def _pipeline_runs():
    for sing in ("E12", "E13", "E14"):
        for variant in en_variants(sing):
            yield f"{sing}-{variant}", lambda s=sing, v=variant: run_en_pipeline(EnSpec(s, fiber_variant=v))
    for sing, case in (("Z11", 1), ("Z12", 1), ("Z13", 2), ("W12", 1), ("W13", 1)):
        yield f"{sing}-{case}", lambda s=sing, c=case: run_zw_pipeline(ZwSpec(s, family_case=c))


@pytest.mark.parametrize("label,run", list(_pipeline_runs()), ids=[label for label, _ in _pipeline_runs()])
def test_every_pipeline_contraction_is_an_orthogonal_projection(monkeypatch, label, run):
    seen = []

    def checked_contract(model, names):
        result = contract(model, names)
        _check_contraction(model, list(names), result.model)
        seen.append(names)
        return result

    monkeypatch.setattr(pipelines, "contract", checked_contract)
    run()
    assert seen
