"""Intersection lattices, divisor classes and surface models.

A surface is modelled by the finitely generated sublattice of its numerical
group spanned by the classes the construction actually touches: an ordered
named basis with a symmetric rational Gram matrix, a canonical class, the
holomorphic Euler characteristic, and a list of tracked curves.  There are
nine moves.  Three create a model: the plane, a Hirzebruch surface and a
declared surface.  ``track`` names a class as a curve.  The others are the
double cover, the splitting of a tracked curve whose preimage decomposes on
a double cover, and the two moves across a point: attaching the resolution
configuration of a point (a blow-up attaches the resolution of a smooth
point, a single rational (-1)-curve) and contracting a configuration of
tracked curves to one.

One naming rule holds for every move: a creation move tracks no curve but
the ones it is given, ``track`` adds the one it names, and every other move
keeps the name of each tracked curve it carries.  A curve is named once,
under the name the construction reads it by; a move drops only the curves
it consumes (the split curve, the contracted ones) and adds only the ones it
makes (the attached components, the two halves of a split).

One rule, ``_point_kind``, says what a configuration resolves: a smooth
point (discrepancy 1), a rational double point (crepant) or an elliptic
Gorenstein point (K + Z orthogonal to every component, p_g = 1; Laufer,
*On minimally elliptic singularities*, 1977).  Attaching and contracting
both read the canonical class and chi across the point from it.

A lattice holds its Gram matrix once, as integer rows over one positive
denominator.  Rational data is scaled to integers once, where it enters:
the lattice constructor, divisor classes and the pairings declared when a
curve splits.  Every move derives its result's rows from its input's: a
double cover doubles them, an attached resolution (a blow-up too) borders
them with the configuration's integer Gram matrix, and a contraction takes
their Schur complement.  A divisor class is an integer vector over one
positive denominator: sums, multiples and pairings run on integers, and a
pairing becomes a number once, at the end, through ``rationals.ratio``: an
int when it is integral, a Fraction only when it is not.  Adjunction pairs
d + K with d in the same integer kernel and builds only the genus, and a
configuration of tracked curves reads its Gram matrix off one integer
product of their numerators with the lattice rows.

Models are immutable; every operation returns a fresh model whose provenance
lists the operations with their call arguments as immutable values, so
``replay`` re-runs the calls and reproduces the construction bit for bit.
The arguments are mathematical only, with no display name, so a model is
fixed by its provenance and equal constructions have equal provenance.
Within a corpus pass (``SharedMoves``) each move runs once per result
provenance: it builds the provenance of its result first, and a later call
that builds an equal one gets the same immutable result.  The provenance the
result holds is the key, and keys compare by value.  Outside a pass, and in
``replay``, every move computes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .configurations import (
    Component,
    Contact,
    CurveConfiguration,
    FundamentalCycle,
    classify_minimally_elliptic,
    match_catalog,
)
from .rationals import frac, integer_reduce, integer_rows, plain, rat_str, ratio


class LatticeError(ValueError):
    """Mismatched lattices, unknown classes, malformed Gram data."""


class ContractionError(ValueError):
    """Configuration that cannot be contracted to a Gorenstein model."""


class _LatticeFields(NamedTuple):
    basis: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    den: int


class IntersectionLattice(_LatticeFields):
    """An ordered named basis with the Gram matrix ``rows / den``.

    Kept normalised as a divisor class is: ``den > 0`` and
    ``gcd(den, *entries) == 1``, so equal lattices have equal fields and
    equal hashes.  The constructor takes a rational Gram matrix from outside,
    checks its shape and symmetry, and scales it to integers once; the moves
    build their lattices from integer rows (``_lattice``).  ``gram`` is the
    Fraction view.
    """

    __slots__ = ()

    def __new__(cls, basis: Sequence[str], gram: Sequence[Sequence[int | Fraction]]) -> "IntersectionLattice":
        n = len(basis)
        if len(gram) != n or any(len(row) != n for row in gram):
            raise LatticeError("Gram matrix shape does not match the basis")
        den, rows = integer_rows(gram)
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise LatticeError("Gram matrix is not symmetric")
        return _lattice(tuple(basis), tuple(map(tuple, rows)), den)

    def __reduce__(self):
        return _lattice, tuple(self)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.rows)

    def index(self, name: str) -> int:
        try:
            return self.basis.index(name)
        except ValueError:
            raise LatticeError(f"no basis class named {name!r}") from None


def _lattice(basis: tuple[str, ...], rows: tuple[tuple[int, ...], ...], den: int) -> IntersectionLattice:
    """The lattice with Gram matrix rows / den (den != 0), normalised by one gcd;
    no Fraction is built."""
    if len(set(basis)) != len(basis):
        raise LatticeError("duplicate basis names")
    common = gcd(den, *chain.from_iterable(rows))
    if den < 0:
        common = -common
    if common != 1:
        rows, den = tuple(tuple(x // common for x in row) for row in rows), den // common
    return tuple.__new__(IntersectionLattice, (basis, rows, den))


def _direct_sum(
    lattice: IntersectionLattice, names: tuple[str, ...], block: Sequence[Sequence[int]]
) -> IntersectionLattice:
    """``lattice`` plus the classes ``names``, orthogonal to it, with the integer Gram ``block``."""
    pad, zeros = (0,) * len(names), (0,) * lattice.rank
    rows = tuple(row + pad for row in lattice.rows)
    rows += tuple(zeros + tuple(lattice.den * x for x in row) for row in block)
    return _lattice(lattice.basis + names, rows, lattice.den)


class DivisorClass:
    """An integer vector ``num`` over one denominator ``den``, on a lattice.

    Kept normalised: ``den > 0`` and ``gcd(den, *num) == 1``, so the zero class
    has ``den == 1`` and equal classes have equal fields.  ``coeffs`` is the
    Fraction view, built on demand.
    """

    __slots__ = ("lattice", "num", "den")
    lattice: IntersectionLattice
    num: tuple[int, ...]
    den: int

    def __init__(self, lattice: IntersectionLattice, coeffs: Sequence[int | Fraction]) -> None:
        if len(coeffs) != lattice.rank:
            raise LatticeError("coefficient vector does not match the basis")
        den, (num,) = integer_rows([coeffs])
        _set_fields(self, lattice, tuple(num), den)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("divisor classes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("divisor classes are immutable")

    def __repr__(self) -> str:
        return f"DivisorClass({self})"

    def __reduce__(self):
        return _divisor, (self.lattice, self.num, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.lattice == other.lattice

    def __hash__(self) -> int:
        return hash((self.lattice, self.num, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def _same_lattice(self, other: "DivisorClass") -> None:
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeError("classes live on different lattices")

    def _combine(self, other: "DivisorClass", sign: int) -> "DivisorClass":
        """self + sign * other over the lcm of the two denominators."""
        self._same_lattice(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return _divisor(self.lattice, tuple(a * x + b * y for x, y in zip(self.num, other.num)), den)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, 1)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, -1)

    def __neg__(self) -> "DivisorClass":
        return _divisor(self.lattice, tuple(-x for x in self.num), self.den)

    def __rmul__(self, scalar: int | Fraction) -> "DivisorClass":
        s = scalar if type(scalar) is int else frac(scalar)
        return _divisor(self.lattice, tuple(s.numerator * x for x in self.num), s.denominator * self.den)

    def dot(self, other: "DivisorClass") -> int | Fraction:
        """a.G.b, summed over the integers; an int when integral."""
        self._same_lattice(other)
        total = _pairing(self.lattice.rows, self.num, other.num)
        return ratio(total, self.lattice.den * self.den * other.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def coeff_map(self) -> dict[str, int | Fraction]:
        return {name: ratio(x, self.den) for name, x in zip(self.lattice.basis, self.num) if x}

    def __str__(self) -> str:
        parts = []
        for name, value in self.coeff_map().items():
            if value == 1:
                parts.append(name)
            else:
                parts.append(f"{rat_str(value)}*{name}")
        return " + ".join(parts) if parts else "0"


def _pairing(rows: Sequence[Sequence[int]], a: Iterable[int], b: Sequence[int]) -> int:
    """The integer a.rows.b: the one pairing kernel of classes and of adjunction."""
    total = 0
    for x, row in zip(a, rows):
        if x:
            total += x * sum(map(mul, row, b))
    return total


def _set_fields(cls: DivisorClass, lattice: IntersectionLattice, num: tuple[int, ...], den: int) -> None:
    object.__setattr__(cls, "lattice", lattice)
    object.__setattr__(cls, "num", num)
    object.__setattr__(cls, "den", den)


def _divisor(lattice: IntersectionLattice, num: tuple[int, ...], den: int = 1) -> DivisorClass:
    """The class num / den (den != 0), normalised by one gcd; no Fraction is built."""
    common = gcd(den, *num)
    if den < 0:
        common = -common
    if common != 1:
        num, den = tuple(x // common for x in num), den // common
    cls = object.__new__(DivisorClass)
    _set_fields(cls, lattice, num, den)
    return cls


def _unit(lattice: IntersectionLattice, i: int) -> DivisorClass:
    """The basis class at index i."""
    return _divisor(lattice, tuple(int(j == i) for j in range(lattice.rank)))


def _extend(lattice: IntersectionLattice, cls: DivisorClass, tail: Sequence[int]) -> DivisorClass:
    """The class on ``lattice`` whose coordinates are those of ``cls`` followed by ``tail``."""
    return _divisor(lattice, cls.num + tuple(t * cls.den for t in tail), cls.den)


class TrackedCurve(NamedTuple):
    name: str
    cls: DivisorClass
    pa: int | Fraction  # by adjunction; an int when integral, as it is on an irreducible curve
    irreducible: bool = True


class ProvenanceStep(NamedTuple):
    """One operation and its call arguments after the model, positionally.

    The arguments are kept as immutable values (names, numbers, divisor
    classes, configurations, tuples), so a caller that mutates what it passed
    does not change the log.  A mapping is kept as its (key, value) pairs in
    order: each operation first copies its mapping arguments with ``dict``,
    which takes the pairs as well, so ``replay`` passes the arguments back as
    they are.
    """

    op: str
    args: tuple


def _frozen(value):
    if isinstance(value, dict):
        return tuple((k, _frozen(v)) for k, v in value.items())
    if type(value) in (list, tuple):  # a record is a tuple too, and stays as it is
        return tuple(map(_frozen, value))
    return value


def _step(op: str, *args) -> ProvenanceStep:
    return ProvenanceStep(op, _frozen(args))


# result provenance -> what the move returned, while a pass is open; the key is
# the provenance the result holds (its model's, for a contraction)
_shared: dict[tuple[ProvenanceStep, ...], object] | None = None


class SharedMoves:
    """A corpus pass: inside ``with SharedMoves():`` each move runs once per
    result provenance, and a later call that would build the same provenance
    gets the same immutable result.  The results are dropped when the block
    ends, also on error.
    """

    def __enter__(self) -> "SharedMoves":
        global _shared
        _shared = {}
        return self

    def __exit__(self, *exc) -> None:
        global _shared
        _shared = None


def _recall(provenance: tuple[ProvenanceStep, ...]):
    """What a move whose result has ``provenance`` returned earlier in the open
    pass; None outside a pass and on a first call."""
    return None if _shared is None else _shared.get(provenance)


def _share(provenance: tuple[ProvenanceStep, ...], result):
    """``result``, kept under ``provenance`` while a pass is open.  A move that
    raises never gets here, so the call raises again when repeated."""
    if _shared is not None:
        _shared[provenance] = result
    return result


class _SurfaceModelFields(NamedTuple):
    lattice: IntersectionLattice
    canonical: DivisorClass
    chi: int
    tracked: tuple[TrackedCurve, ...]
    provenance: tuple[ProvenanceStep, ...]


class SurfaceModel(_SurfaceModelFields):
    __slots__ = ()

    def __new__(cls, *fields, **named) -> "SurfaceModel":
        self = super().__new__(cls, *fields, **named)
        if self.canonical.lattice != self.lattice:
            raise LatticeError("canonical class does not belong to the model lattice")
        for curve in self.tracked:
            if curve.cls.lattice != self.lattice:
                raise LatticeError(f"tracked curve {curve.name!r} lives on a foreign lattice")
        names = [c.name for c in self.tracked]
        if len(set(names)) != len(names):
            raise LatticeError("duplicate tracked-curve names")
        return self

    # -- class construction -------------------------------------------------

    def basis_class(self, name: str) -> DivisorClass:
        return _unit(self.lattice, self.lattice.index(name))

    def divisor(self, coeffs: Mapping[str, int | Fraction]) -> DivisorClass:
        return _class_of(self.lattice, coeffs)

    def zero(self) -> DivisorClass:
        return _divisor(self.lattice, (0,) * self.lattice.rank)

    # -- tracked curves ------------------------------------------------------

    def curve(self, name: str) -> TrackedCurve:
        for c in self.tracked:
            if c.name == name:
                return c
        raise LatticeError(f"no tracked curve named {name!r}")

    def has_curve(self, name: str) -> bool:
        return any(c.name == name for c in self.tracked)

    def curve_class(self, name: str) -> DivisorClass:
        return self.curve(name).cls

    def curve_sum(self, names: Iterable[str]) -> DivisorClass:
        """The sum of the classes of the named curves."""
        return sum((self.curve_class(n) for n in names), self.zero())

    # -- numerics ------------------------------------------------------------

    def intersect(self, a: DivisorClass, b: DivisorClass) -> int | Fraction:
        if a.lattice != self.lattice or b.lattice != self.lattice:
            raise LatticeError("classes do not belong to this model")
        return a.dot(b)

    def adjunction_pa(self, d: DivisorClass) -> int | Fraction:
        """1 + (d + K).d / 2, from one pairing."""
        return _adjunction_pa(self.canonical, d)

    def rr_chi(self, d: DivisorClass) -> int | Fraction:
        """chi + (d - K).d / 2, from one pairing."""
        return self.chi + _half(self.intersect(d - self.canonical, d))

    @property
    def k_squared(self) -> int | Fraction:
        return self.canonical.dot(self.canonical)

    @property
    def c2(self) -> int | Fraction:
        """Topological Euler number imposed by Noether's identity, 12*chi - K^2."""
        return 12 * self.chi - self.k_squared

    def _with(self, **changes) -> "SurfaceModel":
        return SurfaceModel(*self._replace(**changes))


def _class_of(lattice: IntersectionLattice, coeffs: Mapping[str, int | Fraction]) -> DivisorClass:
    """The class with the given coefficients on named basis classes, 0 elsewhere."""
    vector = [0] * lattice.rank
    for name, value in coeffs.items():
        vector[lattice.index(name)] = plain(value)
    return DivisorClass(lattice, tuple(vector))


def _half(value: int | Fraction) -> int | Fraction:
    """value / 2, exactly."""
    return ratio(value.numerator, 2 * value.denominator)


def _adjunction_pa(canonical: DivisorClass, d: DivisorClass) -> int | Fraction:
    """1 + (d + K).d / 2 on the lattice of K; a move's new curves take their
    genus from it before the new model is built.

    With K = k / a and d = n / b, (d + K).d is (a n + b k).rows.n over
    a b^2 times the lattice's denominator: one integer pairing, one ratio.
    """
    d._same_lattice(canonical)
    a, b = canonical.den, d.den
    total = _pairing(d.lattice.rows, [a * x + b * y for x, y in zip(d.num, canonical.num)], d.num)
    den = 2 * d.lattice.den * a * b * b
    return ratio(den + total, den)


# ---------------------------------------------------------------------------
# Creation
# ---------------------------------------------------------------------------


def make_p2() -> SurfaceModel:
    """The projective plane: basis {H}, H^2 = 1, K = -3H, chi = 1."""
    provenance = (_step("p2"),)
    if (shared := _recall(provenance)) is not None:
        return shared
    lattice = IntersectionLattice(("H",), ((1,),))
    canonical = DivisorClass(lattice, (-3,))
    return _share(provenance, SurfaceModel(lattice, canonical, 1, (), provenance))


def make_hirzebruch(n: int) -> SurfaceModel:
    """The ruled surface F_n: basis {Cinf, Gamma}, Cinf^2 = -n, K = -2Cinf-(n+2)Gamma."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("a Hirzebruch surface needs a nonnegative integer twist")
    provenance = (_step("hirzebruch", n),)
    if (shared := _recall(provenance)) is not None:
        return shared
    lattice = IntersectionLattice(("Cinf", "Gamma"), ((-n, 1), (1, 0)))
    canonical = DivisorClass(lattice, (-2, -n - 2))
    return _share(provenance, SurfaceModel(lattice, canonical, 1, (), provenance))


def declare_surface(
    basis: Sequence[str],
    gram: Mapping[str, Mapping[str, int | Fraction]],
    canonical: Mapping[str, int | Fraction],
    chi: int,
    tracked: Sequence[tuple[str, Mapping[str, int | Fraction]]] = (),
) -> SurfaceModel:
    """Assemble a surface model from explicit data (replayable creation step).

    ``gram`` is a sparse symmetric mapping; omitted entries are zero.
    Tracked curves get their genus from adjunction.
    """
    basis = tuple(basis)
    gram = {a: dict(row) for a, row in dict(gram).items()}
    canonical = dict(canonical)
    tracked = [(cname, dict(coeffs)) for cname, coeffs in tracked]
    provenance = (_step("declare", basis, gram, canonical, chi, tracked),)
    if (shared := _recall(provenance)) is not None:
        return shared
    n = len(basis)
    rows = [[0] * n for _ in range(n)]
    for a, row in gram.items():
        for b, value in row.items():
            i, j = basis.index(a), basis.index(b)
            rows[i][j] = rows[j][i] = plain(value)
    lattice = IntersectionLattice(basis, rows)
    canonical_class = DivisorClass(lattice, tuple(plain(canonical.get(b, 0)) for b in basis))
    curves = []
    for cname, coeffs in tracked:
        cls = _class_of(lattice, coeffs)
        pa = _adjunction_pa(canonical_class, cls)
        _require_genus(cname, pa)
        curves.append(TrackedCurve(cname, cls, pa))
    return _share(provenance, SurfaceModel(lattice, canonical_class, chi, tuple(curves), provenance))


def _require_genus(name: str, pa: int | Fraction) -> None:
    if pa.denominator != 1 or pa < 0:
        raise LatticeError(
            f"curve {name!r} would have arithmetic genus {rat_str(pa)};"
            " an irreducible curve needs a nonnegative integer"
        )


def track(
    model: SurfaceModel,
    name: str,
    coeffs: Mapping[str, int | Fraction],
    irreducible: bool = True,
) -> SurfaceModel:
    """Give a name to a class and start tracking it as a curve."""
    coeffs = dict(coeffs)
    provenance = model.provenance + (_step("track", name, coeffs, irreducible),)
    if (shared := _recall(provenance)) is not None:
        return shared
    if model.has_curve(name):
        raise LatticeError(f"curve name {name!r} already tracked")
    cls = model.divisor(coeffs)
    pa = model.adjunction_pa(cls)
    if irreducible:
        _require_genus(name, pa)
    curve = TrackedCurve(name, cls, pa, irreducible)
    return _share(provenance, model._with(tracked=model.tracked + (curve,), provenance=provenance))


# ---------------------------------------------------------------------------
# Moves across a point: the rule, attaching a resolution, blow-up
# ---------------------------------------------------------------------------


def _point_kind(
    config: CurveConfiguration, k_degrees: Sequence[int | Fraction]
) -> tuple[str, FundamentalCycle, int, tuple[int, ...]]:
    """What contracting ``config`` to a point makes, given K.E_i = ``k_degrees``:
    ``(kind, fundamental cycle, p_g of the point, discrepancy a)``.

    Across the point the canonical class of the resolution is
    pi^*K + sum a_i E_i, and chi of the resolution is chi of the point's
    model minus p_g.  One smooth rational (-1)-curve is a smooth point
    ("blow-down", a = 1).  A rational configuration with every K.E_i = 0 is a
    rational double point (crepant, a = 0).  A minimally elliptic one with
    K + Z orthogonal to every E_i is an elliptic Gorenstein point (a = -Z,
    p_g = 1).  Anything else raises ContractionError.
    """
    if [(c.self_int, c.pa) for c in config.components] == [(-1, 0)]:
        return "blow-down", FundamentalCycle(config, (1,), (-1,)), 0, (1,)
    # The classification tests definiteness and takes the fundamental cycle once.
    try:
        classification = classify_minimally_elliptic(config)
    except ValueError as err:
        raise ContractionError(str(err)) from None
    cycle = classification.cycle
    if classification.kind == "rational":
        if any(k_degrees):
            raise ContractionError(
                "rational configuration is not crepant; the point would not be Gorenstein"
            )
        return "rational-double-point", cycle, 0, (0,) * len(cycle.coeffs)
    if classification.kind == "minimally-elliptic":
        # (K + Z).E_i = K.E_i + Z.E_i, and Z.E_i is read on the configuration's Gram matrix.
        for cname, k_degree, z_degree in zip(config.names, k_degrees, cycle.pairings):
            if k_degree + z_degree != 0:
                raise ContractionError(
                    f"K + Z is not orthogonal to {cname!r}; the point would not be Gorenstein"
                )
        return "minimally-elliptic", cycle, 1, tuple(-z for z in cycle.coeffs)
    raise ContractionError("configuration is neither rational nor minimally elliptic")


def attach_resolution(
    model: SurfaceModel,
    config: CurveConfiguration,
    through: Mapping[str, Mapping[str, int]] | None = None,
) -> SurfaceModel:
    """Replace a singular point by its known resolution configuration.

    The configuration joins the lattice orthogonally to all pulled-back
    classes, and the canonical class and chi change by :func:`_point_kind`,
    read on the configuration's own canonical degrees 2 p_a - 2 - E^2.
    ``through`` lists, per tracked curve passing through the point, the
    multiplicities against each new component; those curves are replaced by
    their strict transforms.
    """
    through = {k: dict(v) for k, v in dict(through or {}).items()}
    provenance = model.provenance + (_step("attach_resolution", config, through),)
    if (shared := _recall(provenance)) is not None:
        return shared
    return _attach(model, config, through, provenance)


def _attach(
    model: SurfaceModel,
    config: CurveConfiguration,
    through: dict[str, dict[str, int]],
    provenance: tuple[ProvenanceStep, ...],
) -> SurfaceModel:
    """The body of :func:`attach_resolution` and :func:`blow_up`, whose result
    has ``provenance``."""
    for comp in config.components:
        if comp.name in model.lattice.basis:
            raise LatticeError(f"basis name {comp.name!r} already taken")
    for cname, mults in through.items():
        model.curve(cname)
        for comp_name, mult in mults.items():
            config.component(comp_name)
            if not isinstance(mult, int) or mult < 0:
                raise ValueError(
                    f"strict-transform multiplicities must be nonnegative integers, got {mult!r}"
                )
    k_degrees = [2 * c.pa - 2 - c.self_int for c in config.components]
    _, _, pg, discrepancy = _point_kind(config, k_degrees)

    old_rank, names = model.lattice.rank, config.names
    lattice = _direct_sum(model.lattice, names, config.integer_gram())
    canonical = _extend(lattice, model.canonical, discrepancy)
    curves: list[TrackedCurve] = []
    for curve in model.tracked:
        mults = through.get(curve.name, {})
        cls = _extend(lattice, curve.cls, [-mults.get(n, 0) for n in names])
        pa = _adjunction_pa(canonical, cls)
        if curve.irreducible:
            _require_genus(curve.name, pa)
        curves.append(TrackedCurve(curve.name, cls, pa, curve.irreducible))
    # The rule gives K.E_i = 2 p_a - 2 - E^2 on the new model, so adjunction
    # returns each component's declared genus.
    curves += [
        TrackedCurve(comp.name, _unit(lattice, old_rank + i), comp.pa)
        for i, comp in enumerate(config.components)
    ]
    result = SurfaceModel(lattice, canonical, model.chi - pg, tuple(curves), provenance)
    return _share(provenance, result)


def blow_up(
    model: SurfaceModel,
    center: Mapping[str, int] | None = None,
    exceptional: str = "G",
) -> SurfaceModel:
    """Blow up one point; ``center`` lists tracked curves with their multiplicity there.

    Attaches the resolution of a smooth point, one rational (-1)-curve: the
    canonical class gains it, chi is unchanged, and each incident curve is
    replaced by its strict transform.  Its genus drops by m(m-1)/2, since
    (pi^*C - mE)^2 + (pi^*K + E).(pi^*C - mE) = C^2 + K.C - m^2 + m.
    """
    center = dict(center or {})
    config = CurveConfiguration((Component(exceptional, -1, 0),))
    through = {cname: {exceptional: mult} for cname, mult in center.items()}
    provenance = model.provenance + (_step("blow_up", center, exceptional),)
    if (shared := _recall(provenance)) is not None:
        return shared
    return _attach(model, config, through, provenance)


# ---------------------------------------------------------------------------
# Double cover
# ---------------------------------------------------------------------------


def double_cover(
    model: SurfaceModel,
    half_branch: DivisorClass,
    branch_components: Sequence[str] = (),
) -> SurfaceModel:
    """Double cover with branch in |2L|, modelled before resolving branch singularities.

    Pulled-back classes pair at twice the downstairs value.  Each tracked
    curve keeps its name: a branch component B now names its reduced preimage,
    of class (1/2) * pullback(B), and any other curve its pullback.  The new
    canonical class is the pullback of K + L and chi doubles plus L.(L+K)/2.
    """
    provenance = model.provenance + (_step("double_cover", half_branch, branch_components),)
    if (shared := _recall(provenance)) is not None:
        return shared
    if half_branch.lattice != model.lattice:
        raise LatticeError("half-branch class does not belong to the model")
    residual = 2 * half_branch - model.curve_sum(branch_components)
    if any(x < 0 for x in residual.num):
        raise ValueError("branch components exceed twice the half-branch class")

    chi = 2 * model.chi + _half(half_branch.dot(half_branch + model.canonical))
    if type(chi) is not int:
        raise LatticeError("double cover has non-integral holomorphic Euler characteristic")

    lattice = _lattice(
        tuple(f"{b}_pb" for b in model.lattice.basis),
        tuple(tuple(2 * x for x in row) for row in model.lattice.rows),
        model.lattice.den,
    )

    def pullback(cls: DivisorClass) -> DivisorClass:
        return _divisor(lattice, cls.num, cls.den)

    canonical = pullback(model.canonical) + pullback(half_branch)
    curves: list[TrackedCurve] = []
    branch_set = set(branch_components)
    for curve in model.tracked:
        if curve.name in branch_set:
            cls = _divisor(lattice, curve.cls.num, 2 * curve.cls.den)  # half the pullback
        else:
            cls = pullback(curve.cls)
        curves.append(TrackedCurve(curve.name, cls, _adjunction_pa(canonical, cls), curve.irreducible))
    result = SurfaceModel(
        lattice,
        canonical,
        chi,
        tuple(curves),
        provenance,
    )
    return _share(provenance, result)


# ---------------------------------------------------------------------------
# Splitting a preimage curve
# ---------------------------------------------------------------------------


def split_curve(
    model: SurfaceModel,
    curve_name: str,
    into: tuple[str, str],
    self_int: int | Fraction,
    pairings: Mapping[str, int | Fraction] | None = None,
) -> SurfaceModel:
    """Split a tracked curve into two components exchanged by an involution.

    The first component joins the basis with the declared pairings; the second
    is the difference.  Symmetry is enforced: both halves must have the same
    self-intersection and nonnegative integral genus.  The split curve leaves
    the model, so either half may take its name.
    """
    pairings = dict(pairings or {})
    provenance = model.provenance + (_step("split_curve", curve_name, into, self_int, pairings),)
    if (shared := _recall(provenance)) is not None:
        return shared
    original = model.curve(curve_name)
    first, second = into
    for fresh in into:
        if fresh in model.lattice.basis or (fresh != curve_name and model.has_curve(fresh)):
            raise LatticeError(f"name {fresh!r} already in use")
    e_sq = plain(self_int)
    old = model.lattice
    unknown = set(pairings) - set(old.basis)
    if unknown:
        raise LatticeError(f"pairings against unknown classes: {sorted(unknown)}")

    # The declared pairings and e_sq, scaled to integers, border the rows over
    # the lcm of the two denominators.
    scale, (border,) = integer_rows([[plain(pairings.get(b, 0)) for b in old.basis] + [e_sq]])
    den = lcm(old.den, scale)
    border = tuple(den // scale * y for y in border)
    rows = tuple(tuple(den // old.den * x for x in row) + (y,) for row, y in zip(old.rows, border))
    lattice = _lattice(old.basis + (first,), rows + (border,), den)

    def extend(cls: DivisorClass) -> DivisorClass:
        return _extend(lattice, cls, (0,))

    first_class = _unit(lattice, old.rank)
    second_class = _extend(lattice, original.cls, (-1,))
    if second_class.dot(second_class) != e_sq:
        raise LatticeError(
            "split halves have different self-intersections; the declared pairings"
            " are inconsistent with an exchanging involution"
        )
    canonical = extend(model.canonical)
    curves: list[TrackedCurve] = []
    for curve in model.tracked:
        if curve.name == curve_name:
            continue
        cls = extend(curve.cls)
        curves.append(TrackedCurve(curve.name, cls, _adjunction_pa(canonical, cls), curve.irreducible))
    for cname, cls in ((first, first_class), (second, second_class)):
        pa = _adjunction_pa(canonical, cls)
        _require_genus(cname, pa)
        curves.append(TrackedCurve(cname, cls, pa))
    result = SurfaceModel(
        lattice,
        canonical,
        model.chi,
        tuple(curves),
        provenance,
    )
    return _share(provenance, result)


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------


class Contraction(NamedTuple):
    model: SurfaceModel
    kind: str  # "blow-down" | "rational-double-point" | "minimally-elliptic"
    label: str
    cycle: tuple[tuple[str, int], ...]


def configuration_of(model: SurfaceModel, names: Sequence[str]) -> CurveConfiguration:
    """Assemble the abstract configuration of a set of tracked curves."""
    return _read_configuration(model, list(names))[0]


def _read_configuration(
    model: SurfaceModel, names: list[str]
) -> tuple[CurveConfiguration, list[DivisorClass], list[list[int]], list[list[int]]]:
    """The configuration of the named tracked curves, with what a contraction
    reuses: their classes, each numerator times the lattice rows (its integer
    pairings with the basis) and the products of those with the numerators.

    Entry (i, j) of the last, over the lattice's denominator times the two
    classes' denominators, is the pairing of curves i and j: one integer
    product for the whole sub-Gram matrix.
    """
    curves = [model.curve(cname) for cname in names]
    classes = [curve.cls for curve in curves]
    # the rows are symmetric, so a row is also a column
    images = [[sum(map(mul, c.num, row)) for row in model.lattice.rows] for c in classes]
    block = [[sum(map(mul, image, c.num)) for c in classes] for image in images]

    def pairing(i: int, j: int) -> int | Fraction:
        return ratio(block[i][j], model.lattice.den * classes[i].den * classes[j].den)

    components = []
    for i, curve in enumerate(curves):
        self_int = pairing(i, i)
        if type(self_int) is not int or curve.pa.denominator != 1:
            raise ContractionError(f"curve {curve.name!r} has fractional invariants")
        components.append(Component(curve.name, self_int, int(curve.pa)))
    contacts = []
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            m = pairing(i, j)
            if m == 0:
                continue
            if type(m) is not int or m < 0:
                raise ContractionError(f"curves {a!r}, {names[j]!r} pair to {rat_str(m)}")
            contacts.append(Contact(a, names[j], m))
    return CurveConfiguration(tuple(components), tuple(contacts)), classes, images, block


def contract(
    model: SurfaceModel,
    names: Sequence[str],
) -> Contraction:
    """Contract a negative definite configuration of tracked curves.

    :func:`_point_kind`, on the model's canonical degrees, decides the point:
    a single (-1) rational curve blows down smoothly, an ADE configuration
    contracts to a rational double point (labelled by the catalog), and a
    minimally elliptic configuration to an elliptic Gorenstein point, whose
    canonical class pulls back to K + Z, and chi grows by one.  Everything
    else is rejected.
    """
    names = list(names)
    provenance = model.provenance + (_step("contract", names),)
    if (shared := _recall(provenance)) is not None:
        return shared
    if not names:
        raise ValueError("nothing to contract")
    config, classes, images, block = _read_configuration(model, names)
    scale, g = model.lattice.den, model.lattice.rows
    k_num, k_den = model.canonical.num, model.canonical.den
    k_degrees = [ratio(sum(map(mul, k_num, image)), scale * k_den * c.den) for c, image in zip(classes, images)]
    kind, cycle, pg, _ = _point_kind(config, k_degrees)
    if kind == "rational-double-point":
        entry = match_catalog(config)
        label = entry.label if entry else "rational"
    elif kind == "minimally-elliptic":
        label = f"elliptic of degree {-cycle.self_int}"
    else:
        label = "smooth point"

    # The new lattice is the orthogonal complement of the contracted classes.
    # Its projection P has exactly their span as kernel, so one fraction-free
    # reduction of the classes' numerators, with the basis read right to left,
    # gives integer kernel vectors v_l, each equal to the last pivot at its
    # pivot column p_l and 0 at the other pivot columns.  A projected basis
    # class P e_j depends on those before it iff some kernel vector ends at j,
    # so the basis classes that are no pivot are kept; and
    # (pivot * x - sum_l x[p_l] v_l) / pivot, read on the kept classes, is the
    # coordinate vector of P x.
    n, k = model.lattice.rank, len(classes)
    reduced, pivots, pivot = integer_reduce([c.num[::-1] for c in classes])
    dropped = [n - 1 - p for p in pivots]
    kernel = [row[::-1] for row in reduced[: len(pivots)]]
    kept = [i for i in range(n) if i not in dropped]

    # P e_i . P e_j is the Schur complement of the contracted block G_C in the
    # Gram matrix of (classes, kept basis classes), here on the numerators and
    # the integral scale * G.  G_C is negative definite, so the fraction-free
    # elimination of its k columns takes no row exchange, and the rows below
    # the block then hold the block's determinant times the Schur complement.
    bordered = [row + [image[j] for j in kept] for row, image in zip(block, images)] + [
        [image[i] for image in images] + [g[i][j] for j in kept] for i in kept
    ]
    schur, _, minor = integer_reduce(bordered, k)
    lattice = _lattice(
        tuple(model.lattice.basis[i] for i in kept),
        tuple(tuple(row[k:]) for row in schur[k:]),
        scale * minor,
    )

    def express(d: DivisorClass) -> DivisorClass:
        coeffs = [pivot * x for x in d.num]
        for p, v in zip(dropped, kernel):
            x = d.num[p]
            if x:
                coeffs = [a - x * b for a, b in zip(coeffs, v)]
        return _divisor(lattice, tuple(coeffs[i] for i in kept), pivot * d.den)

    canonical = express(model.canonical)
    curves = []
    contracted = set(names)
    for curve in model.tracked:
        if curve.name in contracted:
            continue
        cls = express(curve.cls)
        if kind != "blow-down":
            degree = canonical.dot(cls)
            if degree.denominator != 1:
                raise ContractionError(
                    f"K of the contraction pairs fractionally with {curve.name!r};"
                    " the model would not be Gorenstein"
                )
        curves.append(TrackedCurve(curve.name, cls, _adjunction_pa(canonical, cls), curve.irreducible))
    result = SurfaceModel(
        lattice,
        canonical,
        model.chi + pg,
        tuple(curves),
        provenance,
    )
    return _share(provenance, Contraction(result, kind, label, tuple(zip(names, cycle.coeffs))))


# ---------------------------------------------------------------------------
# Nakai-Moishezon relative to the tracked curves
# ---------------------------------------------------------------------------


def nakai_check(model: SurfaceModel, d: DivisorClass) -> str:
    """"ample", "nef-not-ample" or "not-nef", judged against the tracked list."""
    products = [model.intersect(d, d)] + [
        model.intersect(d, c.cls) for c in model.tracked
    ]
    if all(p > 0 for p in products):
        return "ample"
    if all(p >= 0 for p in products):
        return "nef-not-ample"
    return "not-nef"


# ---------------------------------------------------------------------------
# Provenance replay
# ---------------------------------------------------------------------------


_REPLAY: dict[str, Callable[..., SurfaceModel]] = {
    "p2": lambda _m: make_p2(),
    "hirzebruch": lambda _m, n: make_hirzebruch(n),
    "declare": lambda _m, *args: declare_surface(*args),
    "track": track,
    "blow_up": blow_up,
    "double_cover": double_cover,
    "attach_resolution": attach_resolution,
    "split_curve": split_curve,
    "contract": lambda m, *args: contract(m, *args).model,
}


def replay(provenance: Sequence[ProvenanceStep]) -> SurfaceModel:
    """Re-run a provenance log and return the resulting model.  Every move is
    computed, also inside :class:`SharedMoves`, whose results it neither reads
    nor adds to."""
    global _shared
    model: SurfaceModel | None = None
    outer, _shared = _shared, None
    try:
        for step in provenance:
            if step.op not in _REPLAY:
                raise ValueError(f"unknown provenance op {step.op!r}")
            model = _REPLAY[step.op](model, *step.args)
    finally:
        _shared = outer
    if model is None:
        raise ValueError("empty provenance")
    return model
