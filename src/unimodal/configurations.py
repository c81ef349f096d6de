"""Weighted curve-configuration graphs.

A configuration records irreducible curve components (self-intersection,
arithmetic genus, an optional curve-singularity marker) together with pairwise
intersection multiplicities.  Tangency and triple-point coincidences that the
Gram matrix alone cannot see are declared flags: a contact of multiplicity two
may sit at one point (``tangential``) or two, and three components may pass
through a common point (``concurrent``).

Self-intersections, genera and multiplicities are Python integers, so the
Gram matrix is integral and the algorithms on top of it run on integers:
negative definiteness, the incremental fundamental-cycle computation with a
brute-force oracle, the minimally-elliptic classification, recognition of the
restricted Kodaira fibre list by isomorphism with the one table that builds
each fibre, Euler-number budgeting, and the catalog of
exceptional unimodal double points E12..E14, Z11..Z13, W12, W13 (each a
Kodaira fibre blown up at smooth points) together with A_n and the two
degree-one elliptic T-singularities.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple, Sequence

from .rationals import is_negative_definite as _gram_negative_definite, rat_str, ratio

MAX_LAUFER_ITERATIONS = 10_000
# Components of a configuration read from input, and of a Kodaira fibre I_n
# built for comparison.  On a 2-core machine every check of a 64-component
# chain, cycle, star or complete graph took at most 1 s.
MAX_COMPONENTS = 64


def _require_int(owner: str, field: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{owner}: {field} must be an integer, got {value!r}")


class _ComponentFields(NamedTuple):
    name: str
    self_int: int
    pa: int = 0
    sing: str | None = None  # "node" | "cusp" for an irreducible curve singularity


class Component(_ComponentFields):
    __slots__ = ()

    def __new__(cls, *fields, **named) -> "Component":
        self = super().__new__(cls, *fields, **named)
        _require_int(f"component {self.name}", "self-intersection", self.self_int)
        _require_int(f"component {self.name}", "arithmetic genus", self.pa)
        if self.pa < 0:
            raise ValueError(f"component {self.name}: negative arithmetic genus")
        if self.sing not in (None, "node", "cusp"):
            raise ValueError(f"component {self.name}: unknown singularity marker {self.sing!r}")
        return self


class _ContactFields(NamedTuple):
    first: str
    second: str
    mult: int
    tangential: bool = False  # multiplicity concentrated at a single point


class Contact(_ContactFields):
    """Intersection record for an unordered pair of components."""

    __slots__ = ()

    def __new__(cls, *fields, **named) -> "Contact":
        self = super().__new__(cls, *fields, **named)
        if self.first == self.second:
            raise ValueError("contact needs two distinct components")
        _require_int(f"contact {self.first}-{self.second}", "multiplicity", self.mult)
        if self.mult < 1:
            raise ValueError("contact multiplicity must be positive")
        return self

    @property
    def pair(self) -> frozenset[str]:
        return frozenset((self.first, self.second))


class _CurveConfigurationFields(NamedTuple):
    components: tuple[Component, ...]
    contacts: tuple[Contact, ...] = ()
    concurrent: tuple[frozenset[str], ...] = ()  # declared triple points


class CurveConfiguration(_CurveConfigurationFields):
    # no __slots__: the cached Gram matrix and its definiteness live in the instance __dict__

    def __new__(cls, *fields, **named) -> "CurveConfiguration":
        self = super().__new__(cls, *fields, **named)
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ValueError("duplicate component names")
        seen: set[frozenset[str]] = set()
        for contact in self.contacts:
            if contact.first not in names or contact.second not in names:
                raise ValueError(f"contact references unknown component {contact.pair}")
            if contact.pair in seen:
                raise ValueError(f"more than one contact record for {set(contact.pair)}")
            seen.add(contact.pair)
        for triple in self.concurrent:
            if len(triple) != 3 or not triple <= set(names):
                raise ValueError("a concurrency flag names three known components")
        if len(set(self.concurrent)) != len(self.concurrent):
            raise ValueError("more than one concurrency flag for the same three components")
        return self

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.components)

    def component(self, name: str) -> Component:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    def integer_gram(self) -> tuple[tuple[int, ...], ...]:
        return self._integer_gram

    @cached_property
    def _integer_gram(self) -> tuple[tuple[int, ...], ...]:
        """The Gram matrix, built once per configuration as immutable rows."""
        n = len(self.components)
        g = [[0] * n for _ in range(n)]
        index = {c.name: i for i, c in enumerate(self.components)}
        for i, c in enumerate(self.components):
            g[i][i] = c.self_int
        for contact in self.contacts:
            i, j = index[contact.first], index[contact.second]
            g[i][j] = g[j][i] = contact.mult
        return tuple(map(tuple, g))

    @cached_property
    def _negative_definite(self) -> bool:
        """Whether the Gram matrix is negative definite, tested once per configuration."""
        return _gram_negative_definite(self._integer_gram)

    def is_connected(self) -> bool:
        return len(_connected_pieces(_links(self))) <= 1

    def subconfiguration(self, names: tuple[str, ...]) -> "CurveConfiguration":
        keep = set(names)
        return CurveConfiguration(
            components=tuple(c for c in self.components if c.name in keep),
            contacts=tuple(c for c in self.contacts if c.pair <= keep),
            concurrent=tuple(t for t in self.concurrent if t <= keep),
        )


def is_negative_definite(config: CurveConfiguration) -> bool:
    return config._negative_definite


class FundamentalCycle(NamedTuple):
    config: CurveConfiguration
    coeffs: tuple[int, ...]
    pairings: tuple[int, ...]  # Z.E_i for every component; anti-nef means all are <= 0

    # Z^2 and K.Z are integer sums on the integral Gram matrix and the integer
    # canonical degrees; only p_a divides, through `rationals.ratio`.

    @property
    def self_int(self) -> int:
        return sum(a * p for a, p in zip(self.coeffs, self.pairings))

    @property
    def canonical_degree(self) -> int:
        return sum(a * (2 * c.pa - 2 - c.self_int) for a, c in zip(self.coeffs, self.config.components))

    @property
    def pa(self) -> int | Fraction:
        """1 + (Z^2 + K.Z) / 2."""
        return ratio(2 + self.self_int + self.canonical_degree, 2)


def _pairings(gram: Sequence[Sequence[int]], z) -> list[int]:
    """Z.E_i for every component, on the integral Gram matrix."""
    return [sum(a * x for a, x in zip(z, row)) for row in gram]


def fundamental_cycle(config: CurveConfiguration) -> FundamentalCycle:
    """Smallest positive cycle Z with Z.E_i <= 0 for all i, by Laufer's loop.

    Starts at the reduced cycle and repeatedly takes the first component E_b
    with positive pairing p = Z.E_b, adding ceil(p / -E_b^2) copies of it at
    once: Laufer's computation sequence adds E_b one at a time while
    Z.E_b > 0, and that many copies are exactly the ones it adds before
    Z.E_b <= 0.  Terminates because the form is negative definite.  The
    pairings live on the integral Gram matrix and are updated by the row of
    the added component, not recomputed.  A cycle that needs more than
    :data:`MAX_LAUFER_ITERATIONS` steps is refused with ValueError, so a
    scenario asking for one is oversized input.
    """
    if not config.components:
        raise ValueError("empty configuration has no fundamental cycle")
    if not is_negative_definite(config):
        raise ValueError("configuration is not negative definite")
    return _laufer_cycle(config)


def _laufer_cycle(config: CurveConfiguration) -> FundamentalCycle:
    """Laufer's loop of :func:`fundamental_cycle` on a nonempty configuration
    already known to be negative definite."""
    g = config.integer_gram()
    z = [1] * len(g)
    pairings = _pairings(g, z)
    for _ in range(MAX_LAUFER_ITERATIONS):
        bad = next((i for i, p in enumerate(pairings) if p > 0), None)
        if bad is None:
            return FundamentalCycle(config, tuple(z), tuple(pairings))
        copies = -(pairings[bad] // g[bad][bad])  # ceil(p / -E_b^2), with E_b^2 < 0
        z[bad] += copies
        pairings = [p + copies * x for p, x in zip(pairings, g[bad])]
    raise ValueError(f"the fundamental cycle needs more than {MAX_LAUFER_ITERATIONS} Laufer steps")


class EllipticClassification(NamedTuple):
    kind: str  # "minimally-elliptic" | "rational" | "not-elliptic"
    degree: int | None  # -Z^2 for a minimally elliptic point
    cycle: FundamentalCycle


def classify_minimally_elliptic(config: CurveConfiguration) -> EllipticClassification:
    """Minimally elliptic iff p_a(Z) = 1 and every proper connected piece is rational.

    Only the connected pieces of E - {v}, for each component v, are checked:
    every proper connected T lies in one of them, and rationality passes to
    connected subconfigurations (Laufer 1972).  For connected T inside a
    connected S, Z_S restricted to T is anti-nef on T (the rest of Z_S meets T
    nonnegatively), so Z_T <= Z_S.  Laufer's computation sequence climbs from
    Z_T to Z_S by adding components E_j with D.E_j >= 1, and each step changes
    p_a by p_a(E_j) + D.E_j - 1 >= 0; started from one component it shows
    p_a >= 0 as well.  So 0 <= p_a(Z_T) <= p_a(Z_S), and a rational S has only
    rational connected pieces.  The pieces are negative definite with the
    whole (their Gram matrices are principal submatrices), so their cycles are
    taken without testing that again.
    """
    cycle = fundamental_cycle(config)
    pa = cycle.pa
    if pa == 0:
        return EllipticClassification("rational", None, cycle)
    if pa != 1:
        return EllipticClassification("not-elliptic", None, cycle)
    links = _links(config)
    checked: set[frozenset[str]] = set()
    for removed in config.names:
        for piece in map(frozenset, _connected_pieces(links, removed)):
            if piece in checked:
                continue
            checked.add(piece)
            if _laufer_cycle(config.subconfiguration(tuple(piece))).pa != 0:
                return EllipticClassification("not-elliptic", None, cycle)
    return EllipticClassification("minimally-elliptic", -cycle.self_int, cycle)


# ---------------------------------------------------------------------------
# Kodaira fibres and their blow-ups.
# ---------------------------------------------------------------------------


def _cfg(
    comps: list[tuple[str, int, int] | tuple[str, int, int, str]],
    contacts: list[tuple[str, str, int] | tuple[str, str, int, bool]] = (),
    concurrent: list[tuple[str, str, str]] = (),
) -> CurveConfiguration:
    components = tuple(Component(*c) for c in comps)
    contact_records = tuple(Contact(*c) for c in contacts)
    triples = tuple(frozenset(t) for t in concurrent)
    return CurveConfiguration(components, contact_records, triples)


def fiber_configuration(fiber_type: str) -> CurveConfiguration:
    """The Kodaira fibre I_n (n >= 0), II, III or IV, components E1, E2, ...:
    the one table that builds each fibre, for the catalog, recognition and
    the second fibre of the elliptic route."""
    one_component = {"I0": None, "I1": "node", "II": "cusp"}  # the singularity of E1
    if fiber_type in one_component:
        return _cfg([("E1", 0, 1, one_component[fiber_type])])
    if fiber_type == "III":
        return _cfg([("E1", -2, 0), ("E2", -2, 0)], [("E1", "E2", 2, True)])
    if fiber_type == "IV":
        return _cfg(
            [("E1", -2, 0), ("E2", -2, 0), ("E3", -2, 0)],
            [("E1", "E2", 1), ("E1", "E3", 1), ("E2", "E3", 1)],
            [("E1", "E2", "E3")],
        )
    if fiber_type == "I2":
        return _cfg([("E1", -2, 0), ("E2", -2, 0)], [("E1", "E2", 2)])
    if fiber_type.startswith("I") and fiber_type[1:].isdigit():
        n = int(fiber_type[1:])
        if n > MAX_COMPONENTS:
            raise ValueError(f"fibre {fiber_type[:16]!r} has more than {MAX_COMPONENTS} components")
        comps = [(f"E{i + 1}", -2, 0) for i in range(n)]
        contacts = [(f"E{i + 1}", f"E{(i + 1) % n + 1}", 1) for i in range(n)]
        return _cfg(comps, contacts)
    raise ValueError(f"unsupported fibre type {fiber_type!r}")


def blown_up_fiber(fiber_type: str, blow_ups: tuple[int, ...]) -> CurveConfiguration:
    """Blow up a Kodaira fibre at smooth points, one count per component.

    Builds the dual graphs of the exceptional catalog entries: each blow-up
    at a smooth point of a component drops its self-intersection by one and
    leaves every contact untouched.
    """
    base = fiber_configuration(fiber_type)
    if len(blow_ups) != len(base.components):
        raise ValueError("one blow-up count per fibre component")
    components = tuple(
        Component(c.name, c.self_int - k, c.pa, c.sing)
        for c, k in zip(base.components, blow_ups)
    )
    return CurveConfiguration(components, base.contacts, base.concurrent)


# ---------------------------------------------------------------------------
# Catalog of the exceptional unimodal double points plus A_n and T_{2,3,n}.
# ---------------------------------------------------------------------------


class CatalogEntry(NamedTuple):
    label: str
    config: CurveConfiguration
    expected_self_int: int  # Z^2
    expected_canonical_degree: int  # K.Z
    normal_form: str
    kodaira_fiber: str | None = None  # fibre the dual graph blows up from
    blow_ups: tuple[int, ...] = ()  # points blown up per fibre component

    def recomputed(self) -> tuple[int, int, int | Fraction]:
        cycle = fundamental_cycle(self.config)
        return cycle.self_int, cycle.canonical_degree, cycle.pa


def _an_chain(n: int) -> CurveConfiguration:
    comps = [(f"A{i + 1}", -2, 0) for i in range(n)]
    contacts = [(f"A{i + 1}", f"A{i + 2}", 1) for i in range(n - 1)]
    return _cfg(comps, contacts)


# Each exceptional point's dual graph is a Kodaira fibre blown up at smooth
# points: label -> (fibre, blow-ups per component, stated Z^2, stated K.Z,
# normal form).  The stated Z^2 and K.Z are claims that `recomputed` checks.
_EXCEPTIONAL = {
    "E12": ("II", (1,), -1, 1, "z^3 + y^7 + a*y^5*z"),
    "E13": ("III", (1, 0), -1, 1, "z^3 + y^5*z + a*y^8"),
    "E14": ("IV", (1, 0, 0), -1, 1, "z^3 + y^8 + a*y^6*z"),
    "Z11": ("II", (2,), -2, 2, "y*z^3 + y^5 + a*y^4*z"),
    "Z12": ("III", (2, 0), -2, 2, "y*z^3 + y^4*z + a*y^3*z^2"),
    "Z13": ("IV", (2, 0, 0), -2, 2, "y*z^3 + y^6 + a*y^5*z"),
    "W12": ("III", (1, 1), -2, 2, "z^4 + y^5 + a*y^3*z^2"),
    "W13": ("IV", (1, 1, 0), -2, 2, "z^4 + y^4*z + a*y^6"),
}
EXCEPTIONAL_LABELS = tuple(_EXCEPTIONAL)

CATALOG: tuple[CatalogEntry, ...] = tuple(
    CatalogEntry(label, blown_up_fiber(fiber, blow_ups), z2, kz, normal_form, fiber, blow_ups)
    for label, (fiber, blow_ups, z2, kz, normal_form) in _EXCEPTIONAL.items()
) + tuple(
    CatalogEntry(f"A{n}", _an_chain(n), -2, 0, f"y^2 + z^{n + 1}") for n in range(1, 9)
) + (
    CatalogEntry("T236", _cfg([("F", -1, 1)]), -1, 1, "x^2 + y^3 + z^6 + l*x*y*z"),
    CatalogEntry("T237", _cfg([("F", -1, 1, "node")]), -1, 1, "x^2 + y^3 + z^7 + x*y*z"),
)


def catalog_entry(label: str) -> CatalogEntry:
    for entry in CATALOG:
        if entry.label == label:
            return entry
    raise KeyError(label)


def isomorphic(a: CurveConfiguration, b: CurveConfiguration) -> bool:
    """Whether two configurations agree up to relabeling of components.

    A backtracking search for a relabeling of ``a`` onto ``b``.

    Components are mapped one at a time, in breadth-first order of the
    contact graph of ``a``, each to an unused component of ``b`` with the same
    self-intersection, genus and singularity marker whose contacts (multiplicity
    and tangency) with every component mapped so far agree.  The concurrency
    flags are compared once every component is mapped.
    """
    if _invariants(a) != _invariants(b):
        return False
    a_links, b_links = _links(a), _links(b)
    targets: dict[tuple, list[str]] = {}
    for c in b.components:
        targets.setdefault(_key(c), []).append(c.name)
    order = [name for piece in _connected_pieces(a_links) for name in piece]
    a_keys = {c.name: _key(c) for c in a.components}
    b_triples = set(b.concurrent)
    mapping: dict[str, str] = {}

    def extend(depth: int) -> bool:
        if depth == len(order):
            return {frozenset(mapping[x] for x in t) for t in a.concurrent} == b_triples
        x = order[depth]
        used = set(mapping.values())
        for y in targets[a_keys[x]]:
            if y in used:
                continue
            if all(a_links[x].get(w) == b_links[y].get(mapping[w]) for w in order[:depth]):
                mapping[x] = y
                if extend(depth + 1):
                    return True
                del mapping[x]
        return False

    return extend(0)


def _key(component: Component) -> tuple[int, int, str]:
    """What a relabeling must keep of a component: self-intersection, genus, marker."""
    return component.self_int, component.pa, component.sing or ""


def _invariants(config: CurveConfiguration) -> tuple[tuple[int, int, str], ...]:
    """The sorted multiset of component keys, equal on isomorphic configurations."""
    return tuple(sorted(map(_key, config.components)))


def _links(config: CurveConfiguration) -> dict[str, dict[str, tuple[int, bool]]]:
    """For each component, its contacts as (multiplicity, tangential) by partner."""
    links: dict[str, dict[str, tuple[int, bool]]] = {name: {} for name in config.names}
    for contact in config.contacts:
        links[contact.first][contact.second] = (contact.mult, contact.tangential)
        links[contact.second][contact.first] = (contact.mult, contact.tangential)
    return links


def _connected_pieces(links: dict[str, dict], removed: str | None = None) -> list[list[str]]:
    """The connected pieces of the contact graph, each in breadth-first order,
    leaving out the component ``removed``."""
    pieces: list[list[str]] = []
    seen = {removed}
    for root in links:
        if root in seen:
            continue
        seen.add(root)
        piece = [root]
        for name in piece:
            for other in links[name]:
                if other not in seen:
                    seen.add(other)
                    piece.append(other)
        pieces.append(piece)
    return pieces


def _index_catalog() -> dict[tuple, list[CatalogEntry]]:
    """CATALOG by the invariants of its configurations, each bucket in catalog order."""
    index: dict[tuple, list[CatalogEntry]] = {}
    for entry in CATALOG:
        index.setdefault(_invariants(entry.config), []).append(entry)
    return index


_CATALOG_INDEX = _index_catalog()  # built once, read only


def match_catalog(config: CurveConfiguration) -> CatalogEntry | None:
    """The first catalog entry isomorphic to ``config``, None when nothing fits.

    Only the entries with the same invariants (:func:`_invariants`) are
    searched, which are the only ones :func:`isomorphic` can accept; the
    bucket keeps catalog order, so the first match is the first in CATALOG.
    """
    for entry in _CATALOG_INDEX.get(_invariants(config), ()):
        if isomorphic(config, entry.config):
            return entry
    return None


# ---------------------------------------------------------------------------
# Kodaira fibre recognition (restricted list) and the Euler-number budget.
# ---------------------------------------------------------------------------


def recognize_kodaira_fiber(config: CurveConfiguration) -> str | None:
    """Recognize I_n (n >= 0), II, III or IV; None for anything else.

    The first candidate for the number of components that is
    :func:`isomorphic` to the configuration; each shape is written once, in
    :func:`fiber_configuration`, and built once per process.  Two necessary
    conditions come first: every Gram row sums to 0 (F.E_i = 0 for the
    reduced total cycle F), and the configuration is connected, which keeps
    the backtracking search off disconnected inputs, where it can only fail,
    slowly.
    """
    n = len(config.components)
    if not 1 <= n <= MAX_COMPONENTS:
        return None
    if any(sum(row) for row in config.integer_gram()) or not config.is_connected():
        return None
    candidates = {1: ("I0", "I1", "II"), 2: ("I2", "III"), 3: ("I3", "IV")}.get(n, (f"I{n}",))
    for fiber_type in candidates:
        if isomorphic(config, _candidate_fiber(fiber_type)):
            return fiber_type
    return None


@cache
def _candidate_fiber(fiber_type: str) -> CurveConfiguration:
    """:func:`fiber_configuration` of a candidate name; the names are the
    function's own, I_n with n <= MAX_COMPONENTS, II, III and IV, so the cache
    is bounded.  The public function stays uncached: it reads input names."""
    return fiber_configuration(fiber_type)


def fiber_euler_number(fiber_type: str) -> int:
    if fiber_type.startswith("I") and fiber_type[1:].isdigit():
        return int(fiber_type[1:])
    try:
        return {"II": 2, "III": 3, "IV": 4}[fiber_type]
    except KeyError:
        raise ValueError(f"unknown fibre type {fiber_type!r}") from None


class BudgetVerdict(NamedTuple):
    feasible: bool
    remainder: int


def euler_budget(
    required: tuple[str, ...] | list[str],
    total: int,
    multiple_fiber: str | None = None,
) -> BudgetVerdict:
    """Whether the required singular fibres fit into the total Euler number.

    The remainder can always be filled with I1 fibres, so feasibility is just
    nonnegativity of the remainder.
    """
    if total < 0:
        raise ValueError("total Euler number must be nonnegative")
    used = sum(fiber_euler_number(t) for t in required)
    if multiple_fiber is not None:
        used += fiber_euler_number(multiple_fiber)
    remainder = total - used
    return BudgetVerdict(remainder >= 0, remainder)


# ---------------------------------------------------------------------------
# Serialization: the catalog as JSON.
# ---------------------------------------------------------------------------


def config_to_json(config: CurveConfiguration) -> dict:
    """The configuration as a scenario file writes it; `scenarios.config_from_json`
    reads it back."""
    return {
        "components": [
            {
                "name": c.name,
                "self_int": rat_str(c.self_int),
                "pa": rat_str(c.pa),
                "sing": c.sing,
            }
            for c in config.components
        ],
        "contacts": [
            {
                "pair": sorted(contact.pair),
                "mult": rat_str(contact.mult),
                "tangential": contact.tangential,
            }
            for contact in config.contacts
        ],
        "concurrent": [sorted(t) for t in config.concurrent],
    }


def catalog_to_json() -> list[dict]:
    """Serializable dump of the whole catalog, with recomputed invariants."""
    out = []
    for entry in CATALOG:
        z2, kz, pa = entry.recomputed()
        out.append(
            {
                "label": entry.label,
                "config": config_to_json(entry.config),
                "self_int": rat_str(entry.expected_self_int),
                "canonical_degree": rat_str(entry.expected_canonical_degree),
                "normal_form": entry.normal_form,
                "kodaira_fiber": entry.kodaira_fiber,
                "blow_ups": list(entry.blow_ups),
                "recomputed": {
                    "self_int": rat_str(z2),
                    "canonical_degree": rat_str(kz),
                    "pa": rat_str(pa),
                },
            }
        )
    return out
