"""Weighted curve-configuration graphs.

A configuration records irreducible curve components (self-intersection,
arithmetic genus, an optional curve-singularity marker) together with pairwise
intersection multiplicities.  Tangency and triple-point coincidences that the
Gram matrix alone cannot see are declared flags: a contact of multiplicity two
may sit at one point (``tangential``) or two, and three components may pass
through a common point (``concurrent``).

On top of that sit the classical algorithms: negative definiteness, the
incremental fundamental-cycle computation with a brute-force oracle, the
minimally-elliptic classification, recognition of the restricted Kodaira fibre
list, Euler-number budgeting, and the catalog of exceptional unimodal double
points E12..E14, Z11..Z13, W12, W13 together with A_n and the two degree-one
elliptic T-singularities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .rationals import (
    frac,
    is_negative_definite as _gram_negative_definite,
    is_negative_semidefinite,
    nullspace,
    rat_str,
)

MAX_LAUFER_ITERATIONS = 10_000


@dataclass(frozen=True)
class Component:
    name: str
    self_int: int
    pa: int = 0
    sing: str | None = None  # "node" | "cusp" for an irreducible curve singularity

    def __post_init__(self) -> None:
        if self.pa < 0:
            raise ValueError(f"component {self.name}: negative arithmetic genus")
        if self.sing not in (None, "node", "cusp"):
            raise ValueError(f"component {self.name}: unknown singularity marker {self.sing!r}")


@dataclass(frozen=True)
class Contact:
    """Intersection record for an unordered pair of components."""

    first: str
    second: str
    mult: int
    tangential: bool = False  # multiplicity concentrated at a single point

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError("contact needs two distinct components")
        if self.mult < 1:
            raise ValueError("contact multiplicity must be positive")

    @property
    def pair(self) -> frozenset[str]:
        return frozenset((self.first, self.second))


@dataclass(frozen=True)
class CurveConfiguration:
    components: tuple[Component, ...]
    contacts: tuple[Contact, ...] = ()
    concurrent: tuple[frozenset[str], ...] = ()  # declared triple points

    def __post_init__(self) -> None:
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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.components)

    def component(self, name: str) -> Component:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    def contact_mult(self, a: str, b: str) -> int:
        pair = frozenset((a, b))
        for contact in self.contacts:
            if contact.pair == pair:
                return contact.mult
        return 0

    def is_tangential(self, a: str, b: str) -> bool:
        pair = frozenset((a, b))
        return any(c.pair == pair and c.tangential for c in self.contacts)

    def gram(self) -> list[list[Fraction]]:
        n = len(self.components)
        g = [[frac(0)] * n for _ in range(n)]
        index = {c.name: i for i, c in enumerate(self.components)}
        for i, c in enumerate(self.components):
            g[i][i] = frac(c.self_int)
        for contact in self.contacts:
            i, j = index[contact.first], index[contact.second]
            g[i][j] = g[j][i] = frac(contact.mult)
        return g

    def canonical_degrees(self) -> list[Fraction]:
        """K.E_i = 2 p_a(E_i) - 2 - E_i^2 for each component."""
        return [frac(2 * c.pa - 2 - c.self_int) for c in self.components]

    def is_connected(self) -> bool:
        if not self.components:
            return True
        adjacency = {c.name: set() for c in self.components}
        for contact in self.contacts:
            adjacency[contact.first].add(contact.second)
            adjacency[contact.second].add(contact.first)
        todo = [self.components[0].name]
        seen = {todo[0]}
        while todo:
            for other in adjacency[todo.pop()]:
                if other not in seen:
                    seen.add(other)
                    todo.append(other)
        return len(seen) == len(self.components)

    def subconfiguration(self, names: tuple[str, ...]) -> "CurveConfiguration":
        keep = set(names)
        return CurveConfiguration(
            components=tuple(c for c in self.components if c.name in keep),
            contacts=tuple(c for c in self.contacts if c.pair <= keep),
            concurrent=tuple(t for t in self.concurrent if t <= keep),
        )

    def relabel(self, mapping: dict[str, str]) -> "CurveConfiguration":
        def m(name: str) -> str:
            return mapping.get(name, name)

        return CurveConfiguration(
            components=tuple(
                Component(m(c.name), c.self_int, c.pa, c.sing) for c in self.components
            ),
            contacts=tuple(
                Contact(m(c.first), m(c.second), c.mult, c.tangential) for c in self.contacts
            ),
            concurrent=tuple(frozenset(m(x) for x in t) for t in self.concurrent),
        )


def is_negative_definite(config: CurveConfiguration) -> bool:
    return _gram_negative_definite(config.gram())


@dataclass(frozen=True)
class FundamentalCycle:
    config: CurveConfiguration
    coeffs: tuple[int, ...]

    @property
    def self_int(self) -> Fraction:
        g = self.config.gram()
        z = self.coeffs
        return sum(frac(z[i]) * g[i][j] * z[j] for i in range(len(z)) for j in range(len(z)))

    @property
    def canonical_degree(self) -> Fraction:
        return sum(frac(a) * k for a, k in zip(self.coeffs, self.config.canonical_degrees()))

    @property
    def pa(self) -> Fraction:
        return 1 + (self.self_int + self.canonical_degree) / 2

    def pairings(self) -> list[Fraction]:
        """Z.E_i for every component; anti-nef means all are <= 0."""
        g = self.config.gram()
        n = len(self.coeffs)
        return [sum(frac(self.coeffs[j]) * g[j][i] for j in range(n)) for i in range(n)]


def fundamental_cycle(config: CurveConfiguration) -> FundamentalCycle:
    """Smallest positive cycle Z with Z.E_i <= 0 for all i, by the incremental loop.

    Starts at the reduced cycle and repeatedly adds any component with positive
    pairing; terminates because the form is negative definite.
    """
    if not config.components:
        raise ValueError("empty configuration has no fundamental cycle")
    if not is_negative_definite(config):
        raise ValueError("configuration is not negative definite")
    g = config.gram()
    n = len(config.components)
    z = [1] * n
    for _ in range(MAX_LAUFER_ITERATIONS):
        pairings = [sum(frac(z[j]) * g[j][i] for j in range(n)) for i in range(n)]
        bad = next((i for i, p in enumerate(pairings) if p > 0), None)
        if bad is None:
            return FundamentalCycle(config, tuple(z))
        z[bad] += 1
    raise RuntimeError("fundamental-cycle loop failed to terminate")


def fundamental_cycle_brute_force(
    config: CurveConfiguration, bound: int = 6
) -> FundamentalCycle | None:
    """Coordinatewise minimum of all anti-nef cycles in the box [1, bound]^n.

    Independent oracle for :func:`fundamental_cycle`; returns None when no
    anti-nef cycle exists in the box.
    """
    g = config.gram()
    n = len(config.components)
    anti_nef: list[tuple[int, ...]] = []
    for z in itertools.product(range(1, bound + 1), repeat=n):
        pairings = (sum(frac(z[j]) * g[j][i] for j in range(n)) for i in range(n))
        if all(p <= 0 for p in pairings):
            anti_nef.append(z)
    if not anti_nef:
        return None
    minimum = tuple(min(z[i] for z in anti_nef) for i in range(n))
    return FundamentalCycle(config, minimum)


@dataclass(frozen=True)
class EllipticClassification:
    kind: str  # "minimally-elliptic" | "rational" | "not-elliptic"
    degree: int | None  # -Z^2 for a minimally elliptic point
    cycle: FundamentalCycle


def classify_minimally_elliptic(config: CurveConfiguration) -> EllipticClassification:
    """Minimally elliptic iff p_a(Z) = 1 and every proper connected piece is rational."""
    cycle = fundamental_cycle(config)
    pa = cycle.pa
    if pa == 0:
        return EllipticClassification("rational", None, cycle)
    if pa != 1:
        return EllipticClassification("not-elliptic", None, cycle)
    names = config.names
    for size in range(1, len(names)):
        for keep in itertools.combinations(names, size):
            sub = config.subconfiguration(keep)
            if not sub.is_connected():
                continue
            if fundamental_cycle(sub).pa != 0:
                return EllipticClassification("not-elliptic", None, cycle)
    degree = -cycle.self_int
    if degree.denominator != 1:
        raise ValueError("fractional degree on an integral configuration")
    return EllipticClassification("minimally-elliptic", int(degree), cycle)


# ---------------------------------------------------------------------------
# Catalog of the exceptional unimodal double points plus A_n and T_{2,3,n}.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    config: CurveConfiguration
    expected_self_int: int  # Z^2
    expected_canonical_degree: int  # K.Z
    normal_form: str
    kodaira_fiber: str | None = None  # fibre the dual graph blows up from
    blow_ups: tuple[int, ...] = ()  # points blown up per fibre component

    def recomputed(self) -> tuple[Fraction, Fraction, Fraction]:
        cycle = fundamental_cycle(self.config)
        return cycle.self_int, cycle.canonical_degree, cycle.pa


def _cfg(
    comps: list[tuple[str, int, int] | tuple[str, int, int, str]],
    contacts: list[tuple[str, str, int] | tuple[str, str, int, bool]] = (),
    concurrent: list[tuple[str, str, str]] = (),
) -> CurveConfiguration:
    components = tuple(Component(*c) for c in comps)
    contact_records = tuple(Contact(*c) for c in contacts)
    triples = tuple(frozenset(t) for t in concurrent)
    return CurveConfiguration(components, contact_records, triples)


def _an_chain(n: int) -> CurveConfiguration:
    comps = [(f"A{i + 1}", -2, 0) for i in range(n)]
    contacts = [(f"A{i + 1}", f"A{i + 2}", 1) for i in range(n - 1)]
    return _cfg(comps, contacts)


EXCEPTIONAL_LABELS = ("E12", "E13", "E14", "Z11", "Z12", "Z13", "W12", "W13")

CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "E12",
        _cfg([("E1", -1, 1, "cusp")]),
        -1,
        1,
        "z^3 + y^7 + a*y^5*z",
        kodaira_fiber="II",
        blow_ups=(1,),
    ),
    CatalogEntry(
        "E13",
        _cfg([("E1", -3, 0), ("E2", -2, 0)], [("E1", "E2", 2, True)]),
        -1,
        1,
        "z^3 + y^5*z + a*y^8",
        kodaira_fiber="III",
        blow_ups=(1, 0),
    ),
    CatalogEntry(
        "E14",
        _cfg(
            [("E1", -3, 0), ("E2", -2, 0), ("E3", -2, 0)],
            [("E1", "E2", 1), ("E1", "E3", 1), ("E2", "E3", 1)],
            [("E1", "E2", "E3")],
        ),
        -1,
        1,
        "z^3 + y^8 + a*y^6*z",
        kodaira_fiber="IV",
        blow_ups=(1, 0, 0),
    ),
    CatalogEntry(
        "Z11",
        _cfg([("E1", -2, 1, "cusp")]),
        -2,
        2,
        "y*z^3 + y^5 + a*y^4*z",
        kodaira_fiber="II",
        blow_ups=(2,),
    ),
    CatalogEntry(
        "Z12",
        _cfg([("E1", -4, 0), ("E2", -2, 0)], [("E1", "E2", 2, True)]),
        -2,
        2,
        "y*z^3 + y^4*z + a*y^3*z^2",
        kodaira_fiber="III",
        blow_ups=(2, 0),
    ),
    CatalogEntry(
        "Z13",
        _cfg(
            [("E1", -4, 0), ("E2", -2, 0), ("E3", -2, 0)],
            [("E1", "E2", 1), ("E1", "E3", 1), ("E2", "E3", 1)],
            [("E1", "E2", "E3")],
        ),
        -2,
        2,
        "y*z^3 + y^6 + a*y^5*z",
        kodaira_fiber="IV",
        blow_ups=(2, 0, 0),
    ),
    CatalogEntry(
        "W12",
        _cfg([("E1", -3, 0), ("E2", -3, 0)], [("E1", "E2", 2, True)]),
        -2,
        2,
        "z^4 + y^5 + a*y^3*z^2",
        kodaira_fiber="III",
        blow_ups=(1, 1),
    ),
    CatalogEntry(
        "W13",
        _cfg(
            [("E1", -3, 0), ("E2", -3, 0), ("E3", -2, 0)],
            [("E1", "E2", 1), ("E1", "E3", 1), ("E2", "E3", 1)],
            [("E1", "E2", "E3")],
        ),
        -2,
        2,
        "z^4 + y^4*z + a*y^6",
        kodaira_fiber="IV",
        blow_ups=(1, 1, 0),
    ),
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


def _isomorphic(a: CurveConfiguration, b: CurveConfiguration) -> bool:
    """Backtracking search for a relabeling of ``a`` onto ``b``.

    Components are mapped one at a time, in breadth-first order of the
    contact graph of ``a``, each to an unused component of ``b`` with the same
    self-intersection, genus and singularity marker whose contacts (multiplicity
    and tangency) with every component mapped so far agree.  The concurrency
    flags are compared once every component is mapped.
    """
    if len(a.components) != len(b.components):
        return False
    key = lambda c: (c.self_int, c.pa, c.sing or "")
    if sorted(map(key, a.components)) != sorted(map(key, b.components)):
        return False
    a_links, b_links = _links(a), _links(b)
    targets: dict[tuple, list[str]] = {}
    for c in b.components:
        targets.setdefault(key(c), []).append(c.name)
    order = _breadth_first(a, a_links)
    a_keys = {c.name: key(c) for c in a.components}
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


def _links(config: CurveConfiguration) -> dict[str, dict[str, tuple[int, bool]]]:
    """For each component, its contacts as (multiplicity, tangential) by partner."""
    links: dict[str, dict[str, tuple[int, bool]]] = {name: {} for name in config.names}
    for contact in config.contacts:
        links[contact.first][contact.second] = (contact.mult, contact.tangential)
        links[contact.second][contact.first] = (contact.mult, contact.tangential)
    return links


def _breadth_first(config: CurveConfiguration, links: dict[str, dict]) -> list[str]:
    """Component names, each connected piece in breadth-first order."""
    order: list[str] = []
    seen: set[str] = set()
    for root in config.names:
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for name in queue:
            order.append(name)
            for other in links[name]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
    return order


def isomorphic(a: CurveConfiguration, b: CurveConfiguration) -> bool:
    """Whether two configurations agree up to relabeling of components."""
    return _isomorphic(a, b)


def match_catalog(config: CurveConfiguration) -> CatalogEntry | None:
    """Graph-isomorphism match against the catalog; None when nothing fits."""
    for entry in CATALOG:
        if _isomorphic(config, entry.config):
            return entry
    return None


# ---------------------------------------------------------------------------
# Kodaira fibres (restricted list) and the Euler-number budget.
# ---------------------------------------------------------------------------


def recognize_kodaira_fiber(config: CurveConfiguration) -> str | None:
    """Recognize I_n (n >= 0), II, III or IV; None for anything else.

    Demands the numerical fibre conditions: negative semidefinite Gram whose
    radical is one-dimensional and spanned by the reduced total cycle, of
    arithmetic genus one.
    """
    comps = config.components
    if not comps:
        return None
    gram = config.gram()
    if not is_negative_semidefinite(gram):
        return None
    radical = nullspace(gram, len(comps))
    if len(radical) != 1:
        return None
    direction = radical[0]
    scale = next((x for x in direction if x != 0), None)
    if scale is None or any(x / scale != 1 for x in direction):
        return None
    total = FundamentalCycle(config, tuple([1] * len(comps)))
    if total.pa != 1:
        return None

    if len(comps) == 1:
        c = comps[0]
        if c.pa != 1 or c.self_int != 0:
            return None
        return {None: "I0", "node": "I1", "cusp": "II"}[c.sing]

    if any(c.pa != 0 or c.self_int != -2 or c.sing is not None for c in comps):
        return None

    if len(comps) == 2:
        if config.contact_mult(comps[0].name, comps[1].name) != 2:
            return None
        return "III" if config.is_tangential(comps[0].name, comps[1].name) else "I2"

    if len(comps) == 3:
        pairs = list(itertools.combinations(config.names, 2))
        if any(config.contact_mult(*p) != 1 for p in pairs):
            return None
        if frozenset(config.names) in config.concurrent:
            return "IV"
        if config.concurrent:
            return None
        return "I3"

    # longer cycles: every component meets exactly two others, once each
    if config.concurrent or any(c.tangential for c in config.contacts):
        return None
    degree = {name: 0 for name in config.names}
    for contact in config.contacts:
        if contact.mult != 1:
            return None
        degree[contact.first] += 1
        degree[contact.second] += 1
    if any(d != 2 for d in degree.values()) or not config.is_connected():
        return None
    return f"I{len(comps)}"


def fiber_euler_number(fiber_type: str) -> int:
    if fiber_type.startswith("I") and fiber_type[1:].isdigit():
        return int(fiber_type[1:])
    try:
        return {"II": 2, "III": 3, "IV": 4}[fiber_type]
    except KeyError:
        raise ValueError(f"unknown fibre type {fiber_type!r}") from None


@dataclass(frozen=True)
class BudgetVerdict:
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


def blown_up_fiber(fiber_type: str, blow_ups: tuple[int, ...]) -> CurveConfiguration:
    """Blow up a Kodaira fibre at smooth points, one count per component.

    Reproduces the dual graphs of the catalog: each blow-up at a smooth point
    of a component drops its self-intersection by one and leaves every contact
    untouched.
    """
    base = _fiber_configuration(fiber_type)
    if len(blow_ups) != len(base.components):
        raise ValueError("one blow-up count per fibre component")
    components = tuple(
        Component(c.name, c.self_int - k, c.pa, c.sing)
        for c, k in zip(base.components, blow_ups)
    )
    return CurveConfiguration(components, base.contacts, base.concurrent)


def _fiber_configuration(fiber_type: str) -> CurveConfiguration:
    if fiber_type == "I0":
        return _cfg([("E1", 0, 1)])
    if fiber_type == "I1":
        return _cfg([("E1", 0, 1, "node")])
    if fiber_type == "II":
        return _cfg([("E1", 0, 1, "cusp")])
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
        comps = [(f"E{i + 1}", -2, 0) for i in range(n)]
        contacts = [(f"E{i + 1}", f"E{(i + 1) % n + 1}", 1) for i in range(n)]
        return _cfg(comps, contacts)
    raise ValueError(f"unsupported fibre type {fiber_type!r}")


# ---------------------------------------------------------------------------
# Serialization (scenario file format).
# ---------------------------------------------------------------------------


def config_to_json(config: CurveConfiguration) -> dict:
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


def config_from_json(data: dict) -> CurveConfiguration:
    def _int(text: str) -> int:
        value = frac(text)
        if value.denominator != 1:
            raise ValueError(f"expected an integer, got {text!r}")
        return int(value)

    components = tuple(
        Component(c["name"], _int(c["self_int"]), _int(c.get("pa", "0")), c.get("sing"))
        for c in data.get("components", [])
    )
    contacts = tuple(
        Contact(c["pair"][0], c["pair"][1], _int(c["mult"]), bool(c.get("tangential", False)))
        for c in data.get("contacts", [])
    )
    concurrent = tuple(frozenset(t) for t in data.get("concurrent", []))
    return CurveConfiguration(components, contacts, concurrent)


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
