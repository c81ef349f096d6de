from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from unimodal.configurations import (
    CATALOG,
    EXCEPTIONAL_LABELS,
    BudgetVerdict,
    Component,
    Contact,
    CurveConfiguration,
    blown_up_fiber,
    catalog_entry,
    classify_minimally_elliptic,
    config_to_json,
    euler_budget,
    fiber_euler_number,
    fundamental_cycle,
    is_negative_definite,
    isomorphic,
    match_catalog,
    recognize_kodaira_fiber,
)
from unimodal.scenarios import config_from_json

from oracles import (
    HAND_EXCEPTIONAL,
    cycle_invariants_by_fractions,
    fraction_gram,
    fundamental_cycle_brute_force,
    int_when_integral,
    match_catalog_by_scan,
    relabel,
)


def cfg(comps, contacts=(), concurrent=()):
    return CurveConfiguration(
        tuple(Component(*c) for c in comps),
        tuple(Contact(*c) for c in contacts),
        tuple(frozenset(t) for t in concurrent),
    )


def test_negative_definite_examples():
    assert is_negative_definite(cfg([("E", -1, 0)]))
    i2 = cfg([("A", -2, 0), ("B", -2, 0)], [("A", "B", 2)])
    assert not is_negative_definite(i2)  # determinant 4 - 4 = 0
    e14 = cfg(
        [("E1", -3, 0), ("E2", -2, 0), ("E3", -2, 0)],
        [("E1", "E2", 1), ("E1", "E3", 1), ("E2", "E3", 1)],
    )
    assert is_negative_definite(e14)


def test_fundamental_cycle_e12_like():
    config = cfg([("E1", -1, 1)])
    z = fundamental_cycle(config)
    assert z.coeffs == (1,)
    assert z.self_int == -1
    assert z.canonical_degree == 1
    assert z.pa == 1


def test_fundamental_cycle_an_chain():
    config = cfg([("A1", -2, 0), ("A2", -2, 0), ("A3", -2, 0)], [("A1", "A2", 1), ("A2", "A3", 1)])
    z = fundamental_cycle(config)
    assert z.coeffs == (1, 1, 1)
    assert z.self_int == -2
    assert z.pa == 0
    oracle = fundamental_cycle_brute_force(config, bound=3)
    assert oracle is not None and oracle.coeffs == z.coeffs


def test_fundamental_cycle_w12():
    config = cfg([("E1", -3, 0), ("E2", -3, 0)], [("E1", "E2", 2, True)])
    z = fundamental_cycle(config)
    assert z.self_int == -2
    assert z.canonical_degree == 2
    assert z.pa == 1


def test_fundamental_cycle_requires_negative_definite():
    i2 = cfg([("A", -2, 0), ("B", -2, 0)], [("A", "B", 2)])
    with pytest.raises(ValueError):
        fundamental_cycle(i2)


def test_fundamental_cycle_nontrivial_coefficients():
    # star of four (-2)-curves: the centre enters the cycle twice
    config = cfg(
        [("C", -2, 0), ("L1", -2, 0), ("L2", -2, 0), ("L3", -2, 0)],
        [("C", "L1", 1), ("C", "L2", 1), ("C", "L3", 1)],
    )
    z = fundamental_cycle(config)
    assert dict(zip(config.names, z.coeffs)) == {"C": 2, "L1": 1, "L2": 1, "L3": 1}
    assert list(z.pairings) == [sum(r * c for r, c in zip(row, z.coeffs)) for row in fraction_gram(config)]
    oracle = fundamental_cycle_brute_force(config, bound=4)
    assert oracle.coeffs == z.coeffs


def test_classification_examples():
    e13 = cfg([("E1", -3, 0), ("E2", -2, 0)], [("E1", "E2", 2, True)])
    out = classify_minimally_elliptic(e13)
    assert out.kind == "minimally-elliptic"
    assert out.degree == 1

    z13 = cfg(
        [("E1", -4, 0), ("E2", -2, 0), ("E3", -2, 0)],
        [("E1", "E2", 1), ("E1", "E3", 1), ("E2", "E3", 1)],
    )
    out = classify_minimally_elliptic(z13)
    assert out.kind == "minimally-elliptic"
    assert out.degree == 2

    a2 = cfg([("A1", -2, 0), ("A2", -2, 0)], [("A1", "A2", 1)])
    assert classify_minimally_elliptic(a2).kind == "rational"


def test_catalog_invariants_recomputed():
    for entry in CATALOG:
        z2, kz, pa = entry.recomputed()
        assert z2 == entry.expected_self_int, entry.label
        assert kz == entry.expected_canonical_degree, entry.label
        if entry.label in EXCEPTIONAL_LABELS or entry.label.startswith("T"):
            assert pa == 1, entry.label
        else:
            assert pa == 0, entry.label


def test_catalog_cycle_invariants_agree_with_fraction_formulas():
    """Z^2, K.Z and p_a(Z) as integer sums equal the sums in Fractions on a
    Fraction Gram matrix and canonical degrees, for every catalog entry, and
    each is an int exactly when it is integral."""
    for entry in CATALOG:
        cycle = fundamental_cycle(entry.config)
        computed = (cycle.self_int, cycle.canonical_degree, cycle.pa)
        assert all(map(int_when_integral, computed)), entry.label
        assert computed == cycle_invariants_by_fractions(cycle), entry.label


def test_integer_gram_is_built_once_as_immutable_rows():
    config = catalog_entry("E14").config
    gram = config.integer_gram()
    assert gram is config.integer_gram()
    assert gram == ((-3, 1, 1), (1, -2, 1), (1, 1, -2))
    assert all(isinstance(row, tuple) for row in gram)


def test_catalog_exceptional_pairs():
    for label in ("E12", "E13", "E14"):
        entry = catalog_entry(label)
        assert (entry.expected_self_int, entry.expected_canonical_degree) == (-1, 1)
    for label in ("Z11", "Z12", "Z13", "W12", "W13"):
        entry = catalog_entry(label)
        assert (entry.expected_self_int, entry.expected_canonical_degree) == (-2, 2)


def test_match_catalog():
    e13 = cfg([("a", -3, 0), ("b", -2, 0)], [("a", "b", 2, True)])
    assert match_catalog(e13).label == "E13"
    w13 = cfg(
        [("x", -3, 0), ("y", -2, 0), ("z", -3, 0)],
        [("x", "y", 1), ("x", "z", 1), ("y", "z", 1)],
        [("x", "y", "z")],
    )
    assert match_catalog(w13).label == "W13"
    nothing = cfg(
        [("x", -2, 0), ("y", -2, 0), ("z", -2, 0)],
        [("x", "y", 1), ("x", "z", 1), ("y", "z", 1)],
        [("x", "y", "z")],
    )
    assert match_catalog(nothing) is None


def test_match_catalog_distinguishes_tangency():
    # contact 2 at two distinct points is an I2-shape, not the E13 tacnode
    two_points = cfg([("a", -3, 0), ("b", -2, 0)], [("a", "b", 2)])
    assert match_catalog(two_points) is None


def test_match_catalog_relabeling_invariance():
    rng = random.Random(3)
    for label in EXCEPTIONAL_LABELS:
        entry = catalog_entry(label)
        names = list(entry.config.names)
        shuffled = names[:]
        rng.shuffle(shuffled)
        relabeled = relabel(entry.config, dict(zip(names, [f"t{i}" for i in range(len(names))])))
        relabeled = relabel(relabeled, dict(zip(relabeled.names, shuffled)))
        assert match_catalog(relabeled).label == label


def test_match_catalog_index_returns_the_entry_of_a_scan():
    """The lookup by invariants returns the very entry a scan of CATALOG
    returns: on every entry relabelled and reordered, with its first contact's
    tangency flipped, or with its concurrency dropped, and on small
    configurations, most of which match no entry."""
    rng = random.Random(13)
    pool = list(_small_configurations())
    for entry in CATALOG:
        config = entry.config
        pool += [_shuffled(config, rng), _shuffled(config, rng)]
        if config.contacts:
            pool.append(_shuffled(_flip_first_contact(config), rng))
        if config.concurrent:
            pool.append(_shuffled(CurveConfiguration(config.components, config.contacts), rng))
    for config in pool:
        assert match_catalog(config) is match_catalog_by_scan(config), config
    matched = {match_catalog(config) for config in pool}
    assert None in matched and matched - {None} == set(CATALOG)


def _isomorphic_by_permutations(a, b):
    """Reference search: every bijection of the components, checked in full."""
    if len(a.components) != len(b.components):
        return False
    key = lambda config: {c.name: (c.self_int, c.pa, c.sing) for c in config.components}
    link = lambda config: {c.pair: (c.mult, c.tangential) for c in config.contacts}
    a_keys, b_keys, a_links, b_links = key(a), key(b), link(a), link(b)
    pairs = [frozenset(pair) for pair in itertools.combinations(a.names, 2)]
    for perm in itertools.permutations(b.names):
        mapping = dict(zip(a.names, perm))
        if any(a_keys[x] != b_keys[mapping[x]] for x in a.names):
            continue
        image = lambda names: frozenset(mapping[x] for x in names)
        if any(a_links.get(pair) != b_links.get(image(pair)) for pair in pairs):
            continue
        if {image(t) for t in a.concurrent} == set(b.concurrent):
            return True
    return False


def _shuffled(config, rng):
    """The configuration under fresh names, with its records in a new order."""
    names = list(config.names)
    fresh = [f"r{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    renamed = relabel(config, dict(zip(names, fresh)))
    components, contacts = list(renamed.components), list(renamed.contacts)
    rng.shuffle(components)
    rng.shuffle(contacts)
    return CurveConfiguration(tuple(components), tuple(contacts), renamed.concurrent)


def _fiber(fiber_type):
    size = {"I0": 1, "I1": 1, "II": 1, "III": 2, "IV": 3}.get(fiber_type) or int(fiber_type[1:])
    return blown_up_fiber(fiber_type, (0,) * size)


def _ade_trees():
    def tree(n, edges):
        return cfg([(f"v{i}", -2, 0) for i in range(n)], [(f"v{i}", f"v{j}", 1) for i, j in edges])

    # the A_n chains come with the catalog
    chain = lambda n: [(i, i + 1) for i in range(n - 1)]
    yield from (tree(n, chain(n - 1) + [(n - 3, n - 1)]) for n in (4, 5, 6))  # D4..D6
    yield tree(6, chain(5) + [(2, 5)])  # E6


def _small_configurations():
    yield from _ade_trees()
    for fiber in ("I0", "I1", "II", "III", "IV", "I2", "I3", "I4", "I5", "I6"):
        yield _fiber(fiber)
    yield blown_up_fiber("I3", (1, 0, 2))
    yield blown_up_fiber("IV", (0, 1, 0))
    yield from (e.config for e in CATALOG if len(e.config.components) <= 6)


def _flip_first_contact(config):
    first = config.contacts[0]
    flipped = Contact(first.first, first.second, first.mult, not first.tangential)
    return CurveConfiguration(config.components, (flipped,) + config.contacts[1:], config.concurrent)


def test_isomorphism_search_agrees_with_permutation_oracle():
    rng = random.Random(5)
    pool = []
    for config in _small_configurations():
        pool += [config, _shuffled(config, rng)]
        if config.contacts:
            pool.append(_shuffled(_flip_first_contact(config), rng))
    for a in pool:
        assert isomorphic(a, a) and isomorphic(a, _shuffled(a, rng))
        for b in pool:
            if len(a.components) == len(b.components):
                assert isomorphic(a, b) == _isomorphic_by_permutations(a, b), (a, b)


def test_isomorphism_of_nine_component_cycle_and_chain():
    i9 = _fiber("I9")
    a9 = cfg([(f"A{i}", -2, 0) for i in range(9)], [(f"A{i}", f"A{i + 1}", 1) for i in range(8)])
    assert not isomorphic(i9, a9)
    assert isomorphic(i9, _shuffled(i9, random.Random(9)))
    e8 = cfg(
        [(f"v{i}", -2, 0) for i in range(8)],
        [(f"v{i}", f"v{i + 1}", 1) for i in range(6)] + [("v2", "v7", 1)],
    )
    assert match_catalog(e8) is None


def test_blown_up_fiber_reproduces_catalog_graphs():
    # equal, not only isomorphic: the names and their order reach the goldens
    assert EXCEPTIONAL_LABELS == tuple(HAND_EXCEPTIONAL)
    for label in EXCEPTIONAL_LABELS:
        assert catalog_entry(label).config == HAND_EXCEPTIONAL[label], label


def test_recognize_kodaira_fibers():
    assert recognize_kodaira_fiber(cfg([("F", 0, 1)])) == "I0"
    assert recognize_kodaira_fiber(cfg([("F", 0, 1, "node")])) == "I1"
    assert recognize_kodaira_fiber(cfg([("F", 0, 1, "cusp")])) == "II"
    assert recognize_kodaira_fiber(cfg([("A", -2, 0), ("B", -2, 0)], [("A", "B", 2)])) == "I2"
    assert (
        recognize_kodaira_fiber(cfg([("A", -2, 0), ("B", -2, 0)], [("A", "B", 2, True)])) == "III"
    )
    triangle = cfg(
        [("A", -2, 0), ("B", -2, 0), ("C", -2, 0)],
        [("A", "B", 1), ("A", "C", 1), ("B", "C", 1)],
    )
    assert recognize_kodaira_fiber(triangle) == "I3"
    concurrent = cfg(
        [("A", -2, 0), ("B", -2, 0), ("C", -2, 0)],
        [("A", "B", 1), ("A", "C", 1), ("B", "C", 1)],
        [("A", "B", "C")],
    )
    assert recognize_kodaira_fiber(concurrent) == "IV"
    square = cfg(
        [("A", -2, 0), ("B", -2, 0), ("C", -2, 0), ("D", -2, 0)],
        [("A", "B", 1), ("B", "C", 1), ("C", "D", 1), ("D", "A", 1)],
    )
    assert recognize_kodaira_fiber(square) == "I4"


def test_recognize_builds_each_candidate_fiber_once(monkeypatch):
    # counted calls, no timing: a candidate shape is built once per process;
    # the public builder stays uncached
    import unimodal.configurations as configurations

    original = configurations.fiber_configuration
    built = []

    def recording(fiber_type):
        built.append(fiber_type)
        return original(fiber_type)

    monkeypatch.setattr(configurations, "fiber_configuration", recording)
    configurations._candidate_fiber.cache_clear()
    shapes = ("I0", "I1", "II", "I2", "III", "I3", "IV", "I5")
    for _ in range(2):
        for fiber_type in shapes:
            assert recognize_kodaira_fiber(original(fiber_type)) == fiber_type
    assert sorted(built) == sorted(shapes)
    assert original("I2") is not original("I2")


def test_recognize_rejects_non_fibers():
    assert recognize_kodaira_fiber(cfg([("E", -1, 0)])) is None
    assert recognize_kodaira_fiber(cfg([("E", -2, 0)])) is None
    chain = cfg([("A", -2, 0), ("B", -2, 0)], [("A", "B", 1)])
    assert recognize_kodaira_fiber(chain) is None
    # a contact of multiplicity one at a single point is no Kodaira shape
    for concurrent in ((), [("A", "B", "C")]):
        tangential = cfg(
            [("A", -2, 0), ("B", -2, 0), ("C", -2, 0)],
            [("A", "B", 1, True), ("A", "C", 1), ("B", "C", 1)],
            concurrent,
        )
        assert recognize_kodaira_fiber(tangential) is None
    # two disjoint 32-cycles pass the row-sum test; the connectivity test
    # rejects them before any isomorphism search
    two_cycles = cfg(
        [(f"{side}{i}", -2, 0) for side in "AB" for i in range(32)],
        [(f"{side}{i}", f"{side}{(i + 1) % 32}", 1) for side in "AB" for i in range(32)],
    )
    start = time.perf_counter()
    assert recognize_kodaira_fiber(two_cycles) is None
    assert time.perf_counter() - start < 0.05


def test_recognition_relabeling_invariance():
    rng = random.Random(11)
    examples = {
        "I2": cfg([("A", -2, 0), ("B", -2, 0)], [("A", "B", 2)]),
        "III": cfg([("A", -2, 0), ("B", -2, 0)], [("A", "B", 2, True)]),
        "I3": cfg(
            [("A", -2, 0), ("B", -2, 0), ("C", -2, 0)],
            [("A", "B", 1), ("A", "C", 1), ("B", "C", 1)],
        ),
        "IV": cfg(
            [("A", -2, 0), ("B", -2, 0), ("C", -2, 0)],
            [("A", "B", 1), ("A", "C", 1), ("B", "C", 1)],
            [("A", "B", "C")],
        ),
    }
    for n in range(4, 65):
        examples[f"I{n}"] = cfg(
            [(f"E{i}", -2, 0) for i in range(n)],
            [(f"E{i}", f"E{(i + 1) % n}", 1) for i in range(n)],
        )
    for expected, config in examples.items():
        names = list(config.names)
        for _ in range(4):
            perm = names[:]
            rng.shuffle(perm)
            relabeled = relabel(config, dict(zip(names, [f"z{i}" for i in range(len(names))])))
            relabeled = relabel(relabeled, dict(zip(relabeled.names, perm)))
            # the recognizer must not depend on the order of the records either
            relabeled = CurveConfiguration(
                tuple(rng.sample(relabeled.components, len(relabeled.components))),
                tuple(rng.sample(relabeled.contacts, len(relabeled.contacts))),
                relabeled.concurrent,
            )
            assert recognize_kodaira_fiber(relabeled) == expected


def test_euler_numbers_and_budget():
    assert fiber_euler_number("I0") == 0
    assert fiber_euler_number("I1") == 1
    assert fiber_euler_number("II") == 2
    assert fiber_euler_number("III") == 3
    assert fiber_euler_number("IV") == 4
    assert euler_budget(["I4"], 24, "I1") == BudgetVerdict(True, 19)
    assert euler_budget([], 0) == BudgetVerdict(True, 0)
    assert euler_budget(["IV"], 3) == BudgetVerdict(False, -1)
    with pytest.raises(ValueError):
        euler_budget([], -1)


def test_laufer_matches_brute_force_random():
    rng = random.Random(2024)
    cases = 0
    while cases < 200:
        n = rng.randint(1, 4)
        comps = [(f"C{i}", -rng.randint(1, 5), rng.choice([0, 0, 0, 1])) for i in range(n)]
        contacts = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    contacts.append((f"C{i}", f"C{j}", rng.randint(1, 2)))
        config = cfg(comps, contacts)
        if not is_negative_definite(config):
            continue
        cases += 1
        z = fundamental_cycle(config)
        assert all(p <= 0 for p in z.pairings)
        bound = max(4, *z.coeffs)
        oracle = fundamental_cycle_brute_force(config, bound=bound)
        assert oracle is not None
        assert z.coeffs == oracle.coeffs
    assert cases == 200


@pytest.mark.parametrize("value", [Fraction(-2), -2.0, "-2", True, None])
def test_components_and_contacts_take_only_integers(value):
    with pytest.raises(TypeError):
        Component("E", value)
    with pytest.raises(TypeError):
        Component("E", -2, value)
    with pytest.raises(TypeError):
        Contact("E", "F", value)


def test_classification_of_long_cycles_and_chains():
    # a cycle of rational curves, one of them a (-3)-curve: a cusp singularity,
    # minimally elliptic of degree 1 with the reduced cycle as Z
    for n in (3, 12, 40):
        comps = [("E0", -3, 0)] + [(f"E{i}", -2, 0) for i in range(1, n)]
        contacts = [(f"E{i}", f"E{(i + 1) % n}", 1) for i in range(n)]
        classified = classify_minimally_elliptic(cfg(comps, contacts))
        assert (classified.kind, classified.degree) == ("minimally-elliptic", 1)
        assert classified.cycle.coeffs == (1,) * n
    # a cuspidal (-1)-curve on an A_40 chain: p_a(Z) = 1, but the curve alone is not rational
    comps = [("C", -1, 1, "cusp")] + [(f"A{i}", -2, 0) for i in range(40)]
    contacts = [("C", "A0", 1)] + [(f"A{i}", f"A{i + 1}", 1) for i in range(39)]
    chained = cfg(comps, contacts)
    assert fundamental_cycle(chained).pa == 1
    assert classify_minimally_elliptic(chained).kind == "not-elliptic"


def test_config_json_roundtrip():
    for entry in CATALOG:
        data = config_to_json(entry.config)
        assert config_from_json(data) == entry.config
