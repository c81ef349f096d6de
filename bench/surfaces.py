"""The `surfaces` workload: generated `pipeline` and `config-check` scenarios.

The pipelines are the elliptic-route constructions for every (singularity,
fibre variant, profile) combination, with the germ checks off, so the time
goes to the intersection lattices: blow-ups, double covers, contractions.

The configurations are ADE trees, Kodaira fibres, fibres blown up at smooth
points, and the catalog configurations, each with at most seven components,
randomly relabelled and reordered.  (An E8 tree, with eight, would spend
1.5 s in the isomorphism search alone, more than all the rest of a pass.)  Their expected values come from the
construction and from the benchmark's own Gram arithmetic (Laufer's
algorithm for the fundamental cycle), never from the program.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from common import computed, scenario

# (singularity, fibre variant) pairs of the elliptic route, each with profile 6 and 7
EN_COMBINATIONS = [("E12", None)] + [("E13", v) for v in ("I2", "I3", "III", "IV")] + [
    ("E14", v) for v in ("I3", "I4")
]
# catalog label -> (Kodaira fibre, blow-ups per fibre component)
CATALOG_SOURCES = {
    "E12": ("II", (1,)), "E13": ("III", (1, 0)), "E14": ("IV", (1, 0, 0)),
    "Z11": ("II", (2,)), "Z12": ("III", (2, 0)), "Z13": ("IV", (2, 0, 0)),
    "W12": ("III", (1, 1)), "W13": ("IV", (1, 1, 0)),
    "T236": ("I0", (1,)), "T237": ("I1", (1,)),
}
MINIMALLY_ELLIPTIC_DEGREE = {"E": 1, "T": 1, "Z": 2, "W": 2}

# A configuration: components (self-intersection, genus, singularity marker),
# contacts (i, j, multiplicity, tangential) and concurrent triples (i, j, k).


def _config(comps, contacts=(), concurrent=()):
    return {"comps": list(comps), "contacts": list(contacts), "concurrent": list(concurrent)}


def ade(kind: str, n: int) -> dict:
    """A_n chains; D_n and E_n as a chain of n-1 with one more curve at node 2 or 3."""
    comps = [(-2, 0, None)] * n
    if kind == "A":
        return _config(comps, [(i, i + 1, 1, False) for i in range(n - 1)])
    branch = 1 if kind == "D" else 2
    return _config(comps, [(i, i + 1, 1, False) for i in range(n - 2)] + [(branch, n - 1, 1, False)])


def fibre(kind: str) -> dict:
    if kind in ("I0", "I1", "II"):
        return _config([(0, 1, {"I0": None, "I1": "node", "II": "cusp"}[kind])])
    if kind in ("I2", "III"):
        return _config([(-2, 0, None)] * 2, [(0, 1, 2, kind == "III")])
    if kind == "IV":
        return _config([(-2, 0, None)] * 3, [(0, 1, 1, False), (0, 2, 1, False), (1, 2, 1, False)],
                       [(0, 1, 2)])
    n = int(kind[1:])
    return _config([(-2, 0, None)] * n, [(i, (i + 1) % n, 1, False) for i in range(n)])


def blown_up(kind: str, blow_ups: tuple) -> dict:
    base = fibre(kind)
    base["comps"] = [(s - k, pa, sing) for (s, pa, sing), k in zip(base["comps"], blow_ups)]
    return base


def catalog_label(kind: str, blow_ups: tuple) -> str:
    for label, source in CATALOG_SOURCES.items():
        if source[0] == kind and sorted(source[1]) == sorted(blow_ups):
            return label
    return "none"


def gram(config: dict) -> list[list[F]]:
    n = len(config["comps"])
    g = [[F(0)] * n for _ in range(n)]
    for i, (s, _, _) in enumerate(config["comps"]):
        g[i][i] = F(s)
    for i, j, m, _ in config["contacts"]:
        g[i][j] = g[j][i] = F(m)
    return g


def pairings(g: list[list[F]], z: list) -> list[F]:
    return [sum(z[j] * g[j][i] for j in range(len(z))) for i in range(len(z))]


def laufer_cycle(config: dict) -> list[int]:
    """Smallest Z >= reduced cycle with Z.E_i <= 0 (negative definite input)."""
    g = gram(config)
    z = [1] * len(g)
    while True:
        bad = next((i for i, p in enumerate(pairings(g, z)) if p > 0), None)
        if bad is None:
            return z
        z[bad] += 1


def cycle_values(config: dict, z: list[int]) -> dict[str, str]:
    g = gram(config)
    square = sum(z[i] * g[i][j] * z[j] for i in range(len(z)) for j in range(len(z)))
    canonical = sum(a * (2 * pa - 2 - s) for a, (s, pa, _) in zip(z, config["comps"]))
    genus = 1 + (square + canonical) / 2
    return {
        "cycle-coefficients": ",".join(map(str, z)),
        "cycle-self-intersection": str(square),
        "cycle-canonical-degree": str(canonical),
        "cycle-genus": str(genus),
    }


def relabel(rng: random.Random, config: dict) -> tuple[dict, dict]:
    """Random names and a random order; returns the JSON payload and the reordered config."""
    n = len(config["comps"])
    order = list(range(n))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    names = []
    while len(names) < n:
        name = rng.choice("CDFGKLRSXY") + str(rng.randint(0, 99))
        if name not in names:
            names.append(name)
    comps = [config["comps"][old] for old in order]
    contacts = [(position[i], position[j], m, t) for i, j, m, t in config["contacts"]]
    rng.shuffle(contacts)
    concurrent = [tuple(position[i] for i in triple) for triple in config["concurrent"]]
    reordered = _config(comps, contacts, concurrent)
    payload = {
        "components": [
            {"name": names[k], "self_int": str(s), "pa": str(pa), "sing": sing}
            for k, (s, pa, sing) in enumerate(comps)
        ],
        "contacts": [
            {"pair": rng.sample([names[i], names[j]], 2), "mult": str(m), "tangential": t}
            for i, j, m, t in contacts
        ],
        "concurrent": [sorted(names[i] for i in triple) for triple in concurrent],
    }
    return payload, reordered


def _config_check(rng, name, config, label, kodaira, classification, derived=None):
    payload, reordered = relabel(rng, config)
    expected = {"catalog-match": label, "kodaira-fiber": kodaira}
    if classification is None:
        expected["negative-definite"] = "false"
    else:
        expected["negative-definite"] = "true"
        expected["classification"] = classification
        expected.update(cycle_values(reordered, laufer_cycle(reordered)))
    body = {"config": payload}
    if derived is not None:
        body["derived_from"] = {"fiber": derived[0], "blow_ups": list(derived[1])}
        expected["blown-up-fiber-match"] = "match"
    return scenario(name, "config-check", body, {k: {"value": v} for k, v in expected.items()}), (
        reordered, label, kodaira
    )


def _random_blow_ups(rng, kind: str) -> tuple:
    n = len(fibre(kind)["comps"])
    blow_ups = [0] * n
    for _ in range(rng.randint(1, 3)):
        blow_ups[rng.randrange(n)] += 1
    return tuple(blow_ups)


def pipelines() -> list[tuple[dict, tuple]]:
    out = []
    for sing, variant in EN_COMBINATIONS:
        for profile in (6, 7):
            payload = {"construction": "en", "singularity": sing, "profile": profile,
                       "germ_checks": False}
            expected = {
                "catalog-match": sing,
                "multiple-fiber-type": "I0" if profile == 6 else "I1",
                "contracted-canonical-squared": "1",
                "contracted-euler-characteristic": "3",
            }
            if variant is not None:
                payload["fiber_variant"] = variant
                expected["second-fiber-type"] = variant
            name = f"{sing.lower()}-{(variant or 'none').lower()}-p{profile}"
            out.append((scenario(name, "pipeline", payload,
                                 {k: {"value": v} for k, v in expected.items()}), None))
    return out


def configs(rng: random.Random) -> list[tuple[dict, tuple]]:
    """One round of configuration checks.

    Every round has the same shapes, so that the seed changes the labels, the
    order and the blow-up counts, but hardly the cost.
    """
    out = []
    for kind, n in (("A", 6), ("D", 6), ("E", 6), ("E", 7)):
        label = f"A{n}" if kind == "A" else "none"
        out.append(_config_check(rng, f"{kind}{n}", ade(kind, n), label, "none", "rational"))
    for kind in ("I0", "I1", "II", "I2", "III", "I3", "IV", "I6"):
        out.append(_config_check(rng, f"fibre-{kind}", fibre(kind), "none", kind, None))
    for kind in ("II", "III", "IV", "I5"):
        blow_ups = _random_blow_ups(rng, kind)
        degree = sum(blow_ups)
        out.append(_config_check(
            rng, f"blown-{kind}", blown_up(kind, blow_ups), catalog_label(kind, blow_ups), "none",
            f"minimally-elliptic-degree-{degree}", (kind, blow_ups)))
    for label, (kind, blow_ups) in CATALOG_SOURCES.items():
        degree = MINIMALLY_ELLIPTIC_DEGREE[label[0]]
        out.append(_config_check(
            rng, f"catalog-{label}", blown_up(kind, blow_ups), label, "none",
            f"minimally-elliptic-degree-{degree}", (kind, blow_ups)))
    return out


def generate(seed: int, rounds: int) -> list[tuple[dict, tuple]]:
    """`rounds` rounds, each of every pipeline and one round of configurations."""
    rng = random.Random(f"surfaces-{seed}")
    items = []
    for _ in range(rounds):
        items.extend(pipelines())
        items.extend(configs(rng))
    for index, (data, _) in enumerate(items):
        data["name"] = f"{index:03d}-{data['name']}"
    return items


def check(report: dict, generated: list[tuple[dict, tuple]]) -> list[str]:
    """Labels and fibre types survive relabelling; surfaces have K^2 = 1 and chi = 3;
    every reported fundamental cycle Z has Z > 0 and Z.E_i <= 0 by our own Gram."""
    values = computed(report)
    problems = []
    for data, source in generated:
        name = data["name"]
        got = values.get(name, {})
        if source is None:
            payload = data["payload"]
            want = {"contracted-canonical-squared": "1", "contracted-euler-characteristic": "3",
                    "catalog-match": payload["singularity"]}
            if "fiber_variant" in payload:
                want["second-fiber-type"] = payload["fiber_variant"]
        else:
            config, label, kodaira = source
            want = {"catalog-match": label, "kodaira-fiber": kodaira}
            if "cycle-coefficients" in got:
                z = [int(c) for c in got["cycle-coefficients"].split(",")]
                if len(z) != len(config["comps"]) or min(z) < 1:
                    problems.append(f"{name}: cycle {z} is not positive on every component")
                elif max(pairings(gram(config), z)) > 0:
                    problems.append(f"{name}: cycle {z} meets a component positively")
            elif data["expected"]["negative-definite"]["value"] == "true":
                problems.append(f"{name}: no fundamental cycle reported")
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"{name}: {key} is {got.get(key)!r}, expected {value!r}")
    return problems
