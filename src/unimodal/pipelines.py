"""Declarative construction pipelines with machine-checked audits.

Two routes produce the Gorenstein surfaces under verification.  The elliptic
route starts from a ruled surface, takes the bicanonical double cover with a
branch containing a fibre and a [3,3]-point, resolves the resulting degree-one
elliptic point by attaching its known exceptional curve, contracts the
leftover (-1)-curve to reach a minimal elliptic surface, and finally
contracts the exceptional unimodal configuration.  It tracks each curve once,
on the ruled base, under the name it is read by.  It states no configuration
of its own: the curve F (T236 or T237) and the A_k chain over the extra branch
point come from the catalog, the shape of the second Kodaira fibre from
`configurations.fiber_configuration`, and both fibres are recognised on
configurations read off the model.  The K3 route starts from the catalog
entry's resolution lattice, blows down to a K3 carrier, contracts the
(-2)-part, and checks the branch sextic family of its `family_case`; a family
is verified only there, with its stabilizer and parameter counts noted.  A
type takes the elliptic route when its stated degree -Z^2 in the catalog is
one, the K3 route when it is two.  Neither route takes a configuration from
the scenario: the catalog entry and the family table are their only data.

Every numerical claim along the way is recorded as a named check with an
anchor describing the claim; documented discrepancies are flagged, never
silently repaired.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .configurations import (
    EXCEPTIONAL_LABELS,
    CatalogEntry,
    Contact,
    CurveConfiguration,
    catalog_entry,
    euler_budget,
    fiber_configuration,
    match_catalog,
    recognize_kodaira_fiber,
)
from .lattice import (
    DivisorClass,
    SurfaceModel,
    attach_resolution,
    blow_up,
    configuration_of,
    contract,
    declare_surface,
    double_cover,
    make_hirzebruch,
    make_p2,
    nakai_check,
    split_curve,
    track,
)
from .planecurves import ThreeThreeVerdict, detect_33_point, germ, germ_mul
from .rationals import rat_str, ratio
from .sextics import FAMILIES, SexticFamily, family, verify_family


class Discrepancy(NamedTuple):
    """A stated value that the exact recomputation does not reproduce."""

    flag: str
    stated: int
    engine: int


_Z13_CASE2 = family("z13-case2")

# The documented discrepancies, by the check they concern: the only place the
# engine and the corpus builder read a stated value the engine disagrees with.
# The orbit count is stated with the second Z13 family, with the other counts.
DISCREPANCIES = {
    "noether-euler-number": Discrepancy("noether-c2", 23, 24),
    "nef-bundle-on-bisection": Discrepancy("nef-bundle-en-values", 4, 2),
    "nef-bundle-squared": Discrepancy("nef-bundle-en-values", 8, 6),
    "family-orbit-count": Discrepancy("z13-case2-count", _Z13_CASE2.claimed_count, 16),
}
FLAG_KINDS = tuple(sorted({d.flag for d in DISCREPANCIES.values()}))


def _fmt(value) -> str:
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return rat_str(value)
    if type(value) in (tuple, list):  # a record is a tuple too, and prints as itself
        return ",".join(_fmt(v) for v in value)
    return str(value)


class CheckRecord(NamedTuple):
    name: str
    computed: str
    expected: str
    status: str  # "pass" | "fail" | "flagged"
    anchor: str
    flag: str | None = None


class PipelineResult(NamedTuple):
    label: str
    checks: tuple[CheckRecord, ...]
    diagnostics: tuple[CheckRecord, ...]  # values no claim states, each passing as itself
    models: tuple[SurfaceModel, ...]

    def check(self, name: str) -> CheckRecord:
        for record in self.checks:
            if record.name == name:
                return record
        raise KeyError(name)

    @property
    def failed(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.checks if r.status == "fail")


def judge(name: str, computed, expected, anchor: str) -> CheckRecord:
    """The one rule that turns a recomputation into pass, flagged or fail.

    ``expected`` is a plain value, which passes when the computed value
    equals it, or a documented :class:`Discrepancy`, which is flagged when the
    computed value lands exactly on the engine value, away from the stated
    one, and fails otherwise; so a flag can never mask a computation error.
    A flagged record shows the stated value as expected.
    """
    c = _fmt(computed)
    if isinstance(expected, Discrepancy):
        stated = _fmt(expected.stated)
        status = "flagged" if c == _fmt(expected.engine) != stated else "fail"
        return CheckRecord(name, c, stated, status, anchor, expected.flag)
    e = _fmt(expected)
    return CheckRecord(name, c, e, "pass" if c == e else "fail", anchor)


class _Recorder:
    def __init__(self) -> None:
        self.records: list[CheckRecord] = []
        self.diagnostics: list[CheckRecord] = []

    def expect(self, name: str, computed, expected, anchor: str) -> None:
        self.records.append(judge(name, computed, expected, anchor))

    def note(self, name: str, value, anchor: str) -> None:
        self.diagnostics.append(judge(name, value, value, anchor))

    def result(self, label: str, models: tuple[SurfaceModel, ...]) -> PipelineResult:
        return PipelineResult(label, tuple(self.records), tuple(self.diagnostics), models)


# ---------------------------------------------------------------------------
# Shared construction arithmetic
# ---------------------------------------------------------------------------


def branch_class_for(model: SurfaceModel) -> DivisorClass:
    """Branch class of the bicanonical double cover: 2(Gamma - K) on a ruled base, 6H on the plane."""
    if model.lattice.basis == ("H",):
        return model.divisor({"H": 6})
    if set(model.lattice.basis) == {"Cinf", "Gamma"}:
        return 2 * (model.basis_class("Gamma") - model.canonical)
    raise ValueError(f"no branch class rule for the basis {model.lattice.basis}")


@functools.cache
def section_class_coefficient(pa_bisection: int) -> int | Fraction:
    """Offset k in the section class Cinf + k*Gamma of the bisection image.

    The bisection maps to a section of the natural ruled surface; pairing the
    section identity against the canonical class, with the branch degree on
    the section supplied by the double-cover count 2 pa + 4, pins k exactly.
    It depends on the genus alone, so it is computed once per process and genus.
    """
    if pa_bisection not in (0, 1):
        raise ValueError("the bisection genus is 0 or 1")
    base = make_hirzebruch(1 - pa_bisection)
    cinf, gamma = base.basis_class("Cinf"), base.basis_class("Gamma")
    a = base.intersect(cinf, base.canonical)
    b = base.intersect(gamma, base.canonical)
    k = ratio(1 - (pa_bisection + 2) - a, b)
    section = cinf + k * gamma
    branch = branch_class_for(base)
    if base.intersect(branch, section) != 2 * pa_bisection + 4:
        raise AssertionError("section class is inconsistent with the branch degree")
    return k


# ---------------------------------------------------------------------------
# The elliptic (E-type) route
# ---------------------------------------------------------------------------


class EnSpec(NamedTuple):
    singularity: str  # "E12" | "E13" | "E14"
    profile: int = 6  # which degree-one elliptic point sits over the [3,3]
    fiber_variant: str | None = None  # second-fibre shape for E13/E14
    germ_checks: bool = True


# the degree-one types (stated Z^2 = -1) take the elliptic route
_EN_TYPES = tuple(label for label in EXCEPTIONAL_LABELS if catalog_entry(label).expected_self_int == -1)
# the Kodaira fibres admitted through the extra branch point, per type
_SECOND_FIBERS = {"E13": ("I2", "I3", "III", "IV"), "E14": ("I3", "I4")}


def run_en_pipeline(spec: EnSpec) -> PipelineResult:
    sing = spec.singularity
    if sing not in _EN_TYPES:
        raise ValueError(f"not an elliptic-route type: {sing!r}")
    if sing == "E12":
        if spec.fiber_variant is not None:
            raise ValueError("E12 has no second-fibre variant")
    elif spec.fiber_variant not in _SECOND_FIBERS[sing]:
        raise ValueError(f"{sing} admits the variants {_SECOND_FIBERS[sing]}, not {spec.fiber_variant!r}")
    if spec.profile not in (6, 7):
        raise ValueError("the elliptic point profile is 6 or 7")

    checks = _Recorder()
    entry = catalog_entry(sing)
    pa_bisection = entry.config.component("E1").pa  # E1 is the bisection
    twist = 1 - pa_bisection

    base = make_hirzebruch(twist)
    branch = branch_class_for(base)
    checks.expect(
        "branch-class",
        str(branch),
        str(base.divisor({"Cinf": 4, "Gamma": 2 * twist + 6})),
        f"bicanonical branch class on the ruled base F{twist}",
    )
    half = Fraction(1, 2) * branch
    # each curve is tracked once, under the name it is read by: the section E1,
    # the branch fibre G and the fibre E2 through the extra branch point; every
    # move keeps the names, and double_cover checks that the rest of the
    # branch, 2*half - G, is effective
    base = track(base, "E1", {"Cinf": 1})
    base = track(base, "G", {"Gamma": 1})
    if spec.fiber_variant is not None:
        base = track(base, "E2", {"Gamma": 1})

    cover = double_cover(base, half, ["G"])
    checks.expect(
        "cover-euler-characteristic",
        cover.chi,
        3,
        "holomorphic Euler characteristic of the branched double cover",
    )
    checks.expect(
        "cover-canonical-is-fiber",
        str(cover.canonical),
        str(cover.basis_class("Gamma_pb")),
        "canonical class of the cover is a ruling fibre",
    )
    checks.expect("cover-canonical-squared", cover.k_squared, 0, "K^2 of the cover")

    t_config = catalog_entry(f"T23{spec.profile}").config
    model = attach_resolution(
        cover, t_config, {"G": {"F": 1}, "E1": {"F": 1}}
    )
    checks.expect(
        "resolved-euler-characteristic",
        model.chi,
        2,
        "resolving the degree-one elliptic point drops chi by one",
    )

    if spec.fiber_variant is not None:
        # E2, split into E2 and E3 for E14, and the A_k chain over the extra
        # branch point (curves A1, ..., Ak) make up the second fibre
        shape = fiber_configuration(spec.fiber_variant)
        pieces = ("E2", "E3") if sing == "E14" else ("E2",)
        ade = catalog_entry(f"A{len(shape.components) - len(pieces)}").config
        model = attach_resolution(model, ade, {"E2": {n: 1 for n in ade.names}})
        if len(pieces) == 2:
            model = split_curve(model, "E2", pieces, -2, {"Cinf_pb": 1, "A1": 1})
        fiber_names = pieces + ade.names

    step_down = contract(model, ["G"])
    checks.expect(
        "half-fiber-contraction-kind",
        step_down.kind,
        "blow-down",
        "the strict half-fibre transform is a smooth (-1)-curve",
    )
    surface = step_down.model

    checks.expect("minimal-model-euler-characteristic", surface.chi, 2, "chi of the elliptic surface")
    checks.expect("minimal-model-canonical-squared", surface.k_squared, 0, "K^2 of the elliptic surface")
    checks.expect(
        "noether-euler-number",
        surface.c2,
        DISCREPANCIES["noether-euler-number"],
        "topological Euler number from Noether's identity",
    )
    half_fiber = surface.curve_class("F")
    checks.expect(
        "canonical-numerically-half-fiber",
        str(surface.canonical),
        str(half_fiber),
        "the canonical class is the half-fibre of the unique multiple fibre",
    )
    bisection = surface.curve_class("E1")
    checks.expect(
        "bisection-degree-on-half-fiber",
        surface.intersect(half_fiber, bisection),
        1,
        "the exceptional curve meets the half-fibre once",
    )
    checks.expect(
        "bisection-degree-on-fiber",
        surface.intersect(2 * half_fiber, bisection),
        2,
        "the exceptional curve is a bisection of the fibration",
    )

    _check_exceptional_configuration(checks, surface, entry)

    # F^2 = 0 and p_a(F) = 1 are read off the model; the lattice keeps no curve
    # singularity, so F takes the marker of the attached T-curve (both checked records)
    multiple_type = "I0" if spec.profile == 6 else "I1"
    computed = configuration_of(surface, ["F"])
    (f,) = computed.components
    multiple_fiber = computed._replace(components=(f._replace(sing=t_config.component("F").sing),))
    checks.expect(
        "multiple-fiber-type",
        recognize_kodaira_fiber(multiple_fiber) or "none",
        multiple_type,
        "shape of the reduction of the multiple fibre",
    )

    required = []
    if spec.fiber_variant is not None:
        # the tangency (III) and concurrency (IV) marks are the stated fibre's,
        # not yet derived from the branch point (ROADMAP: derive the second-fibre variants)
        fiber = configuration_of(surface, fiber_names)
        tangential = any(c.tangential for c in shape.contacts)
        second_fiber = CurveConfiguration(
            fiber.components,
            tuple(Contact(c.first, c.second, c.mult, tangential) for c in fiber.contacts),
            (frozenset(fiber_names),) if shape.concurrent else (),
        )
        checks.expect(
            "second-fiber-type",
            recognize_kodaira_fiber(second_fiber) or "none",
            spec.fiber_variant,
            "shape of the fibre through the extra branch singularity",
        )
        required.append(spec.fiber_variant)
    c2 = surface.c2
    budget = euler_budget(tuple(required), int(c2), multiple_type)
    checks.expect(
        "euler-budget",
        "feasible" if budget.feasible else "infeasible",
        "feasible",
        "the required singular fibres fit into the Euler number",
    )
    checks.note(
        "euler-budget-remainder", budget.remainder, "Euler number left for I1 fibres beside the required fibres"
    )

    _nef_bundle_diagnostics(checks, surface, sing, pa_bisection)

    k = section_class_coefficient(pa_bisection)
    checks.expect(
        "section-class-coefficient",
        k,
        0,
        "the bisection image is the minimal section of the ruled base",
    )

    pulled_canonical = surface.canonical + surface.curve_sum(entry.config.names)
    checks.expect(
        "canonical-plus-cycle-squared",
        surface.intersect(pulled_canonical, pulled_canonical),
        1,
        "self-intersection of the pulled-back canonical class of the contraction",
    )

    w = _check_contracted_model(checks, surface, entry.config.names, "degree-one")

    if spec.germ_checks:
        _germ_checks(checks, spec)

    return checks.result(f"{sing}" + (f"-{spec.fiber_variant}" if spec.fiber_variant else ""), (base, cover, model, surface, w))


def _check_catalog_match(checks: _Recorder, entry: CatalogEntry) -> None:
    hit = match_catalog(entry.config)
    checks.expect(
        "catalog-match",
        hit.label if hit else "none",
        entry.label,
        "the catalog recognises the type's exceptional configuration as its own entry",
    )


def _check_contracted_model(
    checks: _Recorder, surface: SurfaceModel, names: tuple[str, ...], degree: str
) -> SurfaceModel:
    """Contract the exceptional configuration to the stable model and check
    its kind, K^2, chi, ampleness and geometric genus; returns the model."""
    final = contract(surface, names)
    checks.expect(
        "contraction-kind",
        final.kind,
        "minimally-elliptic",
        f"the exceptional configuration contracts to a {degree} elliptic point",
    )
    w = final.model
    checks.expect("contracted-canonical-squared", w.k_squared, 1, "K^2 of the contracted model")
    checks.expect("contracted-euler-characteristic", w.chi, 3, "chi of the contracted model")
    checks.expect(
        "contracted-canonical-ample",
        nakai_check(w, w.canonical),
        "ample",
        "ampleness against every tracked curve",
    )
    checks.expect("geometric-genus", w.chi - 1, 2, "geometric genus from chi with irregularity zero")
    return w


def _check_exceptional_configuration(
    checks: _Recorder, surface: SurfaceModel, entry: CatalogEntry
) -> None:
    _check_adjunction(checks, surface, entry.config)
    computed = configuration_of(surface, entry.config.names)
    checks.expect(
        "exceptional-self-intersections",
        tuple(c.self_int for c in computed.components),
        tuple(c.self_int for c in entry.config.components),
        "computed self-intersections of the exceptional components",
    )
    checks.expect(
        "exceptional-genera",
        tuple(c.pa for c in computed.components),
        tuple(c.pa for c in entry.config.components),
        "computed arithmetic genera of the exceptional components",
    )
    contacts = [{(c.pair, c.mult) for c in config.contacts} for config in (computed, entry.config)]
    checks.expect(
        "exceptional-contacts",
        "match" if contacts[0] == contacts[1] else "mismatch",
        "match",
        "pairwise intersection numbers of the exceptional components",
    )
    _check_catalog_match(checks, entry)


def _check_adjunction(checks: _Recorder, model: SurfaceModel, catalog: CurveConfiguration) -> None:
    """Adjunction, 2 + E^2 + K.E = 2 p_a, from each catalog self-intersection
    and genus and the computed canonical degree."""
    ok = all(
        2 + c.self_int + model.intersect(model.canonical, model.curve_class(c.name)) == 2 * c.pa
        for c in catalog.components
    )
    checks.expect(
        "exceptional-adjunction-integral",
        "integral" if ok else "broken",
        "integral",
        "catalog self-intersections and genera satisfy adjunction against the computed canonical degrees",
    )


def _nef_bundle_diagnostics(
    checks: _Recorder, surface: SurfaceModel, sing: str, pa_bisection: int
) -> None:
    blown = blow_up(surface, {"F": 1}, exceptional="G2")
    fhat = blown.curve_class("F")
    e1hat = blown.curve_class("E1")
    ghat = blown.basis_class("G2")
    fiber = 2 * fhat + 2 * ghat
    bundle = blown.canonical + 2 * fiber + e1hat - 2 * ghat

    checks.expect(
        "nef-bundle-on-strict-half-fiber",
        blown.intersect(bundle, fhat),
        0,
        "the adjoint bundle is trivial on the strict half-fibre transform",
    )
    checks.expect(
        "nef-bundle-on-fiber",
        blown.intersect(bundle, fiber),
        2,
        "the adjoint bundle has degree two on fibres",
    )
    for name, value, anchor in (
        ("nef-bundle-on-bisection", blown.intersect(bundle, e1hat), "degree of the adjoint bundle on the bisection"),
        ("nef-bundle-squared", blown.intersect(bundle, bundle), "self-intersection of the adjoint bundle"),
    ):
        # the stated values hold for E12; E13 and E14 land on the engine values
        documented = DISCREPANCIES[name]
        checks.expect(name, value, documented.stated if sing == "E12" else documented, anchor)
    checks.note(
        "nef-bundle-on-exceptional",
        blown.intersect(bundle, ghat),
        "degree of the adjoint bundle on the exceptional curve over the half-fibre point",
    )
    checks.note(
        "nef-bundle-canonical-degree",
        blown.intersect(blown.canonical, bundle),
        "canonical degree of the adjoint bundle",
    )
    checks.note(
        "nef-bundle-euler-characteristic",
        blown.rr_chi(bundle),
        "Euler characteristic of the adjoint bundle by Riemann-Roch",
    )
    checks.note(
        "nef-bundle-pushforward-degree-sum",
        pa_bisection + 5,
        "degree sum of the pushforward of the adjoint bundle to the ruled base",
    )


_DECOMPOSITIONS = {
    6: (germ({(2, 0): 1, (0, 4): -1}), germ({(1, 0): 1, (0, 2): -2})),
    7: (germ({(2, 0): 1, (0, 5): -1}), germ({(1, 0): 1, (0, 2): -2})),
}


@functools.cache
def _normal_form_verdicts(profile: int) -> tuple[tuple[tuple[bool, int | None], ...], ThreeThreeVerdict]:
    """The sorted (is_33, profile) of the branch normal form x^3 + lam^2 x^2 y^2
    + y^profile at lam = 1, 2, 3, and the verdict on its fixed decomposition.

    Both depend on the profile alone, so each is computed once per process.
    """
    shapes = set()
    for lam in (Fraction(1), Fraction(2), Fraction(3)):
        verdict = detect_33_point(germ({(3, 0): 1, (2, 2): lam * lam, (0, profile): 1}))
        shapes.add((verdict.is_33, verdict.profile))
    residual, smooth = _DECOMPOSITIONS[profile]
    return tuple(sorted(shapes)), detect_33_point(germ_mul(residual, smooth), decomposition=(residual, smooth))


def _germ_checks(checks: _Recorder, spec: EnSpec) -> None:
    shapes, verdict = _normal_form_verdicts(spec.profile)
    checks.expect(
        "branch-germ-33-profile",
        list(shapes),
        [(True, spec.profile)],
        "the branch normal form has a [3,3]-point of the declared profile at lambda = 1, 2 and 3",
    )
    checks.expect(
        "branch-germ-decomposition-intersection",
        verdict.local_intersection,
        4,
        "the two branch pieces meet with local intersection number four",
    )
    expected_residual = (spec.profile - 6) + 3
    checks.expect(
        "branch-germ-residual-type",
        verdict.residual.label if verdict.residual else "none",
        f"A{expected_residual}",
        "A-type of the residual branch piece at the [3,3]-point",
    )


# ---------------------------------------------------------------------------
# The K3 (Z/W) route
# ---------------------------------------------------------------------------


class ZwSpec(NamedTuple):
    singularity: str  # Z11 | Z12 | Z13 | W12 | W13
    family_case: int | None = 1


# the degree-two types (stated Z^2 = -2) take the K3 route
_ZW_TYPES = tuple(label for label in EXCEPTIONAL_LABELS if catalog_entry(label).expected_self_int == -2)


def run_zw_pipeline(spec: ZwSpec) -> PipelineResult:
    sing = spec.singularity
    if sing not in _ZW_TYPES:
        raise ValueError(f"not a K3-route type: {sing!r}")
    checks = _Recorder()
    entry = catalog_entry(sing)

    names = entry.config.names
    gram: dict[str, dict[str, int]] = {"G": {"G": -1}}
    for component, incidences in zip(entry.config.components, entry.blow_ups):
        gram.setdefault("G", {})[component.name] = incidences
        gram[component.name] = {component.name: component.self_int}
    for contact in entry.config.contacts:
        gram.setdefault(contact.first, {})[contact.second] = contact.mult
    resolution = declare_surface(
        ("G",) + names,
        gram,
        {"G": 1},
        2,
        [("G", {"G": 1})] + [(n, {n: 1}) for n in names],
    )

    cycle = resolution.curve_sum(names)
    checks.expect(
        "exceptional-cycle-squared",
        resolution.intersect(cycle, cycle),
        -2,
        "self-intersection of the reduced exceptional cycle",
    )
    checks.expect(
        "exceptional-canonical-degree",
        resolution.intersect(resolution.canonical, cycle),
        2,
        "canonical degree of the exceptional cycle",
    )
    checks.expect(
        "minimal-resolution-canonical-squared",
        resolution.k_squared,
        -1,
        "K^2 of the minimal resolution",
    )
    _check_adjunction(checks, resolution, entry.config)
    _check_catalog_match(checks, entry)
    pulled = resolution.canonical + cycle
    checks.expect(
        "canonical-plus-cycle-squared",
        resolution.intersect(pulled, pulled),
        1,
        "self-intersection of the pulled-back canonical class of the contraction",
    )
    checks.expect(
        "cycle-meets-blowdown-curve",
        resolution.intersect(cycle, resolution.curve_class("G")),
        2,
        "the exceptional cycle meets the (-1)-curve twice",
    )

    blowdown = contract(resolution, ["G"])
    checks.expect(
        "blowdown-kind", blowdown.kind, "blow-down", "the extra curve is a smooth (-1)-curve"
    )
    k3 = blowdown.model
    checks.expect(
        "blowdown-canonical-trivial",
        "trivial" if k3.canonical.is_zero else str(k3.canonical),
        "trivial",
        "the canonical class of the blow-down vanishes",
    )
    checks.expect("blowdown-euler-characteristic", k3.chi, 2, "chi of the K3 carrier")

    image_cycle = k3.curve_sum(names)
    k3 = track(k3, "Ecycle", image_cycle.coeff_map(), irreducible=len(names) == 1)
    checks.expect(
        "pushed-cycle-squared",
        k3.intersect(image_cycle, image_cycle),
        2,
        "self-intersection of the pushed exceptional cycle",
    )
    checks.expect(
        "pushed-cycle-genus", k3.adjunction_pa(image_cycle), 2, "arithmetic genus of the pushed cycle"
    )
    checks.expect(
        "pushed-cycle-euler-characteristic",
        k3.rr_chi(image_cycle),
        3,
        "Euler characteristic of the pushed cycle by Riemann-Roch",
    )

    ade_names = [
        name
        for name in names
        if k3.intersect(k3.curve_class(name), image_cycle) == 0
    ]
    # the A_n of the branch sextic's mark; every family of one singularity has the same
    mark = _family_for(sing, 1).singular_mark
    expected_ade = "none" if mark is None else f"A{mark[1]}"
    if ade_names:
        ade = contract(k3, ade_names)
        ade_label, barred = ade.label, ade.model
    else:
        ade_label, barred = "none", k3
    checks.expect(
        "ade-contraction",
        ade_label,
        expected_ade,
        "rational double point produced by contracting the trivial part of the cycle",
    )
    ebar = barred.curve_class("Ecycle")
    checks.expect(
        "model-cycle-squared",
        barred.intersect(ebar, ebar),
        2,
        "self-intersection of the cycle on the singular K3 model",
    )
    genus_bar = barred.adjunction_pa(ebar)
    checks.expect(
        "model-cycle-genus", genus_bar, 2, "arithmetic genus of the cycle on the singular K3 model"
    )
    degree = 2 * genus_bar - 2 + 4
    checks.expect(
        "double-cover-branch-degree",
        degree,
        6,
        "Riemann-Hurwitz branch degree of the cycle over its image line",
    )

    double_plane = _double_plane()
    checks.expect(
        "double-plane-euler-characteristic",
        double_plane.chi,
        k3.chi,
        "the double plane branched in a sextic has the invariants of the K3 carrier",
    )
    checks.expect(
        "double-plane-canonical-trivial",
        "trivial" if double_plane.canonical.is_zero else str(double_plane.canonical),
        "trivial",
        "canonical class of the double plane",
    )

    w = _check_contracted_model(checks, resolution, names, "degree-two")

    if spec.family_case is not None:
        fam = _family_for(sing, spec.family_case)
        _family_checks(checks, fam)

    models = (resolution, k3, barred, w)
    return checks.result(f"{sing}-case{spec.family_case}" if spec.family_case else sing, models)


def _double_plane() -> SurfaceModel:
    """The double plane branched in a sextic."""
    plane = make_p2()
    return double_cover(plane, Fraction(1, 2) * branch_class_for(plane))


def _family_for(sing: str, case: int) -> SexticFamily:
    for fam in FAMILIES:
        if fam.singularity == sing and fam.case == case:
            return fam
    raise ValueError(f"no branch family for {sing} case {case}")


def _family_checks(checks: _Recorder, fam: SexticFamily) -> None:
    verification = verify_family(fam)
    checks.expect(
        "family-restriction-orders",
        verification.orders,
        fam.expected_orders,
        "multiplicity pattern of the branch sextic along the distinguished line",
    )
    checks.expect(
        "family-restriction-residual",
        verification.residual_degree,
        6 - sum(fam.expected_orders),
        "unaccounted degree of the restriction",
    )
    if fam.singular_mark is not None:
        point, n = fam.singular_mark
        checks.expect(
            "family-singular-mark",
            verification.mark.label,
            f"A{n}",
            f"curve singularity of the branch sextic at {point}",
        )
    checks.expect(
        "family-smoothness-scan",
        "inconclusive" if verification.excess is None else verification.excess,
        0,
        "no rational singular points beyond the marked one",
    )
    checks.expect(
        "family-orbit-count",
        verification.counts.orbit,
        fam.claimed_count if fam.stated_mark_n is None else DISCREPANCIES["family-orbit-count"],
        "affine family dimension minus the stabilizer of the markings",
    )
    if fam.stated_mark_n is not None:
        checks.note(
            "family-orbit-count-variant",
            verification.counts.variant_orbit,
            "orbit dimension count with the full mark in place of the stated one",
        )
    checks.note(
        "stabilizer-dim",
        verification.counts.stabilizer,
        "dimension of the projectivity stabilizer of the marked points and the line",
    )
    checks.note(
        "affine-parameters",
        verification.counts.affine,
        "affine parameter dimension of the branch sextic family",
    )


def run_riemann_hurwitz_check() -> PipelineResult:
    """The branch-degree computation across all five K3-route types.

    No scenario reaches it: every family's pipeline scenario pins these
    records.  It stays because the benchmark's tracer (``bench/tracing.py``)
    wraps it by name.
    """
    checks = _Recorder()
    for sing in _ZW_TYPES:
        result = run_zw_pipeline(ZwSpec(sing, family_case=None))
        for name in (
            "pushed-cycle-squared",
            "pushed-cycle-genus",
            "pushed-cycle-euler-characteristic",
            "double-cover-branch-degree",
            "ade-contraction",
        ):
            checks.records.append(result.check(name)._replace(name=f"{sing.lower()}-{name}"))
    return checks.result("riemann-hurwitz", ())
