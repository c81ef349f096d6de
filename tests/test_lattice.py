from __future__ import annotations

import random
from fractions import Fraction

import pytest

import unimodal.lattice as lattice
from unimodal.configurations import CurveConfiguration, Component, Contact, catalog_entry
from unimodal.lattice import (
    ContractionError,
    LatticeError,
    SharedMoves,
    attach_resolution,
    blow_up,
    contract,
    declare_surface,
    double_cover,
    make_hirzebruch,
    make_p2,
    nakai_check,
    replay,
    split_curve,
    track,
)


def F(x):
    return Fraction(x)


@pytest.mark.parametrize("create", [make_p2, lambda: make_hirzebruch(0), lambda: make_hirzebruch(1)])
def test_creation_moves_track_no_curve(create):
    assert create().tracked == ()


def test_p2_invariants():
    p2 = make_p2()
    h = p2.basis_class("H")
    assert p2.intersect(h, h) == 1
    assert p2.canonical.coeff_map() == {"H": F(-3)}
    assert p2.k_squared == 9
    assert p2.chi == 1
    assert p2.c2 == 3  # 12*chi = K^2 + c2


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_hirzebruch_invariants(n):
    fn = make_hirzebruch(n)
    c, g = fn.basis_class("Cinf"), fn.basis_class("Gamma")
    assert fn.intersect(c, c) == -n
    assert fn.intersect(c, g) == 1
    assert fn.intersect(g, g) == 0
    assert fn.canonical == fn.divisor({"Cinf": -2, "Gamma": -(n + 2)})
    assert fn.k_squared == 8
    assert fn.c2 == 4


def test_hirzebruch_one_canonical_matches_section_formula():
    # K = -2*Cinf - (2 + 1 - pa(E1))*Gamma with pa(E1) = 0 picks out F1.
    f1 = make_hirzebruch(1)
    assert f1.canonical == f1.divisor({"Cinf": -2, "Gamma": -3})
    assert f1.k_squared == 8


def test_hirzebruch_zero_gram_and_adjunction():
    f0 = make_hirzebruch(0)
    assert [list(r) for r in f0.lattice.gram] == [[0, 1], [1, 0]]
    f2 = make_hirzebruch(2)
    c = f2.basis_class("Cinf")
    assert f2.intersect(f2.canonical, c) == 0
    assert f2.adjunction_pa(c) == 0


def test_negative_twist_rejected():
    with pytest.raises(ValueError):
        make_hirzebruch(-1)


def test_intersect_bilinear_expansion():
    f1 = make_hirzebruch(1)
    d = f1.divisor({"Cinf": 4, "Gamma": 8})
    assert f1.intersect(d, f1.basis_class("Gamma")) == 4
    brute = sum(
        a * b * f1.intersect(f1.basis_class(x), f1.basis_class(y))
        for a, x in [(4, "Cinf"), (8, "Gamma")]
        for b, y in [(0, "Cinf"), (1, "Gamma")]
    )
    assert brute == 4


def test_intersect_rejects_foreign_class():
    f0, f1 = make_hirzebruch(0), make_hirzebruch(1)
    with pytest.raises(LatticeError):
        f0.intersect(f0.basis_class("Cinf"), f1.basis_class("Cinf"))


def test_riemann_roch_basics():
    p2 = make_p2()
    assert p2.rr_chi(p2.zero()) == p2.chi
    sextic = p2.divisor({"H": 6})
    assert p2.adjunction_pa(sextic) == 10  # (d-1)(d-2)/2 at d = 6
    for d in range(1, 7):
        cls = p2.divisor({"H": d})
        assert p2.adjunction_pa(cls) == (d - 1) * (d - 2) // 2


def test_rr_chi_on_k3_carrier():
    # chi = 2, K = 0: a class with D^2 = 2 has pa = 2 and chi(D) = 3.
    from unimodal.lattice import declare_surface

    k3 = declare_surface(["E"], {"E": {"E": 2}}, {}, 2, [("Ecycle", {"E": 1})])
    cls = k3.curve_class("Ecycle")
    assert k3.adjunction_pa(cls) == 2
    assert k3.rr_chi(cls) == 3


def test_blow_up_p2_is_f1():
    p2 = make_p2()
    bl = blow_up(p2, exceptional="G")
    assert bl.k_squared == 8
    assert bl.chi == 1
    assert bl.c2 == p2.c2 + 1
    # change of basis {Gamma -> H - G, Cinf -> G} is an isometry onto F1
    f1 = make_hirzebruch(1)
    cinf = bl.basis_class("G")
    gamma = bl.divisor({"H": 1, "G": -1})
    images = [cinf, gamma]
    for i, a in enumerate(["Cinf", "Gamma"]):
        for j, b in enumerate(["Cinf", "Gamma"]):
            assert bl.intersect(images[i], images[j]) == f1.intersect(
                f1.basis_class(a), f1.basis_class(b)
            )
    assert bl.canonical == -2 * cinf + (-3) * gamma


def test_blow_up_pullback_orthogonal_to_exceptional():
    f0 = make_hirzebruch(0)
    bl = blow_up(f0, exceptional="G")
    g = bl.basis_class("G")
    for name in ("Cinf", "Gamma"):
        assert bl.intersect(bl.basis_class(name), g) == 0


def test_blow_up_strict_transform_of_nodal_cubic():
    p2 = track(make_p2(), "C", {"H": 3})  # pa 1: a nodal cubic
    assert p2.curve("C").pa == 1
    bl = blow_up(p2, {"C": 2}, exceptional="G")
    strict = bl.curve("C")
    assert strict.cls == bl.divisor({"H": 3, "G": -2})
    assert bl.intersect(strict.cls, strict.cls) == 5
    assert strict.pa == 0


def test_blow_up_rejects_excess_multiplicity():
    p2 = track(make_p2(), "L", {"H": 1})
    with pytest.raises(LatticeError):
        blow_up(p2, {"L": 2}, exceptional="G")


def test_blow_up_rejects_unknown_curve():
    with pytest.raises(LatticeError):
        blow_up(make_p2(), {"nope": 1})


def test_double_cover_k3_sextic():
    p2 = make_p2()
    cover = double_cover(p2, p2.divisor({"H": 3}))
    assert cover.canonical.is_zero
    assert cover.chi == 2
    assert cover.k_squared == 0


def test_double_cover_f0_branch():
    f0 = make_hirzebruch(0)
    half = f0.divisor({"Cinf": 2, "Gamma": 3})
    cover = double_cover(f0, half)
    assert cover.canonical == cover.divisor({"Gamma_pb": 1})
    assert cover.k_squared == 0
    assert cover.chi == 3


def test_double_cover_f1_branch_class_and_pullback_doubling():
    f1 = make_hirzebruch(1)
    half = f1.divisor({"Cinf": 2, "Gamma": 4})
    cover = double_cover(f1, half)
    for a in ("Cinf", "Gamma"):
        for b in ("Cinf", "Gamma"):
            up = cover.intersect(cover.basis_class(f"{a}_pb"), cover.basis_class(f"{b}_pb"))
            down = f1.intersect(f1.basis_class(a), f1.basis_class(b))
            assert up == 2 * down


def test_double_cover_branch_components_halved():
    f0 = track(make_hirzebruch(0), "E1", {"Cinf": 1})
    f0 = track(f0, "G", {"Gamma": 1})
    f0 = track(f0, "D", {"Cinf": 4, "Gamma": 5})
    half = f0.divisor({"Cinf": 2, "Gamma": 3})
    cover = double_cover(f0, half, ["G", "D"])
    # every tracked curve keeps its name, in its place
    assert [c.name for c in cover.tracked] == ["E1", "G", "D"]
    gbar = cover.curve("G")
    assert gbar.cls == Fraction(1, 2) * cover.basis_class("Gamma_pb")
    assert cover.intersect(gbar.cls, gbar.cls) == 0
    assert gbar.pa == 1  # model genus before the elliptic point is resolved
    dbar = cover.curve("D")
    assert dbar.cls == cover.divisor({"Cinf_pb": 2, "Gamma_pb": Fraction(5, 2)})
    e1bar = cover.curve("E1")
    assert e1bar.cls == cover.basis_class("Cinf_pb")  # not a branch curve: its pullback
    assert cover.intersect(gbar.cls, e1bar.cls) == 1  # B~ . pullback = B . C
    assert cover.intersect(gbar.cls, dbar.cls) == 2  # (B . B')/2 = 4/2


def test_double_cover_keeps_the_name_of_a_curve_off_the_branch():
    f1 = track(make_hirzebruch(1), "S", {"Cinf": 1})
    cover = double_cover(f1, f1.divisor({"Cinf": 2, "Gamma": 4}))
    (section,) = cover.tracked
    assert section.name == "S"
    assert section.cls == cover.basis_class("Cinf_pb")
    assert cover.intersect(section.cls, section.cls) == -2


def test_double_cover_rejects_oversized_branch():
    f0 = track(make_hirzebruch(0), "big", {"Cinf": 5, "Gamma": 1})
    with pytest.raises(ValueError):
        double_cover(f0, f0.divisor({"Cinf": 2, "Gamma": 3}), ["big"])


def test_contract_single_minus_one_curve_roundtrip():
    f1 = make_hirzebruch(1)
    bl = blow_up(f1, exceptional="G")
    assert bl.c2 == f1.c2 + 1
    res = contract(bl, ["G"])
    assert res.kind == "blow-down"
    back = res.model
    assert back.chi == f1.chi
    assert back.k_squared == f1.k_squared
    assert [list(r) for r in back.lattice.gram] == [list(r) for r in f1.lattice.gram]
    assert back.canonical.coeffs == f1.canonical.coeffs


def test_contract_a1_is_crepant():
    from unimodal.lattice import declare_surface

    s = declare_surface(
        ["A", "H"],
        {"A": {"A": -2}, "H": {"H": 1}},
        {"H": -3},
        1,
        [("A", {"A": 1})],
    )
    res = contract(s, ["A"])
    assert res.kind == "rational-double-point"
    assert res.label == "A1"
    assert res.model.chi == s.chi
    assert res.model.k_squared == s.k_squared


def test_contract_minus_three_curve_rejected():
    from unimodal.lattice import declare_surface

    s = declare_surface(
        ["A", "H"],
        {"A": {"A": -3}, "H": {"H": 1}},
        {"A": Fraction(-1, 3), "H": -3},  # K.A = 1: a smooth rational (-3)-curve
        1,
        [("A", {"A": 1})],
    )
    assert s.curve("A").pa == 0
    with pytest.raises(ContractionError) as contracted:
        contract(s, ["A"])
    # attaching it is refused by the same rule, with the same reason
    with pytest.raises(ContractionError) as attached:
        attach_resolution(make_p2(), CurveConfiguration((Component("A", -3, 0),)))
    assert str(attached.value) == str(contracted.value)


def test_contract_rejects_a_configuration_that_is_not_negative_definite():
    f0 = track(make_hirzebruch(0), "Cinf", {"Cinf": 1})  # the section has Cinf^2 = 0
    with pytest.raises(ContractionError, match="not negative definite"):
        contract(f0, ["Cinf"])
    f1 = track(blow_up(make_p2(), exceptional="G"), "L", {"H": 1, "G": -1})
    with pytest.raises(ContractionError, match="not negative definite"):
        contract(f1, ["L", "G"])  # L^2 = 0 and G^2 = -1 meet once: indefinite


def test_contract_elliptic_configuration():
    # Elliptic-fibration carrier: K = F, F^2 = 0, F.E = 1, E^2 = -1, pa(E) = 1.
    from unimodal.lattice import declare_surface

    x = declare_surface(
        ["F", "E"],
        {"F": {"F": 0, "E": 1}, "E": {"E": -1}},
        {"F": 1},
        2,
        [("F", {"F": 1}), ("E", {"E": 1})],
    )
    assert x.curve("E").pa == 1
    res = contract(x, ["E"])
    assert res.kind == "minimally-elliptic"
    assert res.label == "elliptic of degree 1"
    w = res.model
    assert w.chi == 3
    assert w.k_squared == 1
    assert nakai_check(w, w.canonical) == "ample"


def test_attach_resolution_inverts_elliptic_contraction():
    from unimodal.lattice import declare_surface

    singular = declare_surface(["K"], {"K": {"K": 1}}, {"K": 1}, 3)
    config = CurveConfiguration((Component("E", -1, 1),))
    resolved = attach_resolution(singular, config)
    assert resolved.chi == 2
    assert resolved.canonical == resolved.divisor({"K": 1, "E": -1})
    assert resolved.k_squared == 0
    assert resolved.curve("E").pa == 1


@pytest.mark.parametrize(
    "config",
    [
        CurveConfiguration((Component("G", -1, 0),)),
        catalog_entry("A2").config,
        catalog_entry("T236").config,
        catalog_entry("T237").config,
    ],
    ids=["smooth", "A2", "T236", "T237"],
)
@pytest.mark.parametrize("base", [make_p2, lambda: make_hirzebruch(1)], ids=["P2", "F1"])
def test_contracting_an_attached_resolution_restores_the_model(config, base):
    model = base()
    resolved = attach_resolution(model, config)
    back = contract(resolved, config.names).model
    assert back.lattice == model.lattice
    assert back.canonical == model.canonical
    assert back.chi == model.chi
    assert back.tracked == model.tracked


def test_attach_ade_resolution_is_crepant():
    from unimodal.lattice import declare_surface

    s = declare_surface(["H"], {"H": {"H": 2}}, {}, 2)
    config = CurveConfiguration(
        (Component("A1", -2, 0), Component("A2", -2, 0)),
        (Contact("A1", "A2", 1),),
    )
    resolved = attach_resolution(s, config)
    assert resolved.chi == s.chi
    assert resolved.canonical.is_zero
    assert resolved.curve("A1").pa == 0


def test_split_curve_symmetric_halves():
    from unimodal.lattice import declare_surface

    s = declare_surface(
        ["f", "A"],
        {"f": {"f": 0}, "A": {"A": -2}},
        {},
        2,
        [("A", {"A": 1})],
    )
    s = track(s, "Cq", {"f": 1, "A": -1}, irreducible=False)
    out = split_curve(s, "Cq", ("E2", "E3"), -2, {"A": 1})
    e2, e3 = out.curve_class("E2"), out.curve_class("E3")
    assert out.intersect(e2, e2) == -2
    assert out.intersect(e3, e3) == -2
    assert out.intersect(e2, e3) == 1
    assert out.intersect(e2, out.basis_class("A")) == 1
    assert out.intersect(e3, out.basis_class("A")) == 1
    assert e2 + e3 == out.divisor({"f": 1, "A": -1})


@pytest.mark.parametrize("into", [("Cq", "E3"), ("E2", "Cq")])
def test_split_curve_may_give_a_half_the_name_of_the_split_curve(into):
    out = split_curve(_split_carrier(), "Cq", into, -2, {"A": 1})
    assert [c.name for c in out.tracked] == ["A", *into]
    assert out.curve_sum(into) == out.divisor({"f": 1, "A": -1})


@pytest.mark.parametrize("taken", ["L", "f", "A"], ids=["tracked", "basis", "tracked-basis"])
def test_split_curve_refuses_a_name_in_use(taken):
    carrier = track(_split_carrier(), "L", {"f": 1})
    with pytest.raises(LatticeError, match=f"name '{taken}' already in use"):
        split_curve(carrier, "Cq", (taken, "E3"), -2, {"A": 1})
    with pytest.raises(LatticeError, match=f"name '{taken}' already in use"):
        split_curve(carrier, "Cq", ("E2", taken), -2, {"A": 1})


def test_track_requires_integral_genus():
    f0 = make_hirzebruch(0)
    with pytest.raises(LatticeError):
        track(f0, "half", {"Cinf": Fraction(1, 2)})


def test_nakai_verdicts():
    f0 = track(make_hirzebruch(0), "Cinf", {"Cinf": 1})
    f0 = track(f0, "Gamma0", {"Gamma": 1})
    ample = f0.divisor({"Cinf": 1, "Gamma": 1})
    assert nakai_check(f0, ample) == "ample"
    fiber = f0.divisor({"Gamma": 1})
    assert nakai_check(f0, fiber) == "nef-not-ample"
    assert nakai_check(f0, f0.canonical) == "not-nef"


def test_noether_number_changes():
    p2 = make_p2()
    bl = blow_up(p2, exceptional="G")
    assert bl.c2 - p2.c2 == 1
    res = contract(bl, ["G"])
    assert res.model.c2 == p2.c2


def _resolved_cover():
    f0 = track(make_hirzebruch(0), "E1", {"Cinf": 1})
    f0 = track(f0, "G", {"Gamma": 1})
    cover = double_cover(f0, f0.divisor({"Cinf": 2, "Gamma": 3}), ["G"])
    config = CurveConfiguration((Component("Fhat", -1, 1),))
    return attach_resolution(cover, config, {"G": {"Fhat": 1}, "E1": {"Fhat": 1}})


def test_provenance_replay_bit_for_bit():
    final = contract(_resolved_cover(), ["G"]).model
    assert replay(final.provenance) == final
    # a record equals the plain tuple of its fields, so equality alone would
    # not see the configuration logged as a bare tuple
    (step,) = [s for s in final.provenance if s.op == "attach_resolution"]
    assert type(step.args[0]) is CurveConfiguration


def test_provenance_keeps_the_arguments_as_they_were_passed():
    center = {"C": 2}
    blown = blow_up(track(make_p2(), "C", {"H": 6}), center, exceptional="G")
    through = {"C": {"E": 1}}
    resolved = attach_resolution(blown, CurveConfiguration((Component("E", -2, 0),)), through)
    center["C"] = 0
    through["C"]["E"] = 0
    through["G"] = {"E": 1}
    assert replay(blown.provenance) == blown
    assert replay(resolved.provenance) == resolved
    hash(resolved.provenance)  # immutable all the way down


def test_inside_a_pass_a_move_is_shared_and_replay_rebuilds_it():
    with SharedMoves():
        model = _resolved_cover()
        assert _resolved_cover() is model
        rebuilt = replay(model.provenance)
        assert rebuilt == model and rebuilt is not model
        assert contract(model, ["G"]) is contract(model, ["G"])
    again = _resolved_cover()
    assert again == model and again is not model


def _split_carrier():
    s = declare_surface(["f", "A"], {"f": {"f": 0}, "A": {"A": -2}}, {}, 2, [("A", {"A": 1})])
    return track(s, "Cq", {"f": 1, "A": -1}, irreducible=False)


# one call of each public move, building its arguments afresh each time
_MOVES = {
    "make_p2": make_p2,
    "make_hirzebruch": lambda: make_hirzebruch(1),
    "declare_surface": lambda: declare_surface(["E"], {"E": {"E": 2}}, {}, 2, [("E", {"E": 1})]),
    "track": lambda: track(make_p2(), "L", {"H": 1}),
    "attach_resolution": lambda: attach_resolution(make_p2(), CurveConfiguration((Component("E", -2, 0),))),
    "blow_up": lambda: blow_up(track(make_p2(), "C", {"H": 6}), {"C": 2}),
    "double_cover": lambda: double_cover(make_p2(), make_p2().divisor({"H": 3})),
    "split_curve": lambda: split_curve(_split_carrier(), "Cq", ("E2", "E3"), -2, {"A": 1}),
    "contract": lambda: contract(blow_up(make_p2()), ["G"]),
}


@pytest.mark.parametrize("move", list(_MOVES))
def test_every_move_is_shared_inside_a_pass_and_replays(move):
    assert len(_MOVES) == len(lattice._REPLAY)  # a case for every replayable move
    call = _MOVES[move]
    with SharedMoves():
        first = call()
        assert call() is first
    again = call()
    assert again == first and again is not first
    model = first.model if move == "contract" else first
    assert replay(model.provenance) == model


def test_inside_a_pass_a_move_that_raises_raises_again(monkeypatch):
    runs = []
    point_kind = lattice._point_kind

    def counting(*args):
        runs.append(1)
        return point_kind(*args)

    monkeypatch.setattr(lattice, "_point_kind", counting)
    with SharedMoves():
        line = track(make_p2(), "L", {"H": 1})
        for _ in range(2):
            with pytest.raises(ContractionError):
                contract(line, ["L"])
    assert runs == [1, 1]


@pytest.mark.parametrize(
    "gram",
    [
        ((F(-1), F(1)), (F(2), F(0))),  # not symmetric
        ((F(-1), F(1)), (F(1),)),  # a short row
        ((F(-1), F(1)),),  # a missing row
        ((F(-1), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1))),  # too many rows
    ],
)
def test_malformed_gram_is_refused(gram):
    from unimodal.lattice import IntersectionLattice

    with pytest.raises(LatticeError):
        IntersectionLattice(("a", "b"), gram)


def test_pairing_symmetry_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        entries = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                entries[j][i] = entries[i][j]
        from unimodal.lattice import IntersectionLattice, DivisorClass

        lat = IntersectionLattice(
            tuple(f"b{i}" for i in range(n)), tuple(tuple(row) for row in entries)
        )
        a = DivisorClass(lat, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)))
        b = DivisorClass(lat, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)))
        assert a.dot(b) == b.dot(a)
