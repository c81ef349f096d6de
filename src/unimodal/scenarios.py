"""Scenario files, their execution, and machine-readable reports.

A scenario is a JSON document (conventionally ``*.scn``) with a schema
version, a kind, a payload and a block of expected assertions.  Every value
in it is read here, by one rule per kind of value, and one per object: an
object names its keys, and a key it does not name, a missing required key or a
key written twice is malformed input.  The other modules take typed values
only.  Reports are
JSON with sorted keys; integers and exact fractions travel as strings, never
as floating point.  Every reported value is a `pipelines.CheckRecord` and
every status comes from `pipelines.judge`: a value that no claim states passes
as itself, a "flagged" status is reserved for the documented discrepancies
between stated and recomputed values and can never mask a computation error,
and a pin can only confirm a record or turn it into a failure.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Mapping, NamedTuple

from . import __version__
from .configurations import (
    MAX_COMPONENTS,
    Component,
    Contact,
    CurveConfiguration,
    blown_up_fiber,
    classify_minimally_elliptic,
    is_negative_definite,
    isomorphic,
    match_catalog,
    recognize_kodaira_fiber,
)
from .lattice import SharedMoves
from .pipelines import (
    FLAG_KINDS,
    CheckRecord,
    EnSpec,
    PipelineResult,
    ZwSpec,
    judge,
    run_en_pipeline,
    run_zw_pipeline,
)
from .planecurves import (
    MAX_DEGREE,
    Germ,
    HomogeneousForm,
    MarkedPoint,
    an_type_at,
    detect_33_point,
    germ,
    germ_of,
    linear_form,
    mult_sequence,
    restrict_to_line,
    stabilizer_dim,
)
from .rationals import plain

SCHEMA_VERSION = "1"
KINDS = ("pipeline", "config-check", "plane-check")
# An an-type candidate c caps the Milnor-number search of `an_type_at` at
# b = 16c + 16.  At c = 8 a germ whose Milnor number lies beyond that cap (a
# disguised A_200) exhausts the search in about a minute on a 2-core machine.
MAX_CANDIDATE = 8


class ScenarioError(ValueError):
    """Malformed scenario input; maps to exit code 2."""


class ExpectedEntry(NamedTuple):
    value: str
    claimed: str | None = None
    flag: str | None = None


class Scenario(NamedTuple):
    name: str
    kind: str
    payload: Mapping
    expected: tuple[tuple[str, ExpectedEntry], ...]


class ScenarioReport(NamedTuple):
    name: str
    kind: str
    assertions: tuple[CheckRecord, ...]

    def count(self, status: str) -> int:
        return sum(1 for a in self.assertions if a.status == status)

    @property
    def exit_code(self) -> int:
        return 1 if self.count("fail") else 0


class Report(NamedTuple):
    engine: str
    schema: str
    scenarios: tuple[ScenarioReport, ...]

    def count(self, status: str) -> int:
        return sum(s.count(status) for s in self.scenarios)

    @property
    def flags(self) -> tuple[str, ...]:
        kinds = {
            a.flag
            for s in self.scenarios
            for a in s.assertions
            if a.status == "flagged" and a.flag
        }
        return tuple(sorted(kinds))

    @property
    def exit_code(self) -> int:
        return max((s.exit_code for s in self.scenarios), default=0)


# ---------------------------------------------------------------------------
# Reading values: the format of a scenario file, one rule per kind of value
# and one per object
# ---------------------------------------------------------------------------
# Every value of a scenario file is read here, by the rules the README states,
# and every object through `_fields`; the kernels take typed values only.
# Anything else is ScenarioError (exit 2).

# Bounds on a rational read from input.  With the polynomial kernels of
# `rationals`, a germ at the bounds costs tens of milliseconds (timings at
# `planecurves.MAX_DEGREE`).
MAX_COEFF_BITS = 64  # numerator and denominator of a rational
MAX_COEFF_CHARS = 64  # length of a rational string
_MAX_EXPONENT_DIGITS = 3  # digits of a decimal exponent, as in "1e-5"

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "true or false", int: "an integer",
               type(None): "null"}


def _typed(value, what: str, *kinds: type):
    """``value`` when its JSON type is exactly one of ``kinds``: a boolean is no
    integer, 2.7 no degree, the string "false" no flag and "10" no list."""
    if type(value) not in kinds:
        meaning = " or ".join(_JSON_TYPES[kind] for kind in kinds)
        raise ScenarioError(f"{what} must be {meaning}, got {value!r:.40}")
    return value


# The default of an optional key whose absence means something of its own: a
# written ``null`` is a value, read by the key's rule like any other.
_ABSENT = object()


def _fields(data, what: str, required: tuple[str, ...], optional: Mapping[str, object] = {}) -> list:
    """The values of a JSON object ``data``: every key of ``required``, then
    every key of ``optional``, an absent one as its default.  A key outside both
    is refused, so a misspelt or retired key is never dropped silently, and so
    is a missing required key; each message names the key."""
    data = _typed(data, what, dict)
    for key in data:
        if key not in optional and key not in required:
            raise ScenarioError(f"{what} has an unknown key {key!r:.40}")
    values = []
    for key in required:
        if key not in data:
            raise ScenarioError(f"{what} needs the key {key!r}")
        values.append(data[key])
    for key, default in optional.items():
        values.append(data.get(key, default))
    return values


def _unique(pairs: list) -> dict:
    """A JSON object of distinct keys: a key written twice is never read as its last copy."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen: set[str] = set()
        twice = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ScenarioError(f"the key {twice!r:.40} is written twice in one object")
    return data


def decimal_int(text: str) -> int | None:
    """The integer a plain decimal string names, else None: surrounding spaces
    are stripped, "−" reads as "-", and one sign is allowed."""
    if text.isdecimal():  # most exponents and coefficients, read without a copy
        return int(text)
    text = text.replace("−", "-").strip()
    if (text[1:] if text[:1] in ("-", "+") else text).isdecimal():
        return int(text)
    return None


def rational_from_json(value) -> int | Fraction:
    """A rational, as `rationals.plain` stores it.

    A string has at most :data:`MAX_COEFF_CHARS` characters.  A plain decimal
    one is read by :func:`decimal_int`, without a Fraction; any other has its
    decimal exponent bounded before :class:`Fraction` expands it, so
    "1e100000" is refused at once, and is read by :class:`Fraction` with
    surrounding spaces stripped and "−" as "-".  Numerator and denominator have
    at most :data:`MAX_COEFF_BITS` bits.
    """
    if type(value) is int:
        q = value
    elif type(value) is not str:
        raise ScenarioError(f"a rational must be a string or an integer, got {value!r:.40}")
    elif len(value) > MAX_COEFF_CHARS:
        raise ScenarioError(f"rational {value!r:.40} is longer than {MAX_COEFF_CHARS} characters")
    else:
        q = decimal_int(value)
        if q is None:
            if len(value.lower().partition("e")[2].strip().lstrip("+-")) > _MAX_EXPONENT_DIGITS:
                raise ScenarioError(f"rational {value!r} has an exponent past {_MAX_EXPONENT_DIGITS} digits")
            try:
                q = plain(Fraction(value.replace("−", "-").strip()))
            except ZeroDivisionError:
                raise ScenarioError(f"zero denominator in {value!r}") from None
    if max(abs(q.numerator), q.denominator).bit_length() > MAX_COEFF_BITS:
        raise ScenarioError(f"rational {value!r:.40} exceeds {MAX_COEFF_BITS} bits")
    return q


def integral_from_json(value) -> int:
    """A rational that is integral: a self-intersection, genus or contact multiplicity."""
    q = rational_from_json(value)
    if type(q) is not int:
        raise ScenarioError(f"expected an integer, got {value!r:.40}")
    return q


def _rationals(value, what: str) -> list[int | Fraction]:
    """A point's coordinates or a line's coefficients: a list of three rationals."""
    items = _typed(value, what, list)
    if len(items) != 3:
        raise ScenarioError(f"{what} is a list of three rationals, got {items!r:.40}")
    return [rational_from_json(c) for c in items]


def _names(value, what: str) -> tuple[str, ...]:
    return tuple(_typed(name, "a component name", str) for name in _typed(value, what, list))


def _monomial(key: str, arity: int) -> tuple[int, ...]:
    """Exponents "i,j,..." of a monomial, each a decimal integer (`decimal_int`)
    at least 0, of total degree at most `planecurves.MAX_DEGREE`."""
    parts = key.split(",")
    if len(parts) != arity:
        raise ScenarioError(f"monomial {key!r:.40} needs {arity} exponents")
    exponent = tuple(map(decimal_int, parts))
    if None in exponent:
        raise ScenarioError(f"monomial {key!r:.40} has an exponent that is no decimal integer")
    if min(exponent) < 0 or sum(exponent) > MAX_DEGREE:
        raise ScenarioError(f"monomial {key!r:.40} is outside exponents 0.. and degree {MAX_DEGREE}")
    return exponent


def _terms(value, what: str, arity: int) -> dict:
    """A map of monomials to rationals, in which no monomial is written twice ("2,0" and "02,0")."""
    terms = {}
    for key, c in _typed(value, what, dict).items():
        exponent = _monomial(key, arity)
        if exponent in terms:
            raise ScenarioError(f"{what} write the monomial {key!r:.40} twice")
        terms[exponent] = rational_from_json(c)
    return terms


def form_from_json(data) -> HomogeneousForm:
    degree, coeffs = _fields(data, "a form", ("degree",), {"coeffs": {}})
    degree = _typed(degree, "a form degree", int)
    if not 0 <= degree <= MAX_DEGREE:
        raise ScenarioError(f"form degree {degree} is outside 0..{MAX_DEGREE}")
    return HomogeneousForm.from_dict(degree, _terms(coeffs, "the coeffs of a form", 3))


def _germ_from_json(data) -> Germ:
    (terms,) = _fields(data, "a germ", (), {"terms": {}})
    return germ(_terms(terms, "the terms of a germ", 2))


def _points(value) -> tuple[MarkedPoint, ...]:
    return tuple(MarkedPoint.of(*_rationals(p, "a point")) for p in _typed(value, "points", list))


def config_from_json(data) -> CurveConfiguration:
    """A curve configuration of at most `configurations.MAX_COMPONENTS` components."""
    components, contacts, concurrent = _fields(
        data, "a configuration", (), {"components": [], "contacts": [], "concurrent": []}
    )
    components = _typed(components, "components", list)
    if len(components) > MAX_COMPONENTS:
        raise ScenarioError(f"a configuration has at most {MAX_COMPONENTS} components")
    contacts = _typed(contacts, "contacts", list)
    concurrent = _typed(concurrent, "concurrent", list)
    return CurveConfiguration(
        tuple(map(_component_from_json, components)),
        tuple(map(_contact_from_json, contacts)),
        tuple(map(_concurrency_flag, concurrent)),
    )


def _concurrency_flag(value) -> frozenset[str]:
    names = _names(value, "a concurrency flag")
    if len(names) != 3 or len(set(names)) != 3:
        raise ScenarioError(f"a concurrency flag names three distinct components, got {names!r:.40}")
    return frozenset(names)


def _component_from_json(data) -> Component:
    name, self_int, pa, sing = _fields(data, "a component", ("name", "self_int"), {"pa": 0, "sing": None})
    return Component(
        _typed(name, "a component name", str),
        integral_from_json(self_int),
        integral_from_json(pa),
        _typed(sing, "a component's sing", str, type(None)),
    )


def _contact_from_json(data) -> Contact:
    pair, mult, tangential = _fields(data, "a contact", ("pair", "mult"), {"tangential": False})
    pair = _names(pair, "a contact pair")
    if len(pair) != 2:
        raise ScenarioError(f"a contact pair names two components, got {pair!r:.40}")
    return Contact(*pair, integral_from_json(mult), _typed(tangential, "tangential", bool))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_scenario(text: str, source: str = "<memory>") -> Scenario:
    try:
        data = json.loads(text, object_pairs_hook=_unique)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{source}:{err.lineno}:{err.colno}: {err.msg}") from None
    except ValueError as err:  # a key written twice, or an integer literal past the interpreter's digit limit
        raise ScenarioError(f"{source}: {err}") from None
    except RecursionError:
        raise ScenarioError(f"{source}: nested too deeply") from None
    schema, kind, name, payload, expected_block = _fields(
        data, f"{source}: the scenario", ("schema", "kind", "name", "payload"), {"expected": {}}
    )
    if schema != SCHEMA_VERSION:
        raise ScenarioError(f"{source}: unsupported schema {schema!r:.40}")
    if kind not in KINDS:
        raise ScenarioError(f"{source}: unknown kind {kind!r:.40}")
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{source}: a scenario needs a name")
    _typed(payload, f"{source}: the payload", dict)
    expected = []
    for key, entry in sorted(_typed(expected_block, f"{source}: the expected block", dict).items()):
        value, claimed, flag = _fields(
            entry, f"{source}: expected entry {key!r}", ("value",), {"claimed": None, "flag": None}
        )
        if flag is not None and flag not in FLAG_KINDS:
            raise ScenarioError(f"{source}: expected entry {key!r} names an undocumented flag {flag!r}")
        if type(value) not in (str, int) or type(claimed) not in (str, int, type(None)):
            raise ScenarioError(f"{source}: expected entry {key!r}: value and claimed are strings or ints")
        claimed = None if claimed is None else str(claimed)
        expected.append((key, ExpectedEntry(str(value), claimed, flag)))
    return Scenario(name, kind, payload, tuple(expected))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ScenarioError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ScenarioError(f"{path}: not UTF-8 at byte {err.start}") from None
    return parse_scenario(text, str(path))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _run_pipeline_payload(payload: Mapping) -> PipelineResult:
    construction = payload.get("construction")
    if construction == "en":
        _, singularity, profile, fiber_variant, germ_checks = _fields(
            payload, "the en pipeline payload", ("construction", "singularity"),
            {"profile": 6, "fiber_variant": None, "germ_checks": True},
        )
        return run_en_pipeline(EnSpec(
            singularity=_typed(singularity, "singularity", str),
            profile=_typed(profile, "profile", int),
            fiber_variant=_typed(fiber_variant, "fiber_variant", str, type(None)),
            germ_checks=_typed(germ_checks, "germ_checks", bool),
        ))
    if construction == "zw":
        _, singularity, family_case = _fields(
            payload, "the zw pipeline payload", ("construction", "singularity"), {"family_case": 1}
        )
        return run_zw_pipeline(ZwSpec(
            singularity=_typed(singularity, "singularity", str),
            family_case=_typed(family_case, "family_case", int, type(None)),
        ))
    raise ScenarioError(f"unknown construction {construction!r:.40}: the key 'construction' is en or zw")


def _config_check_values(payload: Mapping) -> dict[str, object]:
    config, derived = _fields(payload, "the config-check payload", ("config",), {"derived_from": _ABSENT})
    config = config_from_json(config)
    values: dict[str, object] = {}
    nd = is_negative_definite(config)
    values["negative-definite"] = nd
    if nd:
        classified = classify_minimally_elliptic(config)
        cycle = classified.cycle
        values["cycle-coefficients"] = cycle.coeffs
        values["cycle-self-intersection"] = cycle.self_int
        values["cycle-canonical-degree"] = cycle.canonical_degree
        values["cycle-genus"] = cycle.pa
        if classified.kind == "minimally-elliptic":
            values["classification"] = f"minimally-elliptic-degree-{classified.degree}"
        else:
            values["classification"] = classified.kind
    entry = match_catalog(config)
    values["catalog-match"] = entry.label if entry else "none"
    values["kodaira-fiber"] = recognize_kodaira_fiber(config) or "none"
    if derived is not _ABSENT:
        fiber, counts = _fields(derived, "derived_from", ("fiber", "blow_ups"))
        counts = _typed(counts, "blow_ups", list)
        blow_ups = tuple(integral_from_json(_typed(k, "a blow-up count", int)) for k in counts)
        rebuilt = blown_up_fiber(_typed(fiber, "a fibre type", str), blow_ups)
        values["blown-up-fiber-match"] = "match" if isomorphic(rebuilt, config) else "different"
    return values


# The keys of a plane check beside "name" and "op", by op: the required ones,
# and the optional ones with their defaults.
_PLANE_OPS = {
    "restrict": (("form", "line"), {"points": []}),
    "an-type": ((), {"germ": _ABSENT, "form": _ABSENT, "point": _ABSENT, "candidate": 6}),
    "detect-33": (("germ",), {"decomposition": _ABSENT}),
    "mult-tree": (("germ",), {}),
    "stabilizer-dim": ((), {"points": [], "lines": []}),
}


def _plane_check_values(payload: Mapping) -> dict[str, object]:
    (checks,) = _fields(payload, "the plane-check payload", (), {"checks": []})
    values: dict[str, object] = {}
    for check in _typed(checks, "checks", list):
        op = _typed(check, "a plane check", dict).get("op")
        if type(op) is not str or op not in _PLANE_OPS:
            raise ScenarioError(f"unknown plane-check op {op!r:.40}: the key 'op' is one of {', '.join(_PLANE_OPS)}")
        required, optional = _PLANE_OPS[op]
        name, _, *fields = _fields(check, f"the {op} check", ("name", "op", *required), optional)
        name = _typed(name, "a check name", str)
        if op == "restrict":
            form, line, points = fields
            pattern = restrict_to_line(form_from_json(form), form_from_json(line), _points(points))
            if pattern.contained:
                values[name] = "contained"
            else:
                orders = ",".join(str(o) for o in pattern.orders)
                values[name] = f"orders={orders};residual={pattern.residual_degree}"
        elif op == "an-type":
            values[name] = _an_verdict(*fields).label
        elif op == "detect-33":
            shape, decomposition = fields
            if decomposition is _ABSENT:
                decomposition = None
            else:
                residual, smooth = _typed(decomposition, "a decomposition", list)
                decomposition = (_germ_from_json(residual), _germ_from_json(smooth))
            verdict = detect_33_point(_germ_from_json(shape), decomposition=decomposition)
            parts = [
                "true" if verdict.is_33 else "false",
                str(verdict.profile) if verdict.profile else "none",
            ]
            if verdict.local_intersection is not None:
                parts.append(str(verdict.local_intersection))
                parts.append(verdict.residual.label)
            values[name] = ";".join(parts)
        elif op == "mult-tree":
            (shape,) = fields
            values[name] = _tree_label(mult_sequence(_germ_from_json(shape)))
        else:  # stabilizer-dim
            points, lines = fields
            lines = tuple(linear_form(*_rationals(coeffs, "a line")) for coeffs in _typed(lines, "lines", list))
            values[name] = stabilizer_dim(_points(points), lines)
    return values


def _an_verdict(shape, form, point, candidate):
    """The A_n type of a germ, or of a form at a point: an an-type check takes one or the other."""
    candidate = _typed(candidate, "an-type candidate", int)
    if not 1 <= candidate <= MAX_CANDIDATE:
        raise ScenarioError(f"an-type candidate {candidate} is outside 1..{MAX_CANDIDATE}")
    if shape is not _ABSENT and form is _ABSENT and point is _ABSENT:
        g = _germ_from_json(shape)
    elif shape is _ABSENT and form is not _ABSENT and point is not _ABSENT:
        g = germ_of(form_from_json(form), MarkedPoint.of(*_rationals(point, "a point")))
    else:
        raise ScenarioError("the an-type check takes a 'germ', or a 'form' and a 'point', and not both")
    return an_type_at(g, candidate=candidate)


def _tree_label(node) -> str:
    inner = ",".join(_tree_label(child) for child in node.children)
    grouped = "".join(f"{{{d}:{m}}}" for d, m in node.grouped)
    if inner or grouped:
        return f"{node.multiplicity}({inner}{grouped})"
    return str(node.multiplicity)


def _agree(pin: ExpectedEntry, record: CheckRecord) -> CheckRecord:
    """A record as pinned: unchanged when the pin restates its computed value
    and its documented discrepancy (none for a plain value), else failed and
    expecting the pin as written, so the report names the part that differs."""
    claimed = record.expected if record.flag else None
    if (pin.value, pin.claimed, pin.flag) == (record.computed, claimed, record.flag):
        return record
    stated = []
    if pin.claimed is not None:
        stated.append(f"claimed {pin.claimed}")
    if pin.flag is not None:
        stated.append(f"flag {pin.flag}")
    expected = pin.value + (f" ({', '.join(stated)})" if stated else "")
    return record._replace(expected=expected, status="fail")


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Execute one scenario and merge its pins with its records.

    Every value a scenario reports is a `CheckRecord`: an engine check, or a
    value that no claim states (a config-check or plane-check value, a
    pipeline diagnostic), which passes as itself.  Each pin is merged with its
    record by `_agree`, or fails as missing when there is none.  Unpinned
    records are reported only when they do not pass.
    """
    anchor = f"{scenario.kind} value"
    try:
        if scenario.kind == "pipeline":
            result = _run_pipeline_payload(scenario.payload)
            records = result.checks + result.diagnostics
        else:
            compute = _config_check_values if scenario.kind == "config-check" else _plane_check_values
            records = tuple(judge(name, v, v, anchor) for name, v in compute(scenario.payload).items())
    except (KeyError, TypeError, ValueError) as err:  # a ScenarioError is a ValueError
        raise ScenarioError(f"scenario {scenario.name!r}: malformed payload: {err}") from None

    record_map = {r.name: r for r in records}
    assertions: list[CheckRecord] = []
    for name, pin in scenario.expected:
        record = record_map.get(name)
        if record is None:
            assertions.append(CheckRecord(name, "missing", pin.value, "fail", anchor))
        else:
            assertions.append(_agree(pin, record))
    pinned = {name for name, _ in scenario.expected}
    assertions.extend(
        r for r in sorted(records, key=lambda r: r.name) if r.name not in pinned and r.status != "pass"
    )
    return ScenarioReport(scenario.name, scenario.kind, tuple(assertions))


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def corpus_dir(override: str | Path | None = None) -> Path:
    if override is None:
        return Path(resources.files("unimodal") / "corpus")
    path = Path(override)
    if not path.is_dir():
        raise ScenarioError(f"{path}: not a directory")
    return path


def run_corpus(directory: str | Path | None = None) -> Report:
    """Run every bundled scenario; output order follows sorted file names.

    The scenarios run in one `lattice.SharedMoves` pass, so a surface
    construction several scenarios make is built once; each report is the one
    `report_for` gives.
    """
    scenarios = [load_scenario(p) for p in sorted(corpus_dir(directory).glob("*.scn"))]
    with SharedMoves():
        reports = tuple(map(run_scenario, scenarios))
    return Report(f"unimodal {__version__}", SCHEMA_VERSION, reports)


def report_for(scenario: Scenario) -> Report:
    return Report(f"unimodal {__version__}", SCHEMA_VERSION, (run_scenario(scenario),))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_RECORD = """        {
          "anchor": %s,
          "computed": %s,
          "expected": %s,
          "flag": %s,
          "name": %s,
          "status": %s
        }"""
_SCENARIO = """    {
      "assertions": %s,
      "counts": {
        "fail": %d,
        "flagged": %d,
        "pass": %d
      },
      "kind": %s,
      "name": %s
    }"""
_REPORT = """{
  "engine": %s,
  "scenarios": %s,
  "schema": %s,
  "summary": {
    "exit_code": %d,
    "fail": %d,
    "flagged": %d,
    "flags": %s,
    "pass": %d,
    "scenarios": %d
  }
}
"""


def _array(items: list[str], indent: str) -> str:
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def emit_report(report: Report) -> str:
    """The report as ``json.dumps(..., sort_keys=True, indent=2) + "\\n"`` writes it.

    The schema's layout is fixed, so it is written directly, with each object's
    keys in sorted order and every string escaped to ASCII by the encoder of
    :mod:`json`.  Its oracle, the dict-and-``json.dumps`` pair this replaced,
    lives in ``tests/oracles.py``.
    """
    q = encode_basestring_ascii
    scenarios = []
    for s in report.scenarios:
        records = [
            _RECORD % (
                q(a.anchor), q(a.computed), q(a.expected),
                "null" if a.flag is None else q(a.flag), q(a.name), q(a.status),
            )
            for a in s.assertions
        ]
        scenarios.append(_SCENARIO % (
            _array(records, "      "), s.count("fail"), s.count("flagged"), s.count("pass"),
            q(s.kind), q(s.name),
        ))
    flags = _array(["      " + q(f) for f in report.flags], "    ")
    return _REPORT % (
        q(report.engine), _array(scenarios, "  "), q(report.schema), report.exit_code,
        report.count("fail"), report.count("flagged"), flags, report.count("pass"), len(report.scenarios),
    )


def render_text(report: Report) -> str:
    lines = [f"{report.engine} (schema {report.schema})"]
    for s in report.scenarios:
        lines.append(f"scenario {s.name} [{s.kind}]")
        for a in s.assertions:
            mark = {"pass": "PASS", "fail": "FAIL", "flagged": "FLAG"}[a.status]
            if a.status == "flagged":
                lines.append(
                    f"  {mark} {a.name}: computed {a.computed}, stated {a.expected}"
                    f" ({a.flag})"
                )
            elif a.status == "fail":
                lines.append(f"  {mark} {a.name}: computed {a.computed}, expected {a.expected}")
            else:
                lines.append(f"  {mark} {a.name}: {a.computed}")
    flags = ", ".join(report.flags) if report.flags else "none"
    lines.append(
        f"summary: {len(report.scenarios)} scenario(s), {report.count('pass')} pass,"
        f" {report.count('fail')} fail, {report.count('flagged')} flagged"
        f" (flags: {flags})"
    )
    return "\n".join(lines) + "\n"
