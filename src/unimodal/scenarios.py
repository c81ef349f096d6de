"""Scenario files, their execution, and machine-readable reports.

A scenario is a JSON document (conventionally ``*.scn``) with a schema
version, a kind, a payload and a block of expected assertions.  Every value
in it is read here, by one rule per kind of value, and the other modules take
typed values only.  Reports are
JSON with sorted keys; integers and exact fractions travel as strings, never
as floating point.  Every status comes from `pipelines.judge`: a "flagged"
status is reserved for the documented discrepancies between stated and
recomputed values and can never mask a computation error, and a pin can only
confirm a record or turn it into a failure.
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
from .rationals import plain, rat_str

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
# ---------------------------------------------------------------------------
# Every value of a scenario file is read here, by the rules the README states;
# the kernels take typed values only.  Anything else is ScenarioError (exit 2).

# Bounds on a rational read from input.  With the polynomial kernels of
# `rationals`, a germ at the bounds costs tens of milliseconds (timings at
# `planecurves.MAX_DEGREE`).
MAX_COEFF_BITS = 64  # numerator and denominator of a rational
MAX_COEFF_CHARS = 64  # length of a rational string
_MAX_EXPONENT_DIGITS = 3  # digits of a decimal exponent, as in "1e-5"

_PIPELINE_KEYS = {
    "en": ("construction", "singularity", "profile", "fiber_variant", "germ_checks"),
    "zw": ("construction", "singularity", "family_case"),
}

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "true or false", int: "an integer",
               type(None): "null"}


def _typed(value, what: str, *kinds: type):
    """``value`` when its JSON type is exactly one of ``kinds``: a boolean is no
    integer, 2.7 no degree, the string "false" no flag and "10" no list."""
    if type(value) not in kinds:
        meaning = " or ".join(_JSON_TYPES[kind] for kind in kinds)
        raise ScenarioError(f"{what} must be {meaning}, got {value!r:.40}")
    return value


def _closed(data: Mapping, allowed: tuple[str, ...], what: str) -> None:
    """Refuse any key outside ``allowed``: a misspelt or retired key is never dropped silently."""
    for key in data:
        if key not in allowed:
            raise ScenarioError(f"{what} has an unknown key {key!r:.40}")


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
    terms = _typed(value, what, dict)
    return {_monomial(key, arity): rational_from_json(c) for key, c in terms.items()}


def form_from_json(data) -> HomogeneousForm:
    data = _typed(data, "a form", dict)
    degree = _typed(data["degree"], "a form degree", int)
    if not 0 <= degree <= MAX_DEGREE:
        raise ScenarioError(f"form degree {degree} is outside 0..{MAX_DEGREE}")
    return HomogeneousForm.from_dict(degree, _terms(data.get("coeffs", {}), "the coeffs of a form", 3))


def _germ_from_json(data) -> Germ:
    return germ(_terms(_typed(data, "a germ", dict).get("terms", {}), "the terms of a germ", 2))


def _points(check: Mapping) -> tuple[MarkedPoint, ...]:
    points = _typed(check.get("points", []), "points", list)
    return tuple(MarkedPoint.of(*_rationals(p, "a point")) for p in points)


def config_from_json(data) -> CurveConfiguration:
    """A curve configuration of at most `configurations.MAX_COMPONENTS` components."""
    data = _typed(data, "a configuration", dict)
    components = _typed(data.get("components", []), "components", list)
    if len(components) > MAX_COMPONENTS:
        raise ScenarioError(f"a configuration has at most {MAX_COMPONENTS} components")
    contacts = _typed(data.get("contacts", []), "contacts", list)
    concurrent = _typed(data.get("concurrent", []), "concurrent", list)
    return CurveConfiguration(
        tuple(map(_component_from_json, components)),
        tuple(map(_contact_from_json, contacts)),
        tuple(frozenset(_names(triple, "a concurrency flag")) for triple in concurrent),
    )


def _component_from_json(data) -> Component:
    data = _typed(data, "a component", dict)
    return Component(
        _typed(data["name"], "a component name", str),
        integral_from_json(data["self_int"]),
        integral_from_json(data.get("pa", 0)),
        data.get("sing"),
    )


def _contact_from_json(data) -> Contact:
    data = _typed(data, "a contact", dict)
    pair = _names(data["pair"], "a contact pair")
    if len(pair) != 2:
        raise ScenarioError(f"a contact pair names two components, got {pair!r:.40}")
    tangential = _typed(data.get("tangential", False), "tangential", bool)
    return Contact(*pair, integral_from_json(data["mult"]), tangential)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_scenario(text: str, source: str = "<memory>") -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{source}:{err.lineno}:{err.colno}: {err.msg}") from None
    except ValueError as err:  # an integer literal past the interpreter's digit limit
        raise ScenarioError(f"{source}: {err}") from None
    except RecursionError:
        raise ScenarioError(f"{source}: nested too deeply") from None
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: a scenario is a JSON object")
    _closed(data, ("schema", "kind", "name", "payload", "expected"), f"{source}: the scenario")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ScenarioError(f"{source}: unsupported schema {schema!r}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"{source}: unknown kind {kind!r}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{source}: a scenario needs a name")
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise ScenarioError(f"{source}: payload must be an object")
    expected_block = data.get("expected", {})
    if not isinstance(expected_block, dict):
        raise ScenarioError(f"{source}: expected block must be an object")
    expected = []
    for key in sorted(expected_block):
        entry = expected_block[key]
        if not isinstance(entry, dict) or "value" not in entry:
            raise ScenarioError(f"{source}: expected entry {key!r} needs a value")
        claimed, flag = entry.get("claimed"), entry.get("flag")
        if flag is not None and flag not in FLAG_KINDS:
            raise ScenarioError(f"{source}: expected entry {key!r} names an undocumented flag {flag!r}")
        value = entry["value"]
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
    return parse_scenario(text, str(path))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _run_pipeline_payload(payload: Mapping) -> PipelineResult:
    construction = payload.get("construction")
    if construction not in _PIPELINE_KEYS:
        raise ScenarioError(f"unknown construction {construction!r}")
    _closed(payload, _PIPELINE_KEYS[construction], f"the {construction} pipeline payload")
    singularity = _typed(payload.get("singularity"), "singularity", str)
    if construction == "en":
        return run_en_pipeline(EnSpec(
            singularity=singularity,
            profile=_typed(payload.get("profile", 6), "profile", int),
            fiber_variant=_typed(payload.get("fiber_variant"), "fiber_variant", str, type(None)),
            germ_checks=_typed(payload.get("germ_checks", True), "germ_checks", bool),
        ))
    return run_zw_pipeline(ZwSpec(
        singularity=singularity,
        family_case=_typed(payload.get("family_case", 1), "family_case", int, type(None)),
    ))


def _config_check_values(payload: Mapping) -> dict[str, str]:
    _closed(payload, ("config", "derived_from"), "the config-check payload")
    config = config_from_json(payload["config"])
    values: dict[str, str] = {}
    nd = is_negative_definite(config)
    values["negative-definite"] = "true" if nd else "false"
    if nd:
        classified = classify_minimally_elliptic(config)
        cycle = classified.cycle
        values["cycle-coefficients"] = ",".join(str(c) for c in cycle.coeffs)
        values["cycle-self-intersection"] = rat_str(cycle.self_int)
        values["cycle-canonical-degree"] = rat_str(cycle.canonical_degree)
        values["cycle-genus"] = rat_str(cycle.pa)
        if classified.kind == "minimally-elliptic":
            values["classification"] = f"minimally-elliptic-degree-{classified.degree}"
        else:
            values["classification"] = classified.kind
    entry = match_catalog(config)
    values["catalog-match"] = entry.label if entry else "none"
    values["kodaira-fiber"] = recognize_kodaira_fiber(config) or "none"
    if "derived_from" in payload:
        derived = _typed(payload["derived_from"], "derived_from", dict)
        counts = _typed(derived["blow_ups"], "blow_ups", list)
        blow_ups = tuple(integral_from_json(_typed(k, "a blow-up count", int)) for k in counts)
        rebuilt = blown_up_fiber(_typed(derived["fiber"], "a fibre type", str), blow_ups)
        values["blown-up-fiber-match"] = "match" if isomorphic(rebuilt, config) else "different"
    return values


def _plane_check_values(payload: Mapping) -> dict[str, str]:
    _closed(payload, ("checks",), "the plane-check payload")
    values: dict[str, str] = {}
    for check in _typed(payload.get("checks", []), "checks", list):
        check = _typed(check, "a plane check", dict)
        name = _typed(check["name"], "a check name", str)
        op = check["op"]
        if op == "restrict":
            form = form_from_json(check["form"])
            line = form_from_json(check["line"])
            pattern = restrict_to_line(form, line, _points(check))
            if pattern.contained:
                values[name] = "contained"
            else:
                orders = ",".join(str(o) for o in pattern.orders)
                values[name] = f"orders={orders};residual={pattern.residual_degree}"
        elif op == "an-type":
            verdict = _an_verdict(check)
            values[name] = _an_label(verdict)
        elif op == "detect-33":
            shape, decomposition = _germ_from_json(check["germ"]), None
            if "decomposition" in check:
                residual, smooth = _typed(check["decomposition"], "a decomposition", list)
                decomposition = (_germ_from_json(residual), _germ_from_json(smooth))
            verdict = detect_33_point(shape, decomposition=decomposition)
            parts = [
                "true" if verdict.is_33 else "false",
                str(verdict.profile) if verdict.profile else "none",
            ]
            if verdict.local_intersection is not None:
                parts.append(str(verdict.local_intersection))
                parts.append(_an_label(verdict.residual))
            values[name] = ";".join(parts)
        elif op == "mult-tree":
            values[name] = _tree_label(mult_sequence(_germ_from_json(check["germ"])))
        elif op == "stabilizer-dim":
            lines = _typed(check.get("lines", []), "lines", list)
            lines = tuple(linear_form(*_rationals(coeffs, "a line")) for coeffs in lines)
            values[name] = str(stabilizer_dim(_points(check), lines))
        else:
            raise ScenarioError(f"unknown plane-check op {op!r}")
    return values


def _an_verdict(check: Mapping):
    candidate = _typed(check.get("candidate", 6), "an-type candidate", int)
    if not 1 <= candidate <= MAX_CANDIDATE:
        raise ScenarioError(f"an-type candidate {candidate} is outside 1..{MAX_CANDIDATE}")
    if "germ" in check:
        g = _germ_from_json(check["germ"])
    else:
        g = germ_of(form_from_json(check["form"]), MarkedPoint.of(*_rationals(check["point"], "a point")))
    return an_type_at(g, candidate=candidate)


def _an_label(verdict) -> str:
    if verdict is None:
        return "none"
    if verdict.kind == "A":
        return f"A{verdict.n}"
    return verdict.kind


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
    """Execute one scenario and merge its pins with the engine records.

    A pinned engine record is reported as that record; a pinned plain value
    (a config-check or plane-check value, a diagnostic) passes or fails by
    `judge`.  Unpinned records are reported only when they do not pass.
    """
    records: tuple[CheckRecord, ...] = ()
    anchor_default = f"{scenario.kind} value"
    anchors: dict[str, str] = {}  # a pipeline diagnostic's own anchor
    try:
        if scenario.kind == "config-check":
            values = _config_check_values(scenario.payload)
        elif scenario.kind == "plane-check":
            values = _plane_check_values(scenario.payload)
        else:
            result = _run_pipeline_payload(scenario.payload)
            records = result.checks
            values = {note.name: note.value for note in result.diagnostics}
            anchors = {note.name: note.anchor for note in result.diagnostics}
    except (KeyError, TypeError, ValueError) as err:  # a ScenarioError is a ValueError
        raise ScenarioError(f"scenario {scenario.name!r}: malformed payload: {err}") from None

    record_map = {r.name: r for r in records}
    assertions: list[CheckRecord] = []
    for name, pin in scenario.expected:
        record = record_map.get(name)
        if record is None and name in values:
            record = judge(name, values[name], pin.value, anchors.get(name, anchor_default))
        if record is None:
            assertions.append(CheckRecord(name, "missing", pin.value, "fail", anchor_default))
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
