"""Scenario files, their execution, and machine-readable reports.

A scenario is a JSON document (conventionally ``*.scn``) with a schema
version, a kind, a payload and a block of expected assertions.  Reports are
JSON with sorted keys; integers and exact fractions travel as strings, never
as floating point.  Every status comes from `pipelines.judge`: a "flagged"
status is reserved for the documented discrepancies between stated and
recomputed values and can never mask a computation error, and a pin can only
confirm a record or turn it into a failure.
"""

from __future__ import annotations

import json
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Mapping, NamedTuple

from . import __version__
from .configurations import (
    blown_up_fiber,
    bounded_int,
    classify_minimally_elliptic,
    config_from_json,
    is_negative_definite,
    isomorphic,
    match_catalog,
    recognize_kodaira_fiber,
)
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
    MarkedPoint,
    an_type_at,
    bounded_rational,
    detect_33_point,
    form_from_json,
    germ,
    germ_of,
    linear_form,
    mult_sequence,
    parse_exponent,
    restrict_to_line,
    stabilizer_dim,
)
from .rationals import rat_str

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
# Parsing
# ---------------------------------------------------------------------------


def parse_scenario(text: str, source: str = "<memory>") -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{source}:{err.lineno}:{err.colno}: {err.msg}") from None
    except ValueError as err:  # an integer literal past the interpreter's digit limit
        raise ScenarioError(f"{source}: {err}") from None
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: a scenario is a JSON object")
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
        claimed = None if claimed is None else str(claimed)
        expected.append((key, ExpectedEntry(str(entry["value"]), claimed, flag)))
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


def _parse_point(coords) -> MarkedPoint:
    if not isinstance(coords, (list, tuple)) or len(coords) != 3:
        raise ScenarioError("a point is a list of three rationals")
    return MarkedPoint.of(*[bounded_rational(str(c)) for c in coords])


def _parse_germ(data) -> dict:
    """A germ within the input bounds of `planecurves`; beyond them, exit 2."""
    terms = data.get("terms", {}) if isinstance(data, dict) else None
    if not isinstance(terms, dict):
        raise ScenarioError("a germ is an object whose terms are an object")
    try:
        return germ({parse_exponent(k, 2): bounded_rational(v) for k, v in terms.items()})
    except ValueError as err:
        raise ScenarioError(f"germ: {err}") from None


def _parse_33_block(block: Mapping) -> tuple[dict, tuple[dict, dict] | None]:
    """The germ of a [3,3]-point block and its optional (residual, smooth) pair."""
    shape = _parse_germ(block["germ"])
    if "decomposition" not in block:
        return shape, None
    first, second = block["decomposition"]
    return shape, (_parse_germ(first), _parse_germ(second))


def _field(payload: Mapping, key: str, default, types: tuple[type, ...], meaning: str):
    """``payload[key]``, or the default, when its JSON type is exactly one of
    ``types`` (so a boolean is no integer and 6.9 no profile); else ScenarioError."""
    value = payload.get(key, default)
    if type(value) not in types:
        raise ScenarioError(f"pipeline payload: {key} must be {meaning}, got {value!r}")
    return value


def _run_pipeline_payload(payload: Mapping) -> PipelineResult:
    construction = payload.get("construction")
    if construction == "en":
        config = config_from_json(payload["config"]) if "config" in payload else None
        spec = EnSpec(
            singularity=_field(payload, "singularity", None, (str,), "a string"),
            profile=_field(payload, "profile", 6, (int,), "the integer 6 or 7"),
            fiber_variant=_field(payload, "fiber_variant", None, (str, type(None)), "a string or null"),
            config=config,
            germ_checks=_field(payload, "germ_checks", True, (bool,), "true or false"),
        )
        return run_en_pipeline(spec)
    if construction == "zw":
        config = config_from_json(payload["config"]) if "config" in payload else None
        spec = ZwSpec(
            singularity=_field(payload, "singularity", None, (str,), "a string"),
            family_case=_field(payload, "family_case", 1, (int, type(None)), "an integer or null"),
            config=config,
        )
        return run_zw_pipeline(spec)
    raise ScenarioError(f"unknown construction {construction!r}")


def _config_check_values(payload: Mapping) -> dict[str, str]:
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
    derived = payload.get("derived_from")
    if derived:
        rebuilt = blown_up_fiber(str(derived["fiber"]), tuple(map(bounded_int, derived["blow_ups"])))
        values["blown-up-fiber-match"] = "match" if isomorphic(rebuilt, config) else "different"
    return values


def _plane_check_values(payload: Mapping) -> dict[str, str]:
    values: dict[str, str] = {}
    for check in payload.get("checks", []):
        name = check["name"]
        op = check["op"]
        if op == "restrict":
            form = form_from_json(check["form"])
            line = form_from_json(check["line"])
            points = tuple(_parse_point(p) for p in check.get("points", []))
            pattern = restrict_to_line(form, line, points)
            if pattern.contained:
                values[name] = "contained"
            else:
                orders = ",".join(str(o) for o in pattern.orders)
                values[name] = f"orders={orders};residual={pattern.residual_degree}"
        elif op == "an-type":
            verdict = _an_verdict(check)
            values[name] = _an_label(verdict)
        elif op == "detect-33":
            shape, decomposition = _parse_33_block(check)
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
            shape = _parse_germ(check["germ"])
            values[name] = _tree_label(mult_sequence(shape))
        elif op == "stabilizer-dim":
            points = tuple(_parse_point(p) for p in check.get("points", []))
            lines = tuple(
                linear_form(*[bounded_rational(str(c)) for c in coeffs])
                for coeffs in check.get("lines", [])
            )
            values[name] = str(stabilizer_dim(points, lines))
        else:
            raise ScenarioError(f"unknown plane-check op {op!r}")
    return values


def _an_verdict(check: Mapping):
    candidate = check.get("candidate", 6)
    if isinstance(candidate, bool) or not isinstance(candidate, int):
        raise ScenarioError(f"an-type candidate {candidate!r} is not an integer")
    if not 1 <= candidate <= MAX_CANDIDATE:
        raise ScenarioError(f"an-type candidate {candidate} is outside 1..{MAX_CANDIDATE}")
    if "germ" in check:
        g = _parse_germ(check["germ"])
    else:
        g = germ_of(form_from_json(check["form"]), _parse_point(check["point"]))
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
    try:
        if scenario.kind == "config-check":
            values = _config_check_values(scenario.payload)
        elif scenario.kind == "plane-check":
            values = _plane_check_values(scenario.payload)
        else:
            result = _run_pipeline_payload(scenario.payload)
            records, values = result.checks, dict(result.diagnostics)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ScenarioError(f"scenario {scenario.name!r}: malformed payload: {err}") from None

    record_map = {r.name: r for r in records}
    assertions: list[CheckRecord] = []
    for name, pin in scenario.expected:
        record = record_map.get(name)
        if record is None and name in values:
            record = judge(name, values[name], pin.value, anchor_default)
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
    if override is not None:
        return Path(override)
    return Path(resources.files("unimodal") / "corpus")


def run_corpus(directory: str | Path | None = None) -> Report:
    """Run every bundled scenario; output order follows sorted file names."""
    scenarios = [load_scenario(p) for p in sorted(corpus_dir(directory).glob("*.scn"))]
    return Report(f"unimodal {__version__}", SCHEMA_VERSION, tuple(map(run_scenario, scenarios)))


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
