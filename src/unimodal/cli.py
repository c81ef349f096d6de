"""Command-line front end: verify scenario files, run the bundled corpus,
print the singularity catalog and the branch-family dimension counts.

Exit codes: 0 when no assertion failed (flagged items do not fail), 1 on an
assertion failure, 2 on malformed input or a usage error.
"""

from __future__ import annotations

import json
import sys

from .configurations import catalog_to_json
from .pipelines import DISCREPANCIES
from .rationals import rat_str
from .scenarios import (
    Report,
    ScenarioError,
    emit_report,
    load_scenario,
    render_text,
    report_for,
    run_corpus,
)
from .sextics import FAMILIES


def _print_report(report: Report, layout: str) -> int:
    if layout == "json":
        sys.stdout.write(emit_report(report))
    else:
        sys.stdout.write(render_text(report))
    return report.exit_code


def _cmd_verify(args: dict) -> int:
    scenario = load_scenario(args["file"])
    return _print_report(report_for(scenario), args["report"])


def _cmd_corpus(args: dict) -> int:
    report = run_corpus(args["dir"])
    return _print_report(report, args["report"])


def _cmd_catalog(args: dict) -> int:
    entries = catalog_to_json()
    if args["report"] == "json":
        sys.stdout.write(json.dumps(entries, sort_keys=True, indent=2) + "\n")
        return 0
    for entry in entries:
        recomputed = entry["recomputed"]
        comps = ", ".join(
            f"{c['name']}({c['self_int']})" for c in entry["config"]["components"]
        )
        sys.stdout.write(
            f"{entry['label']:5s} Z^2={recomputed['self_int']:>3s}"
            f" K.Z={recomputed['canonical_degree']:>2s}"
            f" pa={recomputed['pa']}"
            f"  [{comps}]  {entry['normal_form']}\n"
        )
    return 0


def _cmd_dims(args: dict) -> int:
    rows = []
    for fam in FAMILIES:
        counts = fam.counts()
        row = {
            "family": fam.family_id,
            "singularity": fam.singularity,
            "case": fam.case,
            "computed": rat_str(counts.orbit),
            "claimed": rat_str(fam.claimed_count),
        }
        if counts.variant_orbit is not None:
            row["variant"] = rat_str(counts.variant_orbit)
            row["flag"] = DISCREPANCIES["family-orbit-count"].flag
        rows.append(row)
    if args["report"] == "json":
        sys.stdout.write(json.dumps(rows, sort_keys=True, indent=2) + "\n")
        return 0
    for row in rows:
        note = ""
        if "variant" in row:
            note = f"  (variant with the cusp's tangent rows: {row['variant']}; {row['flag']})"
        sys.stdout.write(
            f"{row['family']:10s} computed {row['computed']:>2s}"
            f"  claimed {row['claimed']:>2s}{note}\n"
        )
    return 0


# command -> (its function, its file argument or None, the options it takes, its help)
_COMMANDS = {
    "verify": (_cmd_verify, "file", ("--report",), "run one scenario file"),
    "corpus": (_cmd_corpus, None, ("--report", "--dir"), "run every bundled scenario"),
    "catalog": (_cmd_catalog, None, ("--report",), "print the singularity catalog with recomputed invariants"),
    "dims": (_cmd_dims, None, ("--report",), "print the branch-family dimension counts"),
}
_REPORTS = ("text", "json")
_USAGE = "usage: unimodal [-h] {verify,corpus,catalog,dims} ..."
_HELP = """\
{usage}

Exact verification of the intersection arithmetic, singularity catalog and
branch-family dimension counts for Gorenstein stable surfaces with K^2 = 1,
chi = 3 and one exceptional unimodal double point.

commands:
{commands}
Every command takes --report text|json (default text); corpus also takes
--dir DIR, which overrides the corpus directory.  Exit codes: 0 when no
assertion failed, 1 on an assertion failure, 2 on malformed input or a
usage error.
"""


def _help(name: str | None) -> str:
    """What -h prints: the program's help, or one command's."""
    if name is None:
        commands = "".join(f"  {command:9s} {help}\n" for command, (*_, help) in _COMMANDS.items())
        return _HELP.format(usage=_USAGE, commands=commands)
    return f"{_usage(name)}\n\n{_COMMANDS[name][3]}\n"


def _usage(name: str) -> str:
    _, file, options, _ = _COMMANDS[name]
    words = ["usage: unimodal", name, "[-h] [--report {text,json}]"]
    return " ".join(words + ["[--dir DIR]"] * ("--dir" in options) + [file] * (file is not None))


def _usage_error(usage: str, message: str):
    sys.stderr.write(f"{usage}\nunimodal: error: {message}\n")
    raise SystemExit(2)


def _parse(argv: list[str]) -> tuple:
    """The command's function and its arguments.  A usage error writes the
    usage and the error to stderr and exits 2; -h or --help writes the help
    and exits 0."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        sys.stdout.write(_help(None))
        raise SystemExit(0)
    if name not in _COMMANDS:
        message = "the following arguments are required: command"
        if name is not None:
            choices = ", ".join(map(repr, _COMMANDS))
            message = f"argument command: invalid choice: {name!r} (choose from {choices})"
        _usage_error(_USAGE, message)
    run, file, options, _ = _COMMANDS[name]
    args = {"report": "text", "dir": None}
    unrecognized = []
    words = iter(argv[1:])
    for word in words:
        if word in ("-h", "--help"):
            sys.stdout.write(_help(name))
            raise SystemExit(0)
        option, equals, value = word.partition("=")
        if option in options:
            if not equals:
                value = next(words, None)
                if value is None or value.startswith("-"):
                    _usage_error(_usage(name), f"argument {option}: expected one argument")
            if option == "--report" and value not in _REPORTS:
                choices = ", ".join(map(repr, _REPORTS))
                _usage_error(_usage(name), f"argument --report: invalid choice: {value!r} (choose from {choices})")
            args[option[2:]] = value
        elif file is not None and file not in args and not word.startswith("-"):
            args[file] = word
        else:
            unrecognized.append(word)
    if file is not None and file not in args:
        _usage_error(_usage(name), f"the following arguments are required: {file}")
    if unrecognized:
        _usage_error(_USAGE, f"unrecognized arguments: {' '.join(unrecognized)}")
    return run, args


def main(argv: list[str] | None = None) -> int:
    run, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return run(args)
    except ScenarioError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
