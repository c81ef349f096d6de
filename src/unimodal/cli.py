"""Command-line front end: verify scenario files, run the bundled corpus,
print the singularity catalog and the branch-family dimension counts.

Exit codes: 0 when no assertion failed (flagged items do not fail), 1 on an
assertion failure, 2 on malformed input.
"""

from __future__ import annotations

import argparse
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


def _cmd_verify(args) -> int:
    scenario = load_scenario(args.file)
    return _print_report(report_for(scenario), args.report)


def _cmd_corpus(args) -> int:
    report = run_corpus(args.dir)
    return _print_report(report, args.report)


def _cmd_catalog(args) -> int:
    entries = catalog_to_json()
    if args.report == "json":
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


def _cmd_dims(args) -> int:
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
    if args.report == "json":
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unimodal",
        description=(
            "Exact verification of the intersection arithmetic, singularity"
            " catalog and branch-family dimension counts for Gorenstein stable"
            " surfaces with K^2 = 1, chi = 3 and one exceptional unimodal"
            " double point."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one scenario file")
    verify.add_argument("file")
    verify.add_argument("--report", choices=("text", "json"), default="text")
    verify.set_defaults(func=_cmd_verify)

    corpus = sub.add_parser("corpus", help="run every bundled scenario")
    corpus.add_argument("--report", choices=("text", "json"), default="text")
    corpus.add_argument("--dir", default=None, help="override the corpus directory")
    corpus.set_defaults(func=_cmd_corpus)

    catalog = sub.add_parser("catalog", help="print the singularity catalog with recomputed invariants")
    catalog.add_argument("--report", choices=("text", "json"), default="text")
    catalog.set_defaults(func=_cmd_catalog)

    dims = sub.add_parser("dims", help="print the branch-family dimension counts")
    dims.add_argument("--report", choices=("text", "json"), default="text")
    dims.set_defaults(func=_cmd_dims)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
