"""Regenerate the goldens under tests/goldens/.

One golden per singularity type, pinning every check record and diagnostic of
a designated pipeline run, and the JSON output of three commands byte for
byte: `corpus-report.json` (`unimodal corpus --report=json`, the machine
report of the bundled corpus), `dims.json` (`unimodal dims --report=json`)
and `catalog.json` (`unimodal catalog --report=json`).  Regenerate only
after re-deriving the values by hand:  python3 tools/build_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from unimodal.cli import main as cli_main
from unimodal.pipelines import EnSpec, ZwSpec, run_en_pipeline, run_zw_pipeline
from unimodal.scenarios import emit_report, run_corpus

OUT = Path(__file__).resolve().parent.parent / "tests" / "goldens"

RUNS = {
    "e12": lambda: run_en_pipeline(EnSpec("E12", profile=6)),
    "e13": lambda: run_en_pipeline(EnSpec("E13", profile=6, fiber_variant="I2")),
    "e14": lambda: run_en_pipeline(EnSpec("E14", profile=6, fiber_variant="I3")),
    "z11": lambda: run_zw_pipeline(ZwSpec("Z11", family_case=1)),
    "z12": lambda: run_zw_pipeline(ZwSpec("Z12", family_case=1)),
    "z13": lambda: run_zw_pipeline(ZwSpec("Z13", family_case=2)),
    "w12": lambda: run_zw_pipeline(ZwSpec("W12", family_case=1)),
    "w13": lambda: run_zw_pipeline(ZwSpec("W13", family_case=1)),
}

# golden file name -> the command whose standard output it pins
COMMANDS = {
    "dims.json": ["dims", "--report=json"],
    "catalog.json": ["catalog", "--report=json"],
}


def _command_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli_main(argv) != 0:
            raise SystemExit(f"unimodal {' '.join(argv)} failed")
    return out.getvalue()


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for name, runner in RUNS.items():
        result = runner()
        data = {
            "label": result.label,
            "checks": [
                {
                    "name": r.name,
                    "computed": r.computed,
                    "expected": r.expected,
                    "status": r.status,
                    "flag": r.flag,
                }
                for r in result.checks
            ],
            "diagnostics": {note.name: note.computed for note in result.diagnostics},
        }
        (OUT / f"{name}.json").write_text(
            json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    (OUT / "corpus-report.json").write_text(emit_report(run_corpus()), encoding="utf-8")
    for name, argv in COMMANDS.items():
        (OUT / name).write_text(_command_output(argv), encoding="utf-8")
    print(f"wrote {len(RUNS) + 1 + len(COMMANDS)} goldens to {OUT}")


if __name__ == "__main__":
    main()
