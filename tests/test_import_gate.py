"""The engine runs without sympy: importing the command line loads none, and
the bundled corpus reproduces its golden report with sympy blocked.  The
import also loads neither `dataclasses` nor `inspect`."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "goldens" / "corpus-report.json"


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)


def test_importing_the_cli_loads_no_sympy():
    proc = _python("import sys, unimodal.cli; print('sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # the records are NamedTuples: no generated methods to compile on import
    proc = _python("import sys, unimodal.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_corpus_reproduces_the_golden_with_sympy_blocked():
    # a module set to None in sys.modules makes every import of it fail
    proc = _python(
        "import sys; sys.modules['sympy'] = None; from unimodal.cli import main; "
        "sys.exit(main(['corpus', '--report=json']))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN.read_text(encoding="utf-8")
