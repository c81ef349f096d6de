"""`tools/build_goldens.py` rewrites every golden under tests/goldens/ byte for byte.

The builder is loaded from its file, as `test_build_corpus.py` loads the
corpus builder, and writes into a temporary directory instead of the goldens.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent
BUILDER = ROOT / "tools" / "build_goldens.py"
GOLDENS = ROOT / "tests" / "goldens"


def test_build_goldens_reproduces_the_goldens(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("build_goldens", BUILDER)
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    builder.OUT = tmp_path
    builder.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == 11
    assert written == sorted(p.name for p in GOLDENS.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDENS / name).read_bytes(), name
    assert "wrote 11 goldens" in capsys.readouterr().out
