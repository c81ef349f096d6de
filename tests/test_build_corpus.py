"""`tools/build_corpus.py` rewrites the bundled corpus byte for byte.

The builder is loaded from its file, as `test_bench_targets.py` loads the
benchmark's tracer, and writes into a temporary directory instead of the
package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent
BUILDER = ROOT / "tools" / "build_corpus.py"
CORPUS = ROOT / "src" / "unimodal" / "corpus"


def test_build_corpus_reproduces_the_bundled_scenarios(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("build_corpus", BUILDER)
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    builder.OUT = tmp_path
    builder.main()
    written = sorted(p.name for p in tmp_path.glob("*.scn"))
    assert len(written) == 27
    assert written == sorted(p.name for p in CORPUS.glob("*.scn"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (CORPUS / name).read_bytes(), name
    assert "wrote 27 scenarios" in capsys.readouterr().out
