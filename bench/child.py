"""One verification pass, in the fresh interpreter it is started in.

    python3 bench/child.py SRC SCENARIO_DIR OUT_DIR untraced|traced

Times the import of `unimodal.cli`, then the program's entry point
``main(["corpus", "--dir", SCENARIO_DIR, "--report=json"])`` twice: the
first (cold) call and a repeat of it (warm).  The JSON reports go to
OUT_DIR/cold.json and OUT_DIR/warm.json; one JSON line of figures goes to
standard output.  A traced pass times `import sympy` on its own first,
wraps the layers for the cold call only, writes its spans to
OUT_DIR/spans.json and makes no warm call.

Each timed section runs under a `SpeedSampler`, which records how fast the
machine ran during it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

TICK_INTERVAL_S = 0.05


def tick() -> None:
    """A fixed piece of pure-Python work, rational arithmetic and dict updates."""
    total = Fraction(0)
    table: dict = {}
    for i in range(1, 60):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i


class SpeedSampler:
    """Times `tick` at the start, every TICK_INTERVAL_S of wall time, and the end.

    The speed of a shared machine changes by up to a factor of two within
    seconds, so one pass is slow or fast as a whole or in part.  The mean tick
    time over a section says how fast the machine ran during that section;
    the ticks that interrupt the section (about 1 % of it) are taken out of
    its time.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.inside = 0.0  # tick time within the timed section
        self.seconds = 0.0

    def _tick(self) -> float:
        start = time.perf_counter()
        tick()
        spent = time.perf_counter() - start
        self.ticks.append(spent)
        return spent

    def _on_alarm(self, signum, frame) -> None:
        self.inside += self._tick()

    def __enter__(self) -> "SpeedSampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = wall - self.inside
        self._tick()

    def figures(self) -> list[float]:
        """[seconds of the section without the ticks, mean tick time]"""
        return [self.seconds, sum(self.ticks) / len(self.ticks)]


def verify(main, argv: list[str], sections: dict, name: str) -> tuple[str, int]:
    out = io.StringIO()
    with SpeedSampler() as sampler, contextlib.redirect_stdout(out):
        code = main(argv)
    sections[name] = sampler.figures()
    return out.getvalue(), code


def run(src: str, scenario_dir: str, out_dir: Path, traced: bool) -> dict:
    sys.path.insert(0, src)
    sections: dict[str, list[float]] = {}
    figures: dict = {"sections": sections}
    if traced:
        with SpeedSampler() as sampler:
            import sympy  # noqa: F401
        sections["sympy_import"] = sampler.figures()
    with SpeedSampler() as sampler:
        import unimodal.cli
    sections["setup"] = sampler.figures()
    if not Path(unimodal.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"unimodal was imported from {unimodal.cli.__file__}, not from {src}")

    argv = ["corpus", "--dir", scenario_dir, "--report=json"]
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    report, figures["cold_code"] = verify(unimodal.cli.main, argv, sections, "cold")
    (out_dir / "cold.json").write_text(report, encoding="utf-8")
    if tracer is not None:
        tracer.uninstall()
        figures["trace"] = tracer.summary()
        tracer.write(out_dir / "spans.json")
    else:
        report, figures["warm_code"] = verify(unimodal.cli.main, argv, sections, "warm")
        (out_dir / "warm.json").write_text(report, encoding="utf-8")
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return figures


if __name__ == "__main__":
    src_arg, dir_arg, out_arg, mode = sys.argv[1:5]
    print(json.dumps(run(src_arg, dir_arg, Path(out_arg), mode == "traced")))
