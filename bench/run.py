"""The benchmark: end-to-end figures, per-layer figures, correctness checks.

    python3 bench/run.py --workload corpus|germs|surfaces --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick

Run from the root of a source checkout.  The scenario files of the workload
are made from the seed under .bench_out/, then verified by passes, one at a
time, each in a fresh interpreter (bench/child.py) through the program's own
entry point ``unimodal.cli.main(["corpus", "--dir", DIR, "--report=json"])``.
Passes repeat until the seconds are spent; every figure is the median over
the passes, and every time is in reference seconds (see REFERENCE_TICK_S).
Every pass's report is checked apart from the program.

With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics.  With --trace 1, untraced and traced passes alternate and
the result holds the per-layer metrics, whose self times come from the
traced passes and whose `trace.overhead_s` is the median difference between
the cold verify times of a traced pass and the untraced pass before it.  --quick runs one untraced and one traced pass of
each workload on small inputs and only reports whether the checks held.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import germs
import surfaces
import tracing
from common import failed_scenarios, report_problems, write_scenarios

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# rounds of each generated workload per pass; a round is a fixed mix of shapes
ROUNDS = {"germs": 1, "surfaces": 4}
QUICK_ROUNDS = {"germs": 1, "surfaces": 1}
MIN_PASSES = 3
# run_scenario samples a traced run needs so that ten of them lie beyond its p90
P90_SAMPLES = 110
PASS_TIMEOUT_S = 150
# The mean tick time (see child.py) of the reference machine at its usual speed.
# The speed of a shared machine drifts by a factor of up to two, over seconds to
# minutes, so every time is reported in reference seconds: the time of a section
# times this over the mean tick time measured during that section.
REFERENCE_TICK_S = 0.0004


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; it exits with code 1."""


def prepare(workload: str, seed: int, rounds: dict, work: Path):
    if workload == "corpus":
        return corpus.generate(ROOT)
    generated = (germs if workload == "germs" else surfaces).generate(seed, rounds[workload])
    directory = work / "scenarios"
    write_scenarios(directory, [data for data, _ in generated])
    return directory, generated


def run_pass(scenario_dir: Path, work: Path, traced: bool) -> dict:
    command = [sys.executable, str(BENCH / "child.py"), str(SRC), str(scenario_dir), str(work),
               "traced" if traced else "untraced"]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass took more than {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"a pass exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Scenarios attempted and failed, and problems found by the checks."""

    def __init__(self, workload: str, generated: list) -> None:
        self.module = {"corpus": corpus, "germs": germs, "surfaces": surfaces}[workload]
        self.generated = generated
        self.names = [data["name"] for data, _ in generated]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, figures: dict, work: Path) -> None:
        text = (work / "cold.json").read_text(encoding="utf-8")
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            raise BenchError(f"no JSON report; exit code {figures['cold_code']}") from None
        failed = set(failed_scenarios(report))
        calls = 1
        problems = report_problems(report, self.names)
        if figures["cold_code"] != (1 if failed else 0):
            problems.append(f"exit code {figures['cold_code']} with {len(failed)} failed scenarios")
        if "warm" in figures["sections"]:
            calls = 2
            if (work / "warm.json").read_text(encoding="utf-8") != text:
                problems.append("the warm report differs from the cold report")
        kept = [g for g in self.generated if g[0]["name"] not in failed]
        problems += self.module.check(report, kept)
        self.attempted += calls * len(self.names)
        self.failed += calls * len(failed)
        self.problems.extend(p for p in problems if p not in self.problems)


def passes(scenario_dir: Path, work: Path, tally: Tally, seconds: float, traced: bool):
    """Untraced passes, or untraced and traced passes in turn, until the time is spent."""
    untraced: list[dict] = []
    traced_runs: list[dict] = []
    need_traced = max(MIN_PASSES, math.ceil(P90_SAMPLES / len(tally.names))) if traced else 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(untraced) + len(traced_runs)
        enough = len(untraced) >= MIN_PASSES and len(traced_runs) >= need_traced
        if enough and (done == 0 or elapsed + elapsed / done > seconds):
            break
        trace_now = len(traced_runs) < len(untraced) and traced
        figures = run_pass(scenario_dir, work, trace_now)
        tally.record(figures, work)
        (traced_runs if trace_now else untraced).append(figures)
    return untraced, traced_runs


def median(values) -> float:
    return statistics.median(values)


def scale(figures: dict, section: str) -> float:
    """Reference seconds per second of one timed section of a pass."""
    return REFERENCE_TICK_S / figures["sections"][section][1]


def reference_s(figures: dict, section: str) -> float:
    return figures["sections"][section][0] * scale(figures, section)


def end_to_end(untraced: list[dict]) -> dict:
    return {
        "setup_s": {"value": median(reference_s(f, "setup") for f in untraced), "unit": "s"},
        "cold_verify_s": {"value": median(reference_s(f, "cold") for f in untraced),
                          "unit": "s"},
        "warm_verify_s": {"value": median(reference_s(f, "warm") for f in untraced),
                          "unit": "s"},
        "peak_rss_mb": {"value": median(f["peak_rss_mb"] for f in untraced), "unit": "MB"},
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    summaries = [f["trace"] for f in traced]
    scales = [scale(f, "cold") for f in traced]
    for name in tracing.span_names():
        metrics[f"{name}.calls"] = {"value": median(s["calls"][name] for s in summaries),
                                    "unit": "count"}
        metrics[f"{name}.self_ms"] = {
            "value": median(s["self_ms"][name] * k for s, k in zip(summaries, scales)),
            "unit": "ms",
        }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_ms"] = {
            "value": median(
                k * sum(v for name, v in s["self_ms"].items() if tracing.layer_of(name) == layer)
                for s, k in zip(summaries, scales)
            ),
            "unit": "ms",
        }
    metrics["sympy.import_s"] = {"value": median(reference_s(f, "sympy_import") for f in traced),
                                 "unit": "s"}
    samples = sorted(ms * k for s, k in zip(summaries, scales) for ms in s["scenario_ms"])
    deciles = statistics.quantiles(samples, n=10)
    metrics["scenarios.run_scenario.p50_ms"] = {"value": median(samples), "unit": "ms"}
    if sum(1 for ms in samples if ms > deciles[-1]) >= 10:
        metrics["scenarios.run_scenario.p90_ms"] = {"value": deciles[-1], "unit": "ms"}
    families = metrics["sextics.verify_family.calls"]["value"]
    scans = metrics["planecurves.rational_singular_points.calls"]["value"]
    metrics["sextics.samples_per_family"] = {"value": scans / families if families else 0.0,
                                             "unit": "ratio"}
    # passes alternate, so pairing each traced pass with the untraced one before it
    # cancels most of the drift in the machine's speed
    overhead = median(reference_s(t, "cold") - reference_s(u, "cold")
                      for u, t in zip(untraced, traced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def start(workload: str, seed: int, rounds: dict) -> tuple[Path, Path, Tally]:
    if not (SRC / "unimodal" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC}; run from the root of a source checkout")
    work = OUT / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario_dir, generated = prepare(workload, seed, rounds, work)
    # compile the program's bytecode and warm the file cache before anything is timed
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import unimodal.cli"], check=True, timeout=PASS_TIMEOUT_S)
    return scenario_dir, work, Tally(workload, generated)


def bench(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    scenario_dir, work, tally = start(workload, seed, ROUNDS)
    untraced, traced_runs = passes(scenario_dir, work, tally, seconds, traced)
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{workload} seed {seed}: {len(untraced)} untraced and {len(traced_runs)} traced passes"
          f" of {len(tally.names)} scenarios; median cold verify"
          f" {median(f['sections']['cold'][0] for f in untraced):.3f} wall seconds, median tick"
          f" {median(f['sections']['cold'][1] for f in untraced) * 1000:.3f} ms", file=sys.stderr)
    metrics = per_layer(untraced, traced_runs) if traced else end_to_end(untraced)
    return {"correct": not tally.problems, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def quick() -> bool:
    ok = True
    for workload in ("corpus", "germs", "surfaces"):
        scenario_dir, work, tally = start(workload, 1, QUICK_ROUNDS)
        runs = [run_pass(scenario_dir, work, traced) for traced in (False, True)]
        for figures in runs:
            tally.record(figures, work)
        end_to_end(runs[:1])
        per_layer(runs[:1], runs[1:])
        status = "ok" if not tally.problems and not tally.failed else "FAILED"
        print(f"quick {workload}: {len(tally.names)} scenarios, {tally.failed} failed, {status}")
        for problem in tally.problems[:20]:
            print(f"  {problem}")
        ok = ok and status == "ok"
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("corpus", "germs", "surfaces"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.quick:
            return 0 if quick() else 1
        if args.workload is None:
            parser.error("--workload is required unless --quick is given")
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
