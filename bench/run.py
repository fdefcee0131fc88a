"""End-to-end benchmark of the notezipf CLI on seeded synthetic workloads.

    python3 bench/run.py --workload midi-large --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
workload is generated from ``--seed`` into ``.bench_work/<workload>/in``, so
the CLI sees only the generated files.  Every run checks the CLI's outputs
against the generator and against the first run's bytes.

``--trace 0`` runs the CLI in a fresh interpreter, one at a time (a closed
loop with one client), for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` alternates untraced runs with runs of ``bench/traced.py``, which
records a span around each layer call, and reports per-layer metrics from the
spans plus the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a summary are left in
``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up is sampled a few times before every CLI run rather than all at once,
# so that its median spans the same minutes as the runs; on a shared machine
# CPU speed changes over seconds.
SETUP_PER_RUN = 4
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120
SETUP_CODE = "from notezipf.cli import build_parser; build_parser()"

# per-layer metric -> span name whose self time it sums
SELF_TIMES = {
    "smf.parse_smf_s": "smf.parse_smf",
    "smf.pair_notes_s": "smf.pair_notes",
    "notes.tokenize_s": "notes.tokenize",
    "text.tokenize_text_s": "text.tokenize_text",
    "stats.count_tokens_s": "stats.count_tokens",
    "stats.spectrum_s": "stats.spectrum",
    "stats.spectrum_gamma_s": "stats.fit_spectrum_gamma",
    "stats.rank_slope_s": "stats.fit_rank_slope",
    "fit.fit_nu_s": "fit.fit_nu",
    "fit.solve_n0_s": "fit.solve_n0",
    "simulate.simulate_s": "simulate.simulate",
    "simulate.verify_zipf_s": "simulate.verify_zipf",
    "cli.read_s": "cli.read",
    "cli.write_s": "cli.write",
    "cli.main_s": "cli.main",
}

# ROADMAP baseline stages -> span whose inclusive time they are
STAGES = {
    "extract_notes": "smf.extract_notes",
    "tokenize": "notes.tokenize",
    "count_tokens": "stats.count_tokens",
    "tokenize_text": "text.tokenize_text",
    "simulate": "simulate.simulate",
    "fit_nu": "fit.fit_nu",
}


def run_child(cmd: list[str], cwd: Path, env: dict, log: Path) -> tuple[int, float, float]:
    """Run one fresh interpreter to completion.

    Returns (exit code, wall seconds, peak RSS in MB).  The RSS comes from
    os.wait4, so it is this child's own, not a maximum over all children.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=sink, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


class Runner:
    """Runs one generated case through the CLI and checks every run's outputs."""

    def __init__(self, case, work: Path) -> None:
        self.case = case
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.out_bytes = 0

    def run(self, cmd: list[str]) -> tuple[float, float]:
        """One checked run; returns (wall seconds, peak RSS MB)."""
        case, out = self.case, self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        log = self.work / "child.log"
        code, wall, rss = run_child(cmd, self.work, self.env, log)
        self.attempted += case.operations
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-500:]
            self._fail(case.operations, [f"exit code {code}: {tail}"])
            return wall, rss
        try:
            failed, problems = case.check(out)
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
            size = sum(p.stat().st_size for p in out.iterdir())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self._fail(case.operations, [f"outputs unreadable: {exc!r}"])
            return wall, rss
        if self.reference is None:
            self.reference, self.out_bytes = digests, size
        elif digests != self.reference:
            failed = case.operations
            problems = problems + ["outputs differ from the first run's bytes"]
        self._fail(failed, problems)
        return wall, rss

    def _fail(self, failed: int, problems: list[str]) -> None:
        self.failed += failed
        for problem in problems:
            if problem not in self.problems:
                self.problems.append(problem)


def measure_setup(samples: int) -> list[float]:
    """Wall seconds for a fresh interpreter to import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(samples):
        code, wall, _ = run_child([sys.executable, "-c", SETUP_CODE], ROOT, env, WORK / "setup.log")
        if code != 0:
            raise SystemExit(f"setup failed: {(WORK / 'setup.log').read_text(errors='replace')}")
        walls.append(wall)
    return walls


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.4g} .. {q3:.4g}"


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name of each span's duration minus its children's."""
    in_children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            in_children[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"] - in_children[span["id"]]
    return totals


def span_sum(spans: list[dict], name: str, key: str | None = None) -> float:
    """Summed duration of the spans called name, or the sum of one of their counts."""
    return sum(s.get(key, 0) if key else s["end"] - s["start"] for s in spans if s["name"] == name)


def layer_metrics(spans: list[dict], props: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    own = self_times(spans)
    metrics = {name: own.get(span_name, 0.0) for name, span_name in SELF_TIMES.items()}
    tables = [s for s in spans if s["name"] == "stats.count_tokens" and "V" in s]
    evals = sum(1 for s in spans if s["name"] == "fit.solve_n0")
    metrics.update({
        "smf.bytes": span_sum(spans, "smf.parse_smf", "bytes"),
        "smf.notes": span_sum(spans, "smf.pair_notes", "notes"),
        "notes.distinct_durations": props["distinct_durations"],
        "notes.distinct_duration_share": props["distinct_duration_share"],
        "text.words": span_sum(spans, "text.tokenize_text", "words"),
        "stats.V": statistics.fmean(s["V"] for s in tables) if tables else 0,
        "stats.T": sum(s["T"] for s in tables),
        "fit.objective_evals": evals,
        "fit.eval_us": span_sum(spans, "fit.fit_nu") / evals * 1e6 if evals else 0.0,
        "simulate.steps": span_sum(spans, "simulate.simulate", "steps"),
        "input.files": props["files"],
        "input.bytes": props["bytes"],
        "input.tracks": props["tracks"],
    })
    return metrics


def stage_times(spans: list[dict]) -> dict[str, float]:
    """Inclusive seconds of each ROADMAP baseline stage in one traced run."""
    return {stage: span_sum(spans, span_name) for stage, span_name in STAGES.items()}


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "notezipf" / "cli.py").is_file():
        print(f"error: no notezipf sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    started = time.perf_counter()
    case = WORKLOADS[args.workload](work, args.seed)
    print(f"{args.workload} seed {args.seed}: inputs generated in {time.perf_counter() - started:.2f} s")
    print(f"  input properties: {json.dumps(case.properties, sort_keys=True)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    runner = Runner(case, work)
    cli = [sys.executable, "-m", "notezipf.cli", *case.argv]
    walls: list[float] = []
    rss: list[float] = []
    traced_walls: list[float] = []
    layer_runs: list[dict] = []
    stage_runs: list[dict] = []
    all_spans: list[dict] = []

    setup: list[float] = []
    stages: dict[str, float] = {}
    measure_setup(1)  # writes the bytecode caches, which users do not pay for each run
    min_runs = 2 if args.trace else MIN_RUNS
    deadline = time.perf_counter() + args.seconds
    while len(walls) < min_runs or time.perf_counter() < deadline:
        if not args.trace:
            setup.extend(measure_setup(SETUP_PER_RUN))
        wall, peak = runner.run(cli)
        walls.append(wall)
        rss.append(peak)
        if args.trace:
            spans_file = work / f"spans_{len(traced_walls)}.json"
            run_id = f"{args.workload}/{args.seed}/{len(traced_walls)}"
            wall, _ = runner.run([sys.executable, str(BENCH / "traced.py"), str(spans_file), run_id, *case.argv])
            traced_walls.append(wall)
            if not spans_file.exists():  # killed before it could write; counted as failed
                continue
            spans = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
            all_spans.extend(spans)
            layer_runs.append(layer_metrics(spans, case.properties))
            stage_runs.append(stage_times(spans))

    wall_s = statistics.median(walls)
    fail_ratio = runner.failed / runner.attempted
    print(f"  {len(walls)} untraced runs, {len(traced_walls)} traced runs")
    print(f"  fail_ratio   {fail_ratio:.4g} ratio ({runner.failed} of {runner.attempted} operations failed)")
    for problem in runner.problems:
        print(f"  FAILED: {problem}")
    print(f"  output sha256: {json.dumps(runner.reference, sort_keys=True)}")

    if args.trace:
        metrics = {
            name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]
        }
        metrics["cli.out_bytes"] = runner.out_bytes
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        for name in units:
            print(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
        stages = {stage: statistics.median(run[stage] for run in stage_runs) for stage in STAGES}
        print("  ROADMAP stages (inclusive seconds, median of traced runs):")
        for stage, seconds in stages.items():
            print(f"    {stage:16s} {seconds:.4f} s")
        with open(work / "spans.jsonl", "w", encoding="utf-8") as sink:
            for span in all_spans:
                sink.write(json.dumps(span, sort_keys=True) + "\n")
    else:
        # tokens_per_s is tokens per run / wall_s with a fixed token count, so
        # it is printed but not listed in BENCHMARK.json: wall_s gates it.
        tokens_per_s = case.tokens / wall_s
        metrics = {
            "wall_s": wall_s,
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup),
        }
        print(f"  wall_s       {wall_s:.4f} s ({quartiles(walls)})")
        print(f"  tokens_per_s {tokens_per_s:.1f} 1/s ({case.tokens} tokens per run)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB ({quartiles(rss)})")
        print(f"  setup_s      {metrics['setup_s']:.4f} s ({quartiles(setup)})")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    summary = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        tokens_per_s=case.tokens / wall_s,
        properties=case.properties,
        outputs_sha256=runner.reference,
        problems=runner.problems,
        python=sys.version.split()[0],
        stages=stages,
        samples={"wall_s": walls, "traced_wall_s": traced_walls, "peak_rss_mb": rss, "setup_s": setup},
    )
    (work / "result.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
