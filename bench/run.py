"""Closed-loop benchmark of genred: one client, one job at a time.

    python3 bench/run.py --workload reduce --seed 1 --seconds 15 --trace 0

Builds the workload's seeded inputs, imports genred from `<root>/src` (the
checkout this file sits in, unless `--root` names another), and runs whole
passes of the workload's deck (just over 100 jobs) until `--seconds` of
job time have passed.  A job is one in-process `genred.cli.run(argv)` call
with stdout captured, or one library call.  Every job's output is checked
(see `workloads`), every repeat of a job must print exactly what its first
run printed, and on a seed recorded in `digests.json` every job's exit code
and stdout digest must equal the recorded ones.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` the deck runs exactly one pass, whatever `--seconds` is, so
the per-layer totals cover the same jobs on every host; each job runs
twice, untraced and traced in alternating order.  The traced copy records
spans around genred's public functions (see `tracing`), and the last line
reports per-function self time, calls and errors, the work counts, and the
tracing overhead.  Spans go to `<out>/spans.json`; job digests and
latencies go to `<out>/jobs.json`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import instances  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
MIN_JOBS = 100
RECORD = BENCH / "digests.json"
# Leading hex digits of each job's stdout SHA-256 kept in RECORD.
RECORD_HEX = 16

# Times are reported at a reference speed.  A VM whose cores other tenants
# share can run the same pure-Python code up to 1.8 times slower for
# stretches of ten seconds or more, so every timed interval is bracketed by
# a fixed calibration workload and scaled by CALIBRATION_S over its two
# timings: a figure then reads as the wall time on a machine where the two
# calibrations take CALIBRATION_S together (a quiet 2-core x86 VM, Python
# 3.11).  The calibration mixes the two kinds of work genred's jobs do,
# interpreted integer arithmetic and parsing JSON into dicts, because
# other tenants slow them by different factors.
CALIBRATION_LOOPS = 100_000
CALIBRATION_PARSES = 3
CALIBRATION_S = 0.022
_CALIBRATION_DOC = json.dumps({"transitions": [
    {"from": f"q{i}", "to": f"q{i * 7 % 1000}", "symbol": "abc"[i % 3], "prob": f"{i % 5 + 1}/7"}
    for i in range(800)
]})


def calibrate() -> float:
    """Wall seconds of the fixed calibration workload."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    for _ in range(CALIBRATION_PARSES):
        rows: dict[str, dict] = {}
        for t in json.loads(_CALIBRATION_DOC)["transitions"]:
            rows.setdefault(t["from"], {})[(t["to"], t["symbol"])] = t["prob"]
        groups: dict[tuple, list[str]] = {}
        for x, row in rows.items():
            groups.setdefault(tuple(sorted(row.items())), []).append(x)
    return perf_counter() - start


def timed(fn):
    """Run `fn` between two calibrations; return its result, its wall
    seconds and those seconds scaled to the reference speed."""
    before = calibrate()
    start = perf_counter()
    result = fn()
    wall = perf_counter() - start
    return result, wall, wall * CALIBRATION_S / (before + calibrate())


def load_genred(src: Path):
    """Import genred afresh from `src`, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "genred" or m.startswith("genred.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    genred = importlib.import_module("genred")
    if Path(genred.__file__).resolve().parent != (src / "genred").resolve():
        raise RuntimeError(f"imported genred from {genred.__file__}, not {src}")
    for module in tracing.LAYERS:
        importlib.import_module(f"genred.{module}")
    return genred


def _cli_call(cli, argv: list[str]):
    def call() -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    return call


def _transport_call(genred, lib: dict, inputs: Path):
    """Prepare a check_transport job; parsing its input files is set-up work."""
    formats, morphism = genred.formats, genred.morphism
    source, initial = formats.parse_generator_text((inputs / lib["source"]).read_text())
    target, _ = formats.parse_generator_text((inputs / lib["target"]).read_text())
    mu = genred.core.Distribution(initial)
    g = {s: s for s in source.alphabet}

    def call() -> tuple[int, str]:
        m = morphism.Morphism(source, target, lib["f"], g)
        return 0, repr(morphism.check_transport(m, mu, lib["max_len"]))

    return call


def prepare(genred, deck: workloads.Deck, inputs: Path) -> dict[str, object]:
    calls = {}
    for job in deck.jobs:
        if job.lib is not None:
            call = _transport_call(genred, job.lib, inputs)
        else:
            call = _cli_call(genred.cli, workloads.resolve(job.argv, inputs, deck.files))
        calls[job.id] = guarded(call)
    return calls


def guarded(call):
    """Wrap a job so that an uncaught exception is a failed job, not a crash."""

    def run_job() -> tuple[int, str]:
        try:
            return call()
        except Exception:
            return -1, traceback.format_exc()

    return run_job


def setup(workload: str, seed: int, tiny: bool, src: Path, inputs: Path):
    """Everything before the first timed job: instance generation, writing
    the files, importing genred, and one warm-up job of each kind."""
    deck = workloads.build(workload, seed, tiny)
    digest = instances.write_files(deck.files, inputs)
    genred = load_genred(src)
    calls = prepare(genred, deck, inputs)
    for job in deck.warmups():
        calls[job.id]()
    return deck, digest, calls


def recorded_entry(code: int, digest: str) -> str:
    """How digests.json records a job's exit code and stdout SHA-256."""
    return f"{code} {digest[:RECORD_HEX]}"


class Checker:
    """Checks each job's first output, holds every repeat to it, and holds
    every run to the seed commit's record of the job when there is one."""

    def __init__(self, recorded: dict[str, str] | None):
        self.recorded = recorded
        self.first: dict[str, tuple[int, str, str | None]] = {}
        self.failures: list[str] = []

    def __call__(self, job: workloads.Job, code: int, out: str) -> bool:
        digest = hashlib.sha256(out.encode()).hexdigest()
        if job.id not in self.first:
            try:
                error = job.check(code, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            self.first[job.id] = (code, digest, error)
        first_code, first_digest, error = self.first[job.id]
        if (code, digest) != (first_code, first_digest):
            error = "output differs from the job's first run"
        elif self.recorded is not None and self.recorded.get(job.id) != recorded_entry(code, digest):
            error = "exit code or stdout differs from the seed commit's record"
        if error:
            self.failures.append(f"{job.id}: {error}")
        return error is None


def measure(deck, calls, checker, seconds: float, tracer=None):
    """Run whole passes of the deck until `seconds` of job time and MIN_JOBS
    jobs, or, when tracing, exactly one pass in which each job runs once
    each way.  Returns the untraced (job id, wall seconds, scaled seconds)
    triples and the traced ones."""
    plain: list[tuple[str, float, float]] = []
    traced: list[tuple[str, float, float]] = []
    failed = 0
    busy = 0.0
    while not plain or (tracer is None and (busy < seconds or len(plain) < MIN_JOBS)):
        for job in deck.jobs:
            sides = [False] if tracer is None else [False, True]
            if len(plain) % 2:
                sides.reverse()
            for side in sides:
                gc.collect()
                if side:
                    tracer.job = job.id
                    tracer.counting = job.id not in tracer.counted
                    tracer.counted.add(job.id)
                    tracer.install()
                (code, out), wall, scaled = timed(calls[job.id])
                if side:
                    tracer.uninstall()
                (traced if side else plain).append((job.id, wall, scaled))
                busy += wall
                failed += not checker(job, code, out)
    return plain, traced, failed


def invoke(workload: str, seed: int, seconds: float, trace: int = 0, *,
           root: Path | None = None, out: Path | None = None, tiny: bool = False) -> dict:
    """Run this benchmark in a fresh process and return its result line."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if root is not None:
        argv += ["--root", str(root)]
    if out is not None:
        argv += ["--out", str(out)]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory under .bench_out in this checkout."""
    parent = BENCH.parent / ".bench_out"
    parent.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=parent)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of genred.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=BENCH.parent,
                        help="checkout whose src/genred is measured (default: this one)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for inputs, spans and digests "
                        "(default: .bench_out/<workload>-<seed> in this checkout)")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    src = args.root.resolve() / "src"
    if not (src / "genred" / "__init__.py").is_file():
        print(f"error: no genred package under {src}", file=sys.stderr)
        return 2
    out = args.out or BENCH.parent / ".bench_out" / (
        f"{args.workload}-{args.seed}" + ("-trace" if args.trace else "")
    )
    inputs = out / "inputs"

    setup_times = []
    for _ in range(SETUPS):
        (deck, input_digest, calls), _, scaled = timed(
            lambda: setup(args.workload, args.seed, args.tiny, src, inputs))
        setup_times.append(scaled)
    print(f"inputs sha256 {input_digest} ({len(deck.files)} files)")

    recorded = None
    if not args.tiny and RECORD.is_file():
        recorded = json.loads(RECORD.read_text()).get(args.workload, {}).get(str(args.seed))
    checker = Checker(recorded)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, failed = measure(deck, calls, checker, args.seconds, tracer)

    out.mkdir(parents=True, exist_ok=True)
    latencies: dict[str, list[list[float]]] = {job.id: [] for job in deck.jobs}
    for job_id, wall, scaled in plain:
        latencies[job_id].append([wall, scaled])
    (out / "jobs.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "jobs": {job_id: {"exit": code, "sha256": digest, "wall_and_scaled_s": latencies[job_id]}
                 for job_id, (code, digest, _) in checker.first.items()},
    }, indent=1) + "\n")
    for failure in checker.failures[:10]:
        print(f"FAIL {failure}")
    correct = failed == 0

    if tracer is None:
        busy = sum(wall for _, wall, _ in plain)
        scaled = [s for _, _, s in plain]
        metrics = {
            "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
            "job_p50_ms": (statistics.median(scaled) * 1000, "ms"),
            "job_p90_ms": (_percentile(scaled, 90) * 1000, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"{len(plain)} jobs in {busy:.3f} s wall ({len(plain) / busy:.3f} jobs/s, "
              f"{len(plain) / sum(scaled):.3f} at the reference speed); "
              f"{'outputs held to the record' if recorded is not None else 'seed not recorded'}")
    else:
        plain_s = sum(wall for _, wall, _ in plain)
        traced_s = sum(wall for _, wall, _ in traced)
        plain_rate, traced_rate = len(plain) / plain_s, len(traced) / traced_s
        metrics = dict(tracer.metrics())
        metrics["trace.jobs_per_s"] = (traced_rate, "1/s")
        metrics["trace.untraced_jobs_per_s"] = (plain_rate, "1/s")
        metrics["trace.overhead_pct"] = ((plain_rate / traced_rate - 1) * 100, "%")
        spans = out / "spans.json"
        tracer.write(spans, {
            "workload": args.workload, "seed": args.seed, "jobs": len(traced),
            "traced_s": traced_s, "untraced_s": plain_s,
        })
        print(f"{len(traced)} traced jobs; spans in {spans}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
