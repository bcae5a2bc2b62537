"""Smoke test of the benchmark itself, at tiny sizes (a few minutes).

    python3 bench/smoke.py

Checks that the same seed gives byte-identical inputs and another seed
different ones, that every workload runs untraced and traced with correct
output and the result line the benchmark contract asks for, that the traced counts
repeat exactly for a seed and a traced run is one pass of the deck, that
the span reporter and the summary run, that a job fails when its check
raises or its output differs from the record, that the A/B verdicts follow
their rules, and that the runner refuses a directory without genred's
sources.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import compare
import instances
import report
import run
import tracing
import workloads

END_TO_END = {"jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb"}


def check(cond: bool, message: str) -> None:
    if not cond:
        sys.exit(f"smoke: FAIL {message}")


def main() -> None:
    with run.scratch_dir() as tmp:
        scratch = Path(tmp)
        digests = [
            instances.write_files(workloads.build("equiv", seed, tiny=True).files, scratch / f"in{k}")
            for k, seed in enumerate((5, 5, 6))
        ]
        check(digests[0] == digests[1], "same seed gave different inputs")
        check(digests[0] != digests[2], "different seeds gave the same inputs")

        for workload in workloads.WORKLOADS:
            result = run.invoke(workload, 3, 0.2, tiny=True, out=scratch / workload)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(result["correct"] and result["failed"] == 0, f"{workload} output is wrong")
            check(result["attempted"] >= run.MIN_JOBS, f"{workload} ran too few jobs")
            check(set(result["metrics"]) == END_TO_END, f"{workload} end-to-end metric names")
            check(all(m["value"] > 0 for m in result["metrics"].values()), "a metric reads 0")

            traced = [run.invoke(workload, 3, 5, 1, tiny=True, out=scratch / f"{workload}-t{k}")
                      for k in range(2)]
            check(all(t["correct"] for t in traced), f"{workload} traced output is wrong")
            metrics = traced[0]["metrics"]
            for name in tracing.FUNCTIONS:
                check(all(f"{name}.{kind}" in metrics for kind in ("self_s", "calls", "errors")),
                      f"{name} is not reported")
            for name in tracing.COUNTS:
                check(traced[0]["metrics"][name] == traced[1]["metrics"][name],
                      f"{workload} count {name} does not repeat")
            check(metrics["cli.run.calls"]["value"] + metrics["morphism.check_transport.calls"]["value"]
                  == len(workloads.build(workload, 3, tiny=True).jobs),
                  f"{workload} traced run is not one pass of the deck")
            text = report.report(json.loads((scratch / f"{workload}-t0" / "spans.json").read_text()))
            check("tracing overhead" in text, "reporter prints no overhead line")

        summary = subprocess.run([sys.executable, str(run.BENCH / "summary.py"), "--tiny",
                                  "--seconds", "0.2"], capture_output=True, text=True, timeout=600)
        check(summary.returncode == 0 and "fail_ratio" in summary.stdout, "summary failed")

        bare = scratch / "bare"
        bare.mkdir()
        refused = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", "reduce",
                                  "--seed", "1", "--seconds", "1", "--root", str(bare)],
                                 capture_output=True, text=True, timeout=180)
        check(refused.returncode != 0 and not refused.stdout, "ran without genred sources")

    job = workloads.Job("j", "k", 1, lambda code, out: [json.loads(out), None][1])
    recorded = {"j": run.recorded_entry(0, hashlib.sha256(b"{}").hexdigest())}
    check(run.Checker(recorded)(job, 0, "{}"), "recorded output rejected")
    check(not run.Checker(None)(job, 0, "not json"), "a check that raises passed")
    check(not run.Checker(recorded)(job, 0, "[]"), "output unlike the record passed")
    check(not run.Checker({})(job, 0, "{}"), "job missing from the record passed")

    fast, slow = [10.0 + k / 10 for k in range(10)], [12.0 + k / 10 for k in range(10)]
    check(compare.verdict(fast, slow, "higher", 0.1) == ("better", 10), "clear gain")
    check(compare.verdict(slow, fast, "higher", 0.1)[0] == "worse", "clear regression")
    check(compare.verdict(fast, fast, "higher", 0.1)[0] == "same", "no change")
    wide = [1.0, 3.0] * 5
    check(compare.verdict(wide, wide[::-1], "lower", 0.1)[0] == "unresolved", "wide spread")
    print("smoke: ok")


if __name__ == "__main__":
    main()
