"""A/B comparison of two checkouts with this benchmark.

    python3 bench/compare.py PARENT_CHECKOUT CHANGE_CHECKOUT [--pairs 10]

Both sides run this copy of the benchmark, each importing genred from its
own checkout's `src`.  Pair i runs both sides on seed `--first-seed + i`,
each in a fresh process, parent first in even pairs and change first in
odd ones.  Every job must print the same exit code and stdout on both
sides.  For each end-to-end metric the table gives one row per workload:
each side's median and quartiles, the change's wins out of the pairs, and
a verdict:

* better: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and its median beats the parent's by more than the
  parent's interquartile range;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* unresolved: either side's interquartile range, as a share of its median,
  exceeds that bound, unless every change run beats every parent run;
* same: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

import run

MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """Verdict on one metric from paired runs, and the change's wins."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if wins * 10 >= 9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return "better", wins
    if max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound:
        beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
        return ("better" if beats_all else "unresolved"), wins
    if sign * (pm - cm) > bound * abs(pm):
        return "worse", wins
    return "same", wins


def job_outputs(out: Path) -> dict[str, tuple[int, str]]:
    jobs = json.loads((out / "jobs.json").read_text())["jobs"]
    return {job_id: (job["exit"], job["sha256"]) for job_id, job in jobs.items()}


def main() -> None:
    bench = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="A/B comparison of two checkouts.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="workload to compare (repeatable; default: all)")
    args = parser.parse_args()
    if args.pairs < MIN_PAIRS:
        parser.error(f"the 9-in-10 rule needs at least {MIN_PAIRS} pairs")
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    values: dict[tuple[str, str, str], list[float]] = {}
    mismatched: dict[str, set[str]] = {w: set() for w in workloads}
    failed: dict[tuple[str, str], int] = {}
    wrong: dict[tuple[str, str], int] = {}
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            outputs = {}
            for side in order:
                out = run.BENCH.parent / ".bench_out" / "compare" / f"{side}-{workload}-{seed}"
                result = run.invoke(workload, seed, bench["run_seconds"], root=sides[side], out=out)
                failed[(workload, side)] = failed.get((workload, side), 0) + result["failed"]
                wrong[(workload, side)] = wrong.get((workload, side), 0) + (not result["correct"])
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, side, name), []).append(metric["value"])
                outputs[side] = job_outputs(out)
            mismatched[workload] |= {
                job for job in outputs["parent"]
                if outputs["parent"][job] != outputs["change"].get(job)
            }
            print(f"pair {i + 1}/{args.pairs} {workload} seed {seed} done", flush=True)

    for metric in bench["end_to_end"]:
        name = metric["name"]
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']})")
        print(f"{'workload':10s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
              f"{'wins':>6s}  verdict")
        for workload in workloads:
            parent = values[(workload, "parent", name)]
            change = values[(workload, "change", name)]
            result, wins = verdict(parent, change, metric["better"], metric["bound"])
            cells = []
            for side in (parent, change):
                q1, qm, q3 = quartiles(side)
                cells.append(f"{qm:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:10s} {cells[0]:>32s} {cells[1]:>32s} {wins:3d}/{len(parent):<2d}  {result}")
    print()
    for workload in workloads:
        print(f"{workload}: failed jobs parent {failed[(workload, 'parent')]}, "
              f"change {failed[(workload, 'change')]}; runs not correct parent "
              f"{wrong[(workload, 'parent')]}, change {wrong[(workload, 'change')]}; "
              f"{len(mismatched[workload])} jobs print differently"
              + (f" ({', '.join(sorted(mismatched[workload])[:5])} ...)" if mismatched[workload] else ""))


if __name__ == "__main__":
    main()
