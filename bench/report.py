"""Per-layer report of a traced run.

    python3 bench/report.py .bench_out/reduce-1-trace/spans.json

Reads the span file that `run.py --trace 1` writes and prints, per timed
function, its calls, errors and self time (span time minus the time of its
child spans) with its share of all traced time; then the work counts and
the tracing overhead (traced against untraced jobs per second, from the
same jobs run both ways).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from tracing import self_times


def report(doc: dict) -> str:
    self_s, calls, errors = self_times(doc["spans"])
    total = sum(self_s.values()) or 1.0
    lines = [
        f"traced run: workload {doc['workload']}, seed {doc['seed']}, "
        f"{doc['jobs']} traced jobs, {len(doc['spans'])} spans",
        f"{'function':40s} {'calls':>7s} {'errors':>7s} {'self_s':>10s} {'share':>7s}",
    ]
    for name in sorted(self_s, key=self_s.get, reverse=True):
        lines.append(f"{name:40s} {calls[name]:7d} {errors[name]:7d} "
                     f"{self_s[name]:10.4f} {self_s[name] / total:7.1%}")
    lines.append("counts (first run of each job): " + ", ".join(
        f"{name} {value}" for name, value in doc["counts"].items()))
    traced = doc["jobs"] / doc["traced_s"]
    untraced = doc["jobs"] / doc["untraced_s"]
    lines.append(f"tracing overhead: {traced:.3f} jobs/s traced vs {untraced:.3f} untraced "
                 f"({untraced / traced - 1:+.1%} time per job)")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description="Per-layer report of a traced run.")
    parser.add_argument("spans", type=Path, help="spans.json written by run.py --trace 1")
    args = parser.parse_args()
    print(report(json.loads(args.spans.read_text())))


if __name__ == "__main__":
    main()
