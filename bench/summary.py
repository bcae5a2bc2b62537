"""Every end-to-end metric of every workload, in one table.

    python3 bench/summary.py --seed 1

Runs each workload once, untraced, in a fresh process, and prints one row
per workload with the metrics of BENCHMARK.json and the fail ratio (failed
or wrong jobs over jobs attempted), each with its unit.
"""

from __future__ import annotations

import argparse
import json

import run


def main() -> None:
    bench = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="End-to-end metrics of every workload.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()

    metrics = [(m["name"], m["unit"]) for m in bench["end_to_end"]] + [("fail_ratio", "1")]
    print(f"{'workload':10s} {'correct':>8s} {'jobs':>6s}" + "".join(
        f" {f'{name} ({unit})':>18s}" for name, unit in metrics))
    for workload in (w["name"] for w in bench["workloads"]):
        result = run.invoke(workload, args.seed, args.seconds, tiny=args.tiny)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        values["fail_ratio"] = result["failed"] / result["attempted"]
        print(f"{workload:10s} {str(result['correct']):>8s} {result['attempted']:6d}" + "".join(
            f" {values[name]:18.4f}" for name, _ in metrics))


if __name__ == "__main__":
    main()
