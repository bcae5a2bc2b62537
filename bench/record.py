"""Record every job's exit code and stdout digest on the current commit
into digests.json.

    python3 bench/record.py --seeds 0-10

For each workload and seed, runs one untimed pass of the deck (a run with
`--seconds 0`) and stores, per job, its exit code and the leading
`run.RECORD_HEX` hex digits of its stdout's SHA-256.  Every later run of a
job on a recorded seed must reproduce them exactly, or it counts as
failed; that is the byte-identical stdout contract.  A run on a seed
already recorded is held to the record, so this adds seeds and never
rewrites one.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import run
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description="Record deck digests.")
    parser.add_argument("--seeds", required=True, help="range such as 0-10")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    record = json.loads(run.RECORD.read_text()) if run.RECORD.is_file() else {}
    with run.scratch_dir() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                out = Path(tmp) / f"{workload}-{seed}"
                result = run.invoke(workload, seed, 0, out=out)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: output is wrong; nothing recorded")
                jobs = json.loads((out / "jobs.json").read_text())["jobs"]
                record.setdefault(workload, {})[str(seed)] = {
                    job_id: run.recorded_entry(job["exit"], job["sha256"])
                    for job_id, job in sorted(jobs.items())
                }
                print(f"{workload} seed {seed}: {len(jobs)} jobs", flush=True)
    run.RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
