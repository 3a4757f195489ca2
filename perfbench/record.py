"""Record the reference outputs that run.py checks jobs against.

    python3 perfbench/record.py --seeds 100

Runs every job of every workload once per seed in 0..SEEDS-1 (jobs whose
outputs do not depend on the seed, and the probe jobs, only once) and
writes ``reference.jsonl`` next to this file.  A job whose outputs fail
their invariants is not recorded; the script then exits with status 1.
Record only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import workloads
from run import REFERENCE, SRC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args(argv)
    sf = workloads.import_solfree(SRC)
    reference, status = {}, 0

    def record(group, job, seed):
        nonlocal status
        key = str(seed) if job.seeded else "*"
        entries = reference.setdefault(group, {}).setdefault(job.name, {})
        if key in entries:
            return
        out = job.run()
        problems = checks.invariant_problems(job, out)
        if problems:
            print(f"{group} {job.name} seed {seed}: {problems}", file=sys.stderr)
            status = 1
            return
        entries[key] = checks.RECORDS[job.kind](out)

    for job in workloads.probe(sf):
        record("probe", job, 0)
    for seed in range(args.seeds):
        for name, build in workloads.WORKLOADS.items():
            for job in build(sf, seed).jobs:
                record(name, job, seed)
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    write_reference(reference)
    return status


def write_reference(reference):
    """One JSON line per record: [group, job, seed or "*", record]."""
    with open(REFERENCE, "w") as fh:
        for group in sorted(reference):
            for job in sorted(reference[group]):
                for key in sorted(reference[group][job], key=lambda k: (k != "*", len(k), k)):
                    line = [group, job, key, reference[group][job][key]]
                    fh.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
