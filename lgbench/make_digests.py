"""Regenerate lgbench/digests.json: the default seed's outputs, pinned.

    python3 lgbench/make_digests.py

Runs the first cycles of every workload at the default seed, keeps the
outputs that pass their oracles, and stores a short sha256 of each.  A
later run at the default seed counts any differing output as a wrong
report.  Regenerate only when a report changes on purpose (the old one
was wrong); say so in the change that does it.
"""

from __future__ import annotations

import json
import sys

import run
from oracles import digest
from workloads import WORKLOADS


def main() -> int:
    run.load_program()
    sys.set_int_max_str_digits(0)
    out = {}
    for workload in WORKLOADS:
        plan, worker, cold, _ = run.setup(workload, run.DEFAULT_SEED, run.DEFAULT_DEADLINE_S)
        try:
            records = [(task, worker.run(task, run.DEFAULT_DEADLINE_S))
                       for c in range(run.DIGEST_CYCLES[workload]) for task in plan.cycle(c)]
        finally:
            worker.close()
        outcomes = run.classify(records, workload, None, run.DEFAULT_SEED,
                                cold if workload == "cli-warm" else None)
        wrong = [(t["id"], reason) for t, _, status, reason in outcomes if status == "wrong"]
        if wrong:
            print(f"{workload}: wrong outputs, digests not written: {wrong[:3]}")
            return 1
        out[workload] = {t["id"]: digest(r["output"])
                         for t, r, status, _ in outcomes if status == "correct"}
        print(f"{workload}: {len(out[workload])} digests")
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
