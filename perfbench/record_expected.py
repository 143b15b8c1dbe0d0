"""Re-record ``expected.json``: the CSF state count and KISS digest per job.

Run from the root of a source checkout after a change that is *meant*
to alter solver output::

    python3 perfbench/record_expected.py

Every entry is solved in-process with the same flags the workloads use.
The monolithic rows reuse the partitioned rows' entries.  The served
cold jobs get ``served:`` entries solved with the latch list sorted,
because the server canonicalises a job spec that way, and the latch
order is the order of the KISS input columns.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import serve_load  # noqa: E402
import solver_loads  # noqa: E402
from repro.bench.suite import case_by_name  # noqa: E402


def main() -> int:
    jobs = solver_loads.table1_jobs() + solver_loads.twin_jobs()
    for row in serve_load.COLD_ROWS:
        case = case_by_name(row)
        served = dataclasses.replace(case, x_latches=tuple(sorted(case.x_latches)))
        jobs += [
            solver_loads.Job(serve_load.served_name(row, suffix), served, flags)
            for suffix, flags in serve_load.COLD_CONFIGS.items()
        ]
    expected = {}
    for job in jobs:
        outcome = solver_loads.solve(job, job.case.network())
        if outcome.error is not None:
            print(f"{job.name}: {outcome.error}", file=sys.stderr)
            return 1
        expected[job.name] = solver_loads.digest(outcome.result)
        print(f"{job.name}: {expected[job.name]['csf_states']} states", flush=True)
    out = HERE / "expected.json"
    out.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
