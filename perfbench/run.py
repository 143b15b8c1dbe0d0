"""Repository benchmark: Table-1 flows, twin rings on the runtime, and a served mix.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``table1``,
``table1_mono``, ``twin_sharded`` and ``serve_mixed``.  ``--trace 0``
measures the end-to-end metrics with no instrumentation installed;
``--trace 1`` solves each job twice, untraced and under the per-layer
ledger (``layers.py``), and reports the per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``table1_mono`` prints the paper's mono/part ratio table before it;
per-pass timings and failed checks go to standard error.  The package
is imported from ``src/`` of the checkout; without it the run fails
before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("table1", "table1_mono", "twin_sharded", "serve_mixed")

def setup_probe(workload: str) -> None:
    """Import the workload's modules and build its inputs, then report."""
    import solver_loads

    for job in solver_loads.JOBS[workload]():
        job.case.network()
    print("ready", flush=True)


def time_setup(workload: str) -> tuple[float, float]:
    """Window from spawning an interpreter until it is ready to time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", workload],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    end = time.perf_counter()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe for {workload} failed")
    return start, end


def run_workload(args, tmp: Path, tally) -> dict[str, float]:
    expected = json.loads((HERE / "expected.json").read_text())
    if args.workload == "serve_mixed":
        import serve_load

        return serve_load.run(
            seconds=args.seconds, seed=args.seed, trace=args.trace,
            expected=expected, root=ROOT, tmp=tmp, tally=tally,
        )
    import solver_loads

    return solver_loads.run(
        args.workload, seconds=args.seconds, seed=args.seed, trace=args.trace,
        expected=expected, tally=tally,
        setup_probe=lambda: time_setup(args.workload),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    # Spill stores and caches default to the temp directory: keep them
    # inside the checkout, and count anything left behind as a failure.
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    from measure import Tally, child_pids

    tally = Tally()
    try:
        metrics = run_workload(args, tmp, tally)
        tally.check(f"temp files left: {os.listdir(tmp)}", not os.listdir(tmp))
        tally.check(f"processes left: {child_pids()}", not child_pids())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for error in tally.errors:
        print(f"FAILED: {error}", file=sys.stderr)

    if args.trace:
        # A layer a workload never enters reads 0 there.
        metrics = {m["name"]: 0.0 for m in declared} | metrics
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
