"""Machine-speed sampler: how fast the CPUs ran while a window was timed.

On a shared host a vCPU's speed swings by up to ~2x within a fraction
of a second (another tenant on the sibling hyperthread), and the swings
on the two vCPUs are nearly independent.  A wall time then measures the
machine as much as the code.  The sampler runs :data:`PER_CPU` small
processes per CPU, pinned to it, each waking every :data:`PERIOD_S` to
time a fixed pure-Python unit of work (no package code) in CPU seconds.
The mean unit time inside a timed window, over
:data:`REFERENCE_UNIT_S`, is the window's *slowdown*; dividing a wall
time by it gives the time at reference speed.  The unit chases pointers
through a large shuffled list, so caches and memory slow it the way
they slow the BDD kernel.  Together the samplers cost each CPU about 2%.

On the reference box this roughly halves the run-to-run spread of a
solve time.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import random
import time

PERIOD_S = 0.3
#: Sampling processes per CPU.  Each unit time carries its process's
#: memory layout; averaging a few processes evens that out.
PER_CPU = 3
#: Median unit time on the reference box (a 2-vCPU Xeon VM) at rest.
REFERENCE_UNIT_S = 0.0018

#: Cells of the unit's shuffled table: pointers plus int objects, ~36 MB,
#: so the unit competes for caches and memory like the BDD kernel does.
TABLE_CELLS = 1 << 20


def make_table() -> list[int]:
    table = list(range(TABLE_CELLS))
    random.Random(0).shuffle(table)
    return table


def unit(table: list[int]) -> int:
    x = 1
    total = 0
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[x & (TABLE_CELLS - 1)]
    return total


def _sample(cpu: int, conn) -> None:
    os.sched_setaffinity(0, {cpu})
    table = make_table()
    conn.send("ready")
    samples = []
    while not conn.poll(PERIOD_S):
        start = time.process_time()
        unit(table)
        samples.append((time.perf_counter(), time.process_time() - start, cpu))
    conn.send(samples)
    conn.close()


class SpeedSampler:
    """:data:`PER_CPU` sampling processes per CPU in ``cpus`` (default: all
    allowed); use as a context manager, then read windows off it."""

    def __init__(self, cpus=None) -> None:
        ctx = mp.get_context("fork")
        self._procs = []
        self.samples: list[tuple[float, float, int]] = []  # (time, unit s, cpu)
        cpus = sorted(cpus if cpus is not None else os.sched_getaffinity(0))
        for cpu in cpus * PER_CPU:
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_sample, args=(cpu, child), daemon=True)
            proc.start()
            child.close()
            self._procs.append((proc, parent))
        # Tables are built before anything is timed: building one takes
        # the CPU for a good fraction of a second.
        for _, conn in self._procs:
            conn.recv()

    @property
    def pids(self) -> set[int]:
        return {proc.pid for proc, _ in self._procs}

    def stop(self) -> None:
        for proc, conn in self._procs:
            conn.send(None)
            self.samples.extend(conn.recv())
            conn.close()
            proc.join()
        self._procs = []
        self.samples.sort()

    def slowdown(self, start: float, end: float, cpu: int | None = None) -> float:
        """Mean unit time in ``[start, end]`` over the reference (≥ 3 samples),
        on ``cpu`` or on every sampled CPU."""
        samples = [s for s in self.samples if cpu is None or s[2] == cpu]
        inside = [dt for t, dt, _ in samples if start <= t <= end]
        if len(inside) < 3:
            mid = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:3]
            inside = [dt for _, dt, _ in nearest]
        return sum(inside) / len(inside) / REFERENCE_UNIT_S

    def at_reference(self, start: float, end: float, cpu: int | None = None) -> float:
        """The window's wall time as it would read at reference speed."""
        return (end - start) / self.slowdown(start, end, cpu)

    def __enter__(self) -> "SpeedSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
