"""Measurement helpers shared by the workloads: statistics, memory, processes."""

from __future__ import annotations

import math
import os
import resource
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float, *, min_beyond: int = 10) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than
    ``min_beyond`` samples lie beyond it (the estimate would rest on a
    handful of outliers)."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return float(ordered[rank - 1])


def self_peak_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), 0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids() -> list[int]:
    """Live child processes of this process."""
    parent = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state; a zombie has ended and only awaits reaping.
        if int(fields[1]) == parent and fields[0] != "Z":
            found.append(int(entry))
    return found


def run_forked(check) -> bool:
    """Run ``check()`` in a forked child and return whether it passed.

    Output checks run outside the timed region; forking keeps their
    memory out of the measuring process's peak resident set.
    """
    pid = os.fork()
    if pid == 0:  # child
        try:
            ok = bool(check())
        except BaseException:
            ok = False
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    return os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


class Tally:
    """Operations attempted and failed; a failure never stops the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok
