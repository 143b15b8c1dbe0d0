"""``serve_mixed``: a real ``repro serve`` process under a closed-loop mix.

One client process drives the server with two threads:

* the *cold* thread submits a fixed, seed-ordered sequence of distinct
  jobs (Table-1 rows up to johnson12, each at dfs/batch 1 and at
  bfs/batch 8, all with ``shards=1``) and waits for each to finish;
* the *hit* thread submits jobs whose keys were primed at start-up, so
  every one is answered from the result cache; it sends one every
  :data:`HIT_PERIOD_S`, or as soon as the previous reply arrives when
  that is later.

Hits keep going while the cold sequence runs (executor busy) and for
the rest of the run after it ends (executor idle).  A cold job's
latency runs from just before its submit to the server's
``finished_at`` stamp, so the client's polling interval does not
quantise it.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.bench.suite import case_by_name
from repro.errors import ServeError
from repro.serve.client import ServeClient
from repro.serve.keys import canonical_blif

from measure import median, percentile, vm_hwm_mb
from speed import SpeedSampler

COLD_ROWS = ("s27", "count6", "johnson8", "rand10", "lfsr8", "johnson12")
COLD_CONFIGS = {"": {}, "@bfs8": {"frontier": "bfs", "batch": 8}}
HIT_ROWS = ("s27", "count6", "johnson8")
#: Batch sizes no cold job uses: a hit key never answers a cold job.
HIT_CONFIGS = ({"batch": 2}, {"frontier": "bfs", "batch": 4})

#: Server spawns timed for ``setup_s``; the last one serves the load.
SETUP_SPAWNS = 3
#: Shortest executor-idle stretch of hits after the cold sequence.
MIN_IDLE_S = 2.0
#: Hit cadence.  Pacing keeps the number of hit jobs a run registers,
#: and so the server's memory, from following the machine's speed.
HIT_PERIOD_S = 0.01
POLL_S = 0.01
TERMINAL = ("done", "failed", "cancelled")


def served_name(row: str, suffix: str) -> str:
    """Expected-output key of a served cold job."""
    return f"served:{row}{suffix}"


def body(row: str, flags: dict) -> dict:
    case = case_by_name(row)
    return {
        "blif": canonical_blif(case.network()),
        "x_latches": list(case.x_latches),
        "shards": 1,
        **flags,
    }


class Server:
    """One ``repro serve`` child process on an ephemeral port, on ``cpu``."""

    def __init__(self, root: Path, cache_dir: Path, cpu: int) -> None:
        self.cache_dir = cache_dir
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--cache-dir", str(cache_dir), "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        os.sched_setaffinity(self.proc.pid, {cpu})
        line = self.proc.stdout.readline()
        if "listening on " not in line:
            self.stop()
            raise ServeError(f"server did not start: {line!r}")
        self.url = line.split("listening on ", 1)[1].strip()
        self.client = ServeClient(self.url, timeout=30.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if self.client.health().get("ok"):
                    break
            except ServeError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise
                time.sleep(0.005)
        self.ready = time.perf_counter()

    def stop(self) -> bool:
        """Shut down through ``/shutdown``; True when it exited with 0."""
        if self.proc.poll() is None:
            if hasattr(self, "url"):
                try:
                    ServeClient(self.url, timeout=10.0).shutdown()
                except (ServeError, OSError):
                    # The reply can be lost: the server may exit before its
                    # daemon handler thread writes it.  The exit status decides.
                    pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return self.proc.returncode == 0


def wait_done(client: ServeClient, job_id: str) -> dict:
    while True:
        status = client.job(job_id)
        if status["status"] in TERMINAL:
            return status
        time.sleep(POLL_S)


def run(*, seconds: float, seed: int, trace: bool, expected: dict, root: Path,
        tmp: Path, tally) -> dict[str, float]:
    """Run the served mix and return its metrics.

    The server runs pinned to one CPU and this client to the other;
    server-side times are reported at that CPU's reference speed (see
    :mod:`speed`).
    """
    rng = random.Random(seed)
    cold = [(served_name(row, suffix), body(row, flags))
            for row in COLD_ROWS for suffix, flags in COLD_CONFIGS.items()]
    hits = [(row, body(row, flags))
            for row in HIT_ROWS for flags in HIT_CONFIGS]
    rng.shuffle(cold)
    rng.shuffle(hits)
    client_cpu, server_cpu = sorted(os.sched_getaffinity(0))[:2]
    os.sched_setaffinity(0, {client_cpu})

    setup = []
    # (name, submit perf_counter, submit wall clock, final status)
    cold_jobs: list[tuple[str, float, float, dict]] = []
    hit_samples: list[tuple[float, bool]] = []  # (seconds, executor idle)
    server = None
    with SpeedSampler({client_cpu, server_cpu}) as sampler:
        try:
            for i in range(SETUP_SPAWNS):
                if server is not None:
                    tally.check("setup server shutdown", server.stop())
                server = Server(root, tmp / f"cache{i}", server_cpu)
                setup.append((server.start, server.ready))
            client = server.client
            for row, hit_body in hits:
                status = wait_done(client, client.submit(hit_body)["id"])
                tally.check(f"prime {row}", status["status"] == "done")
            load = drive(server.url, cold, hits, seconds, expected, tally,
                         cold_jobs, hit_samples)
            peak_rss_mb = vm_hwm_mb(server.proc.pid)
            for name, _, _, status in cold_jobs:
                result = client.result(status["id"])
                kiss = result["kiss"].encode("utf-8")
                got = {
                    "csf_states": result["csf_states"],
                    "kiss_sha256": hashlib.sha256(kiss).hexdigest(),
                }
                tally.check(f"cold {name}: output", got == expected.get(name))
        finally:
            if server is not None:
                tally.check("server shutdown", server.stop())

    if trace:
        return serve_layers(cold_jobs, hit_samples, load[1] - load[0])
    cold_s = [
        sampler.at_reference(start, start + status["finished_at"] - submitted,
                             server_cpu)
        for _, start, submitted, status in cold_jobs
    ]
    return {
        "setup_s": median([sampler.at_reference(*w, server_cpu) for w in setup]),
        "solve_s": sum(cold_s),
        "peak_rss_mb": peak_rss_mb,
    }


def drive(url, cold, hits, seconds, expected, tally, cold_jobs, hit_samples):
    """The closed loop: the cold sequence alongside back-to-back hits.

    Hits go on for at least :data:`MIN_IDLE_S` after the cold sequence,
    until ``seconds`` have passed in all.  Returns the load's window.
    """
    cold_done = threading.Event()
    stop = threading.Event()
    lock = threading.Lock()

    def cold_loop():
        own = ServeClient(url, timeout=60.0)
        try:
            for name, cold_body in cold:
                start, submitted = time.perf_counter(), time.time()
                try:
                    status = wait_done(own, own.submit(cold_body)["id"])
                except ServeError as exc:
                    with lock:
                        tally.check(f"cold {name}: {exc}", False)
                    continue
                with lock:
                    if tally.check(f"cold {name}: {status['status']}",
                                   status["status"] == "done"):
                        cold_jobs.append((name, start, submitted, status))
        finally:
            cold_done.set()

    def hit_loop():
        own = ServeClient(url, timeout=30.0)
        i = 0
        due = time.perf_counter()
        while not stop.is_set():
            row, hit_body = hits[i % len(hits)]
            i += 1
            time.sleep(max(0.0, due - time.perf_counter()))
            idle = cold_done.is_set()
            start = time.perf_counter()
            due = start + HIT_PERIOD_S
            try:
                reply = own.submit(hit_body)
            except ServeError as exc:
                with lock:
                    tally.check(f"hit {row}: {exc}", False)
                continue
            elapsed = time.perf_counter() - start
            ok = (
                reply["status"] == "done"
                and reply["cached"]
                and reply["result"]["csf_states"] == expected[row]["csf_states"]
            )
            with lock:
                if tally.check(f"hit {row}", ok):
                    hit_samples.append((elapsed, idle))

    threads = [threading.Thread(target=cold_loop), threading.Thread(target=hit_loop)]
    load_start = time.perf_counter()
    for thread in threads:
        thread.start()
    cold_done.wait()
    cold_s = time.perf_counter() - load_start
    time.sleep(max(seconds - cold_s, MIN_IDLE_S))
    stop.set()
    for thread in threads:
        thread.join()
    return load_start, time.perf_counter()


def serve_layers(cold_jobs, hit_samples, load_s) -> dict[str, float]:
    statuses = [status for *_, status in cold_jobs]
    run_s = [s["finished_at"] - s["started_at"] for s in statuses]
    solve_s = [s["result"]["seconds"] for s in statuses]
    all_hits = [elapsed * 1e3 for elapsed, _ in hit_samples]
    idle_hits = [elapsed * 1e3 for elapsed, idle in hit_samples if idle]
    first_submit = min((submitted for _, _, submitted, _ in cold_jobs), default=0.0)
    last_done = max((s["finished_at"] for s in statuses), default=first_submit)
    return {
        "serve.cold_s": last_done - first_submit,
        "serve.queue_wait_s": sum(s["started_at"] - s["submitted_at"] for s in statuses),
        "serve.job_solve_s": sum(solve_s),
        "serve.persist_s": sum(run_s) - sum(solve_s),
        "serve.hit_p50_ms": percentile(all_hits, 50) or 0.0,
        "serve.hit_p90_ms": percentile(all_hits, 90) or 0.0,
        "serve.hit_idle_p50_ms": percentile(idle_hits, 50) or 0.0,
        "serve.hit_samples": len(all_hits),
        "serve.hits_per_s": len(all_hits) / load_s,
        "serve.executor_busy_share": sum(run_s) / load_s,
        "eqn.subsets": sum((s.get("metrics") or {}).get("subsets", 0) for s in statuses),
    }
