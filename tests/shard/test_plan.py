"""The sharded image join: slices, the static deal and the OR join.

The split join is placement-independent: OR is commutative and
associative and BDDs are canonical, so whichever shard a cofactor slice
is dealt to, the joined image must be edge-identical to the in-process
reference.  A batch is dealt with one ``expand_batch`` per shard that
receives a slice, whatever the pool size.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager, dump_nodes
from repro.shard import ShardPool, ShardedImage
from repro.symb.image import image_partitioned

N_VARS = 8


def relation_manager():
    """A manager with interleaved (x_i, y_i) pairs and iff parts."""
    mgr = BddManager()
    xs, ys = [], []
    for i in range(N_VARS):
        xs.append(mgr.add_var(f"x{i}"))
        ys.append(mgr.add_var(f"y{i}"))
    return mgr, xs, ys


def make_parts(mgr, xs, ys, spec):
    """Parts ``y_i ≡ <function of xs>`` per (i, xs-subset) spec."""
    parts = []
    for i, deps in spec:
        f = 1
        for d in deps:
            f = mgr.apply_and(f, mgr.var_node(xs[d]))
        parts.append(mgr.apply_iff(mgr.var_node(ys[i]), f))
    return parts


def retain_everywhere(pool, mgr, handle, edge):
    pool.broadcast(("retain", handle, dump_nodes(mgr, [edge])))


def constraints_with_slices(mgr, xs):
    """Constraints whose support spans several split candidates."""
    out = []
    for k in range(3):
        psi = 1
        for v in xs[k : k + 3]:
            psi = mgr.apply_or(mgr.var_node(v), psi ^ 1) ^ (k & 1)
        psi = mgr.apply_or(psi, mgr.var_node(xs[(k + 4) % 4]))
        if psi not in (0, 1):
            out.append(psi)
    assert out
    return out


class TestShardedImage:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_matches_in_process_image(self, shards) -> None:
        mgr, xs, ys = relation_manager()
        parts = make_parts(
            mgr, xs, ys, [(0, [0]), (1, [0, 1]), (2, [2, 3]), (3, [3])]
        )
        quantify = xs[:4]
        psi = mgr.apply_or(
            mgr.apply_and(mgr.var_node(xs[0]), mgr.var_node(xs[2])),
            mgr.nvar_node(xs[1]),
        )
        expected = image_partitioned(mgr, parts, psi, quantify)
        with ShardPool(shards, mgr.var_order()) as pool:
            img = ShardedImage(pool, mgr, parts, quantify, set(xs[:4]))
            assert img.run(psi) == expected
            # run() releases the constraint it retained.
            assert all(s["resident"] == 0 for s in pool.stats())
            # FALSE constraint short-circuits without worker traffic.
            assert img.run(0) == 0


class TestWorkStealing:
    """Batches of shard-resident constraints under the static deal."""

    def _batch(self, pool, mgr, xs):
        items = []
        for psi in constraints_with_slices(mgr, xs):
            handle = pool.new_handle()
            retain_everywhere(pool, mgr, handle, psi)
            items.append((handle, psi))
        return items

    def _parts(self, mgr, xs, ys):
        return make_parts(
            mgr, xs, ys, [(0, [0]), (1, [0, 1]), (2, [2, 3]), (3, [3])]
        )

    def test_batch_matches_in_process_image(self) -> None:
        mgr, xs, ys = relation_manager()
        parts = self._parts(mgr, xs, ys)
        with ShardPool(2, mgr.var_order()) as pool:
            img = ShardedImage(pool, mgr, parts, xs[:4], set(xs[:4]))
            items = self._batch(pool, mgr, xs)
            results = img.run_resident_batch(items)
            for (_, psi), got in zip(items, results):
                assert got == image_partitioned(mgr, parts, psi, xs[:4])

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_deal_sends_one_command_per_shard(self, shards) -> None:
        """Every slice of the batch rides in its shard's one command, and
        the OR-join does not depend on where the deal put it."""
        mgr, xs, ys = relation_manager()
        parts = self._parts(mgr, xs, ys)
        with ShardPool(shards, mgr.var_order()) as pool:
            img = ShardedImage(pool, mgr, parts, xs[:4], set(xs[:4]))
            items = self._batch(pool, mgr, xs)
            slices = sum(len(img._slice_pairs(psi)) for _, psi in items)
            assert slices > len(items) or shards == 1  # some ψ is sliced
            before = pool.op_counts["expand_batch"]
            results = img.run_resident_batch(items)
            sent = pool.op_counts["expand_batch"] - before
            assert sent == min(shards, slices)
            for (_, psi), got in zip(items, results):
                assert got == image_partitioned(mgr, parts, psi, xs[:4])


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_sharded_image_random_relations(data) -> None:
    """Random dependency structure vs the in-process image."""
    mgr, xs, ys = relation_manager()
    n_parts = data.draw(st.integers(2, 5))
    spec = [
        (i, sorted(data.draw(st.sets(st.integers(0, 5), max_size=3))))
        for i in range(n_parts)
    ]
    parts = make_parts(mgr, xs, ys, spec)
    quantify = xs[:6]
    cube = data.draw(st.lists(st.sampled_from(xs[:6]), max_size=3))
    psi = 1
    for v in cube:
        psi = mgr.apply_and(psi, mgr.var_node(v))
    expected = image_partitioned(mgr, parts, psi, quantify)
    with ShardPool(2, mgr.var_order()) as pool:
        img = ShardedImage(pool, mgr, parts, quantify, set(xs[:6]))
        assert img.run(psi) == expected


def _wire_log(monkeypatch, frontier: str) -> list[tuple[str, int]]:
    """Solve lfsr8 at ``frontier``/8 on 2 shards, logging pool traffic.

    Each entry is ``(event, batch)``: ``("retain", b)`` when batch b's
    first ``retain`` is submitted and ``("image", b)`` when the first
    ``expand_batch`` reply of batch b is collected.  Batch b starts at
    each run of ``retain`` submits; replies are matched to commands by
    the per-shard FIFO order.
    """
    from collections import deque

    from repro.bench.suite import case_by_name
    from repro.eqn.problem import build_latch_split_problem
    from repro.eqn.solver import solve_equation

    submit, collect = ShardPool.submit, ShardPool.collect
    queues: dict[int, deque] = {}
    log: list[tuple[str, int]] = []
    state = {"batch": 0, "last": None, "imaged": set()}

    def logging_submit(pool, shard, msg):
        op = msg[0]
        if op == "retain" and state["last"] != "retain":
            state["batch"] += 1
            log.append(("retain", state["batch"]))
        state["last"] = op
        queues.setdefault(shard, deque()).append((op, state["batch"]))
        return submit(pool, shard, msg)

    def logging_collect(pool, shard):
        op, batch = queues[shard].popleft()
        if op == "expand_batch" and batch and batch not in state["imaged"]:
            state["imaged"].add(batch)
            log.append(("image", batch))
        return collect(pool, shard)

    monkeypatch.setattr(ShardPool, "submit", logging_submit)
    monkeypatch.setattr(ShardPool, "collect", logging_collect)
    case = case_by_name("lfsr8")
    problem = build_latch_split_problem(case.network(), list(case.x_latches))
    solve_equation(problem, shards=2, frontier=frontier, batch=8)
    monkeypatch.undo()
    return log


def _retained_ahead(log: list[tuple[str, int]]) -> list[int]:
    """Batches n whose successor's first retain precedes n's first image."""
    at = {event: i for i, event in enumerate(log)}
    batches = sorted(b for kind, b in log if kind == "retain")
    return [
        n for n in batches
        if ("retain", n + 1) in at and at[("retain", n + 1)] < at[("image", n)]
    ]


def test_bfs_submits_the_next_batch_before_joining(monkeypatch) -> None:
    """Under bfs, batch n+1 is on the wire before batch n's P replies."""
    log = _wire_log(monkeypatch, "bfs")
    ahead = _retained_ahead(log)
    batches = sum(1 for kind, _ in log if kind == "retain")
    assert batches > 2
    # Every batch but ψ0's (the frontier is empty when it is taken) and
    # the last has its successor submitted ahead.
    assert ahead == list(range(2, batches))


def test_dfs_keeps_one_batch_on_the_wire(monkeypatch) -> None:
    """Under dfs the next batch depends on this one's results."""
    log = _wire_log(monkeypatch, "dfs")
    assert sum(1 for kind, _ in log if kind == "retain") > 2
    assert _retained_ahead(log) == []
