"""SolveConfig: validation, and one declaration behind every surface."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.bench import S27_BLIF
from repro.eqn.config import (
    BENCH_COLUMNS,
    DEFAULT,
    HASHED,
    RESULT_OPTIONS,
    ConfigError,
    SolveConfig,
)

X = ["G6", "G7"]
FIELDS = {f.name: f for f in fields(SolveConfig)}


class TestValidation:
    @pytest.mark.parametrize(
        "values,match",
        [
            ({"method": "bogus"}, "unknown method"),
            ({"frontier": "xyz"}, "unknown frontier strategy"),
            ({"backend": "cudd"}, "unknown BDD backend"),
            ({"batch": 0}, "batch must be >= 1"),
            ({"resident_budget": 0}, "resident_budget must be >= 1"),
            ({"shards": True}, "shards must be int"),
            ({"batch": 8.0}, "batch must be int"),
            ({"trim": 1}, "trim must be bool"),
            ({"method": "monolithic", "shards": 2}, "--shards requires"),
            ({"method": "explicit", "resident_budget": 4}, "symbolic flows"),
            ({"trim": False, "compose": True}, "--compose requires"),
            ({"bach": 8}, "unknown solver flags"),
            ({"reorder": "auto"}, "unknown solver flags"),
            ({"gc": "adaptive"}, "unknown solver flags"),
        ],
        ids=repr,
    )
    def test_rejects(self, values, match) -> None:
        with pytest.raises(ConfigError, match=match):
            SolveConfig.from_mapping(values)

    def test_merge_keeps_the_base(self) -> None:
        base = SolveConfig(frontier="bfs", batch=8)
        merged = SolveConfig.from_mapping({"shards": 2}, base)
        assert (merged.frontier, merged.batch, merged.shards) == ("bfs", 8, 2)
        assert SolveConfig.from_mapping({}, base) is base

    def test_optional_budget_accepts_none(self) -> None:
        assert SolveConfig(resident_budget=None).resident_budget is None


def _action(command: str, dest: str):
    from repro.cli import _build_parser

    subparsers = _build_parser()._subparsers._group_actions[0]
    (action,) = [
        a for a in subparsers.choices[command]._actions if a.dest == dest
    ]
    return action


@pytest.fixture(scope="module")
def served_config():
    """The config the server builds for a body that names no field."""
    import tempfile

    from repro.serve import ServeApp

    with tempfile.TemporaryDirectory() as cache:
        app = ServeApp(cache)
        jobs = []
        app.executor.enqueue = jobs.append  # validate only, solve nothing
        try:
            app.submit({"blif": S27_BLIF, "x_latches": X})
            yield app, jobs
        finally:
            app.close()


@pytest.fixture(scope="module")
def default_solve():
    from repro.bench.driver import _run_table1_case
    from repro.bench.suite import case_by_name
    from repro.eqn.solver import solve_latch_split
    from repro.network.blif import parse_blif

    row = _run_table1_case(case_by_name("s27"), DEFAULT, "s27")
    return row, solve_latch_split(parse_blif(S27_BLIF), X)


@pytest.mark.parametrize("name", list(FIELDS))
def test_surface_parity(name, served_config, default_solve) -> None:
    """Every surface generated from SolveConfig agrees on each field's
    default and choices: the solve and submit parsers, the serve body,
    the job spec, the BENCH row columns and ``SolveResult.options``."""
    f = FIELDS[name]
    default, choices = f.default, f.metadata["choices"]
    for command in ("solve", "submit"):
        action = _action(command, name)
        assert action.default == default
        assert action.choices == choices

    app, jobs = served_config
    assert getattr(jobs[0].config, name) == default
    for value in choices or ():
        app.submit({"blif": S27_BLIF, "x_latches": X, name: value})
        assert getattr(jobs[-1].config, name) == value

    from repro.serve.keys import job_spec

    spec = job_spec(S27_BLIF, X)
    assert (name in spec) == (f.metadata["kind"] == HASHED)
    if name in spec:
        assert spec[name] == default

    row, result = default_solve
    if name in BENCH_COLUMNS:
        assert row[name] == default
    if name in RESULT_OPTIONS:
        assert result.options[name] == default
