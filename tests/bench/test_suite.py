"""Tests for the Table 1 suite definition and harness plumbing."""

from __future__ import annotations

import pathlib
from dataclasses import replace

import pytest

from repro.bench.driver import TABLE1_HEADERS, _run_table1_case, render_table1
from repro.bench.iscas import s27
from repro.bench.suite import TABLE1_CASES, SplitCase, case_by_name
from repro.eqn.config import DEFAULT
from repro.errors import ReproError

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestSuiteDefinition:
    def test_has_at_least_six_rows_like_the_paper(self) -> None:
        assert len(TABLE1_CASES) >= 6

    def test_every_case_builds_and_splits(self) -> None:
        for case in TABLE1_CASES:
            net = case.network()
            net.validate()
            missing = set(case.x_latches) - set(net.latches)
            assert not missing, f"{case.name}: unknown latches {missing}"
            assert 0 < len(case.x_latches) < net.num_latches + 1

    def test_case_names_unique(self) -> None:
        names = [case.name for case in TABLE1_CASES]
        assert len(names) == len(set(names))

    def test_case_lookup(self) -> None:
        assert case_by_name("s27").name == "s27"
        with pytest.raises(KeyError):
            case_by_name("nope")

    def test_the_large_rows_expect_cnc(self) -> None:
        # The paper's shape: the largest instances are CNC for monolithic.
        cnc = [case.name for case in TABLE1_CASES if case.expect_mono_cnc]
        assert len(cnc) >= 2

    def test_describe_mentions_split(self) -> None:
        text = case_by_name("s27").describe()
        assert "s27" in text and "2/1" in text


class TestHarness:
    def test_run_case_smallest_row(self) -> None:
        row = _run_table1_case(case_by_name("s27"), DEFAULT, "s27")
        for method in ("partitioned", "monolithic"):
            assert row["methods"][method]["csf_states"] == 7
        assert row["ratio_mono_over_part"] > 0

    def test_run_case_rejects_disagreeing_flows(self, monkeypatch) -> None:
        """Both flows completing with different CSF sizes fails the row."""
        import repro.eqn.solver as solver

        real_solve = solver.solve_equation

        class OffByOne:
            def __init__(self, result) -> None:
                self._result = result

            def __getattr__(self, name):
                return getattr(self._result, name)

            @property
            def csf_states(self) -> int:
                return self._result.csf_states + 1

        def solve(problem, config, **kwargs):
            result = real_solve(problem, config, **kwargs)
            return OffByOne(result) if config.method == "monolithic" else result

        monkeypatch.setattr(solver, "solve_equation", solve)
        with pytest.raises(ReproError, match=r"table1/s27: flows disagree \(7 .* 8 "):
            _run_table1_case(case_by_name("s27"), DEFAULT, "s27")

    def test_run_case_partitioned_only(self) -> None:
        """A budgeted row runs the partitioned flow alone: no monolithic
        cell, no ratio, and ``-`` (not CNC) in the rendered Mono column."""
        case = case_by_name("s27")
        config = replace(DEFAULT, resident_budget=64)
        row = _run_table1_case(case, config, "s27@budget")
        assert set(row["methods"]) == {"partitioned"}
        assert "ratio_mono_over_part" not in row
        line = render_table1([row], {"s27@budget": case}).splitlines()[2]
        _name, _io_cs, split, states, _part, mono, ratio = line.split()
        assert (split, states, mono, ratio) == ("2/1", "7", "-", "-")

    def test_render_shapes_like_the_paper(self) -> None:
        rows = [
            {
                "name": "demo",
                "io_cs": "1/1/2",
                "methods": {
                    "partitioned": {"cnc": False, "wall_s": 0.3, "csf_states": 54},
                    "monolithic": {"cnc": False, "wall_s": 0.2, "csf_states": 54},
                },
                "ratio_mono_over_part": 0.67,
            },
            {
                "name": "big",
                "io_cs": "3/6/21",
                "methods": {
                    "partitioned": {"cnc": False, "wall_s": 25.9, "csf_states": 17730},
                    "monolithic": {"cnc": True},
                },
            },
        ]
        cases = {
            "demo": SplitCase("demo", s27, ("a",), "s510"),
            "big": SplitCase("big", s27, tuple(f"x{i}" for i in range(16)), "s444"),
        }
        text = render_table1(rows, cases)
        lines = text.splitlines()
        assert lines[0].split() == TABLE1_HEADERS
        assert lines[2].split() == ["demo", "1/1/2", "1/1", "54", "0.30", "0.20", "0.7"]
        assert lines[3].split() == ["big", "3/6/21", "5/16", "17730", "25.90", "CNC", "-"]

    def test_paper_reference_table_is_complete(self) -> None:
        """The docs carry the paper's Table 1 to read measured rows against."""
        doc = (REPO / "docs" / "benchmarks.md").read_text()
        table = doc.split("Paper's Table 1 (DATE 2005", 1)[1].split("```", 1)[0]
        for name in ("s510", "s208", "s298", "s349", "s444", "s526"):
            assert name in table
        assert table.count("CNC") == 2


class TestBiggerRows:
    def test_rand20_is_a_twenty_latch_row(self) -> None:
        case = case_by_name("rand20")
        net = case.network()
        assert net.num_latches >= 20
        assert case.expect_mono_cnc

    def test_bench_only_cases_are_not_in_the_identity_suite(self) -> None:
        from repro.bench.suite import TABLE1_BENCH_ONLY_CASES

        suite_names = {case.name for case in TABLE1_CASES}
        for case in TABLE1_BENCH_ONLY_CASES:
            assert case.name not in suite_names
            net = case.network()
            net.validate()
            assert net.num_latches >= 20
            missing = set(case.x_latches) - set(net.latches)
            assert not missing
