"""Backend registry, protocol surface and the cross-backend conformance suite.

Native pairs are **conditionally defined**, not skip-marked: on a
machine without the BuDDy shared library the parametrization simply
contains no native pair, so a pure-Python environment collects zero
extra skips and stays bit-identical to the pre-backend behaviour.
"""

from __future__ import annotations

import ast
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.bdd.backends import (
    BACKEND_CHOICES,
    DEFAULT_BACKEND,
    BackendFallbackWarning,
    _reset_fallback_warnings,
    available_backends,
    backend_available,
    create_manager,
    register_backend,
    registered_backends,
)
from repro.bdd.backends.protocol import (
    PROTOCOL_SURFACE,
    BddBackend,
    generic_load_nodes,
    missing_ops,
)
import repro
from repro.bdd.backends.conformance import (
    check_literal_ite,
    check_rename_map,
    check_split_classes,
    conformance_pairs,
    program_strategy,
    rename_case_strategy,
    run_conformance_case,
    run_kit_check,
    run_program,
    split_case_strategy,
)
from repro.bdd.manager import BddManager
from repro.errors import BddError

#: Files that implement the contract rather than call it.
_IMPLEMENTATIONS = frozenset(
    {
        "bdd/manager.py",
        "bdd/backends/protocol.py",
        "bdd/backends/buddy.py",
        "bdd/backends/conformance.py",
    }
)

#: Surface members with no caller in the package, each with its reason.
_UNCALLED = {"check": "a test-only invariant check"}


def _names_the_package_uses() -> set[str]:
    """Attribute names read anywhere in ``repro`` outside the
    implementations: ``x.name`` and ``getattr(x, "name", ...)``."""
    root = Path(repro.__file__).parent
    used: set[str] = set()
    for path in root.rglob("*.py"):
        if path.relative_to(root).as_posix() in _IMPLEMENTATIONS:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                used.add(node.args[1].value)
    return used


class TestRegistry:
    def test_python_backend_is_the_reference_manager(self) -> None:
        mgr = create_manager("python")
        assert isinstance(mgr, BddManager)
        assert mgr.backend_name == "python"

    def test_default_backend_is_python(self) -> None:
        assert DEFAULT_BACKEND == "python"
        assert create_manager().backend_name == "python"

    def test_builtin_backends_are_registered(self) -> None:
        assert set(BACKEND_CHOICES) <= set(registered_backends())

    def test_python_is_always_available(self) -> None:
        assert "python" in available_backends()

    def test_unknown_backend_raises(self) -> None:
        with pytest.raises(BddError, match="unknown BDD backend"):
            create_manager("cudd")

    def test_kwargs_reach_the_manager(self) -> None:
        mgr = create_manager("python", max_nodes=123)
        assert mgr.max_nodes == 123

    def test_register_backend_round_trip(self) -> None:
        name = "mirror-registry-test"
        register_backend(name, BddManager, probe=lambda: True)
        try:
            assert name in registered_backends()
            assert backend_available(name)
            assert isinstance(create_manager(name), BddManager)
        finally:
            from repro.bdd import backends

            backends._REGISTRY.pop(name, None)

    def test_bench_driver_accepts_every_registered_backend(
        self, capsys
    ) -> None:
        from repro.bench import driver

        for name in BACKEND_CHOICES:
            assert driver.main(["--backend", name, "--list"]) == 0
        with pytest.raises(SystemExit):
            driver.main(["--backend", "no-such-backend", "--list"])
        capsys.readouterr()


class TestFallback:
    def test_unavailable_backend_warns_once_then_stays_quiet(self) -> None:
        name = "never-there"
        register_backend(name, BddManager, probe=lambda: False)
        try:
            _reset_fallback_warnings()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = create_manager(name)
                second = create_manager(name)
            assert first.backend_name == "python"
            assert second.backend_name == "python"
            fallbacks = [
                w for w in caught
                if issubclass(w.category, BackendFallbackWarning)
            ]
            assert len(fallbacks) == 1
            assert name in str(fallbacks[0].message)
        finally:
            from repro.bdd import backends

            backends._REGISTRY.pop(name, None)
            _reset_fallback_warnings()

    def test_default_backend_never_warns(self) -> None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            create_manager("python")
        assert not [
            w for w in caught if issubclass(w.category, BackendFallbackWarning)
        ]


class TestProtocolSurface:
    def test_reference_manager_is_complete(self) -> None:
        assert missing_ops(BddManager()) == []

    def test_reference_manager_satisfies_runtime_protocol(self) -> None:
        assert isinstance(BddManager(), BddBackend)

    def test_surface_lists_the_solver_contract(self) -> None:
        for op in (
            "apply_and", "ite", "exists", "and_exists", "rename",
            "cofactor_cube", "ref", "deref", "collect_garbage",
            "dump_nodes", "load_nodes", "check",
            "split_by_vars", "backend_name",
        ):
            assert op in PROTOCOL_SURFACE

    def test_every_member_has_a_caller(self) -> None:
        """The contract is what the layers above the kernel call: a
        member nothing in the package calls is dead weight every
        adapter would have to implement."""
        used = _names_the_package_uses()
        uncalled = [
            name for name in PROTOCOL_SURFACE
            if name not in used and name not in _UNCALLED
        ]
        assert uncalled == []

    def test_missing_ops_reports_gaps(self) -> None:
        class Partial:
            backend_name = "partial"

        gaps = missing_ops(Partial())
        assert "apply_and" in gaps
        assert "backend_name" not in gaps

    def test_generic_load_nodes_round_trips(self) -> None:
        src = BddManager()
        a, b, c = src.add_vars(["a", "b", "c"])
        f = src.ite(
            src.var_node(a),
            src.apply_xor(src.var_node(b), src.var_node(c)),
            src.apply_not(src.var_node(b)),
        )
        g = src.apply_and(src.var_node(a), src.apply_not(f))
        snap = src.dump_nodes([f, g, 0, 1])
        dst = BddManager()
        loaded = generic_load_nodes(dst, snap)
        native = dst.load_nodes(snap)
        assert loaded == native  # shared unique table ⇒ int equality


# ----------------------------------------------------------------------
# Cross-backend conformance: replay one random program on two backends,
# compare the whole operand pool edge-for-edge via the wire format.
#
# The always-on pair replays through the registry path against a
# directly built reference manager, so the suite collects (and never
# skips) in a pure-Python environment.  Native pairs (python vs buddy)
# appear exactly when the shared library loads.
# ----------------------------------------------------------------------


CONFORMANCE_PAIRS: list = [
    pytest.param("python", BddManager, id="python-vs-direct"),
]
for _a, _b in conformance_pairs():
    CONFORMANCE_PAIRS.append(pytest.param(_a, _b, id=f"{_a}-vs-{_b}"))


@pytest.mark.parametrize("backend_a,backend_b", CONFORMANCE_PAIRS)
@given(program=program_strategy())
@settings(max_examples=200, deadline=None)
def test_backends_compute_identical_functions(
    backend_a, backend_b, program
) -> None:
    run_conformance_case(backend_a, backend_b, program)


@given(program=program_strategy(max_steps=15))
@settings(max_examples=60, deadline=None)
def test_replay_on_one_backend_is_deterministic(program) -> None:
    """Same program, same backend, twice: byte-identical snapshots."""
    mgr_a, mgr_b = BddManager(), BddManager()
    pool_a = run_program(mgr_a, program)
    pool_b = run_program(mgr_b, program)
    assert mgr_a.dump_nodes(pool_a) == mgr_b.dump_nodes(pool_b)


# ----------------------------------------------------------------------
# Single-backend kit checks: every backend that loads here, plus the
# reference manager with XOR and quantification routed through its
# explicit-frame cores.
# ----------------------------------------------------------------------


class _IterativeRoutes(BddManager):
    """The reference manager with XOR and existential quantification
    computed through its iterative cores: ``f ⊕ g`` as ``ite(f, ¬g, g)``
    (the explicit-frame ``ite``) and ``∃v.f`` as ``f|v=0 ∨ f|v=1`` over
    the explicit-stack :meth:`restrict`, one variable at a time.

    Canonicity makes every answer edge-identical to the recursive
    kernels', so the kit's checks hold unchanged; what changes is the
    code that computes the replayed programs' xor, iff and exists steps
    and the literal-ite check's quantified branches.
    """

    def __init__(self) -> None:
        super().__init__()
        self.apply_xor = lambda f, g: self.ite(f, g ^ 1, g)

    def exists(self, f: int, variables) -> int:
        for v in variables:
            f = self.apply_or(self.restrict(f, v, 0), self.restrict(f, v, 1))
        return f


KIT_BACKENDS: list = [
    pytest.param(DEFAULT_BACKEND, id=DEFAULT_BACKEND),
    pytest.param(_IterativeRoutes, id="iterative"),
] + [
    pytest.param(name, id=name)
    for name in available_backends()
    if name != DEFAULT_BACKEND
]


@pytest.mark.parametrize("backend", KIT_BACKENDS)
@given(program=program_strategy(max_steps=15))
@settings(max_examples=40, deadline=None)
def test_literal_ite_is_the_shannon_expansion(backend, program) -> None:
    run_kit_check(backend, check_literal_ite, program)


@pytest.mark.parametrize("backend", KIT_BACKENDS)
@given(case=rename_case_strategy())
@settings(max_examples=60, deadline=None)
def test_rename_map_equals_dict_rename(backend, case) -> None:
    program, order, targets = case
    run_kit_check(backend, check_rename_map, program, order, targets)


@pytest.mark.parametrize("backend", KIT_BACKENDS)
@given(case=split_case_strategy())
@settings(max_examples=40, deadline=None)
def test_split_classes_equal_the_generic_split(backend, case) -> None:
    program, order = case
    run_kit_check(backend, check_split_classes, program, order)


def test_rename_map_is_interned() -> None:
    mgr = BddManager()
    a, b, c = mgr.add_vars(["a", "b", "c"])
    first = mgr.rename_map({a: b, b: a, c: c})
    assert mgr.rename_map({b: a, a: b}) is first
    assert mgr.rename_map(first) is first
    assert first.pairs == {a: b, b: a}
    assert mgr.rename_map({a: c}) is not first
