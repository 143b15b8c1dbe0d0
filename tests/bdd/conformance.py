"""Re-export of the cross-backend conformance kit.

The kit itself ships inside the package
(:mod:`repro.bdd.backends.conformance`) so third-party adapters can run
it without checking out this repo's tests; this module re-exports it
under ``tests.bdd.conformance`` for suites (and docs) that reference
the historical location.
"""

from __future__ import annotations

from repro.bdd.backends.conformance import (
    DEFAULT_NAMES,
    OPS,
    Program,
    Step,
    assert_same_functions,
    canonical_roots,
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

__all__ = [
    "DEFAULT_NAMES",
    "OPS",
    "Program",
    "Step",
    "assert_same_functions",
    "canonical_roots",
    "check_literal_ite",
    "check_rename_map",
    "check_split_classes",
    "conformance_pairs",
    "program_strategy",
    "rename_case_strategy",
    "run_conformance_case",
    "run_kit_check",
    "run_program",
    "split_case_strategy",
]
