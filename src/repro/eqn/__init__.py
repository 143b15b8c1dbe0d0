"""Language-equation solving: the paper's core contribution.

Public surface:

* :func:`solve_latch_split` / :func:`solve_equation` — one-call solvers
  (partitioned / monolithic / explicit flows).
* :class:`EquationProblem` / :func:`build_problem` — problem instances.
* :func:`verify_solution` — the paper's formal checks.
* :func:`extract_csf` — prefix-closed input-progressive trimming.
* :class:`SolveConfig` — every solver knob, declared once.

The names resolve lazily (on first attribute access), so importing
:mod:`repro.eqn.config` — which every CLI parser and the job server do
— loads neither the BDD kernel nor the solver modules.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "ComposePlan": "compose",
    "conjoin_solutions": "compose",
    "plan_components": "compose",
    "solve_compositional": "compose",
    "METHODS": "config",
    "STRATEGIES": "config",
    "ConfigError": "config",
    "SolveConfig": "config",
    "csf_state_count": "csf",
    "extract_csf": "csf",
    "Implementation": "implement",
    "extract_fsm": "implement",
    "fsm_to_network": "implement",
    "implement_csf": "implement",
    "recompose_with_implementation": "implement",
    "fixed_automaton": "explicit_solver",
    "solve_explicit": "explicit_solver",
    "specification_automaton": "explicit_solver",
    "MonolithicOracle": "monolithic",
    "PartitionedOracle": "partitioned",
    "EquationProblem": "problem",
    "build_latch_split_problem": "problem",
    "build_problem": "problem",
    "ResidencyManager": "residency",
    "SpillStore": "residency",
    "SolveResult": "solver",
    "solve_equation": "solver",
    "solve_latch_split": "solver",
    "FrontierScheduler": "subset",
    "SubsetEdge": "subset",
    "SubsetStats": "subset",
    "subset_construct": "subset",
    "VerificationReport": "verify",
    "compose_with_fixed": "verify",
    "particular_solution_automaton": "verify",
    "verify_solution": "verify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.eqn' has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.eqn.{module}"), name)
