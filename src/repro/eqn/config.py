"""One declaration of every solver knob: :class:`SolveConfig`.

Each surface that carries a solver setting is generated from the fields
below: the argparse flags of ``repro solve``/``submit``/``reach``/
``bench`` (:func:`add_config_flags`), serve body validation
(:meth:`SolveConfig.from_mapping`), the canonical job spec and cache key
(:meth:`SolveConfig.hashed`), ``SolveResult.options``
(:data:`RESULT_OPTIONS`) and the BENCH_table1 row columns
(:data:`BENCH_COLUMNS`).  Each field declares

* its **kind** — ``hashed`` fields can change the produced automaton,
  its state numbering or the cached statistics, so they enter the cache
  key; ``excluded`` fields are validated but never hashed, because they
  only pick the kernel or bound memory and never change what a solve
  produces;
* its type, and its choices or minimum;
* its help text.

Validation is strict and happens on construction: an integer field
rejects ``True`` and ``2.0`` (so one problem cannot be spelled onto
several cache keys), and the cross-field rules of the flows live here
too.  The module imports nothing heavier than the standard library, so
building a CLI parser or validating a serve body never loads the BDD
kernel or the solver modules.
"""

from __future__ import annotations

import argparse
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields, replace

from repro.errors import EquationError

#: Flow names accepted by the solver entry points.
METHODS = ("partitioned", "monolithic", "explicit")
#: Frontier orderings of the subset construction.
STRATEGIES = ("dfs", "bfs", "size")
#: BDD kernels selectable by name (see :mod:`repro.bdd.backends`).
BACKEND_CHOICES = ("python", "buddy")

HASHED = "hashed"
EXCLUDED = "excluded"


class ConfigError(EquationError):
    """An invalid solver configuration (bad type, value or combination)."""


def _knob(default, kind: str, help: str, *, choices=None, minimum=None, label=None):
    return field(
        default=default,
        metadata={
            "kind": kind,
            "help": help,
            "choices": choices,
            "minimum": minimum,
            "label": label,
        },
    )


@dataclass(frozen=True)
class SolveConfig:
    """Every setting that selects how a language equation is solved."""

    method: str = _knob(
        "partitioned",
        HASHED,
        "solver flow: partitioned (the paper's), monolithic (the baseline) "
        "or explicit (Algorithm 1 on explicit automata, reference only)",
        choices=METHODS,
    )
    schedule: bool = _knob(
        True,
        HASHED,
        "early-quantification scheduling of the partitioned images "
        "(--no-schedule is the E5 ablation)",
    )
    trim: bool = _knob(
        True,
        HASHED,
        "DCN subset trimming of both symbolic flows (--no-trim is the E6 "
        "ablation)",
    )
    shards: int = _knob(
        1,
        HASHED,
        "worker processes for the image computations (1 = in-process; "
        "N>=2 needs the partitioned flow)",
        minimum=1,
    )
    frontier: str = _knob(
        "dfs",
        HASHED,
        "frontier ordering strategy of the subset construction",
        choices=STRATEGIES,
        label="frontier strategy",
    )
    batch: int = _knob(
        1,
        HASHED,
        "subset states expanded per batch (1 = classic worklist; larger "
        "batches pipeline sharded image computations and share completion "
        "work between sibling subsets)",
        minimum=1,
    )
    compose: bool = _knob(
        False,
        HASHED,
        "compositional solving: when the split decomposes into independent "
        "components with all (u,v) letters in one of them, solve only that "
        "sub-equation (language-identical; falls back to the direct solve "
        "otherwise)",
    )
    backend: str = _knob(
        "python",
        EXCLUDED,
        "BDD kernel (python = pure-Python reference; buddy = native ctypes "
        "adapter, falls back to python with a warning when the shared "
        "library is absent); results are identical",
        choices=BACKEND_CHOICES,
        label="BDD backend",
    )
    resident_budget: int | None = _knob(
        None,
        EXCLUDED,
        "bounded-memory residency: node budget for resident subset states; "
        "cold expanded states spill to a content-addressed store and the "
        "result stays byte-identical",
        minimum=1,
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            _check(f, getattr(self, f.name))
        if self.shards > 1 and self.method != "partitioned":
            raise ConfigError(
                f"--shards requires the partitioned flow, not {self.method!r}"
            )
        if self.method == "explicit" and (
            self.resident_budget is not None or self.compose
        ):
            raise ConfigError(
                "--resident-budget/--compose apply to the symbolic flows only"
            )
        if self.compose and (self.method != "partitioned" or not self.trim):
            raise ConfigError(
                "--compose requires the partitioned flow with trimming"
            )

    @classmethod
    def from_mapping(
        cls, values: Mapping[str, object], base: SolveConfig | None = None
    ) -> SolveConfig:
        """``base`` (default: all defaults) with ``values`` merged in.

        Unknown names raise :class:`ConfigError`: a misspelled flag must
        never fall back to its default silently.
        """
        unknown = sorted(set(values) - set(FIELD_NAMES))
        if unknown:
            raise ConfigError(f"unknown solver flags: {unknown}")
        base = base if base is not None else DEFAULT
        return replace(base, **values) if values else base

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> SolveConfig:
        """The config of a parsed command line (fields it has no flag for
        keep their defaults)."""
        return cls.from_mapping(
            {n: getattr(args, n) for n in FIELD_NAMES if hasattr(args, n)}
        )

    def hashed(self) -> dict:
        """The fields that enter the cache key, by name."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.metadata["kind"] == HASHED
        }


def _field_type(f) -> type:
    return int if f.default is None else type(f.default)


def _check(f, value) -> None:
    meta = f.metadata
    if value is None and f.default is None:
        return
    kind = _field_type(f)
    if type(value) is not kind:  # exact: bool is not an int, 2.0 is not 2
        raise ConfigError(
            f"{f.name} must be {kind.__name__}, got {type(value).__name__} "
            f"{value!r}"
        )
    if meta["choices"] is not None and value not in meta["choices"]:
        raise ConfigError(
            f"unknown {meta['label'] or f.name} {value!r}; "
            f"choose from {meta['choices']}"
        )
    if meta["minimum"] is not None and value < meta["minimum"]:
        raise ConfigError(f"{f.name} must be >= {meta['minimum']}, got {value}")


#: Field names in declaration order.
FIELD_NAMES = tuple(f.name for f in fields(SolveConfig))
#: The all-defaults config.
DEFAULT = SolveConfig()
#: Fields a symbolic solve records in ``SolveResult.options``.
RESULT_OPTIONS = (
    "schedule",
    "trim",
    "shards",
    "frontier",
    "batch",
    "resident_budget",
    "compose",
)
#: Config columns of a BENCH_table1 row (each row records both methods).
BENCH_COLUMNS = (
    "shards",
    "frontier",
    "batch",
    "backend",
    "resident_budget",
    "compose",
)
#: Flags of ``repro reach`` and ``repro bench`` (solve and submit take all).
REACH_FLAGS = ("schedule", "shards", "backend")
BENCH_FLAGS = ("backend",)


def add_config_flags(
    parser: argparse.ArgumentParser, names: Iterable[str] = FIELD_NAMES
) -> None:
    """Add one ``--flag`` per named field, with its default, choices and help."""
    names = set(names)
    for f in fields(SolveConfig):
        if f.name not in names:
            continue
        meta = f.metadata
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            parser.add_argument(
                flag,
                action=argparse.BooleanOptionalAction,
                default=f.default,
                help=meta["help"],
            )
        else:
            parser.add_argument(
                flag,
                type=_field_type(f),
                choices=meta["choices"],
                default=f.default,
                help=meta["help"],
            )
