"""The Table 1 experiment suite (Experiment E1).

Nine latch-splitting cases of growing size mirroring the paper's rows
(s510 → s526), on synthetic circuits of comparable shape standing in
for the ISCAS'89 netlists (see :mod:`repro.bench.circuits`).
Expected qualitative shape (matching the paper):

* the smallest cases favour the *monolithic* method slightly (the paper's
  s510 had ratio 0.7);
* the ratio grows with instance size (s208: 2.0, s298: 3.0, s349: 21.5);
* the largest instances are CNC ("could not complete") for the
  monolithic method within the resource budget, while the partitioned
  method still finishes.

Budgets are deliberate parts of each case so the CNC outcomes are
deterministic and testable.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.bench import circuits
from repro.bench.iscas import s27
from repro.network.netlist import Network


@dataclass
class SplitCase:
    """One Table 1 row: a circuit, a latch split and resource budgets."""

    name: str
    make: Callable[[], Network]
    x_latches: Sequence[str]
    paper_row: str  # the paper row this case mirrors
    max_seconds: float = 60.0
    max_nodes: int = 2_000_000
    expect_mono_cnc: bool = False
    notes: str = ""
    #: Restricted ``U`` alphabet for the latch split.  ``None`` keeps the
    #: default (every input and kept latch is visible to X); a compose
    #: case must restrict it, or every component couples to X through
    #: the shared ``(u, v)`` wires and no decomposition exists.
    u_signals: Sequence[str] | None = None

    def network(self) -> Network:
        return self.make()

    def describe(self) -> str:
        net = self.network()
        return f"{self.name} ({net.stats()}, {net.num_latches - len(self.x_latches)}/{len(self.x_latches)})"


#: The nine Table 1 rows.  Ordered by increasing difficulty, like the paper.
TABLE1_CASES: list[SplitCase] = [
    SplitCase(
        name="s27",
        make=s27,
        x_latches=("G6",),
        paper_row="s510 (19/7/6, 3/3)",
        notes="tiny instance; monolithic may win (paper ratio 0.7)",
    ),
    SplitCase(
        name="count6",
        make=lambda: circuits.counter(6),
        x_latches=("b1", "b3", "b5"),
        paper_row="s208 (10/1/8, 4/4)",
        notes="counter, like s208's structure",
    ),
    SplitCase(
        name="johnson8",
        make=lambda: circuits.johnson(8),
        x_latches=("j1", "j3", "j5", "j7"),
        paper_row="s298 (3/6/14, 7/7)",
    ),
    SplitCase(
        name="rand10",
        make=lambda: circuits.random_network(3, 10, 3, seed=11, n_nodes=60),
        x_latches=("l1", "l4", "l7"),
        paper_row="s349 (9/11/15, 5/10)",
        notes="random multi-level logic; monolithic hiding gets expensive",
    ),
    SplitCase(
        name="lfsr8",
        make=lambda: circuits.lfsr(8),
        x_latches=("r2", "r4", "r6"),
        paper_row="extra row (large-ratio regime between s349 and s444)",
        max_seconds=60.0,
        notes="xor feedback; both complete but the ratio is large",
    ),
    SplitCase(
        name="johnson12",
        make=lambda: circuits.johnson(12),
        x_latches=("j1", "j3", "j5", "j7", "j9", "j11"),
        paper_row="extra row (larger interleaved-order instance)",
        max_seconds=60.0,
        notes=(
            "12 latches under the builder's interleaved cs/ns order; both "
            "flows complete, monolithic hiding much slower (mono/part "
            "5.64 in BENCH_table1.json, meta 2b22a56) — the largest "
            "both-complete instance in the suite"
        ),
    ),
    SplitCase(
        name="rand14",
        make=lambda: circuits.random_network(3, 14, 4, seed=9, n_nodes=80),
        x_latches=("l2", "l5", "l8", "l11"),
        paper_row="s444 (3/6/21, 5/16)",
        max_seconds=20.0,
        max_nodes=1_500_000,
        expect_mono_cnc=True,
    ),
    SplitCase(
        name="rand15",
        make=lambda: circuits.random_network(2, 15, 3, seed=33, n_nodes=75),
        x_latches=("l1", "l6", "l11"),
        paper_row="s526 (3/6/21, 5/16)",
        max_seconds=20.0,
        max_nodes=1_500_000,
        expect_mono_cnc=True,
    ),
    SplitCase(
        name="rand20",
        make=lambda: circuits.random_network(2, 20, 2, seed=9, n_nodes=70),
        x_latches=("l1", "l9"),
        paper_row="s444/s526-class, 20 latches (ROADMAP 'bigger rows')",
        max_seconds=30.0,
        max_nodes=1_500_000,
        expect_mono_cnc=True,
        notes=(
            "first ≥20-latch row: the monolithic flow blows its node "
            "budget building the product relation within seconds, the "
            "partitioned flow completes — with ~50% of its per-output "
            "completion images served from the incremental memo"
        ),
    ),
]

#: Bench-only Table 1 rows: recorded by the full ``repro bench`` run but
#: deliberately **not** part of :data:`TABLE1_CASES` (and therefore not
#: of the per-case identity tests) because their partitioned solves take
#: tens of seconds.  ``twin16x4`` is the incremental-completion
#: showcase: two decoupled Johnson rings where most of each output's
#: ``Q_ψ`` images collapse onto shared cofactor classes — out of reach
#: for the pre-batching engine within the same budget.  ``twin12_8``
#: stresses the coupled-split regime instead: extracting four latches
#: from the smaller ring yields thousands of subset states.
TABLE1_BENCH_ONLY_CASES: list[SplitCase] = [
    SplitCase(
        name="twin16x4",
        make=lambda: circuits.twin_rings(16, 4),
        x_latches=("b1", "b3"),
        paper_row="memo showcase, 20 latches (2 decoupled rings)",
        max_seconds=75.0,
        max_nodes=1_500_000,
        expect_mono_cnc=True,
        notes=(
            "run with frontier=bfs batch=8: sibling subsets share one "
            "Q image per cofactor class (memo hit rate >60%)"
        ),
    ),
    SplitCase(
        name="twin12_8",
        make=lambda: circuits.twin_rings(12, 8),
        x_latches=("b1", "b3", "b5", "b7"),
        paper_row="coupled-split regime, 20 latches (12+8 rings)",
        max_seconds=240.0,
        expect_mono_cnc=True,
        notes=(
            "run with frontier=bfs batch=8: four extracted latches from "
            "the 8-ring leave 3072 subset states"
        ),
    ),
]


#: Compositional-solve rows: like the bench-only cases these are
#: recorded by the full run but excluded from :data:`TABLE1_CASES` (and
#: from the bench-only ``@batch8`` variant machinery — a direct solve of
#: ``twin20_4`` at this size is exactly what composition avoids paying
#: for).  The restricted ``u_signals`` keeps the untouched ``a``-ring
#: out of X's alphabet, so :func:`repro.eqn.compose.plan_components`
#: finds it as a conforming letter-free component and the solver only
#: subset-constructs the 4-latch ``b``-ring sub-equation.
TABLE1_COMPOSE_CASES: list[SplitCase] = [
    SplitCase(
        name="twin20_4",
        make=lambda: circuits.twin_rings(20, 4),
        x_latches=("b1", "b3"),
        u_signals=("enb", "b0", "b2"),
        paper_row="compositional regime, 24 latches (20+4 rings)",
        max_seconds=120.0,
        expect_mono_cnc=True,
        notes=(
            "recorded twice: @compose solves only the b-ring "
            "sub-equation after verifying the 20-latch a-ring conforms; "
            "the direct row pays for the full 24-latch product"
        ),
    ),
]


def case_by_name(name: str) -> SplitCase:
    """Look up a Table 1 case by row name."""
    for case in TABLE1_CASES:
        if case.name == name:
            return case
    raise KeyError(f"no Table 1 case named {name!r}")
