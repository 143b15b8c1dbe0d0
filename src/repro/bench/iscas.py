"""Embedded ISCAS'89 material and the paper's worked example.

Only ``s27`` — the canonical tiny ISCAS'89 circuit, reproduced in many
textbooks — is embedded verbatim; the larger s-series netlists used in
the paper's Table 1 are not redistributable offline, and are substituted
by the synthetic circuits in :mod:`repro.bench.circuits`.
"""

from __future__ import annotations

from repro.expr.ast import And, Not, Var, Xor
from repro.network.blif import parse_blif
from repro.network.netlist import Network

#: The ISCAS'89 s27 benchmark in BLIF form: 4 inputs, 1 output, 3 latches.
S27_BLIF = """
.model s27
.inputs G0 G1 G2 G3
.outputs G17
.latch G10 G5 0
.latch G11 G6 0
.latch G13 G7 0
.names G0 G14
0 1
.names G11 G17
0 1
.names G14 G6 G8
11 1
.names G12 G8 G15
00 0
.names G3 G8 G16
00 0
.names G16 G15 G9
11 0
.names G14 G11 G10
00 1
.names G5 G9 G11
00 1
.names G1 G7 G12
00 1
.names G2 G12 G13
00 1
.end
"""


def s27() -> Network:
    """The ISCAS'89 ``s27`` benchmark (4 inputs, 1 output, 3 latches)."""
    return parse_blif(S27_BLIF)


def figure3_network() -> Network:
    """The worked example of Figure 3 in the paper.

    One input ``i``, one output ``o``, two latches (initial state 00)
    with next-state functions ``T1 = i & cs2`` and ``T2 = !i | cs1`` and
    output function ``o = cs1 XOR cs2``.
    """
    net = Network(name="figure3")
    net.add_input("i")
    net.add_node("n1", And((Var("i"), Var("cs2"))))
    net.add_node("n2", Not(Var("i")) | Var("cs1"))
    net.add_latch("cs1", "n1", 0)
    net.add_latch("cs2", "n2", 0)
    net.add_node("o", Xor((Var("cs1"), Var("cs2"))))
    net.add_output("o")
    net.validate()
    return net
