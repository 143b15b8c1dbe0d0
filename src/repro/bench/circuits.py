"""Synthetic sequential benchmark circuits.

The paper evaluates on ISCAS'89 netlists (s208...s526), which are not
redistributable here; these generators produce deterministic multi-level
sequential circuits of comparable shape (inputs/outputs/latches) so the
latch-splitting experiment of Section 4 can be reproduced: the paper's
claim is a ratio between two flows on the same instance, which depends
on the instance's shape and size, not on its provenance.

Every function returns a validated :class:`~repro.network.netlist.Network`.
"""

from __future__ import annotations

import random

from repro.errors import NetworkError
from repro.expr.ast import And, Not, Or, Var, Xor
from repro.network.netlist import Network


def counter(n_bits: int, *, name: str | None = None) -> Network:
    """An ``n``-bit binary up-counter with enable and terminal count.

    Inputs: ``en``.  Outputs: ``tc`` (terminal count).  Latches
    ``b0..b{n-1}`` (LSB first), all initialised to 0.
    """
    if n_bits < 1:
        raise NetworkError("counter needs at least one bit")
    net = Network(name=name or f"count{n_bits}")
    net.add_input("en")
    bits = [f"b{k}" for k in range(n_bits)]
    carry: list[str] = ["en"]
    for k, bit in enumerate(bits):
        if k > 0:
            net.add_node(f"c{k}", And((Var(carry[-1]), Var(bits[k - 1]))))
            carry.append(f"c{k}")
        net.add_node(f"n{k}", Xor((Var(bit), Var(carry[-1]))))
        net.add_latch(bit, f"n{k}", 0)
    net.add_node("tc", And(tuple(Var(b) for b in bits) + (Var("en"),)))
    net.add_output("tc")
    net.validate()
    return net


def johnson(n_bits: int, *, name: str | None = None) -> Network:
    """A Johnson (twisted-ring) counter with enable; 2n reachable states.

    Inputs: ``en``.  Outputs: ``q`` (MSB).  Latches ``j0..j{n-1}``.
    """
    if n_bits < 2:
        raise NetworkError("johnson needs at least two bits")
    net = Network(name=name or f"johnson{n_bits}")
    net.add_input("en")
    bits = [f"j{k}" for k in range(n_bits)]
    net.add_node("fb", Not(Var(bits[-1])))
    for k, bit in enumerate(bits):
        source = "fb" if k == 0 else bits[k - 1]
        # hold when enable low
        net.add_node(
            f"n{k}",
            Or((And((Var("en"), Var(source))), And((Not(Var("en")), Var(bit))))),
        )
        net.add_latch(bit, f"n{k}", 0)
    net.add_node("q", Var(bits[-1]))
    net.add_output("q")
    net.validate()
    return net


def twin_rings(na: int, nb: int, *, name: str | None = None) -> Network:
    """Two independent Johnson rings sharing nothing but the clock.

    Inputs: ``ena``, ``enb`` (one enable per ring).  Outputs: ``qa``,
    ``qb`` (each ring's MSB).  Latches ``a0..a{na-1}``, ``b0..b{nb-1}``.

    The rings are completely decoupled: each output observes one ring
    only, so state variables of the *other* ring are irrelevant to its
    conformance condition.  This is the ≥20-latch shape (``na + nb``)
    where the subset construction's incremental completion step pays:
    sibling subsets differing only in the hidden ring share one
    ``Q^j_ψ`` image per output, while the monolithic flow still has to
    build the full product relation over every latch pair — the paper's
    CNC regime.
    """
    if na < 2 or nb < 2:
        raise NetworkError("twin_rings needs at least two bits per ring")
    net = Network(name=name or f"twin{na}_{nb}")
    for prefix, n_bits, enable in (("a", na, "ena"), ("b", nb, "enb")):
        net.add_input(enable)
        bits = [f"{prefix}{k}" for k in range(n_bits)]
        net.add_node(f"fb_{prefix}", Not(Var(bits[-1])))
        for k, bit in enumerate(bits):
            source = f"fb_{prefix}" if k == 0 else bits[k - 1]
            net.add_node(
                f"n_{prefix}{k}",
                Or(
                    (
                        And((Var(enable), Var(source))),
                        And((Not(Var(enable)), Var(bit))),
                    )
                ),
            )
            net.add_latch(bit, f"n_{prefix}{k}", 0)
        net.add_node(f"q{prefix}", Var(bits[-1]))
        net.add_output(f"q{prefix}")
    net.validate()
    return net


def lfsr(
    n_bits: int,
    taps: tuple[int, ...] = (),
    *,
    name: str | None = None,
) -> Network:
    """A Fibonacci LFSR with a serial scan input.

    Inputs: ``sin``.  Outputs: ``sout``.  Latches ``r0..r{n-1}``; the
    feedback is ``sin XOR r[t] for t in taps`` (default taps:
    ``(n-1, 0)``).
    """
    if n_bits < 2:
        raise NetworkError("lfsr needs at least two bits")
    tap_list = taps or (n_bits - 1, 0)
    if any(t < 0 or t >= n_bits for t in tap_list):
        raise NetworkError(f"lfsr taps out of range: {tap_list}")
    net = Network(name=name or f"lfsr{n_bits}")
    net.add_input("sin")
    bits = [f"r{k}" for k in range(n_bits)]
    net.add_node("fb", Xor(tuple(Var(bits[t]) for t in tap_list) + (Var("sin"),)))
    for k, bit in enumerate(bits):
        source = "fb" if k == 0 else bits[k - 1]
        net.add_node(f"n{k}", Var(source))
        net.add_latch(bit, f"n{k}", 0)
    net.add_node("sout", Var(bits[-1]))
    net.add_output("sout")
    net.validate()
    return net


def shift_register(n_bits: int, *, name: str | None = None) -> Network:
    """A serial-in serial-out shift register.

    Inputs: ``d``.  Outputs: ``q``.  Latches ``s0..s{n-1}``.
    """
    if n_bits < 1:
        raise NetworkError("shift_register needs at least one bit")
    net = Network(name=name or f"shift{n_bits}")
    net.add_input("d")
    bits = [f"s{k}" for k in range(n_bits)]
    for k, bit in enumerate(bits):
        source = "d" if k == 0 else bits[k - 1]
        net.add_node(f"n{k}", Var(source))
        net.add_latch(bit, f"n{k}", 0)
    net.add_node("q", Var(bits[-1]))
    net.add_output("q")
    net.validate()
    return net


def sequence_detector(pattern: str, *, name: str | None = None) -> Network:
    """A Mealy detector that raises ``hit`` when ``pattern`` just arrived.

    Inputs: ``x``.  Outputs: ``hit``.  Stores the last ``len(pattern)-1``
    input bits in a shift register (overlapping matches allowed).
    """
    if not pattern or set(pattern) - {"0", "1"}:
        raise NetworkError(f"pattern must be non-empty binary, got {pattern!r}")
    history = len(pattern) - 1
    net = Network(name=name or f"det{pattern}")
    net.add_input("x")
    bits = [f"h{k}" for k in range(history)]  # h0 = most recent past bit
    for k, bit in enumerate(bits):
        source = "x" if k == 0 else bits[k - 1]
        net.add_node(f"n{k}", Var(source))
        net.add_latch(bit, f"n{k}", 0)
    literals = []
    # pattern[-1] is the current input; pattern[-1-k-1] sits in h{k}.
    current = Var("x") if pattern[-1] == "1" else Not(Var("x"))
    literals.append(current)
    for k in range(history):
        want = pattern[-2 - k]
        literals.append(Var(bits[k]) if want == "1" else Not(Var(bits[k])))
    net.add_node("hit", And(tuple(literals)))
    net.add_output("hit")
    net.validate()
    return net


def traffic_light(*, name: str | None = None) -> Network:
    """A two-phase traffic-light controller (classic textbook FSM).

    Inputs: ``car`` (car waiting on the minor road).  Outputs:
    ``green_major``, ``green_minor``.  Two latches encode the phase:
    00 = major green, 01 = major yellow, 11 = minor green, 10 = minor
    yellow.
    """
    net = Network(name=name or "traffic")
    net.add_input("car")
    # Phase encoding (p1, p0): 00 -> 01 on car; 01 -> 11; 11 -> 10 when no
    # car; 10 -> 00.  next_p1 simplifies to p0; next_p0 is given below.
    net.add_node(
        "n0",
        Or(
            (
                And((Not(Var("p1")), Not(Var("p0")), Var("car"))),
                And((Not(Var("p1")), Var("p0"))),
                And((Var("p1"), Var("p0"), Var("car"))),
            )
        ),
    )
    net.add_node("n1", Var("p0"))
    net.add_latch("p0", "n0", 0)
    net.add_latch("p1", "n1", 0)
    net.add_node("green_major", And((Not(Var("p1")), Not(Var("p0")))))
    net.add_node("green_minor", And((Var("p1"), Var("p0"))))
    net.add_output("green_major")
    net.add_output("green_minor")
    net.validate()
    return net


def token_arbiter(n_clients: int, *, name: str | None = None) -> Network:
    """A one-hot rotating-token arbiter.

    Inputs: ``req0..req{n-1}``.  Outputs: ``gnt0..gnt{n-1}``.  One latch
    per client holds the token (initially client 0); the token advances
    when the holder is not requesting.
    """
    if n_clients < 2:
        raise NetworkError("token_arbiter needs at least two clients")
    net = Network(name=name or f"arb{n_clients}")
    toks = [f"t{k}" for k in range(n_clients)]
    for k in range(n_clients):
        net.add_input(f"req{k}")
    net.add_node(
        "hold", Or(tuple(And((Var(t), Var(f"req{k}"))) for k, t in enumerate(toks)))
    )
    for k, tok in enumerate(toks):
        prev = toks[(k - 1) % n_clients]
        net.add_node(
            f"n{k}",
            Or((And((Var("hold"), Var(tok))), And((Not(Var("hold")), Var(prev))))),
        )
        net.add_latch(tok, f"n{k}", 1 if k == 0 else 0)
        net.add_node(f"gnt{k}", And((Var(tok), Var(f"req{k}"))))
        net.add_output(f"gnt{k}")
    net.validate()
    return net


def gray_counter(n_bits: int, *, name: str | None = None) -> Network:
    """A Gray-code counter with enable (adjacent states differ in 1 bit).

    Inputs: ``en``.  Outputs: ``msb``.  Implemented as a binary counter
    core with Gray-coded state outputs folded into the next-state logic:
    ``g_k' = b_k' XOR b_{k+1}'`` computed over the binary core.
    """
    if n_bits < 2:
        raise NetworkError("gray_counter needs at least two bits")
    net = Network(name=name or f"gray{n_bits}")
    net.add_input("en")
    bits = [f"g{k}" for k in range(n_bits)]
    # Decode Gray state back to binary: b_k = XOR of g_k..g_{n-1}.
    for k in range(n_bits):
        net.add_node(
            f"bin{k}", Xor(tuple(Var(bits[j]) for j in range(k, n_bits)))
        )
    # Binary increment with enable.
    carry = ["en"]
    for k in range(n_bits):
        if k > 0:
            net.add_node(f"c{k}", And((Var(carry[-1]), Var(f"bin{k-1}"))))
            carry.append(f"c{k}")
        net.add_node(f"binn{k}", Xor((Var(f"bin{k}"), Var(carry[-1]))))
    # Re-encode to Gray: g_k' = b_k' XOR b_{k+1}'.
    for k, bit in enumerate(bits):
        if k + 1 < n_bits:
            net.add_node(f"n{k}", Xor((Var(f"binn{k}"), Var(f"binn{k+1}"))))
        else:
            net.add_node(f"n{k}", Var(f"binn{k}"))
        net.add_latch(bit, f"n{k}", 0)
    net.add_node("msb", Var(bits[-1]))
    net.add_output("msb")
    net.validate()
    return net


def updown_counter(n_bits: int, *, name: str | None = None) -> Network:
    """An up/down binary counter.

    Inputs: ``en``, ``up``.  Outputs: ``zero`` (all bits clear).  When
    enabled, counts up if ``up`` else down (two's-complement wraparound).
    """
    if n_bits < 1:
        raise NetworkError("updown_counter needs at least one bit")
    net = Network(name=name or f"updown{n_bits}")
    net.add_input("en")
    net.add_input("up")
    bits = [f"b{k}" for k in range(n_bits)]
    # Propagate signal: up counts on trailing 1s...0? Increment propagates
    # through 1-bits when up, through 0-bits when down.
    prop = ["en"]
    for k, bit in enumerate(bits):
        if k > 0:
            prev = bits[k - 1]
            net.add_node(
                f"p{k}",
                And(
                    (
                        Var(prop[-1]),
                        Or((And((Var("up"), Var(prev))), And((Not(Var("up")), Not(Var(prev)))))),
                    )
                ),
            )
            prop.append(f"p{k}")
        net.add_node(f"n{k}", Xor((Var(bit), Var(prop[-1]))))
        net.add_latch(bit, f"n{k}", 0)
    net.add_node("zero", And(tuple(Not(Var(b)) for b in bits)))
    net.add_output("zero")
    net.validate()
    return net


def fifo_controller(depth_bits: int, *, name: str | None = None) -> Network:
    """A FIFO controller: read/write pointers plus a fullness counter.

    Inputs: ``push``, ``pop``.  Outputs: ``full``, ``empty``.  Three
    groups of latches: write pointer, read pointer and an occupancy
    counter, each ``depth_bits`` wide — a typical control-dominated
    benchmark shape.  Pushes into a full FIFO and pops from an empty one
    are ignored.
    """
    if depth_bits < 1:
        raise NetworkError("fifo_controller needs at least one pointer bit")
    net = Network(name=name or f"fifo{depth_bits}")
    net.add_input("push")
    net.add_input("pop")
    cnt = [f"cnt{k}" for k in range(depth_bits + 1)]
    wp = [f"wp{k}" for k in range(depth_bits)]
    rp = [f"rp{k}" for k in range(depth_bits)]
    net.add_node("empty", And(tuple(Not(Var(c)) for c in cnt)))
    net.add_node(
        "full",
        And((Var(cnt[-1]),) + tuple(Not(Var(c)) for c in cnt[:-1])),
    )
    net.add_node("do_push", And((Var("push"), Not(Var("full")))))
    net.add_node("do_pop", And((Var("pop"), Not(Var("empty")))))
    net.add_node("inc", And((Var("do_push"), Not(Var("do_pop")))))
    net.add_node("dec", And((Var("do_pop"), Not(Var("do_push")))))

    def ripple(bits: list[str], enable: str, prefix: str) -> None:
        carry = [enable]
        for k, bit in enumerate(bits):
            if k > 0:
                net.add_node(
                    f"{prefix}c{k}", And((Var(carry[-1]), Var(bits[k - 1])))
                )
                carry.append(f"{prefix}c{k}")
            net.add_node(f"{prefix}n{k}", Xor((Var(bit), Var(carry[-1]))))

    ripple(wp, "do_push", "w")
    ripple(rp, "do_pop", "r")
    for k, bit in enumerate(wp):
        net.add_latch(bit, f"wn{k}", 0)
    for k, bit in enumerate(rp):
        net.add_latch(bit, f"rn{k}", 0)
    # Occupancy counter: +1 on inc, -1 on dec (borrow ripple).
    borrow = ["dec"]
    carry = ["inc"]
    for k, bit in enumerate(cnt):
        if k > 0:
            net.add_node(f"uc{k}", And((Var(carry[-1]), Var(cnt[k - 1]))))
            net.add_node(f"ub{k}", And((Var(borrow[-1]), Not(Var(cnt[k - 1])))))
            carry.append(f"uc{k}")
            borrow.append(f"ub{k}")
        net.add_node(
            f"un{k}", Xor((Var(bit), Var(carry[-1]), Var(borrow[-1])))
        )
        net.add_latch(bit, f"un{k}", 0)
    net.add_output("full")
    net.add_output("empty")
    net.validate()
    return net


def random_network(
    n_inputs: int,
    n_latches: int,
    n_outputs: int,
    *,
    n_nodes: int | None = None,
    seed: int = 0,
    name: str | None = None,
) -> Network:
    """A seeded random multi-level sequential network.

    The combinational part is a random DAG of 2-input AND/OR/XOR gates
    with random input negations, mimicking mapped multi-level logic.
    Deterministic for a given ``seed``.
    """
    if n_inputs < 1 or n_latches < 1 or n_outputs < 1:
        raise NetworkError("random_network needs >=1 input, latch and output")
    rng = random.Random(seed)
    net = Network(name=name or f"rand_i{n_inputs}l{n_latches}s{seed}")
    pool: list[str] = []
    for k in range(n_inputs):
        pool.append(net.add_input(f"x{k}"))
    states = [f"l{k}" for k in range(n_latches)]
    pool.extend(states)
    total_nodes = n_nodes if n_nodes is not None else 3 * (n_inputs + n_latches)
    gate_names: list[str] = []
    for k in range(total_nodes):
        a, b = rng.sample(pool, 2) if len(pool) >= 2 else (pool[0], pool[0])
        fa: Var | Not = Var(a) if rng.random() < 0.7 else Not(Var(a))
        fb: Var | Not = Var(b) if rng.random() < 0.7 else Not(Var(b))
        op = rng.choice(["and", "or", "xor"])
        if op == "and":
            expr = And((fa, fb))
        elif op == "or":
            expr = Or((fa, fb))
        else:
            expr = Xor((fa, fb))
        gate = f"g{k}"
        net.add_node(gate, expr)
        gate_names.append(gate)
        pool.append(gate)
    for k, state in enumerate(states):
        driver = rng.choice(gate_names)
        net.add_latch(state, driver, rng.randint(0, 1))
    for k in range(n_outputs):
        net.add_node(f"y{k}", Var(rng.choice(gate_names)))
        net.add_output(f"y{k}")
    net.validate()
    return net
