"""Canonical job specs and content-addressed cache keys.

The serve cache and the bench driver share one definition of "the same
problem": a **job spec** — the circuit, the split and every solver flag
that can influence the produced automaton or its stats — normalised
into a canonical dict and hashed with SHA-256.  Two submissions collide
on the cache exactly when their specs hash equal.

What is part of the key
-----------------------

* the circuit, as **canonical BLIF bytes**: the input text is parsed
  and re-emitted by :func:`repro.network.blif.write_blif`, so
  whitespace, cover-row order and comment differences between
  textually distinct but structurally identical netlists vanish;
* the split (``x_latches``, ``u_signals``);
* every ``hashed`` field of :class:`~repro.eqn.config.SolveConfig`:
  ``method``, ``schedule``, ``trim``, ``shards``, ``frontier``,
  ``batch``, ``compose``.

Flags like ``--shards`` or ``--batch`` provably do not change the
solved language — but they are hashed anyway, for three reasons.
First, byte-reproducibility is the conservative contract: ``frontier``
and ``batch`` change subset discovery order and therefore state
*numbering*, so a cached automaton from a different setting would not
be byte-identical to a cold solve.  Second, the cached payload carries
the run's statistics (memo hit rates, GC counters, shard
transfer counts); attributing a ``--shards 4`` stats block to a
``--shards 1`` query would silently corrupt benchmark comparisons.
Third, the bench driver tags every BENCH_table1 row with its
``cache_key``, and cached-vs-cold latency comparisons are only
attributable when variant rows (which differ exactly in these flags)
get distinct keys.  ``compose`` changes the produced automaton itself
(the composed CSF is language-identical to the direct one, not
byte-identical), so it must separate the two solves.

What is *not* part of the key
-----------------------------

Resource budgets (``max_seconds``, ``max_nodes``) and serving knobs
(``checkpoint_every``, resume requests) — they bound *whether* a solve
completes, never what it produces.  The ``excluded`` config fields are
left out for the same reason: ``resident_budget`` bounds memory with
byte-identical results, and the BDD ``backend`` is excluded
deliberately and in the *opposite* direction from
``shards``: backends are required to be byte-identical on
the wire (the conformance kit enforces canonical snapshots, and the
differential suite checks byte-identical KISS output per backend), so
hashing the backend would only split one result across two cache
entries.  :func:`job_spec` still *validates* the excluded fields — a
misspelled backend must fail loudly, not alias onto the default — and
then drops them before hashing.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Sequence

from repro.eqn.config import ConfigError, SolveConfig
from repro.errors import NetworkError, ServeError

#: Version tag of the canonical spec layout (bump on field changes).
SPEC_FORMAT = "repro-serve-spec/5"

#: Submitted BLIF texts whose canonical form :func:`canonical_blif`
#: remembers (least recently used first out).
CANONICAL_MEMO_ENTRIES = 64


def canonical_blif(blif: "str | object") -> str:
    """Canonical BLIF text of a circuit (text or ``Network``).

    Parsing and re-emitting makes the bytes independent of the
    formatting of the submitted text; a :class:`~repro.network.netlist.Network`
    is emitted directly.  Text is memoised, so a repeat submission of
    the same bytes (every cache hit) skips the parse; malformed text is
    never memoised and raises :class:`~repro.errors.ServeError` each time.
    """
    if isinstance(blif, str):
        return _canonical_text(blif)
    from repro.network.blif import write_blif

    return write_blif(blif)


@functools.lru_cache(maxsize=CANONICAL_MEMO_ENTRIES)
def _canonical_text(text: str) -> str:
    from repro.network.blif import parse_blif, write_blif

    try:
        return write_blif(parse_blif(text))
    except NetworkError as exc:
        raise ServeError(f"malformed BLIF: {exc}") from exc


def job_spec(
    blif: "str | object",
    x_latches: Sequence[str],
    *,
    u_signals: Sequence[str] | None = None,
    config: SolveConfig | None = None,
    **flags,
) -> dict:
    """Build the canonical spec dict for one solve.

    ``blif`` may be BLIF text or a parsed ``Network``; ``config`` with
    per-field ``flags`` merged on top selects the solver settings.
    Invalid or unknown flags raise :class:`~repro.errors.ServeError` (a
    misspelled flag silently falling back to its default would alias
    distinct problems onto one cache entry).  Only the ``hashed`` fields
    reach the spec, every one with an explicit value.
    """
    try:
        config = SolveConfig.from_mapping(flags, config)
    except ConfigError as exc:
        raise ServeError(str(exc)) from exc
    return {
        "format": SPEC_FORMAT,
        "blif": canonical_blif(blif),
        "x_latches": sorted(x_latches),
        "u_signals": sorted(u_signals) if u_signals is not None else None,
        **config.hashed(),
    }


def cache_key(spec: dict) -> str:
    """SHA-256 hex digest of a canonical spec.

    The spec is serialised as minified JSON with sorted keys, so the
    digest is stable across Python versions and dict insertion orders.
    """
    encoded = json.dumps(
        spec, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(encoded.encode("ascii")).hexdigest()


def solve_cache_key(
    blif: "str | object",
    x_latches: Sequence[str],
    *,
    u_signals: Sequence[str] | None = None,
    config: SolveConfig | None = None,
    **flags,
) -> str:
    """One-call spec + hash (what the bench driver tags its rows with)."""
    return cache_key(
        job_spec(blif, x_latches, u_signals=u_signals, config=config, **flags)
    )
