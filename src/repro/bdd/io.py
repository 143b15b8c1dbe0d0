"""Export and (de)serialisation of BDDs.

* :func:`to_dot` renders one or more functions as a Graphviz digraph
  (solid = then-edge, dashed = else-edge), handy for debugging and docs.
  Complement edges are rendered expanded: both polarities of a shared
  node appear as separate graph vertices, so the drawing always shows the
  plain (complement-free) ROBDD of each root.
* :func:`dump_function` / :func:`load_function` round-trip a function
  through a plain JSON-able structure, used by the test suite and by the
  CLI's ``--save`` option.
* :func:`dump_nodes` / :func:`load_nodes` round-trip a *set* of functions
  through a packed-array snapshot — flat ``array('q')`` columns of
  ``(var, lo, hi)`` records preserving complement bits and shared
  structure.  This is the wire format of the sharded runtime
  (:mod:`repro.shard`): snapshots pickle to a few bytes per node (vs
  tens for the nested-list JSON form), variables travel by *name* so
  managers with different orders and indices interoperate, and loading
  is safe under any destination order and at any BDD depth (no
  recursion on either side).  A snapshot node whose variable lies above
  the top variables of both rebuilt children in the destination order
  is created directly by the unique table (``_mk``); any other node is
  recombined with ITE.  Under a preserved order every node takes the
  first path, and both give the same canonical edge.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Mapping, Sequence

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.errors import BddError

#: Version tag of the packed-array snapshot format.
NODES_FORMAT = "repro-bdd-nodes/1"

#: Magic prefix of the single-function binary blob format.
FUNCTION_MAGIC = b"repro-bdd-fn/1\n"


def to_dot(
    mgr: BddManager,
    roots: Mapping[str, int] | Sequence[int],
    *,
    graph_name: str = "bdd",
) -> str:
    """Render the shared DAG of ``roots`` in Graphviz dot format."""
    if isinstance(roots, Mapping):
        named = dict(roots)
    else:
        named = {f"f{i}": node for i, node in enumerate(roots)}
    lines = [f"digraph {graph_name} {{", "  rankdir=TB;"]
    lines.append('  node0 [label="0", shape=box];')
    lines.append('  node1 [label="1", shape=box];')
    seen: set[int] = set()
    stack = list(named.values())
    while stack:
        node = stack.pop()
        if node < 2 or node in seen:
            continue
        seen.add(node)
        name = mgr.var_name(mgr.node_var(node))
        lines.append(f'  node{node} [label="{name}", shape=circle];')
        lo, hi = mgr.node_lo(node), mgr.node_hi(node)
        lines.append(f"  node{node} -> node{lo} [style=dashed];")
        lines.append(f"  node{node} -> node{hi} [style=solid];")
        stack.append(lo)
        stack.append(hi)
    for label, node in sorted(named.items()):
        lines.append(f'  root_{label} [label="{label}", shape=plaintext];')
        lines.append(f"  root_{label} -> node{node};")
    lines.append("}")
    return "\n".join(lines)


def dump_function(mgr: BddManager, f: int) -> dict:
    """Serialise ``f`` into a JSON-able dict.

    Nodes are listed children-first as ``[var_name, lo_ref, hi_ref]``
    where refs are ``"F"``, ``"T"`` or an index into the node list.
    """
    order: list[int] = []
    seen: set[int] = set()

    def visit(node: int) -> None:
        if node < 2 or node in seen:
            return
        seen.add(node)
        visit(mgr.node_lo(node))
        visit(mgr.node_hi(node))
        order.append(node)

    visit(f)
    index = {FALSE: "F", TRUE: "T"}
    nodes = []
    for pos, node in enumerate(order):
        index[node] = pos
        nodes.append(
            [
                mgr.var_name(mgr.node_var(node)),
                index[mgr.node_lo(node)],
                index[mgr.node_hi(node)],
            ]
        )
    return {"nodes": nodes, "root": index[f]}


def load_function(mgr: BddManager, data: dict) -> int:
    """Rebuild a function serialised by :func:`dump_function`.

    Variables are matched by name and must already exist in ``mgr``
    (declared on demand otherwise).
    """
    built: list[int] = []

    def ref(token: object) -> int:
        if token == "F":
            return FALSE
        if token == "T":
            return TRUE
        if isinstance(token, int):
            return built[token]
        raise BddError(f"malformed BDD dump reference: {token!r}")

    for name, lo_ref, hi_ref in data["nodes"]:
        try:
            var = mgr.var_index(name)
        except KeyError:
            var = mgr.add_var(name)
        lo, hi = ref(lo_ref), ref(hi_ref)
        built.append(mgr.ite(mgr.var_node(var), hi, lo))
    return ref(data["root"])


def dump_nodes(mgr: BddManager, roots: Sequence[int]) -> dict:
    """Serialise the shared DAG of ``roots`` as a packed-array snapshot.

    The snapshot is a dict of flat ``array('q')`` columns::

        {"format": NODES_FORMAT,
         "names":  [var name, ...],          # snapshot-local var table
         "var":    array('q', [...]),        # index into ``names`` per node
         "lo":     array('q', [...]),        # packed child refs
         "hi":     array('q', [...]),
         "roots":  array('q', [...])}        # packed root refs

    Nodes are listed children-first over the *regular* (uncomplemented)
    DAG, so shared structure is stored exactly once regardless of how
    many roots (or polarities) reach it.  A packed ref is ``0`` (FALSE),
    ``1`` (TRUE) or ``((pos + 1) << 1) | sign`` where ``pos`` indexes the
    node columns — the complement bit of every edge survives verbatim.
    The traversal is iterative, so snapshots of BDDs deeper than the
    Python recursion limit work.

    This is the wire format the sharded runtime ships across process
    boundaries; it is also several times denser than
    :func:`dump_function` when pickled.
    """
    index: dict[int, int] = {}
    var_col = array("q")
    lo_col = array("q")
    hi_col = array("q")
    name_ids: dict[int, int] = {}
    names: list[str] = []

    def pack(edge: int) -> int:
        reg = edge & -2
        if reg == 0:
            return edge  # FALSE/TRUE survive as-is
        return (index[reg] + 1) << 1 | (edge & 1)

    for root in roots:
        stack: list[int] = [root & -2]
        while stack:
            node = stack.pop()
            if node == 0 or node in index:
                continue
            lo = mgr.node_lo(node) & -2
            hi = mgr.node_hi(node) & -2
            if (lo == 0 or lo in index) and (hi == 0 or hi in index):
                var = mgr.node_var(node)
                vid = name_ids.get(var)
                if vid is None:
                    vid = len(names)
                    name_ids[var] = vid
                    names.append(mgr.var_name(var))
                index[node] = len(var_col)
                var_col.append(vid)
                lo_col.append(pack(mgr.node_lo(node)))
                hi_col.append(pack(mgr.node_hi(node)))
            else:
                stack.append(node)  # revisit once the children are placed
                if hi != 0 and hi not in index:
                    stack.append(hi)
                if lo != 0 and lo not in index:
                    stack.append(lo)
    return {
        "format": NODES_FORMAT,
        "names": names,
        "var": var_col,
        "lo": lo_col,
        "hi": hi_col,
        "roots": array("q", [pack(r) for r in roots]),
    }


def dump_function_packed(mgr: BddManager, f: int) -> bytes:
    """Serialise one function as a compact self-describing binary blob.

    This is the spill format of the bounded-memory runtime
    (:mod:`repro.eqn.residency`): one evicted ψ costs exactly one blob,
    not a registry snapshot.  The layout is::

        FUNCTION_MAGIC
        <QQQ little-endian: names length, node count, packed root ref>
        names, NUL-separated, UTF-8
        var column   (node count × int64, little-endian)
        lo column    (node count × int64, little-endian)
        hi column    (node count × int64, little-endian)

    Columns and packed refs are exactly those of :func:`dump_nodes`
    restricted to a single root.  The children-first traversal order is
    determined by the *structure* of ``f`` alone (never by node
    addresses), so two managers holding the same function under the same
    variable order produce byte-identical blobs — which is what makes
    the spill store content-addressable: identical sibling ψ share one
    blob on disk.

    ``mgr`` may be any :class:`~repro.bdd.backends.protocol.BddBackend`
    — the snapshot is taken through the protocol's ``dump_nodes``
    method, so a coordinator on a native backend spills the same way
    the reference kernel does.
    """
    snap = mgr.dump_nodes([f])
    names_blob = "\x00".join(snap["names"]).encode("utf-8")
    cols = [
        col if isinstance(col, array) else array("q", col)
        for col in (snap["var"], snap["lo"], snap["hi"])
    ]
    if sys.byteorder != "little":  # pragma: no cover - exotic platforms
        cols = [array("q", col) for col in cols]
        for col in cols:
            col.byteswap()
    header = struct.pack(
        "<QQQ", len(names_blob), len(snap["var"]), snap["roots"][0]
    )
    return b"".join(
        [FUNCTION_MAGIC, header, names_blob] + [col.tobytes() for col in cols]
    )


def load_function_packed(mgr: BddManager, blob: bytes) -> int:
    """Rebuild a function serialised by :func:`dump_function_packed`.

    Goes through the manager's ``load_nodes``, so the destination may
    hold any variable order; on the reference kernel a preserved order
    rebuilds every node straight through the unique table.
    """
    if not blob.startswith(FUNCTION_MAGIC):
        raise BddError("unknown packed-function blob (bad magic)")
    offset = len(FUNCTION_MAGIC)
    names_len, n_nodes, root = struct.unpack_from("<QQQ", blob, offset)
    offset += struct.calcsize("<QQQ")
    names_blob = blob[offset : offset + names_len]
    names = names_blob.decode("utf-8").split("\x00") if names_len else []
    offset += names_len
    cols = []
    for _ in range(3):
        col = array("q")
        col.frombytes(blob[offset : offset + n_nodes * col.itemsize])
        if sys.byteorder != "little":  # pragma: no cover - exotic platforms
            col.byteswap()
        cols.append(col)
        offset += n_nodes * col.itemsize
    data = {
        "format": NODES_FORMAT,
        "names": names,
        "var": cols[0],
        "lo": cols[1],
        "hi": cols[2],
        "roots": array("q", [root]),
    }
    return mgr.load_nodes(data)[0]


def load_nodes(mgr: BddManager, data: Mapping) -> list[int]:
    """Rebuild the functions serialised by :func:`dump_nodes`.

    Variables are matched by name (declared on demand when absent).  A
    node whose variable sits above the top levels of both rebuilt
    children in ``mgr``'s order is made directly with ``mgr._mk`` —
    that is exactly the canonical node ITE would return.  Any other
    node (the destination order moved its variable below a child's top)
    is recombined with ITE, so the destination order may differ
    arbitrarily from the order the snapshot was taken under.  Returns
    the root edges aligned with the dumped roots.
    """
    if data.get("format") != NODES_FORMAT:
        raise BddError(f"unknown BDD snapshot format: {data.get('format')!r}")
    vars_local: list[int] = []
    for name in data["names"]:
        try:
            vars_local.append(mgr.var_index(name))
        except KeyError:
            vars_local.append(mgr.add_var(name))
    levels_local = [mgr.var_level(var) for var in vars_local]
    # Indexed by ``ref >> 1``: slot 0 stands for both terminals (the
    # sign bit picks FALSE or TRUE), slot ``pos + 1`` for node ``pos``.
    # ``tops`` holds the destination level of each rebuilt edge's top
    # variable; terminals sort below every variable.
    built = array("q", [FALSE])
    tops = array("q", [mgr.level(FALSE)])
    mk = mgr._mk
    ite = mgr.ite
    for vid, lo_ref, hi_ref in zip(data["var"], data["lo"], data["hi"]):
        var = vars_local[vid]
        level = levels_local[vid]
        lo = built[lo_ref >> 1] ^ (lo_ref & 1)
        hi = built[hi_ref >> 1] ^ (hi_ref & 1)
        if level < tops[lo_ref >> 1] and level < tops[hi_ref >> 1]:
            built.append(mk(var, lo, hi))
            tops.append(level)
        else:
            edge = ite(mgr.var_node(var), hi, lo)
            built.append(edge)
            tops.append(mgr.level(edge))
    return [built[r >> 1] ^ (r & 1) for r in data["roots"]]
