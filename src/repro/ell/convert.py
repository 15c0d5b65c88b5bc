"""DD-to-ELL conversion (Section 3.2 of the paper).

:func:`ell_from_dd` is the one numeric converter: every route of the
hybrid policy and every simulator calls it.  It assembles the ELL arrays
level-synchronously over the DD's :class:`~repro.dd.node.Edge` /
:class:`~repro.dd.node.MNode` objects: all rows advance one qubit level per
step, the way the paper's kernel runs every row as one block, in a few
array operations per level rather than a loop per row.

* A top-down pass expands every (row prefix, column prefix) through the
  non-zero child slots of its node, listing children by (row bit, parent,
  column bit).  Each row's entries then come out as one run in ascending
  column order, so no sort is needed.
* A bottom-up pass forms each entry's product leaf to root and applies the
  root weight last: the multiplication order of a memoized per-node
  recursion (the reference in ``tests/test_ell.py``), hence its bits.

No sub-matrix is memoized per node, so transient memory stays a small
multiple of the output.

The paper's *hybrid* policy — the GPU kernel when the DD has at most
``tau`` edges, the CPU algorithm otherwise — lives in ``BQSimSimulator``'s
conversion analysis (``conv_infos``): both routes return the same matrix,
so the route only decides which modeled conversion time (GPU or CPU) the
virtual GPU charges (Fig. 9 and Table 1).

:func:`ell_from_flat_gpu` is the GPU kernel of Algorithm 1 executed line
for line: one *block* per ELL row running an iterative DFS with an
explicit edge stack and ``left_right`` / ``up_down`` direction arrays over
the flat edge/node arrays of :class:`~repro.dd.flat.FlatDD`.  It is a
Python loop per row, kept as the reference the converter is tested
against.
"""

from __future__ import annotations

import numpy as np

from ..dd.flat import FlatDD
from ..dd.node import Edge
from ..errors import ConversionError
from .format import ELLMatrix

#: default edge-count threshold tau for the hybrid policy.  The paper uses
#: 2000 on its machine and notes the best tau is hardware dependent; 4500 is
#: the break-even edge count of this repo's calibrated conversion cost model
#: (GPU divergence factor ``1 + edges/500`` crossing the CPU's 10x higher
#: per-entry cost).
DEFAULT_TAU = 4500


# ---------------------------------------------------------------------------
# The converter: level-synchronous assembly
# ---------------------------------------------------------------------------

def _level_tables(edge: Edge) -> list[tuple[np.ndarray, np.ndarray]]:
    """Child tables of the DD below ``edge``, one per level, top first.

    A level's table covers its unique nodes in order of first reach:
    ``child[i, slot]`` is the index of node ``i``'s child in the next
    level's table (0 at the bottom level, whose children are the terminal)
    and ``weight[i, slot]`` the child weight, 0 for a zero edge; slots are
    ``row_bit * 2 + col_bit``.
    """
    tables = []
    level = [edge.node] if edge.node is not None else []
    while level:
        kids = [c for node in level for c in node.children]
        # zero edges point at the terminal, as the bottom level's edges do
        below = list(dict.fromkeys(c.node for c in kids if c.node is not None))
        index = {node: i for i, node in enumerate(below)}
        child = np.array([index.get(c.node, 0) for c in kids], dtype=np.int64)
        weight = np.array([c.weight for c in kids], dtype=np.complex128)
        tables.append((child.reshape(-1, 4), weight.reshape(-1, 4)))
        level = below
    return tables


def ell_from_dd(
    edge: Edge, num_qubits: int, max_nzr: int | None = None
) -> ELLMatrix:
    """DD-to-ELL conversion: the one converter behind every route.

    Returns the matrix padded to ``max_nzr`` columns, or trimmed to the
    DD's max NZR when ``max_nzr`` is None; a row with more entries than
    ``max_nzr`` raises.  Each row's entries are in ascending column order,
    padded with ``(value 0, column 0)``.  Example::

        ell = ell_from_dd(gate_matrix_dd(mgr, Gate.make("h", [0])), 4)
        assert ell.width == 2
    """
    if edge.weight == 0:
        raise ConversionError("cannot convert the zero matrix to ELL")
    tables = _level_tables(edge)
    if len(tables) != num_qubits:
        raise ConversionError(
            f"DD spans {len(tables)} qubit levels, expected {num_qubits}"
        )
    # top-down: a frontier element is a partial path (node, row prefix,
    # column prefix); steps keep, per level, each new element's parent and
    # its edge as an index into the level's flattened weight table.
    # Children are listed by (row bit, parent, column bit), so the entries
    # end up ordered by bit-reversed row, then ascending column: each row's
    # entries form one run, in column order, without a sort
    node = row = col = np.zeros(1, dtype=np.int64)
    steps = []
    for child, weight in tables:
        live = (weight != 0)[node].reshape(-1, 2, 2).transpose(1, 0, 2)
        row_bit, parent, col_bit = np.nonzero(live)
        code = node[parent] * 4 + row_bit * 2 + col_bit
        node = child.ravel()[code]
        row = row[parent] * 2 + row_bit
        col = col[parent] * 2 + col_bit
        steps.append((parent, code))

    rows = 1 << num_qubits
    start = np.ones(row.size, dtype=bool)
    np.not_equal(row[1:], row[:-1], out=start[1:])
    first = np.flatnonzero(start)
    width = int(np.diff(first, append=row.size).max())
    if max_nzr is not None:
        if width > max_nzr:
            raise ConversionError(
                f"ELL width {width} exceeds declared max NZR {max_nzr}"
            )
        width = max_nzr
    # each entry's slot in the padded (rows, width) layout
    dest = row * width + np.arange(row.size) - first[np.cumsum(start) - 1]
    del start, first
    cols = np.zeros((rows, width), dtype=np.int64)
    cols.ravel()[dest] = col
    del node, row, col

    # bottom-up: each entry's product leaf to root, the root weight last
    # (out of place: numpy's in-place complex multiply can round otherwise)
    value = np.ones(dest.size, dtype=np.complex128)
    up = None
    while steps:
        parent, code = steps.pop()
        weight = tables.pop()[1].ravel()
        value = value * weight[code if up is None else code[up]]
        up = parent if up is None else parent[up]
    values = np.zeros((rows, width), dtype=np.complex128)
    values.ravel()[dest] = value * edge.weight
    return ELLMatrix(num_qubits, values, cols)


# ---------------------------------------------------------------------------
# GPU-based conversion: Algorithm 1, one block per row (test reference)
# ---------------------------------------------------------------------------

def _kernel_block(
    flat: FlatDD,
    bid: int,
    max_nzr: int,
    values: np.ndarray,
    cols: np.ndarray,
) -> None:
    """Algorithm 1 for one block (= one ELL row), line-for-line.

    ``up_down[d]`` holds the row direction for stack depth ``d`` (the paper
    stores it per qubit level; with full chains stack depth == n-1-level).
    """
    n = flat.num_qubits
    edge_stack = [0] * (n + 1)
    left_right = [0] * (n + 1)
    up_down = [(bid >> (n - 1 - d)) & 1 for d in range(n)] + [0]
    stack_ptr = 0
    edge_stack[0] = flat.root()
    val = 1.0 + 0j
    col = 0
    idx = 0
    while stack_ptr >= 0:
        edge_ptr = edge_stack[stack_ptr]
        if edge_ptr == -1:  # constant-zero edge
            stack_ptr -= 1
            continue
        node_ptr = flat.edge_node[edge_ptr]
        if node_ptr == -1:  # constant-one terminal: emit an entry
            if idx >= max_nzr:
                raise ConversionError(
                    f"row {bid} exceeds the declared max NZR {max_nzr}"
                )
            cols[bid, idx] = col
            values[bid, idx] = val * flat.edge_weight[edge_ptr]
            stack_ptr -= 1
            idx += 1
            continue
        if left_right[stack_ptr] == 2:  # both columns explored: backtrack
            left_right[stack_ptr] = 0
            stack_ptr -= 1
            val = val / flat.edge_weight[edge_ptr]
            col = col - (1 << flat.node_level[node_ptr])
        else:
            child_idx = 2 * up_down[stack_ptr] + left_right[stack_ptr]
            left_right[stack_ptr] += 1
            if left_right[stack_ptr] == 1:
                val = val * flat.edge_weight[edge_ptr]
            col = col + (left_right[stack_ptr] - 1) * (
                1 << flat.node_level[node_ptr]
            )
            edge_stack[stack_ptr + 1] = flat.node_edges[node_ptr, child_idx]
            stack_ptr += 1


def ell_from_flat_gpu(flat: FlatDD, max_nzr: int) -> ELLMatrix:
    """The Algorithm-1 GPU kernel over the flat edge/node arrays, one
    block (one loop iteration) per ELL row, padded to ``max_nzr``.

    The literal kernel, kept as the reference the converter is tested
    against; a row with more than ``max_nzr`` entries raises.  Example::

        flat = flatten_matrix_dd(edge, num_qubits)
        ell = ell_from_flat_gpu(flat, max_nzr(mgr, edge))
    """
    rows = 1 << flat.num_qubits
    values = np.zeros((rows, max_nzr), dtype=np.complex128)
    cols = np.zeros((rows, max_nzr), dtype=np.int64)
    for bid in range(rows):
        _kernel_block(flat, bid, max_nzr, values, cols)
    return ELLMatrix(flat.num_qubits, values, cols)
