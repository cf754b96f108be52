"""Reference computations the benchmark checks ddlab's outputs against.

Nothing here imports ddlab. Formulas are clause lists of ``(name, sign)``
pairs, named as ddlab names them (grid vertices ``(i,j)``, doubled copies
``v#1``/``v#2``, the junction selector ``jn``), so results compare directly.

A truth table is a string of ``'0'``/``'1'`` of length 2^n: character ``m``
is the value on the assignment that gives the variable at position ``p`` of
the order the bit ``(m >> (n-1-p)) & 1``.
"""

from __future__ import annotations

MAX_VARS = 20


# ---------------------------------------------------------------------------
# formulas over graphs


def grid_edges(n):
    """Horizontal and vertical edges of the n-by-n grid, as name pairs."""
    name = "({},{})".format
    hor = [(name(i, j), name(i, j + 1)) for i in range(1, n + 1) for j in range(1, n)]
    vert = [(name(i, j), name(i + 1, j)) for i in range(1, n) for j in range(1, n + 1)]
    return hor, vert


def vc_clauses(edges):
    """One positive binary clause per edge: models are the vertex covers."""
    return [[(a, 1), (b, 1)] for a, b in edges]


def psi_clauses(edges):
    """Vertex-cover clauses of the two-copy graph plus one all-negative
    clause per copy."""
    vertices = sorted({v for e in edges for v in e})
    clauses = []
    for a, b in edges:
        clauses.append([(f"{a}#1", 1), (f"{b}#2", 1)])
        clauses.append([(f"{b}#1", 1), (f"{a}#2", 1)])
    clauses.append([(f"{v}#1", 0) for v in vertices])
    clauses.append([(f"{v}#2", 0) for v in vertices])
    return clauses


def star_clauses(edges):
    """Vertex-cover clauses plus the single all-negative clause."""
    vertices = sorted({v for e in edges for v in e})
    return vc_clauses(edges) + [[(v, 0) for v in vertices]]


def junction_clauses(side1, side2):
    """``jn=1`` selects the first clause list, ``jn=0`` the second."""
    return ([[("jn", 0)] + list(c) for c in side1]
            + [[("jn", 1)] + list(c) for c in side2])


def variables(clauses):
    return sorted({name for c in clauses for name, _ in c})


# ---------------------------------------------------------------------------
# brute force over all 2^n assignments, bit-parallel


def _literal_mask(n, p, sign):
    """Bitset of the assignments on which the literal at position p holds."""
    block = 1 << (n - 1 - p)
    text = ("0" * block + "1" * block) * ((1 << n) // (2 * block))
    mask = int(text[::-1], 2)
    return mask if sign else mask ^ ((1 << (1 << n)) - 1)


def truth_table(clauses, order):
    """Truth table of a clause list over ``order`` (a superset of its variables)."""
    order = list(order)
    n = len(order)
    if n > MAX_VARS:
        raise ValueError(f"{n} variables exceed the brute-force limit {MAX_VARS}")
    pos = {name: p for p, name in enumerate(order)}
    if len(pos) != n:
        raise ValueError("order repeats a variable")
    table = (1 << (1 << n)) - 1
    masks = {}
    for c in clauses:
        holds = 0
        for name, sign in c:
            key = (pos[name], sign)
            if key not in masks:
                masks[key] = _literal_mask(n, *key)
            holds |= masks[key]
        table &= holds
    return format(table, f"0{1 << n}b")[::-1]


def count_models(clauses, order):
    return truth_table(clauses, order).count("1")


def evaluate(clauses, assignment):
    """1 iff every clause has a literal the assignment (a dict) satisfies."""
    return int(all(any(assignment[name] == sign for name, sign in c) for c in clauses))


def table_from_int(value, n):
    """ddlab's integer truth tables (bit m = value on assignment m) as strings."""
    return format(value, f"0{1 << n}b")[::-1]


# ---------------------------------------------------------------------------
# reduced-OBDD size by counting subfunctions


def obdd_size(table):
    """Node count of the reduced OBDD of a truth table, sinks included.

    The nodes testing the variable at position p are the distinct
    subfunctions left after fixing positions 0..p-1 that depend on position
    p: the aligned blocks of width 2^(n-p) whose two halves differ.
    """
    size = len(table)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("truth table length is not a power of two")
    nodes = 0
    for p in range(n):
        width = size >> p
        half = width >> 1
        blocks = {table[k:k + width] for k in range(0, size, width)}
        nodes += sum(1 for b in blocks if b[:half] != b[half:])
    return nodes + ("0" in table) + ("1" in table)


def obdd_size_for_order(clauses, order):
    return obdd_size(truth_table(clauses, order))


# ---------------------------------------------------------------------------
# vertex covers of grids by row transfer


def grid_vertex_covers(rows, cols, hor=True, vert=True):
    """Number of vertex covers of a rows-by-cols grid keeping the horizontal
    and/or vertical edges. A state is the chosen set of one row as a bitmask;
    no edge may have both ends unchosen."""
    full = (1 << cols) - 1

    def row_ok(mask):
        free = full & ~mask
        return not (hor and free & (free >> 1))

    states = [m for m in range(1 << cols) if row_ok(m)]
    counts = {m: 1 for m in states}
    for _ in range(rows - 1):
        nxt = {}
        for cur in states:
            total = 0
            for prev, ways in counts.items():
                if not (vert and (full & ~prev & ~cur)):
                    total += ways
            nxt[cur] = total
        counts = nxt
    return sum(counts.values())

