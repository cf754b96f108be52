"""Hot kernels: truth-table bitsets and per-order reduced-OBDD size.

Truth tables are Python big ints with one bit per total assignment. The
assignment with index ``m`` gives the variable at position ``p`` (in the
caller's fixed order) the value ``(m >> (n-1-p)) & 1``, so the first variable
is the most significant bit and the two cofactors of a table are its halves:
the low half sets the first variable to 0, the high half sets it to 1.

Clauses arrive in position space: a literal is ``+(p+1)`` for the positive
literal of the variable at position ``p`` and ``-(p+1)`` for its negation.
``obdd_size_for_order`` also takes clauses over ranks 1..n with an ``order``
that places rank ``order[p]`` at position ``p``.
"""

from functools import lru_cache

BACKEND = "python"


@lru_cache(maxsize=4096)
def pattern(n, p):
    """Bit i is 1 iff assignment i sets the variable at position p to 1.

    Built by doubling: one period (``block`` zeros then ``block`` ones) is
    copied onto itself until it spans all 2^n bits, O(n) big-int operations.
    """
    block = 1 << (n - 1 - p)
    out = ((1 << block) - 1) << block
    width = block << 1
    size = 1 << n
    while width < size:
        out |= out << width
        width <<= 1
    return out


@lru_cache(maxsize=32)
def _literals(n):
    """Every literal's pattern over n variables: index p + 1 holds
    ``pattern(n, p)`` and index -(p + 1), reached by negative indexing, its
    complement, so a position-space literal indexes its own pattern."""
    full = (1 << (1 << n)) - 1
    pats = [pattern(n, p) for p in range(n)]
    return (0,) + tuple(pats) + tuple(full ^ pat for pat in reversed(pats))


# obdd_size_for_order builds its table through this private name, so a
# wrapper installed on the public cnf_truth_table sees only outside calls.
def _truth_table(n, clauses, lits):
    table = (1 << (1 << n)) - 1
    for clause in clauses:
        mask = 0
        for lit in clause:
            mask |= lits[lit]
        table &= mask
        if table == 0:
            break
    return table


def cnf_truth_table(n, clauses):
    """Truth table of a clause set over n position-indexed variables."""
    return _truth_table(n, clauses, _literals(n))


def obdd_size_for_order(n, clauses, bound=None, order=None):
    """Node count of the reduced OBDD of a clause set, sinks included, or
    ``None`` when a ``bound`` is given and the count is at least ``bound``.

    With an ``order`` the clauses are over ranks 1..n and ``order[p]`` is the
    rank at position p: each position's pattern and its complement are
    placed at its rank's two literal slots, 2n writes, and no literal is
    rewritten. Without one the clauses are in position space.

    The subfunctions left after fixing the first p variables are the distinct
    aligned blocks of width 2^(n-p) in the truth table. Top-down, each level
    splits every distinct block into its two halves: a block whose halves
    differ depends on the variable at that level and is one decision node;
    either way its halves carry on to the next level. The sets deduplicate
    equal subfunctions, so the cost follows the number of distinct cofactors
    (about the diagram size times n), not the 2^n cells. The last set holds
    the sinks the diagram reaches.

    The bound is checked before each level is split and once at the end.
    Before level p, ``internal`` counts the decision nodes at positions
    below p, and every block in ``level`` is a distinct subfunction that some
    path into the diagram reaches after p variables. The reduced OBDD
    represents each such subfunction by its own node, a decision node at
    position p or later or a sink, so none of them is among the nodes
    counted in ``internal``. The final count is therefore at least
    ``internal + len(level)``, and once that reaches the bound the rest of
    the split cannot bring the count under it. Without a bound every level
    is split and the count is returned.
    """
    lits = _literals(n)
    if order is not None:
        placed = [0] * len(lits)
        for p, rank in enumerate(order, 1):
            placed[rank] = lits[p]
            placed[-rank] = lits[-p]
        lits = placed
    level = {_truth_table(n, clauses, lits)}
    internal = 0
    for p in range(n):
        if bound is not None and internal + len(level) >= bound:
            return None
        half = 1 << (n - 1 - p)
        low = (1 << half) - 1
        below = set()
        for block in level:
            lo = block & low
            hi = block >> half
            if lo != hi:
                internal += 1
                below.add(hi)
            below.add(lo)
        level = below
    size = internal + len(level)
    if bound is not None and size >= bound:
        return None
    return size
