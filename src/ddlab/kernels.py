"""Hot kernels: truth-table bitsets and per-order reduced-OBDD size.

Truth tables are Python big ints with one bit per total assignment. The
assignment with index ``m`` gives the variable at position ``p`` (in the
caller's fixed order) the value ``(m >> (n-1-p)) & 1``, so the first variable
is the most significant bit and the two cofactors of a table are its halves:
the low half sets the first variable to 0, the high half sets it to 1.

Clauses arrive in position space: a literal is ``+(p+1)`` for the positive
literal of the variable at position ``p`` and ``-(p+1)`` for its negation.
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


# obdd_size_for_order builds its table through this private name, so a
# wrapper installed on the public cnf_truth_table sees only outside calls.
def _truth_table(n, clauses):
    full = (1 << (1 << n)) - 1
    table = full
    for clause in clauses:
        mask = 0
        for lit in clause:
            pat = pattern(n, abs(lit) - 1)
            mask |= pat if lit > 0 else full ^ pat
        table &= mask
        if table == 0:
            break
    return table


def cnf_truth_table(n, clauses):
    """Truth table of a clause set over n position-indexed variables."""
    return _truth_table(n, clauses)


def count_ones(table):
    return table.bit_count()


def obdd_size_for_order(n, clauses):
    """Node count of the reduced OBDD of a clause set, sinks included.

    The subfunctions left after fixing the first p variables are the distinct
    aligned blocks of width 2^(n-p) in the truth table. Top-down, each level
    splits every distinct block into its two halves: a block whose halves
    differ depends on the variable at that level and is one decision node;
    either way its halves carry on to the next level. The sets deduplicate
    equal subfunctions, so the cost follows the number of distinct cofactors
    (about the diagram size times n), not the 2^n cells. The last set holds
    the sinks the diagram reaches.
    """
    level = {_truth_table(n, clauses)}
    internal = 0
    for p in range(n):
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
    return internal + len(level)
