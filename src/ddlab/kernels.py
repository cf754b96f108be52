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

from .config import OBDD_SIZING_CAP

BACKEND = "python"

# The level table of one order search. The distinct cofactors left after
# fixing a set S of ranks, |L(S)|, and the decision nodes of the level after S
# where rank v is placed, nodes(S, v), depend only on S and v, not on the
# order within S, so they serve every order sharing that prefix set. S is a
# bitmask, bit rank - 1 for each placed rank, shifted above a field that
# holds v: key ``S << RANK_BITS`` holds |L(S)| and ``S << RANK_BITS | v``
# nodes(S, v). The field must hold every rank the sizing cap allows.
RANK_BITS = 5
assert OBDD_SIZING_CAP < 1 << RANK_BITS


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


def obdd_size_for_order(n, clauses, bound=None, order=None, known=None):
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

    With a ``known`` dict (and an ``order``) the kernel records in it the
    counts of every level it reaches, keyed as the level-table comment at
    the top of this module says: |L(S)| before the level's bound check (and
    for all n ranks once the split ends), and nodes(S, v) once the level is
    split.
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
    key = 0  # the placed set S, shifted into a table key
    for p in range(n):
        if known is not None:
            known[key] = len(level)
        if bound is not None and internal + len(level) >= bound:
            return None
        half = 1 << (n - 1 - p)
        low = (1 << half) - 1
        above = internal
        below = set()
        for block in level:
            lo = block & low
            hi = block >> half
            if lo != hi:
                internal += 1
                below.add(hi)
            below.add(lo)
        level = below
        if known is not None:
            rank = order[p]
            known[key | rank] = internal - above
            key |= 1 << (rank - 1 + RANK_BITS)
    if known is not None:
        known[key] = len(level)
    size = internal + len(level)
    if bound is not None and size >= bound:
        return None
    return size


def obdd_size_from_table(n, clauses, bound, order, known):
    """``obdd_size_for_order(n, clauses, bound, order, known)``, read from
    the level table ``known`` when the counts there decide it.

    ``known`` holds what the kernel recorded for earlier orders of the same
    search. The walk follows the order level by level. While every node
    count so far is known it sums the exact nodes above each level and cuts
    the order once they plus |L(S)| reach the bound, the kernel's own check.
    After the first unknown node count it sums a lower bound instead: a
    cofactor of L(S) whose halves are equal passes one half on to
    L(S ∪ {v}) and a decision node passes two, so |L(S ∪ {v})| <= |L(S)| +
    nodes(S, v), that is, nodes(S, v) >= |L(S ∪ {v})| - |L(S)|. The sum never
    exceeds the kernel's count at that level, so a cut on it is one the
    kernel makes at that level or before. With every count known the order
    is settled from the table: its size, or a cut once that reaches the
    bound. Otherwise, at the first unknown |L(S)| or with no bound (the
    search's first order), the kernel sizes the order and records what it
    counts.
    """
    if bound is not None:
        get = known.get
        key = internal = 0
        exact = True
        for v in order:
            width = get(key)
            if width is None:
                break
            if internal + width >= bound:
                return None
            nodes = get(key | v)
            key |= 1 << (v - 1 + RANK_BITS)
            if nodes is None:
                exact = False
                nodes = max(get(key, 0) - width, 0)
            internal += nodes
        else:
            # past the last level: the sinks, known whenever the last node
            # count is, and 0 is a lower bound for them otherwise
            size = internal + get(key, 0)
            if size >= bound:
                return None
            if exact:
                return size
    return obdd_size_for_order(n, clauses, bound, order, known)
