"""The kernels against independent oracles: per-assignment clause evaluation
for truth tables, the bottom-up level reduction over all 2^n cells for
reduced-OBDD sizes, the unbounded size for the bounded one, and clauses
relabelled into position space for an order passed as data."""

import random

import ddlab
from ddlab import formulas as F
from ddlab import kernels
from ddlab import lowerbound as LB
from ddlab.cnf import encode

from conftest import random_cnf


def random_position_clauses(rng, n, m):
    out = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        positions = rng.sample(range(1, n + 1), width)
        out.append([p if rng.random() < 0.5 else -p for p in positions])
    return out


def brute_force_truth_table(n, clauses):
    """Bit m set iff assignment m satisfies every clause, one m at a time."""
    table = 0
    for m in range(1 << n):
        def true(lit):
            return ((m >> (n - abs(lit))) & 1) == (lit > 0)
        if all(any(true(lit) for lit in clause) for clause in clauses):
            table |= 1 << m
    return table


def bottom_up_size(n, table):
    """Reduced-OBDD node count by hash-consing (lo, hi) pairs level by level
    from the 2^n sink cells up; sinks count only if referenced."""
    ids = [int(bit) for bit in reversed(bin(table)[2:].zfill(1 << n))]
    next_internal = 2
    used_sinks = set()
    internal = 0
    for _ in range(n):
        unique = {}
        nxt = []
        for i in range(0, len(ids), 2):
            lo, hi = ids[i], ids[i + 1]
            if lo == hi:
                nxt.append(lo)
                continue
            node = unique.get((lo, hi))
            if node is None:
                node = next_internal
                next_internal += 1
                internal += 1
                unique[(lo, hi)] = node
                used_sinks.update(x for x in (lo, hi) if x < 2)
            nxt.append(node)
        ids = nxt
    if ids[0] < 2:
        used_sinks.add(ids[0])
    return internal + len(used_sinks)


def relabel(clauses, order):
    """Rank-space clauses rewritten into the position space of ``order``
    (``order[p]`` is the rank at position p), one literal at a time."""
    pos = [0] * (len(order) + 1)
    for p, rank in enumerate(order, 1):
        pos[rank] = p
    return [[pos[lit] if lit > 0 else -pos[-lit] for lit in c] for c in clauses]


def test_pure_pattern_shapes():
    assert kernels.pattern(2, 0) == 0b1100
    assert kernels.pattern(2, 1) == 0b1010
    assert kernels.pattern(3, 0) == 0b11110000
    assert kernels.pattern(3, 2) == 0b10101010
    assert kernels.pattern(1, 0) == 0b10


def test_pure_truth_table_basics():
    # single positive literal on the first of two variables
    assert kernels.cnf_truth_table(2, [[1]]) == 0b1100
    assert kernels.cnf_truth_table(0, []) == 1
    assert kernels.cnf_truth_table(2, [[]]) == 0


def test_pure_obdd_sizes():
    # (x1 or x2): nodes x1, x2 and both sinks
    assert kernels.obdd_size_for_order(2, [[1, 2]]) == 4
    assert kernels.obdd_size_for_order(3, []) == 1
    assert kernels.obdd_size_for_order(2, [[]]) == 1
    assert kernels.obdd_size_for_order(0, []) == 1


def test_truth_tables_match_brute_force():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 10)
        clauses = random_position_clauses(rng, max(n, 1), rng.randint(0, 6)) if n else []
        assert kernels.cnf_truth_table(n, clauses) == brute_force_truth_table(n, clauses)


def test_obdd_sizes_match_bottom_up_oracle():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 10)
        clauses = random_position_clauses(rng, n, rng.randint(0, 8))
        assert kernels.obdd_size_for_order(n, clauses) == \
            bottom_up_size(n, kernels.cnf_truth_table(n, clauses))


def test_bounded_sizes_are_cut_off_exactly_at_the_bound():
    rng = random.Random(9)
    for _ in range(150):
        phi = random_cnf(rng, rng.randint(1, 10), rng.randint(0, 10))
        names = sorted(phi.vars)
        rng.shuffle(names)
        n, clauses = len(names), encode(phi, names)
        size = kernels.obdd_size_for_order(n, clauses)
        assert size == bottom_up_size(n, kernels.cnf_truth_table(n, clauses))
        for bound in range(1, size + 3):
            expected = None if size >= bound else size
            assert kernels.obdd_size_for_order(n, clauses, bound) == expected, (bound, size)


def test_literal_tuple_holds_each_pattern_and_its_complement():
    for n in range(0, 9):
        lits = kernels._literals(n)
        full = (1 << (1 << n)) - 1
        assert len(lits) == 2 * n + 1 and lits[0] == 0
        for p in range(n):
            assert lits[p + 1] == kernels.pattern(n, p)
            assert lits[-(p + 1)] == full ^ kernels.pattern(n, p)


def test_order_argument_matches_relabelled_clauses_at_every_bound():
    rng = random.Random(21)
    for n in range(0, 9):
        for _ in range(25):
            if n:
                clauses = random_position_clauses(rng, n, rng.randint(0, 8))
            else:
                clauses = rng.choice([[], [[]]])
            order = list(range(1, n + 1))
            rng.shuffle(order)
            moved = relabel(clauses, order)
            size = kernels.obdd_size_for_order(n, moved)
            assert kernels.obdd_size_for_order(n, clauses, order=order) == size
            for bound in range(1, size + 3):
                expected = kernels.obdd_size_for_order(n, moved, bound)
                assert expected == (None if size >= bound else size)
                assert kernels.obdd_size_for_order(n, clauses, bound, order) == expected, \
                    (n, order, bound)


def test_identity_order_is_position_space():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randint(1, 8)
        clauses = random_position_clauses(rng, n, rng.randint(0, 8))
        identity = list(range(1, n + 1))
        size = kernels.obdd_size_for_order(n, clauses)
        assert kernels.obdd_size_for_order(n, clauses, order=identity) == size
        assert kernels.obdd_size_for_order(n, clauses, size, identity) is None
        assert kernels.obdd_size_for_order(n, clauses, size + 1, identity) == size


def test_grid4_junction_sizes_match_constructed_obdds():
    phi = F.grid_junction_formula(4)
    names = sorted(phi.vars)
    assert len(names) == 17
    rng = random.Random(7)
    for _ in range(3):
        order = list(names)
        rng.shuffle(order)
        assert LB.obdd_size(phi, order) == LB.obdd_for_order(phi, order).size


def test_selected_backend_exposes_contract():
    assert kernels.BACKEND == ddlab.KERNEL_BACKEND == "python"
    assert kernels.cnf_truth_table(1, [[1]]) == 0b10
    assert kernels.cnf_truth_table(2, [[1, 2]]).bit_count() == 3
