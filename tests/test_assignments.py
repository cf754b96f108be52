import itertools
import random

import pytest

from ddlab import alignment, cnf, diagrams, graphs, lowerbound
from ddlab.assignments import (Assignment, AssignmentSet, breaks, check_order, cube, decode_table,
                               product, product_all, project_set, restrict_set)
from ddlab.errors import DomainOverlapError, ScopeError, UniformityError


def aset(*dicts):
    return AssignmentSet([Assignment(d) for d in dicts])


def random_factors(rng):
    """Two or three random sets over disjoint slices of eight shuffled names."""
    m = rng.randint(2, 3)
    pool = [f"v{i}" for i in range(8)]
    rng.shuffle(pool)
    at = 0
    factors = []
    for _ in range(m):
        size = rng.randint(1, 3)
        if at + size > len(pool):
            size = len(pool) - at
        names = pool[at:at + size]
        at += size
        members = [dict(zip(names, bits))
                   for bits in itertools.product((0, 1), repeat=size)
                   if rng.random() < 0.7]
        if not members:
            members = [dict(zip(names, (0,) * size))]
        factors.append(aset(*members))
    return factors


def breaks_by_projection(h, y):
    """The rectangle test on Assignment projections: the oracle for ``breaks``.

    Same contract and bipartition order as ``breaks``, but every candidate
    factor pair is built with ``project_set``.
    """
    y = frozenset(y)
    if len(y) < 2 or not h.elements:
        return False, None
    names = sorted(h.universe)
    n = len(names)
    size = len(h.elements)
    for mask in range(1, 2 ** (n - 1)):
        v1 = frozenset(names[i] for i in range(n) if mask >> i & 1)
        v2 = h.universe - v1
        if not (y & v1) or not (y & v2):
            continue
        if len(project_set(h, v1)) * len(project_set(h, v2)) == size:
            return True, (v1, v2)
    return False, None


def breaks_by_scan(h, y):
    """The bipartition scan on integer rows: the oracle for ``breaks``.

    Tests every bipartition mask below 2^(n-1) in increasing order, bit i
    binding the i-th sorted name, and returns the first that splits ``y``
    and factors ``h``. Exponential in the universe, so small sets only.
    """
    y = frozenset(y)
    if len(y) < 2 or not h.elements:
        return False, None
    names = sorted(h.universe)
    n = len(names)
    size = len(h.elements)
    rows = [sum(bit << i for i, (_, bit) in enumerate(a)) for a in h.elements]
    ybits = sum(1 << i for i, name in enumerate(names) if name in y)
    full = (1 << n) - 1
    for mask in range(1, 2 ** (n - 1)):
        rest = full ^ mask
        if not (ybits & mask) or not (ybits & rest):
            continue
        # h always lies inside the product of its two projections
        k1 = len({r & mask for r in rows})
        if size % k1 == 0 and k1 * len({r & rest for r in rows}) == size:
            v1 = frozenset(names[i] for i in range(n) if mask >> i & 1)
            return True, (v1, h.universe - v1)
    return False, None


def random_block(rng, names):
    """A random set over ``names``: a parity block, one row, or a subset of
    the cube."""
    rows = list(itertools.product((0, 1), repeat=len(names)))
    draw = rng.random()
    if draw < 0.25 and len(names) >= 2:
        odd = rng.randint(0, 1)  # x1 xor ... xor xk = odd: no bipartition factors it
        rows = [r for r in rows if sum(r) % 2 == odd]
    elif draw < 0.35:
        rows = [rng.choice(rows)]
    else:
        keep = rng.uniform(0.3, 0.9)
        rows = [r for r in rows if rng.random() < keep] or [rng.choice(rows)]
    return AssignmentSet(Assignment(zip(names, r)) for r in rows)


def random_factored_set(rng, max_vars=10, max_factors=5):
    """The product of up to ``max_factors`` random blocks over disjoint slices
    of up to ``max_vars`` shuffled names, with the slices."""
    n = rng.randint(2, max_vars)
    names = rng.sample([f"v{i}" for i in range(12)], n)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, max_factors - 1))))
    slices = [names[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    return product_all(random_block(rng, s) for s in slices), slices


class TestAssignment:
    def test_well_formed(self):
        a = Assignment({"x": 1, "y": 0})
        assert a.vars == {"x", "y"}
        assert a["x"] == 1

    @pytest.mark.parametrize("bit", [0.9, 1.5, 1.0, 2, -1, "1", None])
    def test_bit_must_be_an_int_zero_or_one(self, bit):
        # int() would truncate 0.9 to 0 and 1.5 to 1
        with pytest.raises(ValueError):
            Assignment([("x", bit)])
        with pytest.raises(ValueError):
            Assignment({"y": 1, "x": bit})

    def test_bool_bit_is_the_int(self):
        a = Assignment({"x": True, "y": False})
        assert a == Assignment({"x": 1, "y": 0})
        assert a.render() == "x=1,y=0"
        assert [type(b) for _, b in a] == [int, int]

    def test_conflicting_bits_rejected(self):
        with pytest.raises(ValueError):
            Assignment([("x", 1), ("x", 0)])

    def test_union_and_minus(self):
        a = Assignment({"x": 1})
        b = Assignment({"y": 0})
        assert a.union(b) == Assignment({"x": 1, "y": 0})
        assert a.union(b).minus(b) == a
        with pytest.raises(ValueError):
            a.union(Assignment({"x": 0}))

    def test_render_parse_roundtrip(self):
        a = Assignment({"b": 0, "a": 1})
        assert a.render() == "a=1,b=0"
        assert Assignment.parse(a.render()) == a
        assert Assignment.parse("") == Assignment()

    def test_set_render_is_line_based(self):
        s = aset({"x": 1}, {"x": 0})
        assert s.render() == "x=0\nx=1\n"


class TestProduct:
    def test_worked_example(self):
        h1 = aset({"x1": 1, "x2": 0}, {"x2": 1})
        h2 = aset({"x3": 1}, {"x3": 0, "x4": 0})
        expect = aset(
            {"x1": 1, "x2": 0, "x3": 1},
            {"x1": 1, "x2": 0, "x3": 0, "x4": 0},
            {"x2": 1, "x3": 1},
            {"x2": 1, "x3": 0, "x4": 0},
        )
        assert product(h1, h2) == expect
        assert len(product(h1, h2)) == len(h1) * len(h2)

    def test_unit_and_empty(self):
        h = aset({"x": 1}, {"x": 0, "y": 1})
        assert product(h, AssignmentSet([Assignment()])) == h
        assert product(AssignmentSet(), h) == AssignmentSet()

    def test_overlap_rejected(self):
        with pytest.raises(DomainOverlapError):
            product(aset({"x": 1}), aset({"x": 0}))

    def test_commutative_associative(self):
        rng = random.Random(7)
        for _ in range(30):
            parts = []
            pool = [f"v{i}" for i in range(6)]
            rng.shuffle(pool)
            sizes = [2, 2, 2]
            at = 0
            for s in sizes:
                names = pool[at:at + s]
                at += s
                members = [dict(zip(names, bits))
                           for bits in itertools.product((0, 1), repeat=s)
                           if rng.random() < 0.7]
                parts.append(aset(*members))
            a, b, c = parts
            left = product(product(a, b), c)
            right = product(a, product(b, c))
            swapped = product(product(c, a), b)
            assert left == right == swapped


class TestProjectRestrict:
    def test_project_examples(self):
        a = Assignment({"x1": 1, "x2": 0})
        assert a.project({"x1"}) == Assignment({"x1": 1})
        assert a.project(a.vars) == a
        assert a.project(set()) == Assignment()

    def test_restrict_worked_example(self):
        h = aset({"x1": 0, "x2": 0, "x3": 1},
                 {"x1": 1, "x2": 0, "x3": 1},
                 {"x1": 1, "x2": 1, "x3": 0})
        out = restrict_set(h, Assignment({"x1": 1}))
        assert out == aset({"x2": 0, "x3": 1}, {"x2": 1, "x3": 0})

    def test_restrict_trivial_cases(self):
        h = aset({"x1": 1}, {"x1": 0})
        assert restrict_set(h, Assignment()) == h
        assert restrict_set(aset({"x1": 1}), Assignment({"x1": 0})) == AssignmentSet()

    def test_restrict_projects_outside_vars(self):
        h = aset({"x1": 1}, {"x1": 0})
        out = restrict_set(h, Assignment({"x1": 1, "zz": 0}))
        assert out == aset({})

    def test_restrict_of_uniform_stays_uniform(self):
        h = cube(["a", "b", "c"])
        out = restrict_set(h, Assignment({"a": 1}))
        assert out.is_uniform and out.universe == {"b", "c"}

    def test_restriction_distributes_over_product(self):
        rng = random.Random(11)
        for _ in range(40):
            h1 = AssignmentSet(
                Assignment({"a": x, "b": y}) for x, y in
                itertools.product((0, 1), repeat=2) if rng.random() < 0.8)
            h2 = AssignmentSet(
                Assignment({"c": x, "d": y}) for x, y in
                itertools.product((0, 1), repeat=2) if rng.random() < 0.8)
            if not h1.elements or not h2.elements:
                continue
            a = Assignment({"a": rng.randint(0, 1), "c": rng.randint(0, 1)})
            r1 = restrict_set(h1, a)
            r2 = restrict_set(h2, a)
            if r1.elements and r2.elements:
                assert restrict_set(product(h1, h2), a) == product(r1, r2)


def public(pairs):
    """The assignment of ``pairs`` through the validating public constructor."""
    return Assignment(list(pairs))


def assert_same_members(got, expected):
    """Equal sets whose members agree with ``expected``'s on items, map and hash."""
    assert got == expected
    by_items = {a._items: a for a in expected}
    for a in got:
        b = by_items[a._items]
        assert type(a._items) is tuple and a == b and hash(a) == hash(b) and a._map == b._map


def restrict_set_by_minus(h, a):
    """The restriction as first written: ``<=`` and ``minus`` on every member."""
    a0 = a.project(h.universe)
    return AssignmentSet(b.minus(a0) for b in h if a0 <= b)


def random_members(rng, names, uniform):
    """Random members over ``names``; each binds every name when ``uniform``,
    else a random subset of them."""
    members = []
    for _ in range(rng.randint(0, 12)):
        chosen = names if uniform else [v for v in names if rng.random() < 0.6]
        members.append(public((v, rng.randint(0, 1)) for v in chosen))
    return AssignmentSet(members)


def map_is_made(a):
    """Whether ``a``'s name-to-bit map is made, read from its slot so that
    ``__getattr__`` does not make it."""
    try:
        Assignment._map.__get__(a)
    except AttributeError:
        return False
    return True


def rows_built_members():
    """Members that ``decode_table``, ``minus``, ``project`` and
    ``restrict_set`` (both its routes) build with ``Assignment._rows``, by
    route: the same members on every call, each made afresh."""
    rng = random.Random(47)
    names = ["a", "b10", "b2", "c", "x_1"]
    a = public((v, rng.randint(0, 1)) for v in names)
    uniform = AssignmentSet(rng.sample(sorted(cube(names), key=lambda m: m._items), 12))
    mixed = aset({"a": 1, "c": 0}, {"a": 1, "b2": 1, "c": 0}, {"a": 0, "c": 1}, {"a": 1})
    return {
        "decode_table": list(decode_table(names, rng.getrandbits(32))),
        "minus": [a.minus(["b2", "foreign"]), a.minus(public([("a", 1), ("c", 0)])),
                  a.minus(names)],
        "project": [a.project(["b10", "c", "foreign"]), a.project([]), a.project(names)],
        "restrict_set": [*restrict_set(uniform, public([("b2", 1)])),
                         *restrict_set(mixed, public([("a", 1)]))],
    }


def relatives(a):
    """Assignments to compare ``a`` with under ``<=``: itself, one more
    name, one fewer, its first bit flipped, and the empty one."""
    out = [a, a.union(Assignment({"foreign": 1})), Assignment()]
    if len(a):
        (name, bit), *rest = a
        out += [Assignment(rest), Assignment([(name, 1 - bit), *rest])]
    return out


def key_error(a, name):
    try:
        a[name]
    except KeyError:
        return True
    return False


# each check of a member ``got`` against ``want``, the same assignment from
# the public constructor
ROW_CHECKS = {
    "==": lambda got, want: got == want and want == got and not got != want,
    "hash": lambda got, want: hash(got) == hash(want),
    "get": lambda got, want: all(got.get(n, 7) == want.get(n, 7) and got.get(n) == want.get(n)
                                 for n in ["foreign", *(n for n, _ in want)]),
    "in": lambda got, want: all((n in got) == (n in want)
                                for n in ["foreign", *(n for n, _ in want)]),
    "[]": lambda got, want: all(got[n] == want[n] for n, _ in want) and key_error(got, "foreign"),
    "len": lambda got, want: len(got) == len(want),
    "vars": lambda got, want: got.vars == want.vars and type(got.vars) is frozenset,
    "<=": lambda got, want: all((got <= o) == (want <= o) and (o <= got) == (o <= want)
                                for o in relatives(want)),
}


class TestRowConstructor:
    NAMES = ["b10", "a", "x_1", "b2", "c", "zz", "m", "k", "d", "e", "f", "g"]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 11, 12])
    def test_decode_table_members_match_the_public_constructor(self, n):
        rng = random.Random(100 + n)
        order = sorted(self.NAMES[:n])
        for table in (0, (1 << (1 << n)) - 1, rng.getrandbits(1 << n), rng.getrandbits(1 << n)):
            expected = AssignmentSet(
                public((name, m >> (n - 1 - p) & 1) for p, name in enumerate(order))
                for m in range(1 << n) if table >> m & 1)
            got = decode_table(order, table)
            assert_same_members(got, expected)
            assert got.universe == expected.universe
            assert len(got) == bin(table).count("1")

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_uniform_sets_match_the_public_constructor(self, n):
        rng = random.Random(200 + n)
        names = sorted(self.NAMES[:n])
        total = list(cube(names))
        for count in sorted({0, 1, rng.randint(0, len(total)), len(total)}):
            members = [public(a) for a in rng.sample(total, count)]
            got = AssignmentSet._uniform(members, frozenset(names))
            expected = AssignmentSet(members)
            assert got == expected and got.universe == expected.universe
            assert type(got.elements) is frozenset and type(got.universe) is frozenset
            assert got.is_uniform
        # an empty set's universe is empty, whatever names it was given
        assert AssignmentSet._uniform([], frozenset(names)).universe == frozenset()

    @pytest.mark.parametrize("order", [["b", "a"], ["a", "a"], ["a", "c", "b"]])
    def test_decode_table_rejects_an_order_that_is_not_strictly_increasing(self, order):
        with pytest.raises(ValueError, match="strictly increasing"):
            decode_table(order, 1)

    def test_minus_and_project_match_the_public_constructor(self):
        rng = random.Random(41)
        for _ in range(300):
            a = public((v, rng.randint(0, 1)) for v in self.NAMES if rng.random() < 0.6)
            names = [v for v in self.NAMES + ["foreign"] if rng.random() < 0.4]
            other = public((v, rng.randint(0, 1)) for v in names)
            kept = AssignmentSet([public((v, b) for v, b in a if v not in names)])
            for dropped in (names, other):
                assert_same_members(AssignmentSet([a.minus(dropped)]), kept)
            assert_same_members(AssignmentSet([a.project(names)]),
                                AssignmentSet([public((v, b) for v, b in a if v in names)]))

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
    def test_restrict_set_matches_the_minus_route(self, uniform):
        rng = random.Random(43 + uniform)
        cases = 0
        for _ in range(200):
            names = sorted(rng.sample(self.NAMES, rng.randint(0, 7)))
            h = random_members(rng, names, uniform)
            member = next(iter(h), Assignment())
            for a in (Assignment(),  # empty
                      public((v, rng.randint(0, 1)) for v in names),  # binds every variable
                      member,  # one member extends it
                      public((v, 1 - member[v]) if v in member else (v, 0)
                             for v in names),  # no member extends it, when h has one member
                      public((v, rng.randint(0, 1)) for v in names + ["foreign"]
                             if rng.random() < 0.5)):
                got = restrict_set(h, a)
                expected = restrict_set_by_minus(h, a)
                assert_same_members(got, expected)
                assert_same_members(got, AssignmentSet(
                    public((v, x) for v, x in b if v not in a) for b in h
                    if all(b.get(v) == x for v, x in a if v in h.universe)))
                cases += 1
        assert cases == 1000

    def test_restrict_set_with_no_extending_member_is_empty(self):
        h = cube(["a", "b", "c"])
        h = AssignmentSet(b for b in h if b["a"] == 0)
        assert restrict_set(h, Assignment({"a": 1})) == AssignmentSet()
        assert restrict_set(h, Assignment({"a": 1, "b": 0, "c": 0})) == AssignmentSet()

    def test_rows_members_answer_as_public_ones_before_and_after_their_map(self):
        # each check runs on members whose map no read has made yet, then
        # every check again once each member's map is made
        for name, check in ROW_CHECKS.items():
            for route, members in rows_built_members().items():
                assert members, route
                for got in members:
                    assert not map_is_made(got), route
                    assert check(got, public(got)), (name, route, got)
        routes = rows_built_members()
        for route, members in routes.items():
            for got in members:
                assert got._map == dict(got._items) and map_is_made(got)
                for name, check in ROW_CHECKS.items():
                    assert check(got, public(got)), (name, route, got)

    def test_a_rows_member_lacks_every_other_attribute(self):
        got = next(iter(decode_table(["a", "b"], 0b0100)))
        with pytest.raises(AttributeError, match="'Assignment' object has no attribute 'bogus'"):
            got.bogus
        assert not hasattr(got, "_mapp") and not hasattr(got, "__dict__")
        assert not map_is_made(got)

    @pytest.mark.parametrize("case", ["uniform", "non-uniform", "no survivors", "foreign"])
    def test_restrict_set_universe_is_its_members(self, case):
        h = cube(["a", "b", "c", "d"])
        a = public([("b", 1), ("d", 0)])
        universe = {"a", "c"}
        if case == "non-uniform":
            h = h | aset({"a": 1}, {"b": 1, "c": 0}, {"b": 1, "d": 0, "zz": 1})
            universe = {"a", "c", "zz"}
        elif case == "no survivors":
            h = AssignmentSet(m for m in h if m["b"] == 0)
            universe = set()
        elif case == "foreign":
            a = public([("b", 1), ("zz", 0)])
            universe = {"a", "c", "d"}
        got = restrict_set(h, a)
        assert got == restrict_set_by_minus(h, a)
        assert bool(got) == (case != "no survivors")
        assert got.universe == AssignmentSet(list(got)).universe == universe
        assert got.is_uniform == (case != "non-uniform")

    def test_is_uniform_on_non_uniform_sets(self):
        assert not aset({"a": 1}, {"b": 0}).is_uniform
        assert not aset({"a": 1, "b": 0}, {"a": 0}).is_uniform
        assert not aset({"a": 1, "b": 0}, {}).is_uniform
        assert aset({"a": 1, "b": 0}, {"a": 0, "b": 0}).is_uniform
        assert aset({}).is_uniform and AssignmentSet().is_uniform


class TestBreaks:
    def test_full_cube_breaks(self):
        ok, witness = breaks(cube(["x", "y"]), {"x", "y"})
        assert ok
        v1, v2 = witness
        assert {"x", "y"} & v1 and {"x", "y"} & v2

    def test_worked_non_breaking_example(self):
        h1 = aset({"x1": 1, "x2": 0})
        h2 = aset({"x3": 0, "x4": 0}, {"x3": 0, "x4": 1}, {"x3": 1, "x4": 0})
        h = product(h1, h2)
        ok, witness = breaks(h, {"x3", "x4"})
        assert not ok and witness is None

    def test_singleton_never_breaks(self):
        assert breaks(cube(["x", "y"]), {"x"}) == (False, None)

    def test_uniformity_and_scope_errors(self):
        with pytest.raises(UniformityError):
            breaks(aset({"x": 1}, {"x": 0, "y": 1}), {"x"})
        with pytest.raises(ScopeError):
            breaks(cube(["x"]), {"zz"})


class TestBreaksOracle:
    """``breaks`` gives the projection oracle's verdict and first witness."""

    def test_product_sets(self):
        rng = random.Random(29)
        broken = 0
        for _ in range(200):
            h = product_all(random_factors(rng))
            if len(h.universe) < 2:
                continue
            universe = sorted(h.universe)
            y = frozenset(rng.sample(universe, rng.randint(1, len(universe))))
            got = breaks(h, y)
            assert got == breaks_by_projection(h, y)
            broken += got[0]
        assert broken >= 50

    def test_random_subsets_of_cubes(self):
        rng = random.Random(31)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(2, 6)
            names = rng.sample([f"x{i}" for i in range(10)], n)
            keep = rng.random()
            h = AssignmentSet(a for a in cube(names) if rng.random() < keep)
            if not h.elements:
                continue
            y = frozenset(rng.sample(names, rng.randint(2, n)))
            got = breaks(h, y)
            assert got == breaks_by_projection(h, y)
            verdicts.add(got[0])
        assert verdicts == {False, True}

    def test_restricted_matching_sets(self):
        from conftest import matching_graph
        from ddlab import diagrams, lowerbound
        exp = lowerbound.make_experiment(
            matching_graph(3), [(f"u{i}", f"w{i}") for i in range(1, 4)], "and-obdd")
        sats = diagrams.satisfying_set(lowerbound.obdd_for_order(exp.formula(), exp.order))
        checked = 0
        for g in lowerbound.fooling_set(exp):
            _, ub, _ = lowerbound.unbreakable(exp, g)
            h = restrict_set(sats, g)
            assert breaks(h, ub) == breaks_by_projection(h, ub) == (False, None)
            checked += 1
        assert checked == 3


class TestBreaksScan:
    """``breaks`` gives the integer-row scan's verdict and first witness."""

    def test_random_factored_sets(self):
        rng = random.Random(37)
        verdicts = [0, 0]
        for _ in range(400):
            h, slices = random_factored_set(rng)
            universe = sorted(h.universe)
            if rng.random() < 0.3:  # inside one block, often a parity block
                src = max(slices, key=len)
                y = frozenset(rng.sample(src, rng.randint(1, len(src))))
            else:
                y = frozenset(rng.sample(universe, rng.randint(2, len(universe))))
            got = breaks(h, y)
            assert got == breaks_by_scan(h, y), (h.render(), sorted(y))
            verdicts[got[0]] += 1
        assert min(verdicts) >= 100

    def test_parity_block_is_one_part(self):
        # pairwise independent, yet no bipartition of {x, y, z} factors it
        xor = AssignmentSet(Assignment({"x": a, "y": b, "z": a ^ b})
                            for a in (0, 1) for b in (0, 1))
        h = product(xor, cube(["w"]))
        assert breaks(h, {"x", "y"}) == breaks_by_scan(h, {"x", "y"}) == (False, None)
        ok, witness = breaks(h, {"w", "z"})
        assert ok and witness == (frozenset("w"), frozenset("xyz"))
        assert breaks_by_scan(h, {"w", "z"}) == (ok, witness)

    def test_witness_is_the_first_scanned_mask(self):
        # parts {a, d}, {b}, {c, e} with masks 0b01001, 0b00010, 0b10100: the
        # witness is the touched part with the smallest mask, so {b} before
        # {a, d}, and never the part holding the last name e
        ad = AssignmentSet(Assignment({"a": x, "d": x}) for x in (0, 1))
        ce = AssignmentSet(Assignment({"c": x, "e": 1 - x}) for x in (0, 1))
        h = product_all([ad, cube(["b"]), ce])
        for y, v1 in [("abcde", "b"), ("ab", "b"), ("be", "b"), ("ce", None),
                      ("de", "ad"), ("ac", "ad")]:
            expect = (True, (frozenset(v1), h.universe - frozenset(v1))) if v1 else (False, None)
            assert breaks(h, y) == breaks_by_scan(h, y) == expect, y

    def test_path_experiment_verdicts(self):
        # the 8-vertex path: three restricted sets over 13 variables each
        from conftest import path_graph
        from ddlab import diagrams, lowerbound
        exp = lowerbound.make_experiment(
            path_graph([f"v{i}" for i in range(1, 9)]),
            [("v1", "v2"), ("v4", "v5"), ("v7", "v8")], "and-obdd")
        sats = diagrams.satisfying_set(lowerbound.obdd_for_order(exp.formula(), exp.order))
        checked = 0
        for g in lowerbound.fooling_set(exp):
            _, ub, _ = lowerbound.unbreakable(exp, g)
            h = restrict_set(sats, g)
            assert len(h.universe) == 13
            assert breaks(h, ub) == breaks_by_scan(h, ub) == (False, None)
            for y in (h.universe, frozenset(sorted(h.universe)[:2])):
                assert breaks(h, y) == breaks_by_scan(h, y)
            checked += 1
        assert checked == 3

    def test_q4_matching_verdicts_unbroken(self):
        from conftest import matching_graph
        from ddlab import diagrams, lowerbound
        exp = lowerbound.make_experiment(
            matching_graph(4), [(f"u{i}", f"w{i}") for i in range(1, 5)], "and-obdd")
        sats = diagrams.satisfying_set(lowerbound.obdd_for_order(exp.formula(), exp.order))
        checked = 0
        for g in lowerbound.fooling_set(exp):
            _, ub, _ = lowerbound.unbreakable(exp, g)
            assert breaks(restrict_set(sats, g), ub) == (False, None)
            checked += 1
        assert checked == 10


class TestNoBreakProposition:
    def test_unbroken_sets_live_inside_one_factor(self):
        rng = random.Random(23)
        nonvacuous = 0
        for _ in range(150):
            factors = random_factors(rng)
            h = product_all(factors)
            if not h.elements or len(h.universe) < 2:
                continue
            # half the draws sit inside one factor, half spread across them
            wide = [f for f in factors if len(f.universe) >= 2]
            if rng.random() < 0.5 and wide:
                src = sorted(rng.choice(wide).universe)
                y = frozenset(rng.sample(src, rng.randint(2, len(src))))
            else:
                universe = sorted(h.universe)
                y = frozenset(rng.sample(universe, rng.randint(2, len(universe))))
            ok, _ = breaks(h, y)
            if not ok:
                nonvacuous += 1
                assert any(y <= f.universe for f in factors)
        assert nonvacuous >= 20


def test_project_set_shrinks_universe():
    h = cube(["a", "b"])
    assert project_set(h, {"a"}) == cube(["a"])


# ---------------------------------------------------------------------------
# the one order check behind every entry point that takes an order

PATH = graphs.Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
PATH_CNF = cnf.Cnf([[("a", 1), ("b", 1)], [("b", 1), ("c", 1)]])
PATH_OBDD = lowerbound.obdd_for_order(PATH_CNF, ["a", "b", "c"])
ABC = ["a", "b", "c"]

# (entry point, a call taking the order as a list, a good order, whether a
# name outside the variables is accepted); a LinearOrder checks repeats only,
# having no variables to miss
ORDER_ENTRY_POINTS = [
    ("LinearOrder", graphs.LinearOrder, ABC, True),
    ("crossing_width", lambda o: graphs.crossing_width(PATH, o), ABC, False),
    ("extract_neat", lambda o: graphs.extract_neat(PATH, o),
     sorted(graphs.double(PATH).vertices), False),
    ("decomposition_from_elimination",
     lambda o: graphs.decomposition_from_elimination(PATH, o), ABC, False),
    ("make_experiment",
     lambda o: lowerbound.make_experiment(PATH, [("a", "b")], "obdd", o),
     ABC, False),
    ("obdd_size", lambda o: lowerbound.obdd_size(PATH_CNF, o), ABC, False),
    ("obdd_for_order", lambda o: lowerbound.obdd_for_order(PATH_CNF, o), ABC, False),
    ("cnf.truth_table", lambda o: cnf.truth_table(PATH_CNF, o), ABC, True),
    ("diagrams.truth_table", lambda o: diagrams.truth_table(PATH_OBDD, o), ABC, True),
    ("validate", lambda o: diagrams.validate(PATH_OBDD, o), ABC, True),
    ("frontier", lambda o: alignment.frontier(PATH_OBDD, o, Assignment()), ABC, True),
]


@pytest.mark.parametrize("call,good,foreign_ok", [row[1:] for row in ORDER_ENTRY_POINTS],
                         ids=[row[0] for row in ORDER_ENTRY_POINTS])
def test_every_order_entry_point_rejects_a_bad_order(call, good, foreign_ok):
    call(good)
    with pytest.raises(ScopeError, match="repeats"):
        call(good[:2] + good[:1] + good[2:])  # [a, b, a, c] on the path
    if call is graphs.LinearOrder:
        call(good[:-1])
    else:
        with pytest.raises(ScopeError, match="misses"):
            call(good[:-1])
    if foreign_ok:
        call(good + ["z"])
    else:
        with pytest.raises(ScopeError, match="foreign"):
            call(good + ["z"])


def test_obdd_size_and_validate_reject_a_repeated_name():
    a_or_b = cnf.Cnf([[("a", 1), ("b", 1)]])
    with pytest.raises(ScopeError, match="repeats"):
        lowerbound.obdd_size(a_or_b, ["a", "b", "a"])
    b = lowerbound.obdd_for_order(a_or_b, ["a", "b"])
    with pytest.raises(ScopeError, match="repeats"):
        diagrams.validate(b, ["b", "a", "b"])
    assert diagrams.validate(b, ["a", "b"]).is_obdd


@pytest.mark.parametrize("kind", [list, tuple, iter, graphs.LinearOrder])
def test_check_order_returns_the_one_order_type(kind):
    order = check_order(kind(ABC), {"a", "b"})
    assert type(order) is graphs.LinearOrder and order == tuple(ABC)
    assert order.names is order and order.position("c") == 2
    assert order.prefix(2) == {"a", "b"}
    assert check_order(order, ()) is order


def test_a_linear_order_is_the_tuple_of_its_names():
    order = graphs.LinearOrder(ABC)
    assert order == tuple(ABC) and hash(order) == hash(tuple(ABC))
    assert {tuple(ABC): 1}[order] == 1 and len(order) == 3 and "b" in order
    assert graphs.LinearOrder(()) == ()
