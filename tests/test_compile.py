import gc
import hashlib
import itertools
import random

import pytest

from ddlab import cnf as C
from ddlab import compile as CP
from ddlab import diagrams as D
from ddlab import formulas as F
from ddlab import graphs as G
from ddlab import lowerbound as LB
from ddlab.assignments import Assignment, cube
from ddlab.errors import FormatError, PreconditionError

from conftest import (assert_same_classes, cycle_graph, doubled_window_decomposition,
                      dt_paths, dt_size, exact_decomposition, matching_graph, random_cnf)


def equal_to_cnf(diagram, phi):
    order = sorted(phi.vars | diagram.vars)
    return D.truth_table(diagram, order) == C.truth_table(phi, order)


def json_sha256(diagram):
    return hashlib.sha256(D.to_json(diagram).encode()).hexdigest()


def decomposition_for(phi):
    primal, _ = C.graphs_of(phi)
    return exact_decomposition(primal)


class TestDecisionTree:
    def test_trivial_shapes(self):
        # a lone sink: true without clauses, false with the empty clause
        for clauses, value in (([], 1), ([[]], 0)):
            dt = CP.decision_tree(C.Cnf(clauses))
            assert (dt.size, dt.source, dt.kind[0], dt.lo[0]) == (1, 0, D.SINK, value)

    def test_single_clause_has_five_nodes(self):
        dt = CP.decision_tree(C.Cnf([[("x1", 1), ("x2", 1)]]))
        assert dt_size(dt) == 5

    def test_represents_its_clause_set(self):
        rng = random.Random(77)
        for _ in range(40):
            phi = random_cnf(rng, rng.randint(1, 5), rng.randint(1, 3))
            dt = CP.decision_tree(phi)
            for a in cube(phi.vars):
                assert D.evaluate(dt, a) == C.evaluate(phi, a)

    def test_paths_decide_totally(self):
        # every extension of a root-leaf path assignment lands on the label
        rng = random.Random(78)
        for _ in range(20):
            phi = random_cnf(rng, rng.randint(1, 4), rng.randint(1, 3))
            dt = CP.decision_tree(phi)
            for partial, label in dt_paths(dt):
                free = sorted(phi.vars - partial.vars)
                for bits in itertools.product((0, 1), repeat=len(free)):
                    total = partial.union(Assignment(zip(free, bits)))
                    assert C.evaluate(phi, total) == int(label)

    def test_size_bounds(self):
        # tree node count obeys 2(n+1)^p + 1; the sink-contracted diagram
        # form obeys (n+1)^p + 1 (see the single-clause example: 5 versus 4)
        rng = random.Random(79)
        for _ in range(40):
            p = rng.randint(1, 3)
            phi = random_cnf(rng, rng.randint(1, 5), p)
            n = len(phi.vars)
            dt = CP.decision_tree(phi)
            assert dt_size(dt) <= 2 * (n + 1) ** len(phi) + 1
            assert CP.dt_to_diagram(dt).size <= (n + 1) ** len(phi) + 1

    def test_as_diagram(self):
        phi = C.Cnf([[("x1", 1), ("x2", 1)], [("x2", 0), ("x3", 1)]])
        diagram = CP.dt_to_diagram(CP.decision_tree(phi))
        assert D.validate(diagram).is_fbdd
        assert equal_to_cnf(diagram, phi)

    def test_the_shared_diagram_is_an_fbdd_of_its_clause_set(self):
        rng = random.Random(81)
        for _ in range(300):
            phi = random_cnf(rng, rng.randint(1, 8), rng.randint(0, 10))
            dt = CP.decision_tree(phi)
            assert D.validate(dt).is_fbdd
            assert equal_to_cnf(dt, phi)


def plain_decision_tree(phi):
    """The falsifying-spine recursion without shared nodes or cached clause
    keys, one builder call per tree node: the oracle for the memoised
    ``decision_tree``."""
    builder = D.DiagramBuilder()

    def tree(phi):
        if not phi.clauses:
            return builder.sink(1)
        if frozenset() in phi.clauses:
            return builder.sink(0)
        c = min(phi.clauses, key=lambda c: (tuple(sorted(n for n, _ in c)), C.clause_key(c)))
        polarity = dict(c)
        spine = sorted(polarity)
        g = {}
        branches = []
        for x in spine:
            side = dict(g)
            side[x] = polarity[x]
            branches.append(tree(C.reduce(phi, Assignment(side))))
            g[x] = 1 - polarity[x]
        node = builder.sink(0)
        for x, side in zip(reversed(spine), reversed(branches)):
            if polarity[x]:
                node = builder.decision(x, node, side)
            else:
                node = builder.decision(x, side, node)
        return node

    return builder.finalize(tree(phi), declared_vars=phi.vars)


class TestDecisionTreeOracle:
    def test_random_cnfs_match_plain_recursion(self):
        rng = random.Random(80)
        for _ in range(200):
            phi = random_cnf(rng, rng.randint(1, 7), rng.randint(0, 8))
            assert node_by_node(CP.decision_tree(phi)) == node_by_node(plain_decision_tree(phi))

    def test_vc_grid4_matches_plain_recursion(self):
        phi = F.vc_formula(G.grid(4).graph)
        dt = CP.decision_tree(phi)
        assert node_by_node(dt) == node_by_node(plain_decision_tree(phi))
        assert dt_size(dt) == 3177

    def test_vc_grid5_tree_size_and_json_roundtrip(self):
        dt = CP.decision_tree(F.vc_formula(G.grid(5).graph))
        # one node per spine position of each residual clause set, two sinks
        assert (dt.size, dt.merged_size) == (358, 317)
        d = CP.dt_to_diagram(dt)
        assert d.size == 71186
        back = D.from_json(D.to_json(d))
        assert back == d
        assert D.count_models(back) == D.count_models(d)


def node_by_node(t):
    """``dt_to_diagram`` as one builder call per tree node: the oracle for
    its slice copies."""
    builder = D.DiagramBuilder()

    def build(i):
        if t.kind[i] == D.SINK:
            return builder.sink(t.lo[i])
        return builder.decision(t.var[i], build(t.lo[i]), build(t.hi[i]))

    return builder.finalize(build(t.source), declared_vars=t.declared_vars)


def shared_tests(t):
    """How many decision nodes of the diagram have two or more parents."""
    parents = {}
    for i in range(t.size):
        if t.kind[i]:
            for c in {t.lo[i], t.hi[i]}:
                parents[c] = parents.get(c, 0) + 1
    return sum(n > 1 for c, n in parents.items() if t.kind[c])


class TestDtToDiagram:
    def test_random_cnfs_match_the_node_by_node_build(self):
        rng = random.Random(81)
        shared = 0
        for _ in range(300):
            phi = random_cnf(rng, rng.randint(1, 8), rng.randint(0, 10))
            dt = CP.decision_tree(phi)
            d, want = CP.dt_to_diagram(dt), node_by_node(dt)
            assert_same_classes(d, want)
            assert d.declared_vars == dt.declared_vars
            shared += shared_tests(dt) > 0
        assert shared > 50  # the slice copies ran

    @pytest.mark.parametrize("family,n", [("vc", 2), ("vc", 3), ("vc", 4), ("vc", 5),
                                          ("psi", 3)])
    def test_grid_trees_match_the_node_by_node_build(self, family, n):
        maker = F.vc_formula if family == "vc" else F.psi_formula
        dt = CP.decision_tree(maker(G.grid(n).graph))
        assert_same_classes(CP.dt_to_diagram(dt), node_by_node(dt))


class _BagTree:
    """A rooted decomposition as ``vtree_from_decomposition_rooted`` reads
    it, from a nested bag ``(local variables, child bag, ...)``: bag ids
    in pre-order, the root 0."""

    def __init__(self, bag):
        self.root = 0
        self.children = {}
        self._local = {}

        def add(bag):
            b = len(self._local)
            self._local[b] = list(bag[0])
            self.children[b] = [add(c) for c in bag[1:]]
            return b

        add(bag)

    def local(self, b):
        return self._local[b]


# children-first tables: a leaf's name or a pair of child ids, root last
TABLES = [
    ("x",),
    ("a", "b", (0, 1)),
    ("a", "b", "c", (1, 2), "d", (3, 4), (0, 5)),
    ("a", "b", (0, 1), "c", "d", (3, 4), (2, 5), "e", "f", "g", (8, 9), (7, 10), (6, 11)),
]
ONCE = "every vtree node but the root must be a child exactly once"


class TestVtree:
    def test_roundtrip(self):
        vt = CP.Vtree(TABLES[2])
        text = CP.write_vtree(vt)
        assert CP.read_vtree(text) == vt
        # children precede parents; the root is the last line
        assert text.strip().splitlines()[-1].startswith("I")

    def test_one_line_text_and_missing_file(self, tmp_path):
        # the reader parses text only: a file's name, missing or not, is text
        assert CP.read_vtree("L 0 x") == CP.Vtree(("x",))
        with pytest.raises(FormatError, match="bad vtree line"):
            CP.read_vtree(str(tmp_path / "missing.vtree"))

    @pytest.mark.parametrize("text,message", [
        ("L 0 a\nL 1 b\nL 2 c\nI 3 0 1\n", ONCE),
        ("I 0 1 2\nL 1 a\nL 2 b\n", "vtree node 0 has children (1, 2) not below it"),
        ("I 0 0 0\n", "vtree node 0 has children (0, 0) not below it"),
        ("L 0 a\nI 1 0 0\n", ONCE),
        ("L 0 a\nL 1 b\nI 2 0 1\nI 3 0 2\n", ONCE),
        ("L 0 a\nL 1 b\nI 2 0 1\nI 3 0 5\n", "vtree node 3 has children (0, 5) not below it"),
        ("L 0 a\nL 0 b\n", "vtree ids must be dense 0..n-1"),
        ("", "vtree ids must be dense 0..n-1"),
        ("L 0 a\nL 1 a\nI 2 0 1\n", "vtree leaves must carry distinct variables"),
    ], ids=["unreached-leaf", "child-above-parent", "own-child", "child-twice",
            "shared-child", "missing-child", "duplicate-id", "empty", "repeated-leaf"])
    def test_malformed_tables_are_rejected(self, text, message):
        with pytest.raises(FormatError) as exc:
            CP.read_vtree(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("table,message", [
        (("a", "b", "c", (0, 1)), ONCE),
        (("a", "b", (0, 5)), "vtree node 2 has children (0, 5) not below it"),
        ((), ONCE),
    ], ids=["unreached-leaf", "missing-child", "empty"])
    def test_a_table_that_is_not_one_tree_is_a_value_error(self, table, message):
        with pytest.raises(ValueError) as exc:
            CP.Vtree(table)
        assert str(exc.value) == message

    @pytest.mark.parametrize("line", ["L x a", "I 0 a b", "I x 0 1"])
    def test_a_non_integer_id_names_its_line(self, line):
        with pytest.raises(FormatError) as exc:
            CP.read_vtree(f"L 0 a\nL 1 b\n{line}\n")
        assert str(exc.value) == f"bad vtree line {line!r}"

    @pytest.mark.parametrize("table", TABLES, ids=["x", "nested1", "nested2", "nested3"])
    def test_written_tables_read_back(self, table):
        vt = CP.Vtree(table)
        assert CP.read_vtree(CP.write_vtree(vt)) == vt
        # the ids may come in any order
        shuffled = "".join(reversed(CP.write_vtree(vt).splitlines(keepends=True)))
        assert CP.read_vtree(shuffled) == vt

    def test_a_file_keeps_its_own_numbering(self):
        # right subtrees first, and a leaf numbered after a join: not the
        # post-order numbering the decompositions give, read with its own ids
        text = "L 0 d\nL 1 c\nL 2 b\nI 3 2 1\nI 4 3 0\nL 5 a\nI 6 5 4\n"
        vt = CP.read_vtree(text)
        assert vt.payload == ("d", "c", "b", (2, 1), (3, 0), "a", (5, 4))
        assert CP.write_vtree(vt) == text
        assert vt.vars == {"a", "b", "c", "d"}
        assert vt.internal_splits() == [({"b"}, {"c"}), ({"b", "c"}, {"d"}),
                                        ({"a"}, {"b", "c", "d"})]

    def test_distinct_leaves_required(self):
        with pytest.raises(ValueError):
            CP.Vtree(("a", "a", (0, 1)))

    @pytest.mark.parametrize("bags,kinds,payload", [
        ((["x"],), "L", ("x",)),
        ((["a", "b"],), "LLI", ("a", "b", (0, 1))),
        ((["a"], (["b", "c"],), (["d"],)), "LLLILII",
         ("a", "b", "c", (1, 2), "d", (3, 4), (0, 5))),
        (([], ([], (["a", "b"],), (["c"],)), (["d", "e"],)), "LLILILLII",
         ("a", "b", (0, 1), "c", (2, 3), "d", "e", (5, 6), (4, 7))),
    ], ids=["x-L-payload0", "nested1-LLI-payload1", "nested2-LLLILII-payload2",
            "nested3-LLILILLII-payload3"])
    def test_tables_are_numbered_in_post_order_left_first(self, bags, kinds, payload):
        # a bag's own variables comb to the right over the left comb of its
        # children's subtrees
        vt = CP.vtree_from_decomposition_rooted(_BagTree(bags))
        assert "".join("L" if isinstance(p, str) else "I" for p in vt.payload) == kinds
        assert vt.payload == payload

    def test_decomposition_vtrees_are_pinned(self):
        # extra variables comb on top, in sorted order
        vt = CP.vtree_from_decomposition_rooted(_BagTree((["a"], (["b"],))), ["z", "y"])
        assert vt.payload == ("y", "z", "a", "b", (2, 3), (1, 4), (0, 5))
        assert CP.vtree_from_decomposition_rooted(_BagTree(([],))) is None
        c4 = cycle_graph(["a", "b", "c", "d"])
        vt = CP.compile_primal(F.vc_formula(c4), exact_decomposition(c4))[1]
        assert CP.write_vtree(vt) == "L 0 a\nL 1 b\nL 2 d\nL 3 c\nI 4 2 3\nI 5 1 4\nI 6 0 5\n"

    def test_deep_left_comb_round_trips(self):
        # 1,200 leaves nest deeper than the interpreter's recursion limit
        lines = ["L 0 x0"]
        for i in range(1, 1200):
            lines += [f"L {2 * i - 1} x{i}", f"I {2 * i} {2 * i - 2} {2 * i - 1}"]
        text = "\n".join(lines) + "\n"
        vt = CP.read_vtree(text)
        assert CP.write_vtree(vt) == text
        assert CP.read_vtree(CP.write_vtree(vt)) == vt
        assert len(vt.vars) == 1200 and vt.payload[-1] == (2396, 2397)

    def test_from_decomposition_covers_bag_vars(self, c4):
        d = exact_decomposition(c4)
        vt = CP.compile_primal(F.vc_formula(c4), d)[1]
        assert vt.vars == c4.vertices


class TestCompilePrimal:
    def test_empty_cnf_single_empty_bag(self):
        phi = C.Cnf([])
        d = G.Decomposition({"b0": frozenset()}, frozenset())
        diagram, vt = CP.compile_primal(phi, d)
        assert diagram.size == 1 and vt is None
        assert D.count_models(diagram, {"x"}) == 2

    def test_c4_count(self, c4):
        phi = F.vc_formula(c4)
        diagram, vt = CP.compile_primal(phi, decomposition_for(phi))
        assert D.count_models(diagram, phi.vars) == 7
        assert equal_to_cnf(diagram, phi)
        assert CP.respects(diagram, vt, "decision-dnnf") == (True, None)

    def test_grid3_equivalence(self):
        phi = F.vc_formula(G.grid(3).graph)
        d = decomposition_for(phi)
        assert G.validate_decomposition(*C.graphs_of(phi)[:1], d) == 3
        diagram, vt = CP.compile_primal(phi, d)
        assert equal_to_cnf(diagram, phi)
        assert D.validate(diagram).is_and_fbdd

    def test_size_bound_with_recorded_constant(self):
        # size <= 8 * 2^(k+1) * (clauses + vars) on the compiled corpus
        cases = [F.vc_formula(G.grid(2).graph), F.vc_formula(G.grid(3).graph),
                 F.vc_formula(cycle_graph(["a", "b", "c", "d"])),
                 F.psi_formula(matching_graph(2))]
        for phi in cases:
            primal, _ = C.graphs_of(phi)
            d = exact_decomposition(primal)
            k = G.validate_decomposition(primal, d)
            diagram, _ = CP.compile_primal(phi, d)
            assert diagram.size <= 8 * 2 ** (k + 1) * (len(phi) + len(phi.vars))

    def test_random_cnfs_compile_correctly(self):
        rng = random.Random(101)
        done = 0
        while done < 30:
            phi = random_cnf(rng, rng.randint(1, 6), rng.randint(1, 6))
            if not phi.vars:
                continue
            diagram, vt = CP.compile_primal(phi, decomposition_for(phi))
            assert equal_to_cnf(diagram, phi)
            D.validate(diagram)
            if vt is not None:
                assert CP.respects(diagram, vt, "decision-dnnf") == (True, None)
            done += 1

    def test_invalid_decomposition_rejected(self, c4):
        phi = F.vc_formula(c4)
        bad = G.Decomposition({"b0": frozenset(("a", "b"))}, frozenset())
        with pytest.raises(Exception):
            CP.compile_primal(phi, bad)


class TestCompileSplit:
    def test_no_long_clauses_behaves_like_primal(self, c4):
        phi = F.vc_formula(c4)
        d = decomposition_for(phi)
        split, _ = CP.compile_split(phi, [], d)
        assert equal_to_cnf(split, phi)

    def test_psi_single_edge(self, single_edge):
        psi = F.psi_formula(single_edge)
        long = [c for c in psi.clauses if all(s == 0 for _, s in c)]
        rest = C.Cnf(psi.clauses - frozenset(long))
        d = exact_decomposition(C.graphs_of(rest)[0])
        diagram, _ = CP.compile_split(psi, long, d)
        assert equal_to_cnf(diagram, psi)
        assert D.count_models(diagram, psi.vars) == 2

    def test_psi_grid2(self):
        psi = F.psi_formula(G.grid(2).graph)
        long = [c for c in psi.clauses if len(c) > 2]
        rest = C.Cnf(psi.clauses - frozenset(long))
        d = exact_decomposition(C.graphs_of(rest)[0])
        diagram, returned = CP.compile_split(psi, long, d)
        assert equal_to_cnf(diagram, psi)
        vt = CP.split_vtree(psi, long, d)
        assert CP.write_vtree(returned) == CP.write_vtree(vt)
        assert CP.respects(diagram, vt, "conjunction-only") == (True, None)

    def test_psi_grid3_with_window_decomposition(self):
        psi = F.psi_formula(G.grid(3).graph)
        long = [c for c in psi.clauses if len(c) > 2]
        d = doubled_window_decomposition(3)
        diagram, _ = CP.compile_split(psi, long, d)
        assert equal_to_cnf(diagram, psi)
        vt = CP.split_vtree(psi, long, d)
        assert CP.respects(diagram, vt, "conjunction-only") == (True, None)

    def test_untested_variables_get_a_chain(self):
        # a long clause whose variable disappears from the remainder
        phi = C.Cnf([[("a", 1), ("b", 1)], [("a", 0), ("b", 0), ("z", 0)]])
        long = [frozenset([("a", 0), ("b", 0), ("z", 0)])]
        rest = C.Cnf(phi.clauses - frozenset(long))
        d = exact_decomposition(C.graphs_of(rest)[0])
        diagram, _ = CP.compile_split(phi, long, d)
        assert equal_to_cnf(diagram, phi)

    def test_long_must_be_subset(self, c4):
        phi = F.vc_formula(c4)
        with pytest.raises(PreconditionError):
            CP.compile_split(phi, [frozenset([("zz", 1)])], decomposition_for(phi))

    def test_random_cnfs_with_random_long_choices(self):
        rng = random.Random(107)
        done = 0
        while done < 30:
            phi = random_cnf(rng, rng.randint(2, 6), rng.randint(2, 7))
            if not phi.vars:
                continue
            clauses = phi.sorted_clauses()
            p = rng.randint(0, min(3, len(clauses)))
            long = rng.sample(clauses, p)
            rest = C.Cnf(phi.clauses - frozenset(long))
            d = (decomposition_for(rest) if rest.vars
                 else G.Decomposition({"b0": frozenset()}, frozenset()))
            diagram, _ = CP.compile_split(phi, long, d)
            assert equal_to_cnf(diagram, phi)
            D.validate(diagram)
            done += 1


class TestGridJunction:
    @pytest.mark.parametrize("n", [2, 3])
    def test_equivalence(self, n):
        diagram = CP.grid_junction_diagram(n)
        phi = F.grid_junction_formula(n)
        assert equal_to_cnf(diagram, phi)

    def test_class_and_order(self):
        diagram = CP.grid_junction_diagram(2)
        cls = D.validate(diagram, CP.junction_order(2))
        assert cls.is_and_obdd and not cls.is_obdd

    def test_quadratic_node_count(self):
        for n in range(2, 7):
            assert CP.grid_junction_diagram(n).size <= 6 * n * n

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            CP.grid_junction_diagram(1)

    @pytest.mark.parametrize("n, sha256", [
        (2, "f6dad8c4e9d7bd57f4743e5d3daed5940e81794588161c377b6fc367ccc5101a"),
        (3, "19ca83a6ea4a9383e690eb493bce9d95063ac69a426ddf2ad8c35ce62884fd46"),
        (4, "972707ad9619ee881df011e4afdf511c8918d44cc0c9188b8b7663f1bdb45285"),
        (5, "24013690a5e66063f11e3970c64e987a0e86ad9461a35e61311a9dd9f63095a3"),
    ])
    def test_bytes_pinned(self, n, sha256):
        assert json_sha256(CP.grid_junction_diagram(n)) == sha256


class TestPsiLayer:
    @pytest.mark.parametrize("n,orientation", [(2, "hor"), (2, "vert"), (3, "hor")])
    def test_equivalence(self, n, orientation):
        gg = G.grid(n)
        part = gg.hor if orientation == "hor" else gg.vert
        target = F.psi_formula(gg.graph.subgraph_of_edges(part))
        diagram = CP.psi_layer_obdd(n, orientation)
        assert equal_to_cnf(diagram, target)
        cls = D.validate(diagram, CP.psi_interleaved_order(n, orientation))
        assert cls.is_obdd

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_per_layer_width_bounded(self, n):
        diagram = CP.psi_layer_obdd(n, "hor")
        per_var = {}
        for k, x in zip(diagram.kind, diagram.var):
            if k == D.DECISION:
                per_var[x] = per_var.get(x, 0) + 1
        assert max(per_var.values()) <= 16

    def test_junction_fbdd(self):
        diagram = CP.psi_grid_junction_fbdd(2)
        phi = F.grid_junction_formula(2, "psi")
        assert equal_to_cnf(diagram, phi)
        assert D.validate(diagram).is_fbdd

    @pytest.mark.parametrize("n, orientation, sha256", [
        (2, "hor", "ab2b17a4b09bbdb9bb30c14f7a0fea6c78e8eabe6c51f3e3ec314ac121a90fe1"),
        (2, "vert", "51406860f3c9a519760bc8ad450d983870bb31fd45e04977a208401412233558"),
        (3, "hor", "3a75418695ae5b69d3f3fe5c343848ccaba8af88ef725dfb746ba0ffba2a3e09"),
        (3, "vert", "1f6f19f596d330121719d7b7e21483635b3d809942d5fa957bb9681f358fc5e7"),
        (4, "hor", "f15914eb8d8e3f361dcd5de8c25c83bc690689c48e5ed77cfde9a16548d78da4"),
        (4, "vert", "7ee153cf90e7525c4031c5de02afb8cb7ebe2e7abe0bcd84607a8675ca7c51f8"),
    ])
    def test_layer_bytes_pinned(self, n, orientation, sha256):
        assert json_sha256(CP.psi_layer_obdd(n, orientation)) == sha256

    @pytest.mark.parametrize("n, sha256", [
        (2, "44863a3bc213d2c4aabceab73acec0fdc9f0d8641988f35196aa81054a251a58"),
        (3, "515b87ec896780cadd609629ed4ac202e1145dbe1dd3d596c851175672aa3cda"),
    ])
    def test_junction_fbdd_bytes_pinned(self, n, sha256):
        assert json_sha256(CP.psi_grid_junction_fbdd(n)) == sha256


def mixing_conjunction():
    """(a AND b) AND (c AND d), and a vtree that splits a from b: the
    conjunctions do not respect it."""
    b = D.DiagramBuilder()
    t = b.sink(1)
    f = b.sink(0)
    ab = b.conj(b.decision("a", f, t), b.decision("b", f, t))
    cd = b.conj(b.decision("c", f, t), b.decision("d", f, t))
    return b.finalize(b.conj(ab, cd)), CP.Vtree(("a", "c", (0, 1), "b", "d", (3, 4), (2, 5)))


class TestRespects:
    def test_fbdd_respects_anything_conjunction_only(self):
        rng = random.Random(7)
        from conftest import random_and_obdd
        b, names = random_and_obdd(rng, ["a", "b", "c"], p_and=0.0)
        vt = CP.Vtree(("a", "b", (0, 1), "c", (2, 3)))
        assert CP.respects(b, vt, "conjunction-only") == (True, None)

    def test_mixing_conjunction_fails_with_witness(self):
        ok, witness = CP.respects(*mixing_conjunction(), "conjunction-only")
        assert not ok and witness is not None

    def test_scope_error(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        diagram = b.finalize(b.decision("zz", t, t))
        from ddlab.errors import ScopeError
        with pytest.raises(ScopeError):
            CP.respects(diagram, CP.Vtree(("a", "b", (0, 1))))


# ---------------------------------------------------------------------------
# every string-valued choice is checked by the first function that reads it,
# before any early return: each call here returns a value or fails otherwise
# when the word goes unchecked


UNKNOWN_WORDS = [
    ("crossing_width-mode", lambda: G.crossing_width(G.Graph(["a", "b"]), ["a", "b"], "bogus"),
     "bogus"),
    ("width_min-mode", lambda: G.width_min(G.Graph([]), "bogus"), "bogus"),
    ("width_min-search", lambda: G.width_min(G.Graph([]), "lsim", "bogus"), "bogus"),
    ("min_obdd-search", lambda: LB.min_obdd(C.Cnf([]), "bogus"), "bogus"),
    ("make_experiment-engine",
     lambda: LB.make_experiment(matching_graph(3), [("u1", "w1")], "x"), "x"),
    ("grid_order", lambda: G.grid_order(2, "vertical"), "vertical"),
    ("psi_layer_obdd", lambda: CP.psi_layer_obdd(2, "vertical"), "vertical"),
    ("psi_interleaved_order", lambda: CP.psi_interleaved_order(2, "vertical"), "vertical"),
    ("psi_path_decomposition", lambda: F.psi_path_decomposition(2, "vertical"), "vertical"),
    ("respects-mode", lambda: CP.respects(*mixing_conjunction(), "bogus"), "bogus"),
]


@pytest.mark.parametrize("call,word", [c[1:] for c in UNKNOWN_WORDS],
                         ids=[c[0] for c in UNKNOWN_WORDS])
def test_an_unknown_word_is_a_format_error_naming_it(call, word):
    with pytest.raises(FormatError, match=f"unknown .*{word!r}"):
        call()


# ---------------------------------------------------------------------------
# recursive builders leave no reference cycles


def _psi3_split():
    psi = F.psi_formula(G.grid(3).graph)
    return psi, [c for c in psi.clauses if len(c) > 2], doubled_window_decomposition(3)


def _vc4_primal():
    grid4 = G.grid(4).graph
    return F.vc_formula(grid4), G.decomposition_from_elimination(grid4, G.grid_order(4).names)


# name -> a function making (call, its arguments); each call recurses
# through closures that refer to themselves or to each other
NO_CYCLE_CALLS = {
    "decision_tree": lambda: (CP.decision_tree, (F.vc_formula(G.grid(4).graph),)),
    "dt_to_diagram": lambda: (CP.dt_to_diagram,
                              (CP.decision_tree(F.vc_formula(G.grid(4).graph)),)),
    "compile_split": lambda: (CP.compile_split, _psi3_split()),
    "compile_primal": lambda: (CP.compile_primal, _vc4_primal()),
    "split_vtree": lambda: (CP.split_vtree, _psi3_split()),
    "width_min lsim sampled": lambda: (G.width_min,
                                       (G.grid(3).graph, "lsim", "sampled", 30, 5)),
    "width_min lmm sampled": lambda: (G.width_min,
                                      (G.grid(3).graph, "lmm", "sampled", 30, 5)),
    "width_min exhaustive": lambda: (G.width_min, (G.grid(2).graph,)),
    "obdd_for_order": lambda: (LB.obdd_for_order, (_vc4_primal()[0],
                                                   G.grid_order(4).names)),
}


@pytest.mark.parametrize("name", NO_CYCLE_CALLS)
def test_leaves_no_cyclic_garbage(name):
    """With the cyclic collector off, the call frees all it made by
    reference counting: the collector finds nothing after it."""
    call, args = NO_CYCLE_CALLS[name]()
    gc.disable()
    try:
        gc.collect()
        made = call(*args)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert made is not None


@pytest.fixture
def c4():
    return cycle_graph(["a", "b", "c", "d"])


@pytest.fixture
def single_edge():
    return G.Graph(["u", "v"], [("u", "v")])
