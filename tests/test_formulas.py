import itertools
import random

import pytest

from ddlab import cnf as C
from ddlab import formulas as F
from ddlab import graphs as G
from ddlab.assignments import Assignment
from ddlab.errors import PreconditionError

from conftest import brute_force_vertex_covers, random_graph


class TestVcFormula:
    def test_single_edge(self, single_edge):
        phi = F.vc_formula(single_edge)
        assert len(phi) == 1
        assert len(C.models(phi, phi.vars)) == 3

    def test_counts(self, c4, p3):
        assert len(C.models(F.vc_formula(c4), c4.vertices)) == 7
        assert len(C.models(F.vc_formula(p3), p3.vertices)) == 5

    def test_models_are_exactly_the_vertex_covers(self):
        rng = random.Random(6)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 6))
            phi = F.vc_formula(g)
            got = {a.render() for a in C.models(phi, g.vertices)}
            covers = {Assignment(c).render() for c in brute_force_vertex_covers(g)}
            assert got == covers

    def test_isolated_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            F.vc_formula(G.Graph(["a", "b", "c"], [("a", "b")]))


class TestPsiFormula:
    def test_single_edge_shape_and_models(self, single_edge):
        psi = F.psi_formula(single_edge)
        assert len(psi) == 4 and len(psi.vars) == 4
        models = C.models(psi, psi.vars)
        want = {
            Assignment({"u#1": 1, "u#2": 1, "v#1": 0, "v#2": 0}),
            Assignment({"u#1": 0, "u#2": 0, "v#1": 1, "v#2": 1}),
        }
        assert models.elements == want

    def test_c5_chord_clause_inventory(self, c5_chord):
        psi = F.psi_formula(c5_chord)
        assert len(psi) == 2 * len(c5_chord.edges) + 2
        assert len(psi.vars) == 2 * len(c5_chord.vertices)
        long_neg1 = frozenset((f"u{i}#1", 0) for i in range(1, 6))
        long_neg2 = frozenset((f"u{i}#2", 0) for i in range(1, 6))
        assert long_neg1 in psi.clauses and long_neg2 in psi.clauses
        assert frozenset((("u1#1", 1), ("u2#2", 1))) in psi.clauses

    def test_long_clauses_written_last(self, c5_chord):
        psi = F.psi_formula(c5_chord)
        lines = [l for l in C.write_dimacs(psi).splitlines()
                 if l and l[0] not in "cp"]
        widths = [len(l.split()) - 1 for l in lines]
        assert widths[-2:] == [5, 5] and all(w == 2 for w in widths[:-2])

    def test_shape_formula_holds_generally(self):
        rng = random.Random(10)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 5))
            psi = F.psi_formula(g)
            assert len(psi) == 2 * len(g.edges) + 2
            assert len(psi.vars) == 2 * len(g.vertices)


class TestStarFormula:
    def test_single_edge(self, single_edge):
        star = F.star_formula(single_edge)
        assert len(star) == len(single_edge.edges) + 1
        assert len(C.models(star, star.vars)) == 2

    def test_c4_counts_covers_minus_full_set(self, c4):
        star = F.star_formula(c4)
        assert len(C.models(star, star.vars)) == 6


class TestJunction:
    def test_grid2_shape(self):
        phi = F.grid_junction_formula(2)
        assert len(phi.vars) == 5 and len(phi) == 4

    def test_guard_resolution(self):
        gg = G.grid(2)
        phi = F.junction_formula(gg.graph, gg.hor, gg.vert, "vc")
        side1 = C.reduce(phi, Assignment({F.JUNCTION: 1}))
        assert side1 == F.vc_formula(gg.graph.subgraph_of_edges(gg.hor))
        side0 = C.reduce(phi, Assignment({F.JUNCTION: 0}))
        assert side0 == F.vc_formula(gg.graph.subgraph_of_edges(gg.vert))

    def test_models_match_the_implication_form(self):
        gg = G.grid(2)
        phi = F.grid_junction_formula(2)
        names = sorted(phi.vars)
        for bits in itertools.product((0, 1), repeat=len(names)):
            a = Assignment(zip(names, bits))
            side = gg.hor if a[F.JUNCTION] else gg.vert
            covered = all(any(a[v] for v in e) for e in side)
            assert C.evaluate(phi, a) == int(covered)

    def test_psi_junction_guard_resolution(self):
        gg = G.grid(2)
        phi = F.junction_formula(gg.graph, gg.hor, gg.vert, "psi")
        side1 = C.reduce(phi, Assignment({F.JUNCTION: 1}))
        target = F.psi_formula(gg.graph.subgraph_of_edges(gg.hor))
        assert side1 == target

    @pytest.mark.parametrize("kind", ["vc", "psi"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_checked_build(self, n, kind):
        # the oracle runs every guarded clause through cnf.clause again
        gg = G.grid(n)
        family = {"vc": F.vc_formula, "psi": F.psi_formula}[kind]
        checked = C.Cnf(
            [(F.JUNCTION, bit), *c] for bit, part in ((0, gg.hor), (1, gg.vert))
            for c in family(gg.graph.subgraph_of_edges(part)).clauses)
        phi = F.grid_junction_formula(n, kind)
        assert phi == checked and hash(phi) == hash(checked) and phi.vars == checked.vars
        assert phi.clauses == checked.clauses

    def test_a_variable_named_like_the_selector_is_rejected(self):
        # the four-cycle jn-a-b-c, split into its two perfect matchings
        g = G.Graph(["jn", "a", "b", "c"], [("jn", "a"), ("a", "b"), ("b", "c"), ("c", "jn")])
        e1 = [G.edge("jn", "a"), G.edge("b", "c")]
        e2 = [G.edge("a", "b"), G.edge("c", "jn")]
        with pytest.raises(PreconditionError, match="variable 'jn'"):
            F.junction_formula(g, e1, e2, "vc")
        with pytest.raises(PreconditionError, match="variable 'jn'"):
            F.junction_formula(g, e2, e1, "vc")
        # the doubled copies are jn#1 and jn#2: nothing collides
        phi = F.junction_formula(g, e1, e2, "psi")
        assert {"jn", "jn#1", "jn#2"} <= phi.vars

    def test_partition_must_span(self, c4):
        edges = sorted(c4.edges, key=sorted)
        with pytest.raises(PreconditionError):
            F.junction_formula(c4, edges[:1], edges[1:], "vc")
        with pytest.raises(PreconditionError):
            F.junction_formula(c4, c4.edges, frozenset(), "vc")


class TestPsiPathDecomposition:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("orientation", ["hor", "vert"])
    def test_width_seven(self, n, orientation):
        gg = G.grid(n)
        part = gg.hor if orientation == "hor" else gg.vert
        psi = F.psi_formula(gg.graph.subgraph_of_edges(part))
        _, incidence = C.graphs_of(psi)
        d = F.psi_path_decomposition(n, orientation)
        assert d.is_path()
        assert G.validate_decomposition(incidence, d) == 7

    def test_incidence_treewidth_bound_on_grid2(self):
        # the proof's construction: double a width-k decomposition of the
        # graph, hang one bag per binary clause, put the two long-clause
        # vertices everywhere; validated width is within 2k + 3
        from conftest import exact_decomposition
        gg = G.grid(2)
        k = G.treewidth_exact(gg.graph)
        psi = F.psi_formula(gg.graph)
        _, incidence = C.graphs_of(psi)
        labels = C.clause_labels(psi)
        long_names = [name for name, c in labels if len(c) > 2]
        base = exact_decomposition(gg.graph)
        bags = {bid: frozenset(G.tag(v, c) for v in bag for c in (1, 2)) | frozenset(long_names)
                for bid, bag in base.bags.items()}
        tree = set(base.tree)
        for name, c in labels:
            if len(c) > 2:
                continue
            cvars = frozenset(n for n, _ in c)
            host = next(bid for bid, bag in bags.items() if cvars <= bag)
            bags[f"cl_{name}"] = cvars | {name} | frozenset(long_names)
            tree.add(frozenset((f"cl_{name}", host)))
        d = G.Decomposition(bags, tree)
        assert G.validate_decomposition(incidence, d) <= 2 * k + 3


@pytest.fixture
def single_edge():
    return G.Graph(["u", "v"], [("u", "v")])


@pytest.fixture
def c4():
    from conftest import cycle_graph
    return cycle_graph(["a", "b", "c", "d"])


@pytest.fixture
def p3():
    from conftest import path_graph
    return path_graph(["x1", "x2", "x3"])


@pytest.fixture
def c5_chord():
    from conftest import cycle_graph
    g = cycle_graph([f"u{i}" for i in range(1, 6)])
    return G.Graph(g.vertices, set(g.edges) | {frozenset(("u1", "u3"))})
