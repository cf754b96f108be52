import hashlib
import itertools
import math
import random

import pytest

from ddlab import graphs as G
from ddlab.errors import DecompositionError, FormatError, PreconditionError, ScaleError

from conftest import (exact_decomposition, matching_graph, path_graph,
                      random_graph)


class TestGrid:
    def test_counts(self):
        for n, edges in ((1, 0), (2, 4), (3, 12)):
            gg = G.grid(n)
            assert len(gg.graph.vertices) == n * n
            assert len(gg.graph.edges) == edges
            assert len(gg.hor) == len(gg.vert) == n * (n - 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            G.grid(0)

    def test_dictionary_order(self):
        order = G.grid_order(2)
        assert order.names == ("(1,1)", "(1,2)", "(2,1)", "(2,2)")
        assert G.grid_order(2, "vert").names == ("(1,1)", "(2,1)", "(1,2)", "(2,2)")


class TestDouble:
    def test_single_edge(self, single_edge):
        dg = G.double(single_edge)
        assert dg.edges == {frozenset(("u#1", "v#2")), frozenset(("v#1", "u#2"))}

    def test_c5_chord_worked_example(self, c5_chord):
        dg = G.double(c5_chord)
        # each chord-and-cycle edge contributes its two cross-copy versions
        expect = set()
        for a, b in [("u1", "u2"), ("u2", "u3"), ("u3", "u4"), ("u4", "u5"),
                     ("u5", "u1"), ("u1", "u3")]:
            expect.add(frozenset((f"{a}#1", f"{b}#2")))
            expect.add(frozenset((f"{b}#1", f"{a}#2")))
        assert dg.edges == expect
        assert len(dg.edges) == 2 * len(c5_chord.edges)

    def test_doubling_is_bipartite_between_copies(self, c4):
        dg = G.double(c4)
        for e in dg.edges:
            tags = {G.untag(v)[1] for v in e}
            assert tags == {1, 2}

    def test_isolated_vertex_rejected(self):
        g = G.Graph(["a", "b", "c"], [("a", "b")])
        with pytest.raises(PreconditionError):
            G.double(g)


class TestCrossingWidth:
    def test_p8_identity_only_singletons(self, p8):
        order = G.LinearOrder([f"v{i}" for i in range(1, 9)])
        size, (cut, m) = G.crossing_width(p8, order, mode="lmm")
        assert size == 1

    def test_p8_interleaved_crosses_with_four(self, p8):
        order = G.LinearOrder(["v1", "v3", "v5", "v7", "v2", "v4", "v6", "v8"])
        size, (cut, m) = G.crossing_width(p8, order, mode="lmm")
        assert size == 4
        assert m.sorted_edges() == [("v1", "v2"), ("v3", "v4"), ("v5", "v6"), ("v7", "v8")]
        assert cut == 4

    def test_edgeless(self):
        g = G.Graph(["a", "b"])
        assert G.crossing_width(g, G.LinearOrder(["a", "b"]))[0] == 0

    def test_induced_mode_is_no_larger(self, c4):
        for perm in itertools.permutations(sorted(c4.vertices)):
            order = G.LinearOrder(perm)
            lmm, _ = G.crossing_width(c4, order, mode="lmm")
            lsim, _ = G.crossing_width(c4, order, mode="lsim")
            assert lsim <= lmm


class TestWidthMin:
    def test_single_edge(self, single_edge):
        assert G.width_min(single_edge, "lsim")[0] == 1

    def test_grid2_exhaustive(self):
        width, order = G.width_min(G.grid(2).graph, "lsim")
        assert width == 1  # opposite edges of the 4-cycle touch, so no induced pair
        assert G.width_min(G.grid(2).graph, "lmm")[0] == 2

    def test_lmm_at_least_lsim(self):
        rng = random.Random(2)
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 5))
            assert G.width_min(g, "lmm")[0] >= G.width_min(g, "lsim")[0]

    def test_returned_order_realizes_width(self, p8):
        width, order = G.width_min(p8, "lsim")
        got, _ = G.crossing_width(p8, order, mode="lsim")
        assert got == width

    def test_cap_and_sampling(self):
        g = random_graph(random.Random(0), 9)
        with pytest.raises(ScaleError):
            G.width_min(g, "lsim")
        w1 = G.width_min(g, "lsim", search="sampled", count=30, seed=5)
        w2 = G.width_min(g, "lsim", search="sampled", count=30, seed=5)
        assert w1 == w2  # seeded determinism

    def test_grid_widths_nondecreasing(self):
        # the finite echo of the grid width growth: exhaustive at n=2,
        # a sampled upper estimate at n=3 (9 vertices exceeds the cap)
        w2 = G.width_min(G.grid(2).graph, "lsim")[0]
        w3 = G.width_min(G.grid(3).graph, "lsim", search="sampled",
                         count=200, seed=1)[0]
        assert w2 <= w3


def unbounded_sampled_width(g, mode, count, seed):
    """The sampled search without the bound: the same shuffles of the sorted
    vertices, every order's crossing width taken over all its cuts, the
    first order of the least width kept."""
    rng = random.Random(seed)
    best = None
    for _ in range(count):
        names = sorted(g.vertices)
        rng.shuffle(names)
        width = G.crossing_width(g, names, mode)[0]
        if best is None or width < best[0]:
            best = (width, G.LinearOrder(names))
    return best


class TestSampleOrder:
    def test_sampled_width_matches_the_unbounded_search(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 9), edge_prob=rng.random(), no_isolated=False)
            for mode in ("lsim", "lmm"):
                for seed in (0, 3, 17):
                    assert G.width_min(g, mode, search="sampled", count=25, seed=seed) == \
                        unbounded_sampled_width(g, mode, 25, seed)

    def recorded(self, values, cut_off):
        """A value function handing out ``values`` in turn, recording each
        call's order and bound; with ``cut_off`` a value at the bound is None."""
        calls = []
        it = iter(values)

        def value(ranks, bound):
            got = next(it)
            calls.append((list(ranks), bound))
            return None if cut_off and bound is not None and got >= bound else got

        return value, calls

    @pytest.mark.parametrize("cut_off", [False, True])
    def test_the_first_least_value_wins_and_cut_offs_never_replace_it(self, cut_off):
        values = [5, 3, 4, 3, 2, 9, 2, 6]
        value, calls = self.recorded(values, cut_off)
        best, ranks = G.sample_order(5, len(values), 7, value)
        assert best == 2 and ranks == calls[4][0]  # the fifth order, not the seventh
        assert [bound for _, bound in calls] == [None, 5, 3, 3, 3, 2, 2, 2]
        rng = random.Random(7)
        for order, _ in calls:  # the shuffles of the ranks 1..5, in turn
            expected = [1, 2, 3, 4, 5]
            rng.shuffle(expected)
            assert order == expected

    @pytest.mark.parametrize("count,seed", [(0, 1), (-3, 1), (None, 1), (5, None)])
    def test_a_bad_count_or_no_seed_raises(self, count, seed):
        value, calls = self.recorded([1], False)
        with pytest.raises(ValueError, match="count"):
            G.sample_order(3, count, seed, value)
        assert calls == []


@pytest.mark.parametrize("kind", [list, tuple, G.LinearOrder])
def test_crossing_width_takes_any_order(kind):
    g = path_graph("abc")
    for perm in itertools.permutations("abc"):
        for mode in ("lmm", "lsim"):
            assert (G.crossing_width(g, kind(perm), mode)
                    == G.crossing_width(g, G.LinearOrder(perm), mode))


@pytest.mark.parametrize("kind", [list, tuple, G.LinearOrder])
def test_extract_neat_takes_any_order(kind):
    g = matching_graph(2)
    names = sorted(G.double(g).vertices)
    for _ in range(6):
        random.Random(len(names)).shuffle(names)
        assert G.extract_neat(g, kind(names)) == G.extract_neat(g, G.LinearOrder(names))


class TestExtractNeat:
    def test_single_edge_any_order(self, single_edge):
        for perm in itertools.permutations(sorted(G.double(single_edge).vertices)):
            m = G.extract_neat(single_edge, G.LinearOrder(perm))
            assert len(m) == 1

    def test_two_disjoint_edges_first_copies_up_front(self):
        g = matching_graph(2)
        dg = G.double(g)
        first = sorted(v for v in dg.vertices if v.endswith("#1"))
        second = sorted(v for v in dg.vertices if v.endswith("#2"))
        m = G.extract_neat(g, G.LinearOrder(first + second))
        assert len(m) >= 1

    def test_output_verified_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 6))
            dg = G.double(g)
            lsimw, _ = G.width_min(g, "lsim")
            names = sorted(dg.vertices)
            for _ in range(8):
                rng.shuffle(names)
                m = G.extract_neat(g, G.LinearOrder(names))
                assert G.is_induced_matching(dg, m.edges)
                assert G.neatly_crosses(G.LinearOrder(names), m.edges) is not None
                assert len(m) >= math.ceil(lsimw / 2)


def split_neat(g, e1, e2, pi_star):
    """Majority side of the extracted neat matching across an edge bipartition."""
    e1, e2 = G.check_edge_partition(g, e1, e2)
    whole = G.extract_neat(g, pi_star)
    parts = {1: whole.edges & G.lift_edges(e1), 2: whole.edges & G.lift_edges(e2)}
    if len(parts[1]) > len(parts[2]):
        side = 1
    elif len(parts[2]) > len(parts[1]):
        side = 2
    else:
        side = 1 if sorted(map(sorted, parts[1])) <= sorted(map(sorted, parts[2])) else 2
    return side, G.Matching(parts[side])


class TestSplitNeat:
    def test_grid2_partition(self):
        gg = G.grid(2)
        lsimw, _ = G.width_min(gg.graph, "lsim")
        names = sorted(G.double(gg.graph).vertices)
        rng = random.Random(4)
        for _ in range(10):
            rng.shuffle(names)
            side, m = split_neat(gg.graph, gg.hor, gg.vert, G.LinearOrder(names))
            assert side in (1, 2)
            chosen = gg.hor if side == 1 else gg.vert
            assert m.edges <= G.lift_edges(chosen)
            assert len(m) >= math.ceil(lsimw / 4)

    def test_non_spanning_side_rejected(self, c4):
        pi = G.LinearOrder(sorted(G.double(c4).vertices))
        with pytest.raises(PreconditionError):
            split_neat(c4, c4.edges, frozenset(), pi)


def permutation_widths(g):
    """n! oracles over the vertex orders: the lsim and lmm crossing widths,
    the widest bag of the elimination decomposition (treewidth) and the
    vertex separation number, which equals the pathwidth."""
    best = {}
    for perm in itertools.permutations(sorted(g.vertices)):
        order = G.LinearOrder(perm)
        widths = {
            "lsim": G.crossing_width(g, order, mode="lsim")[0],
            "lmm": G.crossing_width(g, order, mode="lmm")[0],
            "tw": G.decomposition_from_elimination(g, perm).width,
            "pw": max(sum(1 for u in perm[:k] if g.neighbors(u) - set(perm[:k]))
                      for k in range(1, len(perm) + 1)),
        }
        for key, width in widths.items():
            best[key] = min(best.get(key, width), width)
    return best


class TestSubsetDpOracles:
    def test_exact_searches_match_the_permutation_oracles(self):
        rng = random.Random(23)
        # 104 graphs; six vertices cost 720 orders each, so only four have six
        for size in [*range(1, 6)] * 20 + [6] * 4:
            g = random_graph(rng, size, edge_prob=rng.random(), no_isolated=False)
            brute = permutation_widths(g)
            for mode in ("lsim", "lmm"):
                width, order = G.width_min(g, mode)
                assert width == brute[mode]
                assert G.crossing_width(g, order, mode=mode)[0] == width
            width, elimination = G.exact_elimination_order(g)
            assert width == G.treewidth_exact(g) == brute["tw"]
            decomposition = G.decomposition_from_elimination(g, elimination)
            assert G.validate_decomposition(g, decomposition) == width
            assert G.pathwidth_exact(g) == brute["pw"]


class TestTreewidth:
    def test_trees_have_width_one(self):
        t = path_graph(["a", "b", "c", "d"])
        assert G.treewidth_exact(t) == 1

    def test_c4_and_grids(self, c4):
        assert G.treewidth_exact(c4) == 2
        assert G.treewidth_exact(G.grid(2).graph) == 2
        assert G.treewidth_exact(G.grid(3).graph) == 3

    def test_pathwidth(self, c4):
        assert G.pathwidth_exact(c4) == 2
        assert G.pathwidth_exact(path_graph(["a", "b", "c"])) == 1

    def test_cap(self):
        with pytest.raises(ScaleError):
            G.treewidth_exact(random_graph(random.Random(1), 11))

    def test_elimination_decomposition_matches(self):
        rng = random.Random(12)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 7), no_isolated=False)
            w, order = G.exact_elimination_order(g)
            d = G.decomposition_from_elimination(g, order)
            assert G.validate_decomposition(g, d) == w


class TestValidateDecomposition:
    def test_single_bag(self, c4):
        d = G.Decomposition({"b": frozenset(c4.vertices)}, frozenset())
        assert G.validate_decomposition(c4, d) == len(c4.vertices) - 1

    def test_containment_failure_names_edge(self, c4):
        d = G.Decomposition({"b1": frozenset(("a", "b")), "b2": frozenset(("c", "d"))},
                            {frozenset(("b1", "b2"))})
        with pytest.raises(DecompositionError) as exc:
            G.validate_decomposition(c4, d)
        assert exc.value.rule == "containment"

    def test_connectivity_failure_names_vertex(self):
        g = path_graph(["a", "b", "c"])
        d = G.Decomposition(
            {"b1": frozenset(("a", "b")), "b2": frozenset(("b", "c")),
             "b3": frozenset(("a",))},
            {frozenset(("b1", "b2")), frozenset(("b2", "b3"))})
        with pytest.raises(DecompositionError) as exc:
            G.validate_decomposition(g, d)
        assert exc.value.rule == "connectivity" and exc.value.where == "a"

    def test_broken_tree(self, c4):
        d = G.Decomposition({"b1": frozenset(c4.vertices), "b2": frozenset(c4.vertices)},
                            frozenset())
        with pytest.raises(DecompositionError) as exc:
            G.validate_decomposition(c4, d)
        assert exc.value.rule == "tree"


def greedy_induced(g, m):
    """Greedy induced sub-matching; at least ceil(|m| / (2*maxdeg+1)) edges."""
    if not G.is_matching(m.edges if isinstance(m, G.Matching) else m):
        raise PreconditionError("input edge set is not a matching")
    remaining = sorted((frozenset(e) for e in (m.edges if isinstance(m, G.Matching) else m)),
                       key=lambda e: tuple(sorted(e)))
    chosen = []
    while remaining:
        e = remaining.pop(0)
        chosen.append(e)
        blocked = set(e)
        for v in e:
            blocked.update(g.neighbors(v))
        remaining = [f for f in remaining if not f & blocked]
    return G.Matching(frozenset(chosen))


def max_degree(g):
    return max((g.degree(v) for v in g.vertices), default=0)


class TestGreedyInduced:
    def test_already_induced_keeps_size(self):
        g = matching_graph(3)
        m = G.Matching(g.edges)
        assert len(greedy_induced(g, m)) == 3

    def test_p4_end_edges(self):
        g = path_graph(["a", "b", "c", "d"])
        m = G.Matching(frozenset({frozenset(("a", "b")), frozenset(("c", "d"))}))
        out = greedy_induced(g, m)
        d = max_degree(g)
        assert len(out) >= math.ceil(len(m) / (2 * d + 1))
        assert G.is_induced_matching(g, out.edges)

    def test_empty(self, c4):
        assert len(greedy_induced(c4, G.Matching(frozenset()))) == 0

    def test_bound_on_random_matchings(self):
        rng = random.Random(8)
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 7))
            # grow a random maximal matching
            edges = sorted(g.edges, key=sorted)
            rng.shuffle(edges)
            taken = []
            used = set()
            for e in edges:
                if not e & used:
                    taken.append(e)
                    used |= e
            m = G.Matching(frozenset(taken))
            out = greedy_induced(g, m)
            assert G.is_induced_matching(g, out.edges)
            assert len(out) >= math.ceil(len(m) / (2 * max_degree(g) + 1))


class TestFiles:
    def test_graph_roundtrip(self, c5_chord, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text(G.write_graph(c5_chord))
        assert G.read_graph(p.read_text()) == c5_chord

    def test_order_roundtrip(self, tmp_path):
        order = G.LinearOrder(["b", "a", "c"])
        p = tmp_path / "o.txt"
        p.write_text(G.write_order(order))
        assert G.read_order(p.read_text()) == order

    # the readers parse text only: a file's name, missing or not, is text

    def test_one_line_graph_text_and_missing_file(self, tmp_path):
        assert G.read_graph("v a") == G.Graph({"a"}, ())
        with pytest.raises(FormatError, match="bad graph line"):
            G.read_graph(str(tmp_path / "missing.txt"))
        with pytest.raises(FormatError, match="undeclared vertices"):
            G.read_graph("e a b")

    def test_one_line_order_is_text(self, tmp_path):
        assert G.read_order("a") == G.read_order("a\n") == G.LinearOrder(["a"])
        missing = str(tmp_path / "missing.txt")
        assert G.read_order(missing) == G.LinearOrder([missing])

    def test_one_line_decomposition_text_and_missing_file(self, tmp_path):
        d = G.read_decomposition("B 0 a b")
        assert d.bags == {"0": frozenset({"a", "b"})} and not d.tree
        with pytest.raises(FormatError, match="bad decomposition line"):
            G.read_decomposition(str(tmp_path / "missing.txt"))

    def test_a_bag_id_given_twice_is_rejected(self):
        with pytest.raises(FormatError, match="bag 'b1' is given twice"):
            G.read_decomposition("B b1 x y\nB b1 z\nT b1 b1\n")

    def test_decomposition_roundtrip(self, c4, tmp_path):
        d = exact_decomposition(c4)
        p = tmp_path / "d.txt"
        p.write_text(G.write_decomposition(d))
        back = G.read_decomposition(p.read_text())
        assert back.bags == d.bags and back.tree == d.tree



def _digest(rows):
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


def _pin_corpus():
    """Seeded random graphs, each with a plain order, four doubled orders
    and a few doubled edges for each doubled order."""
    rng = random.Random(2034)
    corpus = []
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 7))
        order = sorted(g.vertices)
        rng.shuffle(order)
        lifted = sorted(tuple(sorted(e)) for e in G.double(g).edges)
        doubled = []
        for _ in range(4):
            names = sorted(G.double(g).vertices)
            rng.shuffle(names)
            doubled.append((names, sorted(rng.sample(lifted, rng.randint(1, min(3, len(lifted)))))))
        corpus.append((g, order, doubled))
    return corpus


class TestPinnedMatchings:
    """The crossing witnesses, the neat extractions and the neat cuts of a
    seeded corpus, pinned by digest: a change to how a matching or a cut is
    represented must not move a single witness."""

    def test_crossing_width_witnesses_pinned(self):
        rows = []
        for i, (g, order, _) in enumerate(_pin_corpus()):
            for mode in ("lmm", "lsim"):
                size, (cut, m) = G.crossing_width(g, order, mode)
                rows.append((i, mode, size, cut, m.sorted_edges()))
        assert _digest(rows) == (
            "32ea65e81a8d8346ce4f4a6998dc86548ba3ff7d6c92d99c9881fc7ffb02cb5f")

    def test_extract_neat_results_pinned(self):
        rows = []
        for i, (g, _, doubled) in enumerate(_pin_corpus()):
            for j, (names, _) in enumerate(doubled):
                rows.append((i, j, G.extract_neat(g, names).sorted_edges()))
        assert _digest(rows) == (
            "820184abef8fe8e4e3fd7d44be011ed7488094173e1cf720147353d631611365")

    def test_neatly_crosses_cuts_pinned(self):
        rows = []
        for i, (_, _, doubled) in enumerate(_pin_corpus()):
            for j, (names, picked) in enumerate(doubled):
                cut = G.neatly_crosses(G.LinearOrder(names), [frozenset(e) for e in picked])
                rows.append((i, j, picked, cut))
        assert sum(cut is not None for *_, cut in rows) > 0
        assert _digest(rows) == (
            "6ed6bdeba3aa23b233194cc724b5c2c9d029381cc47fad0e0174dd7952bb3418")
