import random
import typing

import pytest

from ddlab import alignment as AL
from ddlab import cnf as C
from ddlab import diagrams as D
from ddlab import lowerbound as LB
from ddlab.assignments import Assignment, cube, product, product_all, restrict_set
from ddlab.errors import EssentialityError, PreconditionError, SoundnessError
from ddlab.graphs import LinearOrder

from conftest import exact_decomposition, matching_graph, random_and_obdd
from test_diagrams import FIGURE_ORDER, figure_diagram


def satisfying(b):
    return D.satisfying_set(b)


class TestAlign:
    def test_figure_alignment_matches_the_right_hand_diagram(self):
        d = figure_diagram()
        al = AL.align(d, Assignment({"x2": 1}))
        kept_kinds = sorted((d.kind[i], d.var[i]) for i in al.kept_nodes)
        # the x1/x3 component and its conjunction are pruned; both sinks stay
        assert kept_kinds == [(D.SINK, None), (D.SINK, None),
                              (D.DECISION, "x2"), (D.DECISION, "x4"),
                              (D.DECISION, "x5"), (D.DECISION, "x6"),
                              (D.AND, None), (D.AND, None)]
        x2_node = next(i for i in al.kept_nodes if d.var[i] == "x2")
        assert al.incomplete == {x2_node}
        assert sum(p == x2_node for p, _, _ in al.kept_edges) == 1

    def test_empty_assignment_keeps_everything(self):
        d = figure_diagram()
        al = AL.align(d, Assignment())
        assert al.kept_nodes == frozenset(range(d.size))
        assert not al.incomplete

    def test_total_assignment_on_an_obdd_leaves_one_path(self):
        rng = random.Random(3)
        b, names = random_and_obdd(rng, ["a", "b", "c"], p_and=0.0)
        a = Assignment({"a": 1, "b": 0, "c": 1})
        al = AL.align(b, a)
        decisions = [i for i in al.kept_nodes if b.kind[i] == D.DECISION]
        assert all(sum(p == i for p, _, _ in al.kept_edges) == 1 for i in decisions)

    def test_base_untouched(self):
        d = figure_diagram()
        before = D.to_json(d)
        AL.align(d, Assignment({"x2": 0}))
        assert D.to_json(d) == before


def align_by_all_edges(b, g):
    """The definition of alignment, edge by edge: list every node's out-edges
    that g does not contradict, keep what the source reaches along them, and
    call a kept decision node incomplete when it keeps exactly one out-edge."""
    edges = []
    for i, (k, x, lo, hi) in enumerate(zip(b.kind, b.var, b.lo, b.hi)):
        if k == D.DECISION:
            bit = g.get(x)
            if bit is None or bit == 0:
                edges.append((i, "lo", lo))
            if bit is None or bit == 1:
                edges.append((i, "hi", hi))
        elif k == D.AND:
            edges.append((i, "left", lo))
            edges.append((i, "right", hi))
    keep = set()
    stack = [b.source]
    while stack:
        i = stack.pop()
        if i not in keep:
            keep.add(i)
            stack.extend(c for p, _, c in edges if p == i)
    kept_edges = frozenset(e for e in edges if e[0] in keep)
    incomplete = frozenset(
        i for i in keep
        if b.kind[i] == D.DECISION and sum(e[0] == i for e in kept_edges) == 1)
    return frozenset(keep), kept_edges, incomplete


def assert_aligns_as_defined(b, g):
    al = AL.align(b, g)
    assert (al.kept_nodes, al.kept_edges, al.incomplete) == align_by_all_edges(b, g)


class TestAlignOracle:
    def test_every_fooling_assignment_of_plain_experiments(self):
        checked = 0
        for q in range(1, 6):
            exp = LB.make_experiment(
                matching_graph(q), [(f"u{i}", f"w{i}") for i in range(1, q + 1)], "obdd")
            b = LB.obdd_for_order(exp.formula(), exp.order)
            for g in LB.fooling_set(exp):
                assert_aligns_as_defined(b, g)
                checked += 1
        assert checked == sum(2 ** q - 1 for q in range(1, 6))

    def test_random_partial_assignments_on_random_and_diagrams(self):
        rng = random.Random(29)
        names = [f"v{i}" for i in range(7)]
        conjunctions = 0
        for _ in range(60):
            b, _ = random_and_obdd(rng, names)
            conjunctions += sum(k == D.AND for k in b.kind)
            for _ in range(8):
                # any subset of the names, not only a prefix, plus a foreign name
                chosen = [v for v in names + ["zz"] if rng.random() < 0.5]
                assert_aligns_as_defined(b, Assignment({v: rng.randint(0, 1) for v in chosen}))
        assert conjunctions > 50


def frontier_by_fixpoint(b, names, g):
    """L(g) and T(g) as first defined: out-edges found by scanning every kept
    edge, and the nodes on L-bound paths grown to a fixpoint."""
    al = AL.align(b, g)

    def out(i):
        return sorted((slot, c) for p, slot, c in al.kept_edges if p == i)

    l_nodes, visited, taken = set(), set(), set()
    stack = [b.source]
    while stack:
        i = stack.pop()
        if i in visited:
            continue
        visited.add(i)
        if b.kind[i] == D.DECISION and i not in al.incomplete:
            l_nodes.add(i)
            continue
        for _, child in out(i):
            taken.add((i, child))
            stack.append(child)
    reaches = set(l_nodes)
    changed = True
    while changed:
        changed = False
        for parent, child in taken:
            if child in reaches and parent not in reaches:
                reaches.add(parent)
                changed = True
    tree_parent = {b.source: None} if l_nodes else {}
    for parent, child in sorted(taken):
        if parent in reaches and child in reaches:
            if child in tree_parent:
                return frozenset(l_nodes), None  # not a tree
            tree_parent[child] = parent
    return frozenset(l_nodes), tree_parent


def frontier_by_alignment(b, names, g):
    """L(g), T(g) and X(g) from the aligned diagram: the walk follows the
    aligned out-edges, and completeness below each frontier node is checked
    by walking the aligned graph below it. Raises ``SoundnessError`` with the
    messages of ``alignment.frontier``. The diagram is not validated, so on
    an unordered one the structural checks can fail."""
    al = AL.align(b, g)
    out = {}  # kept node -> its kept out-edges as sorted (slot, child) pairs
    for parent, slot, child in sorted(al.kept_edges):
        out.setdefault(parent, []).append((slot, child))
    l_nodes, visited, taken = set(), set(), set()
    stack = [b.source]
    while stack:
        i = stack.pop()
        if i in visited:
            continue
        visited.add(i)
        if b.kind[i] == D.DECISION and i not in al.incomplete:
            l_nodes.add(i)
            continue
        for _, child in out.get(i, ()):
            taken.add((i, child))
            stack.append(child)
    parents = {}
    for parent, child in taken:
        parents.setdefault(child, []).append(parent)
    reaches = set(l_nodes)
    stack = list(l_nodes)
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in reaches:
                reaches.add(parent)
                stack.append(parent)
    tree_parent = {b.source: None} if l_nodes else {}
    for parent, child in sorted(taken):
        if parent in reaches and child in reaches:
            if child in tree_parent:
                raise SoundnessError(
                    f"incomplete paths remeet at node {child}; T(g) is not a tree")
            tree_parent[child] = parent
    for u in sorted(l_nodes):
        below, stack = set(), [u]
        while stack:
            i = stack.pop()
            if i not in below:
                below.add(i)
                stack.extend(c for _, c in out.get(i, ()))
        bad = below & al.incomplete
        if bad:
            raise SoundnessError(
                f"incomplete decision node {min(bad)} below frontier node {u}")
    covered = set()
    for u in sorted(l_nodes):
        for v in sorted(l_nodes):
            shared = b.vars_below(u) & b.vars_below(v)
            if u < v and shared:
                raise SoundnessError(
                    f"frontier subdiagrams {u} and {v} share variables {sorted(shared)}")
        covered |= b.vars_below(u)
    return frozenset(l_nodes), tree_parent, frozenset(b.vars - g.vars - covered)


def outcome(run):
    """The frontier as (l_nodes, tree_parent, free_vars), or the message of
    the ``SoundnessError`` raised making it."""
    try:
        fr = run()
    except SoundnessError as e:
        return str(e)
    return fr if isinstance(fr, tuple) else (fr.l_nodes, fr.tree_parent, fr.free_vars)


def assert_frontier_as_aligned(b, names, g):
    """``alignment.frontier`` gives the oracle's frontier or raises its error;
    returns that outcome."""
    expected = outcome(lambda: frontier_by_alignment(b, names, g))
    assert outcome(lambda: AL.frontier(b, names, g)) == expected
    return expected


class TestFrontierOracle:
    def test_every_prefix_of_random_and_obdds(self):
        rng = random.Random(37)
        checked = 0
        for size in (3, 5, 7):
            names = [f"v{i}" for i in range(size)]
            for _ in range(40):
                b, order = random_and_obdd(rng, names)
                for k in range(len(order) + 1):
                    g = Assignment({v: rng.randint(0, 1) for v in order[:k]})
                    assert_frontier_as_aligned(b, order, g)
                    checked += 1
        assert checked > 500

    def test_unordered_diagrams_fail_as_the_aligned_walk_does(self, monkeypatch):
        # with validation off, a diagram tested against a shuffled order
        # breaks the completeness and disjointness checks too
        monkeypatch.setattr(AL, "validate", lambda b, names: None)
        rng = random.Random(39)
        names = [f"v{i}" for i in range(6)]
        messages = []
        for _ in range(80):
            b, _ = random_and_obdd(rng, names)
            order = rng.sample(names, len(names))
            for k in range(len(order) + 1):
                g = Assignment({v: rng.randint(0, 1) for v in order[:k]})
                messages.append(assert_frontier_as_aligned(b, order, g))
        # conjunctions that are not decomposable: two incomplete paths remeet
        # at a frontier node, two frontier nodes test one variable, and both
        # sides are one node (one taken edge, so T(g) is still a tree)
        builder = D.DiagramBuilder()
        f, t = builder.sink(0), builder.sink(1)
        shared = builder.decision("z", f, t)
        remeet = builder.conj(builder.decision("x", shared, t), builder.decision("y", shared, f))
        overlap = builder.conj(shared, builder.decision("z", t, f))
        twice = builder.conj(shared, shared)
        for root, g in ((remeet, Assignment({"x": 0, "y": 0})), (overlap, Assignment()),
                        (twice, Assignment())):
            messages.append(assert_frontier_as_aligned(builder.finalize(root), ["x", "y", "z"], g))
        for kind in ("not a tree", "below frontier node", "share variables"):
            assert any(kind in m for m in messages if isinstance(m, str)), kind


class TestAlignedEdgeIndex:
    @staticmethod
    def assert_frontier_as_defined(b, order, g):
        """``alignment.frontier`` gives the fixpoint definition's L(g) and
        T(g), or raises when T(g) is not a tree; returns whether it is."""
        l_nodes, tree_parent = frontier_by_fixpoint(b, order, g)
        if tree_parent is None:
            with pytest.raises(SoundnessError, match="not a tree"):
                AL.frontier(b, order, g)
            return False
        fr = AL.frontier(b, order, g)
        assert (fr.l_nodes, fr.tree_parent) == (l_nodes, tree_parent)
        return True

    def test_frontier_matches_the_fixpoint_definition(self):
        rng = random.Random(32)
        names = [f"v{i}" for i in range(7)]
        checked = 0
        for _ in range(40):
            b, order = random_and_obdd(rng, names)
            for k in range(len(order) + 1):
                g = Assignment({v: rng.randint(0, 1) for v in order[:k]})
                assert self.assert_frontier_as_defined(b, order, g)
                checked += 1
        assert checked > 200

    def test_incomplete_paths_remeeting_at_a_decision_node(self, monkeypatch):
        # No validated and-OBDD has such paths: they part only at
        # conjunctions, whose two sides test disjoint variables, so they can
        # remeet only at a sink. Here both sides of a conjunction lead, under
        # g, to one node testing z; with validation stubbed out, the frontier
        # and both oracles must find that T(g) is not a tree.
        monkeypatch.setattr(AL, "validate", lambda b, names: None)
        builder = D.DiagramBuilder()
        f, t = builder.sink(0), builder.sink(1)
        shared = builder.decision("z", f, t)
        b = builder.finalize(builder.conj(builder.decision("x", shared, t),
                                          builder.decision("y", shared, f)))
        order, g = ["x", "y", "z"], Assignment({"x": 0, "y": 0})
        assert not self.assert_frontier_as_defined(b, order, g)
        with pytest.raises(SoundnessError, match="not a tree"):
            frontier_by_alignment(b, order, g)

    def test_two_remeet_nodes_name_the_one_a_sorted_edge_scan_meets_first(self, monkeypatch):
        # z1 (walk parents X1 < Y1) and z2 (walk parents X2 < Y2) both have two;
        # z2 has the smaller id, but a scan of the taken edges in sorted order
        # meets (Y1, z1) before (Y2, z2), so the error names z1
        monkeypatch.setattr(AL, "validate", lambda b, names: None)
        builder = D.DiagramBuilder()
        f, t = builder.sink(0), builder.sink(1)
        z2 = builder.decision("w", f, t)
        z1 = builder.decision("z", f, t)
        x1, y1 = builder.decision("x", z1, t), builder.decision("y", z1, f)
        x2, y2 = builder.decision("x2", z2, t), builder.decision("y2", z2, f)
        b = builder.finalize(builder.conj(builder.conj(x1, x2), builder.conj(y1, y2)))
        assert z2 < z1 < x1 < y1 < x2 < y2
        order = ["x", "x2", "y", "y2", "z", "w"]
        g = Assignment(dict.fromkeys(order[:4], 0))
        assert assert_frontier_as_aligned(b, order, g) == (
            f"incomplete paths remeet at node {z1}; T(g) is not a tree")
        assert not self.assert_frontier_as_defined(b, order, g)

    def test_type_hints_resolve(self):
        assert typing.get_type_hints(AL.AlignedDiagram) == dict.fromkeys(
            ("kept_nodes", "kept_edges", "incomplete"), frozenset)


class TestFrontier:
    def test_figure_frontier_is_the_x5_node(self):
        d = figure_diagram()
        fr = AL.frontier(d, LinearOrder(FIGURE_ORDER), Assignment({"x2": 1}))
        assert [d.var[u] for u in fr.l_nodes] == ["x5"]
        assert fr.free_vars == {"x1", "x3"}
        # T(g) runs from the source conjunction straight to the frontier node
        (u,) = fr.l_nodes
        assert (u, d.source) in fr.tree_pairs()

    def test_a_tuple_order_is_used_as_it_is(self):
        class Counted(tuple):
            """A tuple that counts the times it is iterated."""

            iterations = 0

            def __iter__(self):
                Counted.iterations += 1
                return super().__iter__()

        d = figure_diagram()
        order, g = Counted(FIGURE_ORDER), Assignment({"x2": 1})
        fr = AL.frontier(d, order, g)
        seen = Counted.iterations
        # verdicts are shared with the plain tuple and the list of the names
        assert D.validate(d, order) is D.validate(d, list(FIGURE_ORDER))
        assert AL.frontier(d, order, g) == fr
        assert Counted.iterations == seen

    def test_empty_assignment_decision_source(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        f = b.sink(0)
        d = b.finalize(b.decision("y", f, t))
        fr = AL.frontier(d, LinearOrder(("y",)), Assignment())
        assert fr.l_nodes == {d.source}
        assert fr.free_vars == frozenset()

    def test_obdd_frontiers_are_singletons(self):
        rng = random.Random(11)
        found = 0
        for _ in range(30):
            b, names = random_and_obdd(rng, ["a", "b", "c", "d"], p_and=0.0)
            if not b.vars:
                continue
            order = LinearOrder(sorted(b.vars))
            for k in range(len(order) + 1):
                for g in cube(order.names[:k]):
                    fr = AL.frontier(b, order, g)
                    assert len(fr.l_nodes) <= 1
                    found += 1
        assert found > 50

    def test_non_prefix_rejected(self):
        d = figure_diagram()
        with pytest.raises(PreconditionError):
            AL.frontier(d, LinearOrder(FIGURE_ORDER), Assignment({"x1": 1}))

    def test_frontier_var_sets_disjoint_on_random_diagrams(self):
        rng = random.Random(13)
        for _ in range(40):
            b, names = random_and_obdd(rng, [f"v{i}" for i in range(6)])
            order = LinearOrder(sorted(names))
            k = rng.randint(0, len(names))
            g = Assignment({v: rng.randint(0, 1) for v in order.names[:k]})
            fr = AL.frontier(b, order, g)  # raises on any internal violation
            seen = set()
            for u in fr.l_nodes:
                assert not (b.vars_below(u) & seen)
                seen |= b.vars_below(u)


class TestModelDecomposition:
    def test_figure_example(self):
        d = figure_diagram()
        assert AL.check_model_decomposition(d, LinearOrder(FIGURE_ORDER),
                                            Assignment({"x2": 1}))

    def test_empty_prefix(self):
        d = figure_diagram()
        assert AL.check_model_decomposition(d, LinearOrder(FIGURE_ORDER), Assignment())

    def test_empty_restriction_rejected(self):
        b = D.DiagramBuilder()
        f = b.sink(0)
        d = b.finalize(b.decision("a", f, f))
        with pytest.raises(PreconditionError):
            AL.check_model_decomposition(d, LinearOrder(("a",)), Assignment({"a": 1}))

    def test_random_ordered_diagrams_decompose(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(40):
            b, names = random_and_obdd(rng, [f"v{i}" for i in range(5)])
            order = LinearOrder(sorted(names))
            sats = satisfying(b)
            for k in range(len(order) + 1):
                for g in cube(order.names[:k]):
                    if not restrict_set(sats, g).elements:
                        continue
                    assert AL.check_model_decomposition(b, order, g)
                    checked += 1
        assert checked >= 100


class TestAppendixCaseOracles:
    """The decision-source and conjunction-source factorizations plus the
    frontier/free-set recursions, brute-forced on random valid diagrams."""

    def test_decision_source_factorization(self):
        rng = random.Random(41)
        done = 0
        while done < 60:
            b, names = random_and_obdd(rng, [f"v{i}" for i in range(5)],
                                       root_kind="decision")
            src = b.source
            if b.kind[src] != D.DECISION:
                continue
            x = b.var[src]
            i = rng.randint(0, 1)
            extra = [v for v in b.vars - {x} if rng.random() < 0.4]
            g = Assignment({x: i, **{v: rng.randint(0, 1) for v in extra}})
            child = b.hi[src] if i else b.lo[src]
            sub = AL.subdiagram(b, child)[0]
            left = restrict_set(satisfying(b), g)
            free = (b.vars - g.vars) - b.vars_below(child)
            right = product(restrict_set(satisfying(sub), g.minus({x})), cube(free))
            assert left == right
            done += 1

    def test_conjunction_source_factorization(self):
        rng = random.Random(43)
        done = 0
        while done < 60:
            b, names = random_and_obdd(rng, [f"v{i}" for i in range(6)],
                                       root_kind="and")
            src = b.source
            if b.kind[src] != D.AND:
                continue
            g = Assignment({v: rng.randint(0, 1)
                            for v in b.vars if rng.random() < 0.5})
            left = restrict_set(satisfying(b), g)
            parts = []
            for child in b.children(src):
                sub = AL.subdiagram(b, child)[0]
                parts.append(restrict_set(satisfying(sub), g))
            assert left == product_all(parts)
            done += 1

    def test_frontier_recursion_decision_source(self):
        rng = random.Random(47)
        done = 0
        while done < 60:
            b, names = random_and_obdd(rng, [f"v{i}" for i in range(6)],
                                       root_kind="decision")
            src = b.source
            if b.kind[src] != D.DECISION or b.var[src] != sorted(b.vars)[0]:
                continue
            order = LinearOrder(sorted(b.vars))
            k = rng.randint(1, len(b.vars))
            g = Assignment({v: rng.randint(0, 1) for v in order.names[:k]})
            x = b.var[src]
            child = b.hi[src] if g[x] else b.lo[src]
            sub, idmap = AL.subdiagram(b, child)
            fr = AL.frontier(b, order, g)
            sub_order = LinearOrder([v for v in order.names if v != x])
            fr_child = AL.frontier(sub, sub_order, g.minus({x}))
            mapped = {idmap[u] for u in fr.l_nodes}
            assert mapped == fr_child.l_nodes
            # free-set recursion for the same case
            expect_free = ((b.vars - g.vars) - b.vars_below(child)) | fr_child.free_vars
            assert fr.free_vars == expect_free
            done += 1

    def test_frontier_recursion_conjunction_source(self):
        rng = random.Random(53)
        done = 0
        while done < 60:
            b, names = random_and_obdd(rng, [f"v{i}" for i in range(6)],
                                       root_kind="and")
            src = b.source
            if b.kind[src] != D.AND:
                continue
            order = LinearOrder(sorted(b.vars))
            k = rng.randint(0, len(b.vars))
            g = Assignment({v: rng.randint(0, 1) for v in order.names[:k]})
            fr = AL.frontier(b, order, g)
            union_l = set()
            union_free = set()
            for child in b.children(src):
                sub, idmap = AL.subdiagram(b, child)
                sub_vars = b.vars_below(child)
                sub_order = LinearOrder([v for v in order.names if v in sub_vars])
                fr_c = AL.frontier(sub, sub_order, g.project(sub_vars))
                back = {new: old for old, new in idmap.items()}
                union_l |= {back[u] for u in fr_c.l_nodes}
                union_free |= fr_c.free_vars
            assert fr.l_nodes == frozenset(union_l)
            assert fr.free_vars == frozenset(union_free)
            done += 1


class TestRestrictDiagram:
    def test_compiled_p3_restriction(self, p3):
        from ddlab import compile as CP
        from ddlab.formulas import vc_formula
        phi = vc_formula(p3)
        primal, _ = C.graphs_of(phi)
        diagram, _ = CP.compile_primal(phi, exact_decomposition(primal))
        out = AL.restrict_diagram(diagram, "x2", 0)
        want = C.Cnf([[("x1", 1)], [("x3", 1)]])
        assert D.truth_table(out, sorted(out.vars)) == C.truth_table(want, sorted(want.vars))
        assert out.size <= diagram.size

    def test_foreign_variable_is_identity(self):
        d = figure_diagram()
        assert AL.restrict_diagram(d, "zz", 1, check_essential=False) == d

    def test_obdd_stays_obdd(self):
        rng = random.Random(59)
        for _ in range(20):
            b, names = random_and_obdd(rng, ["a", "b", "c", "d"], p_and=0.0)
            if not b.vars:
                continue
            x = sorted(b.vars)[rng.randrange(len(b.vars))]
            out = AL.restrict_diagram(b, x, rng.randint(0, 1), check_essential=False)
            assert D.validate(out).is_fbdd

    def test_restricted_function_matches_semantics(self):
        rng = random.Random(61)
        done = 0
        while done < 40:
            b, names = random_and_obdd(rng, [f"v{i}" for i in range(5)])
            if not b.vars:
                continue
            x = sorted(b.vars)[0]
            i = rng.randint(0, 1)
            try:
                out = AL.restrict_diagram(b, x, i)
            except EssentialityError:
                continue
            order = sorted(b.vars - {x})
            whole = D.truth_table(b, [x] + order)
            half = 1 << len(order)
            expect = (whole >> half) if i else (whole & ((1 << half) - 1))
            lifted = D.truth_table(out, order)
            assert lifted == expect
            assert out.size <= b.size
            done += 1

    def test_inessential_variable_detected(self):
        # fixing x=1 satisfies the clause, leaving y irrelevant
        phi = C.Cnf([[("x", 1), ("y", 1)]])
        from ddlab.lowerbound import obdd_for_order
        b = obdd_for_order(phi, LinearOrder(("x", "y")))
        with pytest.raises(EssentialityError) as exc:
            AL.restrict_diagram(b, "x", 1)
        assert exc.value.variable == "y"
        out = AL.restrict_diagram(b, "x", 1, check_essential=False)
        assert D.count_models(out, {"y"}) == 2

    def test_waived_restriction_keeps_the_cube_factoring(self):
        # without essentiality only the weaker claim holds: the restricted
        # model set is the result's models times a cube over dropped vars
        rng = random.Random(67)
        done = 0
        while done < 25:
            b, names = random_and_obdd(rng, [f"v{i}" for i in range(5)])
            if not b.vars:
                continue
            x = sorted(b.vars)[rng.randrange(len(b.vars))]
            i = rng.randint(0, 1)
            out = AL.restrict_diagram(b, x, i, check_essential=False)
            left = restrict_set(satisfying(b), Assignment({x: i}))
            dropped = (b.vars - {x}) - out.vars
            right = product(D.satisfying_set(out), cube(dropped))
            assert left == right
            done += 1


@pytest.fixture
def p3():
    from conftest import path_graph
    return path_graph(["x1", "x2", "x3"])
