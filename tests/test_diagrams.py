import hashlib
import json
import random

import pytest

from ddlab import diagrams as D
from ddlab.assignments import Assignment, AssignmentSet, cube
from ddlab.errors import DiagramInvariantError, FormatError, ScaleError, ScopeError
from ddlab.graphs import LinearOrder

from conftest import chain_diagram, random_and_obdd


def figure_diagram():
    """The worked two-component example: (x1 v x2)(x2 v x3)(x4 v x5)(x5 v x6)
    obeying (x2, x1, x3, x5, x4, x6)."""
    b = D.DiagramBuilder()
    t = b.sink(1)
    f = b.sink(0)
    x1 = b.decision("x1", f, t)
    x3 = b.decision("x3", f, t)
    left = b.conj(x1, x3)
    x2 = b.decision("x2", left, t)
    x4 = b.decision("x4", f, t)
    x6 = b.decision("x6", f, t)
    right = b.conj(x4, x6)
    x5 = b.decision("x5", right, t)
    return b.finalize(b.conj(x2, x5))


FIGURE_ORDER = ("x2", "x1", "x3", "x5", "x4", "x6")


def a_and_b():
    b = D.DiagramBuilder()
    f = b.sink(0)
    return b.finalize(b.decision("a", f, b.decision("b", f, b.sink(1))))


class TestValidate:
    def test_figure_is_ordered_and_conjunctive(self):
        cls = D.validate(figure_diagram(), FIGURE_ORDER)
        assert cls.is_and_obdd and cls.is_and_fbdd
        assert not cls.is_fbdd and not cls.is_obdd

    def test_order_may_be_a_superset(self):
        cls = D.validate(figure_diagram(), ("x0",) + FIGURE_ORDER + ("x9",))
        assert cls.is_and_obdd

    def test_inferred_order_without_argument(self):
        cls = D.validate(figure_diagram())
        assert cls.is_and_obdd and cls.order is not None

    def test_two_sources(self):
        nodes = [D.sink(1), D.decision("x", 0, 0), D.decision("y", 0, 0)]
        with pytest.raises(DiagramInvariantError) as exc:
            D.validate(D.Diagram(nodes, 1))
        assert exc.value.rule == "single-source"

    def test_duplicate_sinks(self):
        nodes = [D.sink(1), D.sink(1), D.decision("x", 0, 1)]
        with pytest.raises(DiagramInvariantError) as exc:
            D.validate(D.Diagram(nodes, 2))
        assert exc.value.rule == "sink-form"

    def test_decomposability_violation(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        f = b.sink(0)
        xa = b.decision("x", f, t)
        xb = b.decision("x", t, f)
        bad = b.finalize(b.conj(xa, xb))
        with pytest.raises(DiagramInvariantError) as exc:
            D.validate(bad)
        assert exc.value.rule == "decomposability"

    def test_read_once_violation(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        f = b.sink(0)
        inner = b.decision("x", f, t)
        mid = b.decision("y", inner, t)
        outer = b.decision("x", mid, f)
        with pytest.raises(DiagramInvariantError) as exc:
            D.validate(b.finalize(outer))
        assert exc.value.rule == "read-once"

    def test_order_violation(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        f = b.sink(0)
        x = b.decision("x", f, t)
        y = b.decision("y", x, t)
        diagram = b.finalize(y)
        with pytest.raises(DiagramInvariantError) as exc:
            D.validate(diagram, ("x", "y"))
        assert exc.value.rule == "order"

    def test_missing_vars_in_order(self):
        with pytest.raises(ScopeError):
            D.validate(figure_diagram(), ("x2", "x1"))

    def test_cycle_rejected_at_construction(self):
        nodes = [D.decision("x", 1, 1), D.decision("y", 0, 0)]
        with pytest.raises(FormatError):
            D.Diagram(nodes, 0)


class TestValidateMemo:
    """A diagram is immutable, so ``validate`` classifies it once per order."""

    @pytest.mark.parametrize("first", [FIGURE_ORDER, LinearOrder(FIGURE_ORDER)],
                             ids=["tuple", "linear-order"])
    def test_repeat_returns_the_same_class(self, first):
        d = figure_diagram()
        cls = D.validate(d, first)
        for again in (FIGURE_ORDER, LinearOrder(FIGURE_ORDER), list(FIGURE_ORDER)):
            assert D.validate(d, again) is cls

    def test_bad_order_raises_every_time(self):
        d = figure_diagram()
        for _ in range(3):
            with pytest.raises(ScopeError):
                D.validate(d, ("x2", "x1"))
            with pytest.raises(DiagramInvariantError) as exc:
                D.validate(d, tuple(reversed(FIGURE_ORDER)))
            assert exc.value.rule == "order"
        assert D.validate(d, FIGURE_ORDER).is_and_obdd

    def test_broken_diagram_raises_every_time(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        f = b.sink(0)
        inner = b.decision("x", f, t)
        outer = b.decision("x", b.decision("y", inner, t), f)
        bad = b.finalize(outer)
        for order in (None, ("x", "y"), None, ("x", "y")):
            with pytest.raises(DiagramInvariantError) as exc:
                D.validate(bad, order)
            assert exc.value.rule == "read-once"

    def test_inferred_and_given_orders_are_kept_apart(self):
        d = figure_diagram()
        wide = ("x0",) + FIGURE_ORDER + ("x9",)
        given = D.validate(d, wide)
        inferred = D.validate(d)
        assert given.order == wide
        assert inferred is not given and inferred.order != wide
        assert D.validate(d) is inferred
        assert D.validate(d, wide) is given


class TestAccepted:
    def test_sinks(self):
        b = D.DiagramBuilder()
        assert D.accepted(b.finalize(b.sink(1))) == AssignmentSet([Assignment()])
        b2 = D.DiagramBuilder()
        assert D.accepted(b2.finalize(b2.sink(0))) == AssignmentSet()

    def test_decision_over_two_true_sinks(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        d = b.finalize(b.decision("x", t, t))
        assert D.accepted(d) == AssignmentSet([Assignment({"x": 0}), Assignment({"x": 1})])

    def test_figure_accepted_members_are_partial(self):
        acc = D.accepted(figure_diagram())
        assert Assignment({"x2": 1, "x5": 1}) in acc
        assert len(acc) == 4

    def test_cap(self):
        assert D.accepted(chain_diagram(22)) == AssignmentSet(
            [Assignment((f"v{i:02d}", 1) for i in range(22))])
        with pytest.raises(ScaleError, match="^23 variables exceed the cap 22$"):
            D.accepted(chain_diagram(23))


class TestEvaluate:
    def test_figure_all_ones(self):
        a = Assignment({v: 1 for v in FIGURE_ORDER})
        assert D.evaluate(figure_diagram(), a) == 1

    def test_figure_falsifying(self):
        a = Assignment({"x1": 0, "x2": 0, "x3": 1, "x4": 1, "x5": 1, "x6": 1})
        assert D.evaluate(figure_diagram(), a) == 0

    def test_false_sink_rejects_everything(self):
        b = D.DiagramBuilder()
        d = b.finalize(b.sink(0))
        assert D.evaluate(d, Assignment({"x": 1})) == 0

    def test_partial_rejected(self):
        with pytest.raises(ScopeError):
            D.evaluate(figure_diagram(), Assignment({"x2": 1}))

    def test_agrees_with_accepted_extension_semantics(self):
        rng = random.Random(17)
        for _ in range(20):
            diagram, names = random_and_obdd(rng, [f"v{i}" for i in range(5)])
            acc = D.accepted(diagram)
            for a in cube(names):
                direct = D.evaluate(diagram, a)
                via_sets = int(any(m <= a for m in acc))
                assert direct == via_sets

    def test_walk_and_table_routes_agree_on_larger_diagrams(self):
        # pointwise DAG-walk evaluation versus the vectorized table over the
        # full cube, on diagrams up to ten variables
        rng = random.Random(18)
        for _ in range(10):
            diagram, names = random_and_obdd(rng, [f"v{i}" for i in range(10)])
            order = sorted(names)
            table = D.truth_table(diagram, order)
            n = len(order)
            for m in range(1 << n):
                a = Assignment((x, (m >> (n - 1 - p)) & 1)
                               for p, x in enumerate(order))
                assert D.evaluate(diagram, a) == (table >> m) & 1


class TestCount:
    def test_true_sink_over_universe(self):
        b = D.DiagramBuilder()
        d = b.finalize(b.sink(1))
        assert D.count_models(d, {"a", "b", "c"}) == 8

    def test_figure_count(self):
        assert D.count_models(figure_diagram()) == 25

    def test_count_matches_brute_force_on_random_diagrams(self):
        rng = random.Random(29)
        for _ in range(30):
            diagram, names = random_and_obdd(rng, [f"v{i}" for i in range(6)])
            universe = set(names) | {"z1", "z2"}
            brute = sum(D.evaluate(diagram, a) for a in cube(universe))
            assert D.count_models(diagram, universe) == brute

    def test_universe_must_cover(self):
        with pytest.raises(ScopeError):
            D.count_models(figure_diagram(), {"x1"})


def test_truth_table_order_names_each_variable_once():
    b = a_and_b()
    assert D.truth_table(b, ["a", "b"]) == 0b1000
    with pytest.raises(ScopeError, match="repeats"):
        D.truth_table(b, ["a", "a", "b"])
    with pytest.raises(ScopeError, match="misses"):
        D.truth_table(b, ["a"])


class TestPathAssignment:
    def test_single_node(self):
        d = figure_diagram()
        assert D.path_assignment(d, [d.source]) == Assignment()

    def test_decision_edge(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        f = b.sink(0)
        x = b.decision("x", f, t)
        d = b.finalize(x)
        assert D.path_assignment(d, [d.source, 0]) == Assignment({"x": 1})

    def test_conjunction_contributes_nothing(self):
        d = figure_diagram()
        # source is the top conjunction; step into the x2 decision node
        x2 = d.node(d.source).left
        path = [d.source, x2]
        assert D.path_assignment(d, path) == Assignment()

    def test_non_edge_rejected(self):
        d = figure_diagram()
        with pytest.raises(ValueError):
            D.path_assignment(d, [d.source, d.source])

    def test_parallel_edges_ambiguous(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        u = b.decision("x", t, t)
        d = b.finalize(u)
        with pytest.raises(ValueError):
            D.path_assignment(d, [d.source, 0])


class TestSerialization:
    def test_json_roundtrip(self):
        d = figure_diagram()
        assert D.from_json(D.to_json(d)) == d

    def test_json_is_sorted_and_stable(self):
        d = figure_diagram()
        assert D.to_json(d) == D.to_json(figure_diagram())

    def test_save_load(self, tmp_path):
        d = figure_diagram()
        path = tmp_path / "d.json"
        D.save(d, path)
        assert D.load(str(path)) == d

    def test_dense_ids_required(self):
        with pytest.raises(FormatError):
            D.from_json('{"source": 0, "vars": [], "nodes": [{"id": 1, "kind": "sink", "value": 1}]}')

    def test_dot_export_mentions_all_nodes(self):
        d = figure_diagram()
        dot = D.to_dot(d)
        assert dot.count("shape=circle") == 9
        assert dot.count("shape=box") == 2
        assert "style=dashed" in dot

    def test_declared_universe_roundtrip(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        d = b.finalize(b.decision("x", t, t), declared_vars={"x", "y"})
        back = D.from_json(D.to_json(d))
        assert back == d and back.declared_vars == {"x", "y"}

    def test_declaring_only_the_tested_vars_declares_nothing(self):
        b = D.DiagramBuilder()
        d = b.finalize(b.decision("x", b.sink(0), b.sink(1)), declared_vars={"x"})
        assert d.declared_vars is None
        assert D.from_json(D.to_json(d)).declared_vars is None

    @staticmethod
    def load_with(node, **fields):
        """The a-and-b diagram with one node's fields replaced, through the loader."""
        doc = json.loads(D.to_json(a_and_b()))
        doc["nodes"][node].update(fields)
        return D.from_json(json.dumps(doc))

    def test_unchanged_document_loads(self):
        assert self.load_with(3) == a_and_b()

    @pytest.mark.parametrize("node, value", [(0, False), (1, True), (1, 1.0), (3, 3.0)])
    def test_node_id_must_be_an_integer(self, node, value):
        with pytest.raises(FormatError, match="node ids"):
            self.load_with(node, id=value)

    @pytest.mark.parametrize("value", [2, -1, "1", True, None, 1.0])
    def test_sink_value_must_be_0_or_1(self, value):
        with pytest.raises(FormatError, match="sink 1 has value"):
            self.load_with(1, value=value)

    @pytest.mark.parametrize("field, value", [("lo", False), ("hi", True), ("lo", 0.0)])
    def test_child_id_must_be_an_integer(self, field, value):
        with pytest.raises(FormatError, match="missing child"):
            self.load_with(3, **{field: value})

    @pytest.mark.parametrize("value", [7, None, ["a"]])
    def test_variable_name_must_be_a_string(self, value):
        with pytest.raises(FormatError, match="variable names are strings"):
            self.load_with(2, var=value)

    def test_declared_names_must_be_strings(self):
        doc = json.loads(D.to_json(a_and_b()))
        doc["vars"].append(7)
        with pytest.raises(FormatError, match="not strings"):
            D.from_json(json.dumps(doc))

    def test_boolean_source_rejected(self):
        doc = json.loads(D.to_json(a_and_b()))
        doc["source"] = True
        with pytest.raises(FormatError, match="source"):
            D.from_json(json.dumps(doc))

    def test_builder_sink_takes_a_boolean(self):
        b = D.DiagramBuilder()
        assert b.sink(True) == b.sink(1) == 0
        d = b.finalize(b.decision("x", b.sink(False), 0))
        assert d.node(0) == D.sink(1) and d.node(1) == D.sink(0)
        assert D.from_json(D.to_json(d)) == d


def to_json_by_dumps(b):
    """The document-then-``json.dumps`` writer: the oracle for the one-pass
    ``to_json``."""
    nodes = []
    for i, node in enumerate(b.nodes):
        entry = {"id": i, "kind": node.kind}
        if node.kind == "decision":
            entry.update(var=node.var, lo=node.lo, hi=node.hi)
        elif node.kind == "and":
            entry.update(left=node.left, right=node.right)
        else:
            entry.update(value=node.value)
        nodes.append(entry)
    doc = {
        "source": b.source,
        "vars": sorted(b.declared_vars if b.declared_vars is not None else b.vars),
        "nodes": nodes,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestWriterOracle:
    @pytest.mark.parametrize("p_and", [0.0, 0.35])
    def test_random_diagrams(self, p_and):
        rng = random.Random(91)
        for _ in range(150):
            names = [f"x{i}" for i in range(rng.randint(1, 7))]
            d, _ = random_and_obdd(rng, names, p_and=p_and)
            assert D.to_json(d) == to_json_by_dumps(d)

    def test_single_sink(self):
        for value in (0, 1):
            b = D.DiagramBuilder()
            d = b.finalize(b.sink(value))
            assert D.to_json(d) == to_json_by_dumps(d)
            assert '"vars": []' in D.to_json(d)

    def test_declared_vars_wider_than_tested(self):
        b = D.DiagramBuilder()
        d = b.finalize(b.decision("x", b.sink(0), b.sink(1)), declared_vars={"w", "x", "z"})
        assert D.to_json(d) == to_json_by_dumps(d)

    def test_unreachable_nodes(self):
        d = D.Diagram([D.sink(1), D.decision("y", 0, 0)], 0)
        assert D.to_json(d) == to_json_by_dumps(d)

    def test_names_that_need_escaping(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        f = b.sink(0)
        inner = b.decision('q"uote', f, t)
        mid = b.decision("back\\slash", inner, t)
        top = b.decision("é\u2227\U0001d54f", mid, f)
        d = b.finalize(top, declared_vars={'q"uote', "back\\slash", "é\u2227\U0001d54f", "ünused"})
        text = D.to_json(d)
        assert text == to_json_by_dumps(d)
        assert D.from_json(text) == d


def test_equal_variable_sets_are_shared():
    rng = random.Random(92)
    for _ in range(50):
        d, _ = random_and_obdd(rng, [f"x{i}" for i in range(6)])
        sets = [d.vars_below(i) for i in range(d.size)]
        assert len({id(s) for s in sets}) == len(set(sets))


def test_graft_shares_sinks_and_prunes():
    d = figure_diagram()
    b = D.DiagramBuilder()
    first = D.graft(b, d)
    D.graft(b, d)  # a second unreferenced copy
    merged = b.finalize(first)
    assert merged.size == d.size  # prune drops the unused copy, sinks stay shared
    order = sorted(d.vars)
    assert D.truth_table(merged, order) == D.truth_table(d, order)


# ---------------------------------------------------------------------------
# the columnar core against the node-record passes it replaced


def toposort_by_nodes(nodes):
    """Kahn's algorithm on a stack over each Node's children."""
    kids = [node.children() for node in nodes]
    indeg = [0] * len(kids)
    for children in kids:
        for c in children:
            indeg[c] += 1
    stack = [i for i, d in enumerate(indeg) if d == 0]
    out = []
    while stack:
        i = stack.pop()
        out.append(i)
        for c in kids[i]:
            indeg[c] -= 1
            if not indeg[c]:
                stack.append(c)
    assert len(out) == len(kids)
    out.reverse()
    return tuple(out)


def vars_below_by_nodes(nodes, topo):
    """Per node, the variables tested at or below it, children first."""
    below = [frozenset()] * len(nodes)
    for i in topo:
        node = nodes[i]
        if node.kind == "decision":
            below[i] = below[node.lo] | below[node.hi] | {node.var}
        elif node.kind == "and":
            below[i] = below[node.left] | below[node.right]
    return tuple(below)


def count_models_by_nodes(nodes, source, topo, below, universe):
    """The one-pass count with each branch's free variables found by set
    difference."""
    counts = {}
    for i in topo:
        node = nodes[i]
        if node.kind == "sink":
            counts[i] = node.value
        elif node.kind == "decision":
            mine = below[i] - {node.var}
            lo_free = len(mine - below[node.lo])
            hi_free = len(mine - below[node.hi])
            counts[i] = (counts[node.lo] << lo_free) + (counts[node.hi] << hi_free)
        else:
            free = len(below[i] - below[node.left] - below[node.right])
            counts[i] = (counts[node.left] * counts[node.right]) << free
    return counts[source] << (len(universe) - len(below[source]))


def renumbered(b, rng):
    """The same diagram under a random relabelling of its node ids, so that
    children need not have smaller ids than their parents."""
    perm = list(range(b.size))
    rng.shuffle(perm)
    nodes = [None] * b.size
    for i, node in enumerate(b.nodes):
        if node.kind == "decision":
            node = D.decision(node.var, perm[node.lo], perm[node.hi])
        elif node.kind == "and":
            node = D.conj(perm[node.left], perm[node.right])
        nodes[perm[i]] = node
    return D.Diagram(nodes, perm[b.source], b.declared_vars)


def assert_matches_node_passes(b, nodes, universe):
    topo = toposort_by_nodes(nodes)
    below = vars_below_by_nodes(nodes, topo)
    assert b.topo() == topo
    assert tuple(map(b.vars_below, range(b.size))) == below
    assert D.count_models(b, universe) == count_models_by_nodes(
        nodes, b.source, topo, below, universe)


def assert_equal_and_hashed_alike(b, nodes):
    again = D.Diagram(nodes, b.source, b.declared_vars)
    assert again == b and hash(again) == hash(b)
    back = D.from_json(D.to_json(b))
    assert back == b and hash(back) == hash(b)


def assert_node_records_agree(b, nodes):
    assert nodes == tuple(map(b.node, range(b.size)))
    for i, node in enumerate(nodes):
        kind = ("sink", "decision", "and")[b.kind[i]]
        assert node.kind == kind and node.children() == b.children(i)
        assert node == (D.sink(b.lo[i]) if kind == "sink" else
                        D.decision(b.var[i], b.lo[i], b.hi[i]) if kind == "decision" else
                        D.conj(b.lo[i], b.hi[i]))


@pytest.fixture(scope="module")
def vc5_tree():
    from ddlab.compile import decision_tree, dt_to_diagram
    from ddlab.formulas import vc_formula
    from ddlab.graphs import grid
    return dt_to_diagram(decision_tree(vc_formula(grid(5).graph)))


class TestColumnarCore:
    @pytest.mark.parametrize("p_and", [0.0, 0.35])
    def test_random_diagrams(self, p_and):
        rng = random.Random(93)
        for _ in range(80):
            names = [f"x{i}" for i in range(rng.randint(1, 7))]
            d, _ = random_and_obdd(rng, names, p_and=p_and)
            universe = set(names) | {"z"}
            for b in (d, renumbered(d, rng)):
                nodes = b.nodes
                assert_matches_node_passes(b, nodes, universe)
                assert_node_records_agree(b, nodes)
                assert_equal_and_hashed_alike(b, nodes)
                assert D.to_json(b) == to_json_by_dumps(b)

    def test_renumbered_diagram_keeps_its_semantics(self):
        rng = random.Random(94)
        for _ in range(20):
            d, names = random_and_obdd(rng, [f"x{i}" for i in range(6)])
            r = renumbered(d, rng)
            assert D.truth_table(r, names) == D.truth_table(d, names)
            assert D.validate(r) == D.validate(d)
            for a in cube(names):
                assert D.evaluate(r, a) == D.evaluate(d, a)

    def test_vc_grid5_tree(self, vc5_tree):
        b = vc5_tree
        nodes = b.nodes
        assert len(nodes) == 71186
        assert_matches_node_passes(b, nodes, b.vars)
        assert_equal_and_hashed_alike(b, nodes)

    def test_vc_grid5_tree_bytes_pinned(self, vc5_tree):
        text = D.to_json(vc5_tree)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0cdb6c28af92f787117eb8a5fda27fa4fec0361f8c7ed83bf491a19efe48368c")
        assert D.count_models(D.from_json(text)) == 55447

    def test_unequal_diagrams_compare_unequal(self):
        d = figure_diagram()
        nodes = list(d.nodes)
        nodes[0], nodes[1] = nodes[1], nodes[0]  # swap the two sinks' labels
        other = D.Diagram(nodes, d.source)
        assert other != d and D.count_models(other) != D.count_models(d)
        b = D.DiagramBuilder()
        wider = b.finalize(D.graft(b, d), declared_vars=set(d.vars) | {"x9"})
        assert wider != d and D.to_json(wider) != D.to_json(d)


# ---------------------------------------------------------------------------
# isomorphism classes against pairwise comparison


def isomorphic_by_pairs(b):
    """(u, v) -> whether the subdiagrams below u and v are isomorphic: equal
    records but for the child ids, and pairwise isomorphic children. Pairs
    are compared recursively, hashing no subdiagram."""
    nodes = b.nodes
    memo = {}

    def iso(u, v):
        if (u, v) not in memo:
            one, two = nodes[u], nodes[v]
            memo[u, v] = (one.kind == two.kind and one.var == two.var
                          and one.value == two.value
                          and all(map(iso, one.children(), two.children())))
        return memo[u, v]

    return iso


def evaluate_by_nodes(nodes, node_id, a):
    """A diagram's value under a total assignment, by recursion from a node
    over the node records."""
    node = nodes[node_id]
    if node.kind == "sink":
        return node.value
    if node.kind == "decision":
        return evaluate_by_nodes(nodes, node.hi if a[node.var] else node.lo, a)
    return evaluate_by_nodes(nodes, node.left, a) & evaluate_by_nodes(nodes, node.right, a)


def assert_classes_are_isomorphism(b):
    iso = isomorphic_by_pairs(b)
    classes = [b.iso_class(i) for i in range(b.size)]
    for u in range(b.size):
        for v in range(b.size):
            assert (classes[u] == classes[v]) == iso(u, v)
    assert sorted(set(classes)) == list(range(b.merged_size))


def assert_semantics_match_node_walk(b, universe):
    nodes = b.nodes
    models = AssignmentSet(a for a in cube(universe) if evaluate_by_nodes(nodes, b.source, a))
    assert D.satisfying_set(b, universe) == models
    assert [D.evaluate(b, a) for a in cube(universe)] == [
        evaluate_by_nodes(nodes, b.source, a) for a in cube(universe)]
    acc = D.accepted(b)
    assert AssignmentSet(a for a in cube(universe) if any(m <= a for m in acc)) == models


class TestIsomorphismClasses:
    @pytest.mark.parametrize("p_and", [0.0, 0.35])
    def test_random_diagrams_and_renumbered_copies(self, p_and):
        rng = random.Random(95)
        for _ in range(60):
            names = [f"x{i}" for i in range(rng.randint(1, 6))]
            d, _ = random_and_obdd(rng, names, p_and=p_and)
            r = renumbered(d, rng)
            assert r.merged_size == d.merged_size <= d.size
            for b in (d, r):
                assert_classes_are_isomorphism(b)
                assert_semantics_match_node_walk(b, set(names) | {"z"})

    def test_graft_duplicates_join_their_originals_classes(self):
        rng = random.Random(96)
        for _ in range(40):
            d, names = random_and_obdd(rng, [f"x{i}" for i in range(6)])
            b = D.DiagramBuilder()
            first = D.copy_nodes(b, d, d.source)
            second = D.copy_nodes(b, d, d.source)
            twice = b.finalize(b.decision("y", first[d.source], second[d.source]))
            assert twice.merged_size == d.merged_size + 1
            for i in range(d.size):
                assert twice.iso_class(first[i]) == twice.iso_class(second[i])
                for j in range(d.size):
                    assert ((twice.iso_class(first[i]) == twice.iso_class(first[j]))
                            == (d.iso_class(i) == d.iso_class(j)))
            for b in (twice, renumbered(twice, rng)):
                assert_classes_are_isomorphism(b)
            universe = set(names) | {"y"}
            topo = toposort_by_nodes(twice.nodes)
            assert D.count_models(twice, universe) == count_models_by_nodes(
                twice.nodes, twice.source, topo, vars_below_by_nodes(twice.nodes, topo),
                universe)
            assert_semantics_match_node_walk(twice, universe)

    def test_compiled_diagrams(self):
        from ddlab.compile import grid_junction_diagram, psi_layer_obdd
        for b in (grid_junction_diagram(2), grid_junction_diagram(3), psi_layer_obdd(2)):
            assert_classes_are_isomorphism(b)

    def test_merged_sizes_pinned(self, vc5_tree):
        from ddlab.compile import grid_junction_diagram, psi_layer_obdd
        assert vc5_tree.merged_size == 317
        assert [grid_junction_diagram(n).merged_size for n in (2, 3, 4, 5, 6, 8)] == [
            12, 27, 53, 87, 129, 237]
        assert [psi_layer_obdd(n).merged_size for n in (2, 3, 4, 6)] == [31, 102, 218, 566]
