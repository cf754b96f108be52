import gc
import hashlib
import json
import random
import re
import tracemalloc
from array import array

import pytest

from ddlab import diagrams as D
from ddlab.assignments import Assignment, AssignmentSet, cube
from ddlab.errors import DiagramInvariantError, FormatError, ScaleError, ScopeError
from ddlab.graphs import LinearOrder

from conftest import assert_same_classes, chain_diagram, random_and_obdd


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
        # a sink and the decision nodes x and y on it, neither above the other
        d = D.Diagram([D.SINK, D.DECISION, D.DECISION], [None, "x", "y"], [1, 0, 0], [-1, 0, 0], 1)
        with pytest.raises(DiagramInvariantError) as exc:
            D.validate(d)
        assert exc.value.rule == "single-source"

    def test_duplicate_sinks(self):
        d = D.Diagram([D.SINK, D.SINK, D.DECISION], [None, None, "x"], [1, 1, 0], [-1, -1, 1], 2)
        with pytest.raises(DiagramInvariantError) as exc:
            D.validate(d)
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
        with pytest.raises(FormatError, match="cycle"):
            D.Diagram([D.DECISION, D.DECISION], ["x", "y"], [1, 0], [1, 0], 0)


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


def path_assignment(b, node_ids):
    """The assignment read off a directed path's decision out-edges.

    The last node contributes nothing (its out-edge is not on the path). A
    decision step whose 0- and 1-edges share the target is ambiguous and
    rejected.
    """
    node_ids = list(node_ids)
    pairs = []
    for u, v in zip(node_ids, node_ids[1:]):
        if v not in b.children(u):
            raise ValueError(f"({u},{v}) is not an edge")
        if b.kind[u] == D.DECISION:
            if b.lo[u] == b.hi[u]:
                raise ValueError(f"node {u} has parallel out-edges; bit is ambiguous")
            pairs.append((b.var[u], 1 if v == b.hi[u] else 0))
    return Assignment(pairs)


class TestPathAssignment:
    def test_single_node(self):
        d = figure_diagram()
        assert path_assignment(d, [d.source]) == Assignment()

    def test_decision_edge(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        f = b.sink(0)
        x = b.decision("x", f, t)
        d = b.finalize(x)
        assert path_assignment(d, [d.source, 0]) == Assignment({"x": 1})

    def test_conjunction_contributes_nothing(self):
        d = figure_diagram()
        # source is the top conjunction; step into the x2 decision node
        x2 = d.lo[d.source]
        path = [d.source, x2]
        assert path_assignment(d, path) == Assignment()

    def test_non_edge_rejected(self):
        d = figure_diagram()
        with pytest.raises(ValueError):
            path_assignment(d, [d.source, d.source])

    def test_parallel_edges_ambiguous(self):
        b = D.DiagramBuilder()
        t = b.sink(1)
        u = b.decision("x", t, t)
        d = b.finalize(u)
        with pytest.raises(ValueError):
            path_assignment(d, [d.source, 0])


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

    @pytest.mark.parametrize("names", ["ab", {"a": 1, "b": 2}, None],
                             ids=["string", "object", "null"])
    def test_declared_names_must_be_a_list(self, names):
        # read as an iterable, the string or the object declares exactly a and b
        doc = json.loads(D.to_json(a_and_b()))
        doc["vars"] = names
        with pytest.raises(FormatError, match="vars must be a JSON list"):
            D.from_json(json.dumps(doc))

    def test_declared_names_must_hold_the_tested_ones(self):
        doc = json.loads(D.to_json(a_and_b()))
        doc["vars"] = ["a", "c"]
        with pytest.raises(FormatError) as exc:
            D.from_json(json.dumps(doc))
        assert str(exc.value) == "declared universe misses tested vars ['b']"

    @pytest.mark.parametrize("lo, hi, bad", [(2, 0, "2"), (0, -1, "-1"), ("1", 0, "'1'")])
    def test_builder_rejects_a_child_that_does_not_exist_yet(self, lo, hi, bad):
        b = D.DiagramBuilder()
        b.sink(0)
        b.sink(1)
        with pytest.raises(ValueError) as exc:
            b.decision("x", lo, hi)
        assert str(exc.value) == f"child id {bad} does not exist yet"

    def test_boolean_source_rejected(self):
        doc = json.loads(D.to_json(a_and_b()))
        doc["source"] = True
        with pytest.raises(FormatError, match="source"):
            D.from_json(json.dumps(doc))

    def test_builder_sink_takes_a_boolean(self):
        b = D.DiagramBuilder()
        assert b.sink(True) == b.sink(1) == 0
        d = b.finalize(b.decision("x", b.sink(False), 0))
        assert (d.kind[0], d.lo[0], d.kind[1], d.lo[1]) == (D.SINK, 1, D.SINK, 0)
        assert D.from_json(D.to_json(d)) == d


def sink_over_unreachable_y():
    """A true sink as the source, and a decision node on y that nothing reaches."""
    return D.Diagram([D.SINK, D.DECISION], [None, "y"], [1, 0], [-1, 0], 0)


def to_json_by_dumps(b):
    """The document-then-``json.dumps`` writer: the oracle for the one-pass
    ``to_json``."""
    nodes = []
    for i, (k, x, a, c) in enumerate(zip(b.kind, b.var, b.lo, b.hi)):
        if k == D.DECISION:
            nodes.append({"id": i, "kind": "decision", "var": x, "lo": a, "hi": c})
        elif k == D.AND:
            nodes.append({"id": i, "kind": "and", "left": a, "right": c})
        else:
            nodes.append({"id": i, "kind": "sink", "value": a})
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
        d = sink_over_unreachable_y()
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


def to_json_one_pass(b):
    """The one-pass writer that built the whole text at once: the oracle for
    the pieces of ``json_chunks``."""
    entries = []
    for i, k, x, a, c in zip(range(len(b.kind)), b.kind, b.var, b.lo, b.hi):
        if k == D.DECISION:
            entries.append(f'    {{\n      "hi": {c},\n      "id": {i},\n'
                           f'      "kind": "decision",\n      "lo": {a},\n'
                           f'      "var": {json.dumps(x)}\n    }}')
        elif k == D.AND:
            entries.append(f'    {{\n      "id": {i},\n      "kind": "and",\n'
                           f'      "left": {a},\n      "right": {c}\n    }}')
        else:
            entries.append(f'    {{\n      "id": {i},\n      "kind": "sink",\n'
                           f'      "value": {a}\n    }}')
    names = sorted(b.declared_vars if b.declared_vars is not None else b.vars)
    if names:
        listed = "[\n" + ",\n".join(f"    {json.dumps(x)}" for x in names) + "\n  ]"
    else:
        listed = "[]"
    return ('{\n  "nodes": [\n' + ",\n".join(entries)
            + f'\n  ],\n  "source": {b.source},\n  "vars": {listed}\n}}\n')


def assert_chunks_match_one_pass(b):
    pieces = list(D.json_chunks(b))
    assert "".join(pieces) == D.to_json(b) == to_json_one_pass(b)
    per_piece = [piece.count('\n      "id": ') for piece in pieces]
    assert sum(per_piece) == b.size and max(per_piece) <= D.JSON_BLOCK


class TestJsonChunks:
    @pytest.mark.parametrize("block", [1, 3, 2048])
    @pytest.mark.parametrize("p_and", [0.0, 0.35])
    def test_random_diagrams(self, monkeypatch, block, p_and):
        monkeypatch.setattr(D, "JSON_BLOCK", block)
        rng = random.Random(95)
        for _ in range(100):
            names = [f"x{i}" for i in range(rng.randint(1, 7))]
            d, _ = random_and_obdd(rng, names, p_and=p_and)
            assert_chunks_match_one_pass(d)
            assert_chunks_match_one_pass(renumbered(d, rng))

    def test_the_writer_oracle_corpus(self):
        b = D.DiagramBuilder()
        wider = b.finalize(b.decision("x", b.sink(0), b.sink(1)), declared_vars={"w", "x"})
        b = D.DiagramBuilder()
        f, t = b.sink(0), b.sink(1)
        escaped = b.finalize(b.decision('q"uote', f, b.decision("é\u2227\\", f, t)))
        for d in (figure_diagram(), a_and_b(), wider, escaped,
                  sink_over_unreachable_y()):
            assert_chunks_match_one_pass(d)

    @pytest.mark.parametrize("value", [0, 1])
    def test_a_lone_sink(self, value):
        b = D.DiagramBuilder()
        d = b.finalize(b.sink(value))
        assert_chunks_match_one_pass(d)
        assert len(list(D.json_chunks(d))) == 3  # head, the one node, tail

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_node_counts_at_the_block_edge(self, offset):
        d = chain_diagram(D.JSON_BLOCK + offset - 2)  # two sinks below the chain
        assert d.size == D.JSON_BLOCK + offset
        assert_chunks_match_one_pass(d)
        assert len(list(D.json_chunks(d))) == (4 if offset == 1 else 3)

    def test_vc_grid5_tree(self, vc5_tree):
        assert_chunks_match_one_pass(vc5_tree)
        assert len(list(D.json_chunks(vc5_tree))) == 2 + -(-vc5_tree.size // D.JSON_BLOCK)


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
# the columnar core against passes that walk the node table by id


def toposort_by_nodes(b):
    """Kahn's algorithm on a stack over each node's children."""
    kids = [(b.lo[i], b.hi[i]) if b.kind[i] != D.SINK else () for i in range(b.size)]
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


def vars_below_by_nodes(b, topo):
    """Per node, the variables tested at or below it, children first."""
    below = [frozenset()] * b.size
    for i in topo:
        if b.kind[i] == D.DECISION:
            below[i] = below[b.lo[i]] | below[b.hi[i]] | {b.var[i]}
        elif b.kind[i] == D.AND:
            below[i] = below[b.lo[i]] | below[b.hi[i]]
    return tuple(below)


def count_models_by_nodes(b, topo, below, universe):
    """The one-pass count with each branch's free variables found by set
    difference."""
    counts = {}
    for i in topo:
        k, lo, hi = b.kind[i], b.lo[i], b.hi[i]
        if k == D.SINK:
            counts[i] = lo
        elif k == D.DECISION:
            mine = below[i] - {b.var[i]}
            lo_free = len(mine - below[lo])
            hi_free = len(mine - below[hi])
            counts[i] = (counts[lo] << lo_free) + (counts[hi] << hi_free)
        else:
            free = len(below[i] - below[lo] - below[hi])
            counts[i] = (counts[lo] * counts[hi]) << free
    return counts[b.source] << (len(universe) - len(below[b.source]))


def renumbered(b, rng):
    """The same diagram under a random relabelling of its node ids, so that
    children need not have smaller ids than their parents."""
    perm = list(range(b.size))
    rng.shuffle(perm)
    kind, var, lo, hi = [None] * b.size, [None] * b.size, [None] * b.size, [None] * b.size
    for i, (k, x, a, c) in enumerate(zip(b.kind, b.var, b.lo, b.hi)):
        j = perm[i]
        kind[j], var[j] = k, x
        lo[j], hi[j] = (perm[a], perm[c]) if k != D.SINK else (a, c)
    return D.Diagram(kind, var, lo, hi, perm[b.source], b.declared_vars)


def assert_matches_node_passes(b, universe):
    topo = toposort_by_nodes(b)
    below = vars_below_by_nodes(b, topo)
    assert b.topo() == topo
    assert tuple(map(b.vars_below, range(b.size))) == below
    assert D.count_models(b, universe) == count_models_by_nodes(b, topo, below, universe)


def assert_equal_and_hashed_alike(b):
    again = D.Diagram(list(b.kind), list(b.var), list(b.lo), list(b.hi), b.source,
                      b.declared_vars)
    assert again == b and hash(again) == hash(b)
    back = D.from_json(D.to_json(b))
    assert back == b and hash(back) == hash(b)


def vc_tree(n):
    """The shared decision diagram of the grid-n vertex-cover formula, not yet
    unfolded into its tree."""
    from ddlab.compile import decision_tree
    from ddlab.formulas import vc_formula
    from ddlab.graphs import grid
    return decision_tree(vc_formula(grid(n).graph))


@pytest.fixture(scope="module")
def vc5_tree():
    from ddlab.compile import dt_to_diagram
    return dt_to_diagram(vc_tree(5))


def replayed(b):
    """The diagram built again node by node through a DiagramBuilder."""
    builder = D.DiagramBuilder()
    for k, x, a, c in zip(b.kind, b.var, b.lo, b.hi):
        if k == D.SINK:
            builder.sink(a)
        elif k == D.DECISION:
            builder.decision(x, a, c)
        else:
            builder.conj(a, c)
    return builder.finalize(b.source, b.declared_vars)


class TestColumnarCore:
    @pytest.mark.parametrize("p_and", [0.0, 0.35])
    def test_random_diagrams(self, p_and):
        rng = random.Random(93)
        for _ in range(80):
            names = [f"x{i}" for i in range(rng.randint(1, 7))]
            d, _ = random_and_obdd(rng, names, p_and=p_and)
            universe = set(names) | {"z"}
            for b in (d, renumbered(d, rng)):
                assert_matches_node_passes(b, universe)
                assert_equal_and_hashed_alike(b)
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
        assert len(b.kind) == len(b.var) == len(b.lo) == len(b.hi) == 71186
        assert_matches_node_passes(b, b.vars)
        assert_equal_and_hashed_alike(b)

    def test_vc_grid5_tree_bytes_pinned(self, vc5_tree):
        text = D.to_json(vc5_tree)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0cdb6c28af92f787117eb8a5fda27fa4fec0361f8c7ed83bf491a19efe48368c")
        assert D.count_models(D.from_json(text)) == 55447

    def test_vc_grid5_tree_live_size_pinned(self):
        """Packed columns: the tree's 71,186 nodes take about 2.4 MB, built
        or read back from its JSON, which names each variable at every node."""
        from ddlab.compile import dt_to_diagram
        dt = vc_tree(5)

        def live_size(make, *args):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                made = make(*args)
                return made, tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        d, live = live_size(dt_to_diagram, dt)
        assert d.size == 71186 and live < 4_000_000
        back, live = live_size(D.from_json, D.to_json(d))
        assert back == d and live < 4_000_000

    def test_every_route_makes_the_same_packed_columns(self):
        from ddlab.compile import dt_to_diagram
        d = dt_to_diagram(vc_tree(4))
        columns = [list(d.kind), list(d.var), list(d.lo), list(d.hi)]
        routes = [D.Diagram(*columns, d.source), D.from_json(D.to_json(d)), replayed(d)]
        for b in [d, *routes]:
            assert (b.kind.typecode, b.lo.typecode, b.hi.typecode) == ("b", "l", "l")
            assert type(b.var) is tuple
            assert all(h == -1 for k, h in zip(b.kind, b.hi) if k == D.SINK)
        for b in routes:
            assert b == d and hash(b) == hash(d)

    def test_the_constructor_copies_its_arrays(self):
        kind, var = array("b", [D.SINK, D.SINK, D.DECISION]), [None, None, "x"]
        lo, hi = array("l", [0, 1, 0]), array("l", [-1, -1, 1])
        d = D.Diagram(kind, var, lo, hi, 2)
        assert not {id(kind), id(lo), id(hi)} & {id(d.kind), id(d.lo), id(d.hi)}
        kind[2], lo[2], hi[2], var[2] = D.AND, 1, 0, None
        assert (list(d.kind), d.var, list(d.lo), list(d.hi)) == (
            [D.SINK, D.SINK, D.DECISION], (None, None, "x"), [0, 1, 0], [-1, -1, 1])
        assert D.count_models(d) == 1

    @pytest.mark.parametrize("hi", [None, 0, -1.0])
    def test_a_sink_hi_other_than_minus_one_is_rejected(self, hi):
        with pytest.raises(FormatError, match="a sink's hi is -1"):
            D.Diagram([D.SINK, D.SINK], [None, None], [0, 1], [-1, hi], 0)

    def test_unequal_diagrams_compare_unequal(self):
        d = figure_diagram()
        lo = list(d.lo)
        lo[0], lo[1] = lo[1], lo[0]  # swap the two sinks' labels
        other = D.Diagram(d.kind, d.var, lo, d.hi, d.source)
        assert other != d and D.count_models(other) != D.count_models(d)
        b = D.DiagramBuilder()
        wider = b.finalize(D.graft(b, d), declared_vars=set(d.vars) | {"x9"})
        assert wider != d and D.to_json(wider) != D.to_json(d)


def random_copy_table(rng, rows, forward=False):
    """Given rows and copy instructions for ``Diagram``: sinks, and
    decisions and conjunctions over earlier ids, or with ``forward`` over
    any id a few rows on, and copies of earlier spans, from row 0 or 1 too."""
    kind, var, lo, hi, copies = [], [], [], [], []
    size = 0  # rows of the table so far, copies included
    while size < rows:
        if size >= 2 and rng.random() < 0.3:
            a = rng.randrange(size)
            b = rng.randint(a + 1, size)
            copies.append((size, a, b))
            size += b - a
            continue
        k = D.SINK if size < 2 or rng.random() < 0.1 else rng.choice((D.DECISION, D.AND))
        reach = size + 3 if forward and rng.random() < 0.05 else size
        kind.append(k)
        var.append(f"x{rng.randrange(5)}" if k == D.DECISION else None)
        lo.append(rng.randrange(2) if k == D.SINK else rng.randrange(reach))
        hi.append(-1 if k == D.SINK else rng.randrange(reach))
        size += 1
    return kind, var, lo, hi, copies


def expanded(kind, var, lo, hi, copies):
    """The columns of the table that given rows and copy instructions make,
    built row by row."""
    given = iter(zip(kind, var, lo, hi))
    rows = []
    for at, a, b in copies:
        while len(rows) < at:
            rows.append(next(given))
        for k, x, one, two in rows[a:b]:
            if k:
                one, two = (c + at - a if c >= a else c for c in (one, two))
            rows.append((k, x, one, two))
    rows.extend(given)
    return [list(column) for column in zip(*rows)]


def frozen(kind, var, lo, hi, source, copies=()):
    """The diagram, or the message of the FormatError that rejects it."""
    try:
        return D.Diagram(kind, var, lo, hi, source, copies=copies)
    except FormatError as exc:
        return str(exc)


class TestCopies:
    """``Diagram`` with copy instructions against ``Diagram`` on the
    columns the copies expand to."""

    def test_random_children_first_tables(self):
        rng = random.Random(95)
        for _ in range(300):
            table = random_copy_table(rng, rng.randint(2, 40))
            full = expanded(*table)
            source = rng.randrange(len(full[0]))
            d = D.Diagram(*table[:4], source, copies=table[4])
            want = D.Diagram(*full, source)
            assert_same_classes(d, want)
            assert d._topo is None and want._topo is None

    def test_random_tables_with_forward_children(self):
        # ids that are not children first take the fallback: check, sort
        # and classify the expanded table, or raise as it raises
        rng = random.Random(96)
        outcomes = set()
        for _ in range(300):
            table = random_copy_table(rng, rng.randint(4, 40), forward=True)
            full = expanded(*table)
            source = len(full[0]) - 1
            d, want = frozen(*table[:4], source, table[4]), frozen(*full, source)
            if isinstance(want, str):
                assert d == want
                outcomes.add("error")
            else:
                assert_same_classes(d, want)
                assert (d._topo is None) == (want._topo is None)
                outcomes.add("id order" if want._topo is None else "sorted")
                assert d.topo() == want.topo()
        assert outcomes == {"error", "sorted", "id order"}

    def test_a_copy_after_a_forward_child(self):
        # row 2 reaches row 3; row 4 copies row 3
        kind, var = [D.SINK, D.SINK, D.DECISION, D.DECISION, D.AND], [None, None, "x", "y", None]
        lo, hi = [0, 1, 3, 0, 2], [-1, -1, 1, 1, 4]
        d = D.Diagram(kind, var, lo, hi, 5, copies=[(4, 3, 4)])
        want = D.Diagram(*expanded(kind, var, lo, hi, [(4, 3, 4)]), 5)
        assert_same_classes(d, want)
        assert d.lo[5] == 2 and d.hi[5] == 4
        assert (d.kind[4], d.var[4], d.lo[4], d.hi[4]) == (D.DECISION, "y", 0, 1)
        assert d.topo() == want.topo() and d._topo is not None

    @pytest.mark.parametrize("copies", [
        [(3, 2, 2)], [(3, 2, 1)], [(3, -1, 2)], [(3, 2, 4)], [(3, 2, 3), (3, 2, 3)],
        [(5, 2, 3)], [(3, 2.0, 3)], [(3, True, 3)], [("3", 2, 3)], [(3, 2)], [[3, 2, 3]]],
        ids=["a=b", "a>b", "a<0", "b>at", "at-below-length", "at-past-rows",
             "float", "bool", "string", "pair", "list"])
    def test_a_malformed_copy_is_named(self, copies):
        kind, var = [D.SINK, D.SINK, D.DECISION], [None, None, "x"]
        with pytest.raises(FormatError, match=re.escape(repr(copies[-1]))):
            D.Diagram(kind, var, [0, 0, 0], [-1, -1, 1], 2, copies=copies)


# ---------------------------------------------------------------------------
# isomorphism classes against pairwise comparison


def isomorphic_by_pairs(b):
    """(u, v) -> whether the subdiagrams below u and v are isomorphic: equal
    kinds and variables, equal values on sinks, and pairwise isomorphic
    children. Pairs are compared recursively, hashing no subdiagram."""
    kind, var, lo, hi = b.kind, b.var, b.lo, b.hi
    memo = {}

    def iso(u, v):
        if (u, v) not in memo:
            if kind[u] != kind[v] or var[u] != var[v]:
                memo[u, v] = False
            elif kind[u] == D.SINK:
                memo[u, v] = lo[u] == lo[v]
            else:
                memo[u, v] = iso(lo[u], lo[v]) and iso(hi[u], hi[v])
        return memo[u, v]

    return iso


def evaluate_by_nodes(b, node_id, a):
    """A diagram's value under a total assignment, by recursion from a node
    over the node table."""
    k, lo, hi = b.kind[node_id], b.lo[node_id], b.hi[node_id]
    if k == D.SINK:
        return lo
    if k == D.DECISION:
        return evaluate_by_nodes(b, hi if a[b.var[node_id]] else lo, a)
    return evaluate_by_nodes(b, lo, a) & evaluate_by_nodes(b, hi, a)


def assert_classes_are_isomorphism(b):
    iso = isomorphic_by_pairs(b)
    classes = [b.iso_class(i) for i in range(b.size)]
    for u in range(b.size):
        for v in range(b.size):
            assert (classes[u] == classes[v]) == iso(u, v)
    assert sorted(set(classes)) == list(range(b.merged_size))


def assert_semantics_match_node_walk(b, universe):
    models = AssignmentSet(a for a in cube(universe) if evaluate_by_nodes(b, b.source, a))
    assert D.satisfying_set(b, universe) == models
    assert [D.evaluate(b, a) for a in cube(universe)] == [
        evaluate_by_nodes(b, b.source, a) for a in cube(universe)]
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
            topo = toposort_by_nodes(twice)
            assert D.count_models(twice, universe) == count_models_by_nodes(
                twice, topo, vars_below_by_nodes(twice, topo), universe)
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


# ---------------------------------------------------------------------------
# the semantic passes visit the classes reachable from the source only


def with_unreachable_nodes(d, rng, names):
    """``d`` with one to three nodes no path from the source reaches, each over
    nodes already there: decisions on its variables or on w, outside them, and
    conjunctions."""
    kind, var, lo, hi = list(d.kind), list(d.var), list(d.lo), list(d.hi)
    for _ in range(rng.randint(1, 3)):
        kids = rng.randrange(len(kind)), rng.randrange(len(kind))
        if rng.random() < 0.8:
            kind.append(D.DECISION)
            var.append(rng.choice(names + ["w"]))
        else:
            kind.append(D.AND)
            var.append(None)
        lo.append(kids[0])
        hi.append(kids[1])
    return D.Diagram(kind, var, lo, hi, d.source)


class TestUnreachableNodes:
    def test_sink_source_over_an_unreachable_decision(self):
        b = sink_over_unreachable_y()
        assert b.vars == frozenset() and b.merged_size == 2
        assert D.evaluate(b, Assignment()) == 1
        assert D.truth_table(b, []) == 1
        assert D.satisfying_set(b) == AssignmentSet([Assignment()])
        assert D.accepted(b) == AssignmentSet([Assignment()])
        assert D.count_models(b) == 1 and D.count_models(b, {"x"}) == 2
        with pytest.raises(DiagramInvariantError) as exc:
            D.validate(b)
        assert exc.value.rule == "single-source"

    @pytest.mark.parametrize("p_and", [0.0, 0.35])
    def test_passes_match_the_node_walks(self, p_and):
        rng = random.Random(97)
        for _ in range(60):
            names = [f"x{i}" for i in range(rng.randint(1, 6))]
            d, _ = random_and_obdd(rng, names, p_and=p_and)
            b = with_unreachable_nodes(d, rng, names)
            universe = set(names) | {"z"}
            assert b.vars == d.vars and b.size > d.size
            topo = toposort_by_nodes(b)
            assert D.count_models(b, universe) == count_models_by_nodes(
                b, topo, vars_below_by_nodes(b, topo), universe)
            assert_semantics_match_node_walk(b, universe)
            order = sorted(universe)
            assert D.truth_table(b, order) == D.truth_table(d, order)
