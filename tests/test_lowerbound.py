import collections
import hashlib
import itertools
import json
import math
import random

import pytest

from ddlab import alignment as AL
from ddlab import cnf as C
from ddlab import diagrams as D
from ddlab import kernels as K
from ddlab import lowerbound as LB
from ddlab.assignments import Assignment, AssignmentSet, restrict_set, breaks
from ddlab.errors import PreconditionError, SoundnessError
from ddlab.formulas import grid_junction_formula, psi_formula, vc_formula
from ddlab.graphs import Graph, LinearOrder

from conftest import component_and_obdd, matching_graph, random_cnf


def worked_example_experiment():
    """The three-edge matching with the explicit order from the walkthrough."""
    g = matching_graph(3)
    order = LinearOrder(["u1#1", "u2#1", "u1#2", "u2#2", "w1#1", "w2#1", "u3#1",
                         "w1#2", "w2#2", "w3#2", "u3#2", "w3#1"])
    return LB.make_experiment(g, [("u1", "w1"), ("u2", "w2"), ("u3", "w3")],
                              "and-obdd", order)


class TestExperiments:
    def test_canonical_bad_order(self):
        exp = LB.make_experiment(matching_graph(3),
                                 [("u1", "w1"), ("u2", "w2"), ("u3", "w3")],
                                 "and-obdd")
        assert exp.order.names[:3] == ("u1#1", "u2#1", "u3#1")
        assert exp.prefix_len == 3

    def test_worked_example_prefix(self):
        exp = worked_example_experiment()
        assert exp.prefix_len == 7
        assert exp.prefix_vars == {"u1#1", "u2#1", "u1#2", "u2#2",
                                   "w1#1", "w2#1", "u3#1"}

    def test_non_induced_matching_rejected(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        with pytest.raises(PreconditionError):
            LB.make_experiment(g, [("a", "b"), ("c", "d")], "obdd")

    def test_w_before_u_rejected(self):
        g = matching_graph(2)
        order = LinearOrder(["w1", "u1", "u2", "w2"])
        with pytest.raises(PreconditionError):
            LB.make_experiment(g, [("u1", "w1"), ("u2", "w2")], "obdd", order)


@pytest.mark.parametrize("kind", [list, tuple, LinearOrder])
def test_make_experiment_takes_any_order(kind):
    path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    pairs = [(f"u{i}", f"w{i}") for i in (1, 2, 3)]
    for g, pairs, engine, names in [
            (path, [("a", "b")], "obdd", ["a", "b", "c"]),
            (path, [("a", "b")], "obdd", ["c", "a", "b"]),
            (matching_graph(3), pairs, "and-obdd",
             ["u3#1", "u1#1", "u2#1"] + sorted(f"{v}#{c}" for v in ("w1", "w2", "w3")
                                               for c in (1, 2))
             + ["u1#2", "u2#2", "u3#2"])]:
        exp = LB.make_experiment(g, pairs, engine, kind(names))
        assert exp == LB.make_experiment(g, pairs, engine, LinearOrder(names))
        assert exp.order == LinearOrder(names)
        assert LB.fooling_set(exp) == LB.fooling_set(
            LB.make_experiment(g, pairs, engine, LinearOrder(names)))


class TestFoolingSet:
    def test_and_obdd_counts(self):
        for q in (3, 4):
            exp = LB.make_experiment(
                matching_graph(q),
                [(f"u{i}", f"w{i}") for i in range(1, q + 1)], "and-obdd")
            assert len(LB.fooling_set(exp)) == 2 ** q - q - 2

    def test_and_obdd_worked_example_shape(self):
        exp = worked_example_experiment()
        fs = LB.fooling_set(exp)
        assert len(fs) == 3
        for g in fs:
            assert all(g[v] == 1 for v in ["u1#2", "u2#2", "w1#1", "w2#1"])
            assert sum(g[v] for v in ["u1#1", "u2#1", "u3#1"]) == 2

    def test_obdd_counts(self):
        for q in (1, 2, 3, 4):
            exp = LB.make_experiment(
                matching_graph(q),
                [(f"u{i}", f"w{i}") for i in range(1, q + 1)], "obdd")
            assert len(LB.fooling_set(exp)) == 2 ** q - 1

    @pytest.mark.parametrize("engine", ["obdd", "and-obdd"])
    def test_members_match_the_checking_constructor(self, engine):
        # each member is made from one sorted row, unchecked: it must equal the
        # assignment the checking constructor makes, in items, map and hash
        low = 2 if engine == "and-obdd" else 0
        experiments = [e for e in fooling_experiments() if e.engine == engine]
        for q in range(1, 9):
            exp = LB.make_experiment(matching_graph(q),
                                     [(f"u{i}", f"w{i}") for i in range(1, q + 1)], engine)
            if q <= low:
                with pytest.raises(PreconditionError):
                    LB.fooling_set(exp)
            else:
                experiments.append(exp)
        for exp in experiments:
            fixed = [(v, 1) for v in sorted(exp.prefix_vars - set(exp.u_vars))]
            expected = {Assignment(fixed + list(zip(exp.u_vars, bits)))
                        for bits in itertools.product((0, 1), repeat=exp.q)
                        if low <= sum(bits) < exp.q}
            got = LB.fooling_set(exp)
            assert got.elements == expected and got.universe == exp.prefix_vars
            assert got == AssignmentSet(expected)
            by_items = {a._items: a for a in expected}
            for a in got:
                b = by_items[a._items]
                assert type(a._items) is tuple and a._map == b._map and hash(a) == hash(b)

    def test_q_too_small_for_and_engine(self):
        exp_small = LB.make_experiment(matching_graph(2),
                                       [("u1", "w1"), ("u2", "w2")], "and-obdd")
        with pytest.raises(PreconditionError):
            LB.fooling_set(exp_small)


def fooling_experiments():
    """One experiment per engine whose prefix holds variables off the u side:
    q = 4 and-obdd (u1#2 and w2#1 in the prefix) and q = 2 plain (u3)."""
    pairs = [(f"u{i}", f"w{i}") for i in range(1, 5)]
    canonical = LB.make_experiment(matching_graph(4), pairs, "and-obdd").order.names
    rest = [v for v in canonical if v not in ("u1#1", "u1#2", "u2#1", "w2#1")]
    order = LinearOrder(["u1#1", "u1#2", "u2#1", "w2#1"] + rest)
    return [LB.make_experiment(matching_graph(4), pairs, "and-obdd", order),
            LB.make_experiment(matching_graph(3), pairs[:2], "obdd",
                               LinearOrder(["u1", "u3", "u2", "w1", "w2", "w3"]))]


class TestIsFooling:
    @staticmethod
    def prefix_assignment(exp, ones, changes=()):
        """The non-u prefix variables at 1 and the first ``ones`` u-side
        variables at 1, the rest at 0; ``changes`` rebinds or adds names."""
        bits = dict.fromkeys(exp.prefix_vars, 1)
        bits.update((u, int(i < ones)) for i, u in enumerate(exp.u_vars))
        bits.update(changes)
        return Assignment(bits)

    @pytest.mark.parametrize("exp", fooling_experiments(), ids=lambda e: e.engine)
    def test_accepts_the_boundary_counts(self, exp):
        low = 2 if exp.engine == "and-obdd" else 0
        assert exp.prefix_vars - set(exp.u_vars)
        for ones in range(exp.q + 1):
            expected = low <= ones <= exp.q - 1
            assert LB.is_fooling(exp, self.prefix_assignment(exp, ones)) == expected, ones
        assert len(LB.fooling_set(exp)) == sum(math.comb(exp.q, k) for k in range(low, exp.q))

    @pytest.mark.parametrize("exp", fooling_experiments(), ids=lambda e: e.engine)
    def test_rejects_wrong_variables_and_zeroed_non_u_variables(self, exp):
        ones = exp.q - 1
        good = self.prefix_assignment(exp, ones)
        assert LB.is_fooling(exp, good)
        for v in sorted(exp.prefix_vars):
            missing = Assignment((x, b) for x, b in good if x != v)
            assert not LB.is_fooling(exp, missing), v
        assert not LB.is_fooling(exp, self.prefix_assignment(exp, ones, {exp.w_vars[0]: 1}))
        for v in sorted(exp.prefix_vars - set(exp.u_vars)):
            assert not LB.is_fooling(exp, self.prefix_assignment(exp, ones, {v: 0})), v

    def test_prefix_set_is_made_once_per_experiment(self):
        exp = fooling_experiments()[0]
        assert exp.prefix_vars is exp.prefix_vars
        assert exp == LB.make_experiment(exp.graph, exp.pairs, exp.engine, exp.order)


class TestUnbreakable:
    def test_worked_example_values(self):
        exp = worked_example_experiment()
        g = Assignment({"u1#1": 0, "u2#1": 1, "u3#1": 1,
                        "u1#2": 1, "u2#2": 1, "w1#1": 1, "w2#1": 1})
        index_set, ub, extend = LB.unbreakable(exp, g)
        assert index_set == (2, 3)
        assert ub == {"w2#2", "w3#2"}
        h = extend(index_set)
        assert h["w1#2"] == 1 and h["w2#2"] == 0 and h["w3#2"] == 0
        assert h.vars == exp.formula().vars

    def test_empty_subset_falsifies_the_second_long_clause(self):
        exp = worked_example_experiment()
        g = sorted(LB.fooling_set(exp), key=lambda a: a.render())[0]
        _, _, extend = LB.unbreakable(exp, g)
        h0 = extend(())
        psi = exp.formula()
        assert C.evaluate(psi, h0) == 0
        falsified = [c for c in psi.clauses
                     if not any(h0[n] == s for n, s in c)]
        assert falsified == [frozenset((f"{v}#2", 0) for v in exp.graph.vertices)]

    def test_singletons_satisfy(self):
        exp = worked_example_experiment()
        psi = exp.formula()
        for g in LB.fooling_set(exp):
            index_set, _, extend = LB.unbreakable(exp, g)
            for i in index_set:
                assert C.evaluate(psi, extend((i,))) == 1

    def test_wrong_engine_rejected(self):
        exp = LB.make_experiment(matching_graph(3),
                                 [(f"u{i}", f"w{i}") for i in range(1, 4)], "obdd")
        with pytest.raises(PreconditionError):
            LB.unbreakable(exp, sorted(LB.fooling_set(exp), key=lambda a: a.render())[0])


class TestLocateAndCertify:
    def test_and_obdd_certificate_q3(self):
        exp = LB.make_experiment(matching_graph(3),
                                 [(f"u{i}", f"w{i}") for i in range(1, 4)], "and-obdd")
        diagram = LB.obdd_for_order(exp.formula(), exp.order)
        cert = LB.certify(diagram, exp.order, exp)
        assert cert.fooling_size == 3 == cert.bound
        assert cert.injective
        assert cert.diagram_size == diagram.size >= 3
        doc = json.loads(cert.to_json())
        assert doc["bound"] == 3 and doc["wall_clock_ms"] is None
        assert len(doc["u_map"]) == 3

    def test_obdd_certificates(self):
        for q in (3, 4):
            exp = LB.make_experiment(
                matching_graph(q),
                [(f"u{i}", f"w{i}") for i in range(1, q + 1)], "obdd")
            diagram = LB.obdd_for_order(exp.formula(), exp.order)
            cert = LB.certify(diagram, exp.order, exp)
            assert cert.bound == 2 ** q - 1
            assert diagram.size >= 2 ** q - 1

    def test_certify_conjunction_bearing_diagram(self):
        # a component-splitting trace gives a true and-decomposable ordered
        # diagram; the locator must pick the owner among its frontier nodes
        exp = LB.make_experiment(matching_graph(3),
                                 [(f"u{i}", f"w{i}") for i in range(1, 4)],
                                 "and-obdd")
        diagram = component_and_obdd(exp.formula(), exp.order)
        cls = D.validate(diagram, exp.order)
        assert cls.is_and_obdd and not cls.is_fbdd
        cert = LB.certify(diagram, exp.order, exp)
        assert cert.bound == 3 and cert.injective

    @pytest.mark.parametrize("q, engine, build, sha256", [
        (6, "obdd", LB.obdd_for_order,
         "fb02094c780e9c5450921f84e0c4219f45acde3a37a357c8bf1a3a22afe25cd6"),
        (3, "and-obdd", LB.obdd_for_order,
         "11891ea2392b700536fcc8d3e006307f98bdb5fba523ef8bdda1b38133638184"),
        (3, "and-obdd", component_and_obdd,
         "3183ac1334b67c5d1f8a3f60c45bb04db0f957c55fbad18b54f46c78da4317cf"),
    ], ids=["plain-q6", "and-q3-obdd", "and-q3-conjunctions"])
    def test_certificate_bytes_pinned(self, q, engine, build, sha256):
        # the q = 6 plain matching certificate and criterion 5's and-obdd
        # certificates, byte for byte: u_map, bound and every other field
        exp = LB.make_experiment(matching_graph(q),
                                 [(f"u{i}", f"w{i}") for i in range(1, q + 1)], engine)
        diagram = build(exp.formula(), exp.order)
        text = LB.certify(diagram, exp.order, exp).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("engine, q", [("obdd", q) for q in range(1, 7)]
                             + [("and-obdd", q) for q in range(3, 6)])
    def test_certify_validates_2f_plus_1_times(self, monkeypatch, engine, q):
        # once in certify, then once in locate and once in frontier for each
        # fooling assignment, counted on the bindings the two modules call
        exp = LB.make_experiment(matching_graph(q),
                                 [(f"u{i}", f"w{i}") for i in range(1, q + 1)], engine)
        diagram = LB.obdd_for_order(exp.formula(), exp.order)
        calls = dict.fromkeys(["lowerbound.validate", "alignment.validate",
                               "lowerbound.frontier"], 0)

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        for module, name in ((LB, "validate"), (AL, "validate"), (LB, "frontier")):
            key = f"{module.__name__.split('.')[-1]}.{name}"
            monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
        cert = LB.certify(diagram, exp.order, exp)
        f = cert.fooling_size
        assert f == len(LB.fooling_set(exp)) > 0
        assert calls["lowerbound.validate"] + calls["alignment.validate"] == 2 * f + 1
        assert calls["alignment.validate"] == calls["lowerbound.frontier"] == f

    def test_certify_renders_each_assignment_once(self, monkeypatch):
        exp = LB.make_experiment(matching_graph(4),
                                 [(f"u{i}", f"w{i}") for i in range(1, 5)], "obdd")
        diagram = LB.obdd_for_order(exp.formula(), exp.order)
        calls = []
        render = Assignment.render
        monkeypatch.setattr(Assignment, "render", lambda a: calls.append(a) or render(a))
        cert = LB.certify(diagram, exp.order, exp)
        assert len(calls) == cert.fooling_size == 15
        assert [text for text, _ in cert.u_map] == sorted(render(a) for a in set(calls))

    def test_locate_returns_owning_frontier_node(self):
        exp = worked_example_experiment()
        diagram = LB.obdd_for_order(exp.formula(), exp.order)
        for g in sorted(LB.fooling_set(exp), key=lambda a: a.render()):
            node = LB.locate(diagram, exp.order, exp, g)
            _, ub, _ = LB.unbreakable(exp, g)
            assert ub <= diagram.vars_below(node)

    def test_ill_classed_diagram_rejected(self):
        exp = LB.make_experiment(matching_graph(3),
                                 [(f"u{i}", f"w{i}") for i in range(1, 4)], "obdd")
        b = D.DiagramBuilder()
        t = b.sink(1)
        f = b.sink(0)
        left = b.decision("u1", f, t)
        right = b.decision("w1", f, t)
        bad = b.finalize(b.conj(left, right))  # has a conjunction: not an OBDD
        with pytest.raises(SoundnessError):
            LB.locate(bad, LinearOrder(sorted(bad.vars)), exp,
                      Assignment({}), check_input=False)

    def test_wrong_function_rejected(self):
        exp = LB.make_experiment(matching_graph(3),
                                 [(f"u{i}", f"w{i}") for i in range(1, 4)], "obdd")
        wrong = LB.obdd_for_order(C.Cnf([[(v, 1)] for v in exp.formula().vars]),
                                  exp.order)
        with pytest.raises(SoundnessError):
            LB.certify(wrong, exp.order, exp)

    def test_mutated_diagram_caught(self):
        # flipping one edge must trip validation, equivalence, or injectivity
        exp = LB.make_experiment(matching_graph(3),
                                 [(f"u{i}", f"w{i}") for i in range(1, 4)], "obdd")
        good = LB.obdd_for_order(exp.formula(), exp.order)
        rng = random.Random(3)
        mutated = 0
        for _ in range(12):
            lo, hi = list(good.lo), list(good.hi)
            picks = [i for i, k in enumerate(good.kind) if k == D.DECISION]
            i = rng.choice(picks)
            lo[i], hi[i] = hi[i], lo[i]  # swap the branches
            try:
                bad = D.Diagram(good.kind, good.var, lo, hi, good.source)
            except Exception:
                continue
            mutated += 1
            with pytest.raises((SoundnessError, Exception)):
                LB.certify(bad, exp.order, exp)
        assert mutated >= 5


class TestNeatcrossChecks:
    def test_restricted_models_never_break_the_unbreakable_set(self):
        exp = worked_example_experiment()
        diagram = LB.obdd_for_order(exp.formula(), exp.order)
        sats = D.satisfying_set(diagram)
        for g in LB.fooling_set(exp):
            _, ub, _ = LB.unbreakable(exp, g)
            restricted = restrict_set(sats, g)
            ok, _ = breaks(restricted, ub)
            assert not ok


def permutation_min_obdd(phi):
    """The n! oracle: every order sized on its own, the first strict minimum
    kept, which is the lexicographically first optimal order."""
    best = None
    for perm in itertools.permutations(sorted(phi.vars)):
        size = LB.obdd_size(phi, perm)
        if best is None or size < best[0]:
            best = (size, LinearOrder(perm))
    return best


def cut_kind(known, ranks, bound):
    """How the level table cut an order it decided: "exact-cut" when the
    exact node counts above a level and its |L(S)| reach the bound, "table"
    when every count is known and the size reaches it, and "bound-cut" when
    an unknown node count came first."""
    placed = internal = 0
    for v in ranks:
        if internal + known[placed << K.RANK_BITS] >= bound:
            return "exact-cut"
        nodes = known.get(placed << K.RANK_BITS | v)
        if nodes is None:
            return "bound-cut"
        internal += nodes
        placed |= 1 << (v - 1)
    return "table"


def unbounded_sampled_min_obdd(phi, count, seed):
    """The sampled search without the bound: the same shuffles, every order
    sized to the last level, the first order of the least size kept."""
    names = sorted(phi.vars)
    rng = random.Random(seed)
    best = None
    for _ in range(count):
        shuffled = list(names)
        rng.shuffle(shuffled)
        size = LB.obdd_size(phi, shuffled)
        if best is None or size < best[0]:
            best = (size, LinearOrder(shuffled))
    return best


class TestMinObdd:
    def test_subset_dp_matches_the_permutation_oracle(self):
        rng = random.Random(11)
        cases = [random_cnf(rng, rng.randint(1, 6), rng.randint(0, 8)) for _ in range(120)]
        for phi in cases + [grid_junction_formula(2)]:
            size, order = LB.min_obdd(phi)
            assert (size, order) == permutation_min_obdd(phi)
            assert LB.obdd_for_order(phi, order).size == size

    def test_constant_true(self):
        assert LB.min_obdd(C.Cnf([]), verify=True)[0] == 1

    def test_single_edge_is_order_independent(self):
        phi = vc_formula(Graph(["u", "v"], [("u", "v")]))
        assert LB.obdd_size(phi, LinearOrder(("u", "v"))) == \
            LB.obdd_size(phi, LinearOrder(("v", "u"))) == 4
        assert LB.min_obdd(phi, verify=True)[0] == 4

    def test_matching3_bad_order_lower_bound(self):
        exp = LB.make_experiment(matching_graph(3),
                                 [(f"u{i}", f"w{i}") for i in range(1, 4)], "obdd")
        assert LB.obdd_size(exp.formula(), exp.order) >= 7

    def test_sampled_deterministic(self):
        phi = psi_formula(matching_graph(2))
        a = LB.min_obdd(phi, search="sampled", count=40, seed=9)
        b = LB.min_obdd(phi, search="sampled", count=40, seed=9)
        assert a == b

    def test_sampled_matches_the_unbounded_search(self):
        rng = random.Random(17)
        cases = [random_cnf(rng, rng.randint(1, 8), rng.randint(1, 10)) for _ in range(30)]
        for phi in cases:
            for seed in range(3):
                assert LB.min_obdd(phi, search="sampled", count=40, seed=seed) == \
                    unbounded_sampled_min_obdd(phi, 40, seed)
        for q in (2, 3):
            phi = grid_junction_formula(q)
            for seed in range(4):
                assert LB.min_obdd(phi, search="sampled", count=300, seed=seed,
                                   verify=True) == unbounded_sampled_min_obdd(phi, 300, seed)

    def test_sampled_with_the_level_table_matches_the_unbounded_search(self, monkeypatch):
        # every order the level table decides gets the kernel's own answer,
        # and the corpus reaches each way an order is decided
        outcomes = collections.Counter()
        from_table, size_for_order = K.obdd_size_from_table, K.obdd_size_for_order
        sized = []

        def counted(*args):
            sized.append(args)
            return size_for_order(*args)

        def checked(n, clauses, bound, ranks, known):
            before = len(sized)
            answer = from_table(n, clauses, bound, ranks, known)
            if len(sized) > before:
                outcomes["kernel"] += 1
            else:
                assert answer == size_for_order(n, clauses, bound, ranks)
                outcomes["table" if answer is not None else cut_kind(known, ranks, bound)] += 1
            return answer

        monkeypatch.setattr(K, "obdd_size_for_order", counted)
        monkeypatch.setattr(K, "obdd_size_from_table", checked)
        rng = random.Random(23)
        searches = []
        for _ in range(30):
            phi = random_cnf(rng, rng.randint(1, 8), rng.randint(1, 12))
            n = len(phi.vars)
            searches += [(phi, 1 << n, rng.randrange(100)), (phi, 4 << n, rng.randrange(100))]
        searches.append((grid_junction_formula(2), 2000, 7))
        searches += [(grid_junction_formula(3), 2000, seed) for seed in (2, 3, 4)]
        for phi, count, seed in searches:
            assert LB.min_obdd(phi, search="sampled", count=count, seed=seed) == \
                unbounded_sampled_min_obdd(phi, count, seed)
        assert set(outcomes) == {"exact-cut", "bound-cut", "table", "kernel"}
        assert min(outcomes.values()) >= 20, outcomes

    def test_level_table_pins_the_kernel_calls(self, monkeypatch):
        calls = []
        size_for_order = K.obdd_size_for_order

        def counted(n, *args):
            calls.append(n)
            return size_for_order(n, *args)

        monkeypatch.setattr(K, "obdd_size_for_order", counted)
        phi = grid_junction_formula(3)  # 10 variables, 1,024 prefix sets
        LB.min_obdd(phi, search="sampled", count=2000, seed=1)
        assert len(calls) == 870
        # fewer orders than prefix sets: the table still decides a few
        calls.clear()
        LB.min_obdd(phi, search="sampled", count=300, seed=1)
        assert len(calls) == 263

    def test_sampled_grid3_result_pinned(self):
        # the answer of sizing all 2000 orders in full, so a change to the
        # bound, the draws or the tie rule shows here
        assert LB.min_obdd(grid_junction_formula(3), search="sampled", count=2000, seed=1) == (
            33, LinearOrder(("jn", "(2,2)", "(1,2)", "(2,1)", "(2,3)", "(3,2)", "(3,1)",
                             "(3,3)", "(1,1)", "(1,3)")))

    def test_min_never_beats_any_fixed_order(self):
        phi = vc_formula(matching_graph(2))
        best, _ = LB.min_obdd(phi)
        for perm in itertools.permutations(sorted(phi.vars)):
            assert best <= LB.obdd_size(phi, LinearOrder(perm))

    def test_reduced_size_never_beats_compiler_obdds(self):
        # the oracle is minimal per order, so compiler-built OBDDs on the
        # same order can only be at least as large
        from ddlab import compile as CP
        from ddlab.formulas import psi_formula
        from ddlab.graphs import Graph, grid
        for n in (2, 3):
            gg = grid(n)
            built = CP.psi_layer_obdd(n, "hor")
            phi = psi_formula(gg.graph.subgraph_of_edges(gg.hor))
            order = CP.psi_interleaved_order(n, "hor")
            assert LB.obdd_size(phi, order) <= built.size

    def test_construction_matches_kernel_size(self):
        rng = random.Random(13)
        from conftest import random_cnf
        for _ in range(25):
            phi = random_cnf(rng, rng.randint(1, 5), rng.randint(1, 5))
            if not phi.vars:
                continue
            names = sorted(phi.vars)
            rng.shuffle(names)
            order = LinearOrder(names)
            built = LB.obdd_for_order(phi, order)
            assert built.size == LB.obdd_size(phi, order)
            assert D.validate(built, order.names).is_obdd
