import itertools
import random

import pytest

from ddlab import cnf as C
from ddlab.assignments import Assignment, AssignmentSet, cube, product, restrict_set
from ddlab.errors import FormatError, ScaleError, ScopeError
from ddlab.graphs import treewidth_exact

from conftest import random_cnf


def phi_example():
    # (x1 v x2) & (x2 v -x3 v -x4)
    return C.Cnf([[("x1", 1), ("x2", 1)], [("x2", 1), ("x3", 0), ("x4", 0)]])


class TestConstruction:
    def test_vars_are_union(self):
        phi = phi_example()
        assert phi.vars == {"x1", "x2", "x3", "x4"}

    def test_duplicate_clauses_collapse(self):
        phi = C.Cnf([[("x", 1), ("y", 1)], [("y", 1), ("x", 1)]])
        assert len(phi) == 1

    def test_tautological_clause_rejected(self):
        with pytest.raises(ValueError):
            C.Cnf([[("x", 1), ("x", 0)]])

    def test_empty_clause_is_legal(self):
        assert len(C.Cnf([[]])) == 1

    @pytest.mark.parametrize("sign", [1.7, 0.9, 1.0, 2, -1, "1", None])
    def test_sign_must_be_an_int_zero_or_one(self, sign):
        with pytest.raises(ValueError):
            C.literal("x", sign)
        with pytest.raises(ValueError):
            C.clause([("x", sign)])
        with pytest.raises(ValueError):
            C.Cnf([[("y", 1), ("x", sign)]])

    def test_bool_sign_is_the_int(self):
        assert C.literal("x", True) == ("x", 1)
        assert C.clause([("x", False)]) == frozenset({("x", 0)})
        assert type(next(iter(C.clause([("x", True)])))[1]) is int


class TestEvaluate:
    def test_example_all_ones(self):
        a = Assignment({v: 1 for v in "x1 x2 x3 x4".split()})
        assert C.evaluate(phi_example(), a) == 1

    def test_vacuous_and_contradictory(self):
        a = Assignment({"x": 1})
        assert C.evaluate(C.Cnf([]), a) == 1
        assert C.evaluate(C.Cnf([[]]), a) == 0

    def test_partial_assignment_rejected(self):
        with pytest.raises(ScopeError):
            C.evaluate(phi_example(), Assignment({"x1": 1}))


class TestModels:
    def test_single_edge_three_models(self):
        phi = C.Cnf([[("u", 1), ("v", 1)]])
        assert len(C.models(phi, {"u", "v"})) == 3

    def test_p3_five_models(self):
        phi = C.Cnf([[("x1", 1), ("x2", 1)], [("x2", 1), ("x3", 1)]])
        got = C.models(phi, phi.vars)
        assert len(got) == 5
        # cross-check against direct evaluation over the cube
        expect = AssignmentSet(a for a in cube(phi.vars) if C.evaluate(phi, a))
        assert got == expect

    def test_universe_lifts(self):
        phi = C.Cnf([[("u", 1)]])
        assert len(C.models(phi, {"u", "z"})) == 2

    def test_cap(self):
        with pytest.raises(ScaleError):
            C.models(C.Cnf([]), {f"v{i}" for i in range(25)})
        with pytest.raises(ScopeError):
            C.models(phi_example(), {"x1"})

    def test_truth_table_order_names_each_variable_once(self):
        phi = C.Cnf([[("a", 1)]])
        assert C.truth_table(phi, ["a", "z"]) == 0b1100
        with pytest.raises(ScopeError, match="repeats"):
            C.truth_table(phi, ["a", "a"])
        with pytest.raises(ScopeError, match="misses"):
            C.truth_table(phi, ["b"])


class TestReduce:
    def test_satisfied_clause_dropped(self):
        phi = C.Cnf([[("x", 1), ("y", 1)]])
        assert C.reduce(phi, Assignment({"x": 1})) == C.Cnf([])

    def test_occurrence_deleted(self):
        phi = C.Cnf([[("x", 1), ("y", 1)]])
        assert C.reduce(phi, Assignment({"x": 0})) == C.Cnf([[("y", 1)]])

    def test_empty_clause_kept(self):
        phi = C.Cnf([[("x", 1)]])
        out = C.reduce(phi, Assignment({"x": 0}))
        assert frozenset() in out.clauses

    def test_p3_reduction_count(self):
        phi = C.Cnf([[("x1", 1), ("x2", 1)], [("x2", 1), ("x3", 1)]])
        out = C.reduce(phi, Assignment({"x2": 1}))
        assert out == C.Cnf([])
        # the reduction equation then lifts the model count over the cube
        assert len(product(C.models(out, out.vars), cube({"x1", "x3"}))) == 4

    def test_reduced_values_match_a_checked_build(self):
        rng = random.Random(9)
        for _ in range(60):
            phi = random_cnf(rng, rng.randint(2, 6), rng.randint(1, 8))
            chosen = rng.sample(sorted(phi.vars), rng.randint(0, len(phi.vars)))
            g = Assignment({v: rng.randint(0, 1) for v in chosen})
            out = C.reduce(phi, g)
            rebuilt = C.Cnf(out.clauses)
            assert (out, out.vars, hash(out)) == (rebuilt, rebuilt.vars, hash(rebuilt))

    def test_set_algebra_matches_the_literal_loop(self):
        """The clause-by-clause loop ``reduce`` used to run is the oracle:
        random CNFs, partial assignments that may bind variables the CNF
        lacks, and results holding empty clauses."""
        def loop_reduce(phi, g):
            out = []
            for c in phi.clauses:
                if any(g.get(n) == s for n, s in c):
                    continue
                out.append(frozenset((n, s) for n, s in c if n not in g))
            return frozenset(out)

        rng = random.Random(17)
        empties = 0
        for _ in range(300):
            phi = random_cnf(rng, rng.randint(1, 7), rng.randint(0, 9))
            names = [f"x{i}" for i in range(1, 9)]
            chosen = rng.sample(names, rng.randint(0, len(names)))
            g = Assignment({v: rng.randint(0, 1) for v in chosen})
            out = C.reduce(phi, g)
            assert out.clauses == loop_reduce(phi, g)
            assert out.vars == C.Cnf(out.clauses).vars
            empties += frozenset() in out.clauses
        assert empties > 20

    def test_reduction_equation_on_random_cnfs(self):
        rng = random.Random(5)
        for _ in range(60):
            phi = random_cnf(rng, rng.randint(2, 5), rng.randint(1, 6))
            if not phi.vars:
                continue
            chosen = rng.sample(sorted(phi.vars), rng.randint(0, len(phi.vars)))
            g = Assignment({v: rng.randint(0, 1) for v in chosen})
            left = restrict_set(C.models(phi, phi.vars), g)
            reduced = C.reduce(phi, g)
            lifted = (phi.vars - g.vars) - reduced.vars
            right = product(C.models(reduced, reduced.vars), cube(lifted))
            assert left == right


class TestGraphs:
    def test_p3_primal_is_path(self):
        phi = C.Cnf([[("x1", 1), ("x2", 1)], [("x2", 1), ("x3", 1)]])
        primal, incidence = C.graphs_of(phi)
        assert primal.edges == {frozenset(("x1", "x2")), frozenset(("x2", "x3"))}
        clause_vertices = incidence.vertices - phi.vars
        assert all(incidence.degree(cv) == 2 for cv in clause_vertices)

    def test_single_clause_gives_clique(self):
        phi = C.Cnf([[("a", 1), ("b", 0), ("c", 1)]])
        primal, _ = C.graphs_of(phi)
        assert len(primal.edges) == 3

    def test_incidence_leq_primal_treewidth_on_pairwise_binary_cnfs(self):
        # the inequality's regime: one binary clause per distinct variable
        # pair (the incidence graph is then the subdivided primal graph)
        rng = random.Random(3)
        done = 0
        for _ in range(40):
            n = rng.randint(2, 5)
            names = [f"x{i}" for i in range(n)]
            pairs = [p for p in itertools.combinations(names, 2) if rng.random() < 0.6]
            if not pairs:
                continue
            phi = C.Cnf([[(a, rng.randint(0, 1)), (b, rng.randint(0, 1))]
                         for a, b in pairs])
            primal, incidence = C.graphs_of(phi)
            if len(incidence.vertices) > 10:
                continue
            assert treewidth_exact(incidence) <= treewidth_exact(primal)
            done += 1
        assert done >= 15

    def test_incidence_primal_gap_boundary(self):
        # outside that regime the inequality genuinely fails; the general
        # bound is one more than the primal treewidth
        phi = C.Cnf([[("a", 1), ("b", 1), ("c", 1)],
                     [("a", 0), ("b", 1), ("c", 1)],
                     [("a", 1), ("b", 0), ("c", 1)]])
        primal, incidence = C.graphs_of(phi)
        assert treewidth_exact(primal) == 2
        assert treewidth_exact(incidence) == 3
        rng = random.Random(9)
        for _ in range(25):
            phi = random_cnf(rng, rng.randint(2, 4), rng.randint(1, 4))
            if not phi.vars:
                continue
            primal, incidence = C.graphs_of(phi)
            if len(incidence.vertices) > 10:
                continue
            assert treewidth_exact(incidence) <= treewidth_exact(primal) + 1


class TestDimacs:
    def test_roundtrip_preserves_names(self):
        phi = phi_example()
        text = C.write_dimacs(phi)
        assert "p cnf 4 2" in text
        assert C.read_dimacs(text) == phi

    def test_one_line_text_and_missing_file(self, tmp_path):
        # the reader parses text only: a file's name, missing or not, is text
        assert C.read_dimacs("p cnf 0 0") == C.Cnf()
        for name in (str(tmp_path / "missing.cnf"), "c x"):
            with pytest.raises(FormatError, match="problem line"):
                C.read_dimacs(name)

    @pytest.mark.parametrize("header", ["p cnf x 1", "p cnf 1 y"])
    def test_a_non_integer_header_names_its_line(self, header):
        with pytest.raises(FormatError) as exc:
            C.read_dimacs(f"{header}\n1 0\n")
        assert str(exc.value) == f"bad problem line: {header!r}"

    def test_unnamed_indices_get_default_names(self):
        phi = C.read_dimacs("p cnf 2 1\n1 -2 0\n")
        assert phi.vars == {"x1", "x2"}

    @pytest.mark.parametrize("text", [
        "c var 1 a\nc var 2 a\np cnf 2 2\n1 0\n-2 0\n",
        "c var 1 x2\np cnf 2 2\n1 0\n-2 0\n",
        "p cnf 3 1\n1 2 0\nc var 3 x1\n",
        "c var 2 b\nc var 1 b\np cnf 2 0\n",
    ], ids=["two-names", "another-fallback", "map-after-clauses", "unused-indices"])
    def test_one_name_for_two_indices_is_rejected(self, text):
        with pytest.raises(FormatError, match="both named"):
            C.read_dimacs(text)

    def test_names_that_keep_indices_apart_are_read(self):
        # a name that looks like another index's fallback is fine while that
        # index has a name of its own or does not exist
        phi = C.read_dimacs("c var 1 x2\nc var 2 x1\np cnf 2 2\n1 0\n-2 0\n")
        assert phi == C.Cnf([[("x2", 1)], [("x1", 0)]])
        assert C.read_dimacs("c var 1 x2\np cnf 1 1\n1 0\n") == C.Cnf([[("x2", 1)]])
        assert C.read_dimacs("p cnf 1 1\n-1 0\nc var 1 a\n") == C.Cnf([[("a", 0)]])
        odd = C.Cnf([[("x2", 1), ("a", 0)], [("x10", 1)], [("x01", 0)]])
        assert C.read_dimacs(C.write_dimacs(odd)) == odd

    def test_malformed_inputs(self):
        with pytest.raises(FormatError):
            C.read_dimacs("p cnf 1 1\n1\n")  # missing terminator
        with pytest.raises(FormatError):
            C.read_dimacs("1 0\n")  # clause before header
        with pytest.raises(FormatError):
            C.read_dimacs("p cnf 1 2\n1 0\n")  # clause count mismatch
