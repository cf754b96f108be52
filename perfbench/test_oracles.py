"""Hand-computed cases for the benchmark's oracles.

    python3 -m pytest -q perfbench
"""

import oracles as O


def test_truth_table_bit_order():
    # assignment m gives the first variable the most significant bit
    assert O.truth_table([[("a", 1), ("b", 1)]], ["a", "b"]) == "0111"
    assert O.truth_table([[("a", 1)], [("b", 0)]], ["a", "b"]) == "0010"
    assert O.truth_table([[("a", 1)], [("b", 0)]], ["b", "a"]) == "0100"
    assert O.truth_table([], ["a"]) == "11"
    assert O.truth_table([[]], ["a"]) == "00"


def test_table_from_int_matches_bit_m():
    assert O.table_from_int(0b1100, 2) == "0011"
    assert O.table_from_int(1, 2) == "1000"


def test_model_counts():
    # (a or b) and (b or c): b=1 gives 4 models, b=0 forces a=c=1
    path = O.vc_clauses([("a", "b"), ("b", "c")])
    assert O.count_models(path, ["a", "b", "c"]) == 5
    # the doubled single edge has exactly two models
    psi = O.psi_clauses([("u", "v")])
    assert O.variables(psi) == ["u#1", "u#2", "v#1", "v#2"]
    assert O.count_models(psi, O.variables(psi)) == 2
    # an untested variable doubles the count
    assert O.count_models(path, ["a", "b", "c", "d"]) == 10


def test_evaluate():
    clauses = O.star_clauses([("a", "b")])  # (a or b) and (not a or not b)
    assert [O.evaluate(clauses, {"a": a, "b": b}) for a in (0, 1) for b in (0, 1)] == [0, 1, 1, 0]


def test_junction_selects_a_side():
    clauses = O.junction_clauses([[("x", 1)]], [[("y", 1)]])
    assert O.evaluate(clauses, {"jn": 1, "x": 1, "y": 0}) == 1
    assert O.evaluate(clauses, {"jn": 0, "x": 1, "y": 0}) == 0
    assert O.count_models(clauses, ["jn", "x", "y"]) == 4


def test_obdd_size_small_functions():
    assert O.obdd_size("0") == 1 and O.obdd_size("1111") == 1
    assert O.obdd_size("01") == 3  # one test, two sinks
    assert O.obdd_size("0001") == 4  # a and b
    assert O.obdd_size("0111") == 4  # a or b
    assert O.obdd_size("0110") == 5  # a xor b: one a node, two b nodes
    assert O.obdd_size("01101001") == 7  # parity of three: 1 + 2 + 2 nodes


def test_obdd_size_depends_on_order():
    # x1 y1 + x2 y2: 4 nodes interleaved, 6 with both x first (plus sinks)
    f = [[("x1", 1), ("x2", 1)], [("x1", 1), ("y2", 1)],
         [("y1", 1), ("x2", 1)], [("y1", 1), ("y2", 1)]]  # CNF of (x1 y1) or (x2 y2)
    assert O.count_models(f, ["x1", "y1", "x2", "y2"]) == 7
    assert O.obdd_size_for_order(f, ["x1", "y1", "x2", "y2"]) == 6
    assert O.obdd_size_for_order(f, ["x1", "x2", "y1", "y2"]) == 8


def test_obdd_size_skips_untested_variables():
    # a or b over (a, z, b): z is never tested
    assert O.obdd_size_for_order([[("a", 1), ("b", 1)]], ["a", "z", "b"]) == 4


def test_grid_vertex_covers():
    assert O.grid_vertex_covers(1, 1) == 2
    assert O.grid_vertex_covers(1, 3) == 5  # the 3-path
    assert O.grid_vertex_covers(2, 2) == 7  # the 4-cycle
    assert O.grid_vertex_covers(3, 3) == 63  # independent sets of the 3x3 grid
    # one orientation only: n disjoint paths
    assert O.grid_vertex_covers(3, 3, vert=False) == 5 ** 3
    assert O.grid_vertex_covers(3, 3, hor=False) == 5 ** 3
    assert O.grid_vertex_covers(2, 3, hor=False, vert=False) == 2 ** 6


def test_grid_covers_agree_with_brute_force():
    for n in (2, 3, 4):
        hor, vert = O.grid_edges(n)
        clauses = O.vc_clauses(hor + vert)
        assert O.count_models(clauses, O.variables(clauses)) == O.grid_vertex_covers(n, n)
