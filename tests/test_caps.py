"""Every brute-force oracle refuses work one past its default cap.

The caps are the constants in ``ddlab.config``; the one guard that enforces
them names the count and the cap in its message.
"""

import pytest

from conftest import chain_diagram, path_graph

from ddlab import alignment as AL
from ddlab import cnf as C
from ddlab import diagrams as D
from ddlab import graphs as G
from ddlab import lowerbound as LB
from ddlab.assignments import Assignment
from ddlab.errors import ScaleError


def units(size):
    """One positive unit clause per variable v00, v01, ..."""
    return C.Cnf([[(f"v{i:02d}", 1)] for i in range(size)])


ONE_PAST = {
    # oracle: (call one past the cap, count, cap)
    "satisfying_set": (lambda: D.satisfying_set(chain_diagram(23)), 23, 22),
    "diagrams.truth_table": (
        lambda: D.truth_table(chain_diagram(23), sorted(chain_diagram(23).vars)), 23, 22),
    "cnf.truth_table": (lambda: C.truth_table(units(23), sorted(units(23).vars)), 23, 22),
    "obdd_for_order": (lambda: LB.obdd_for_order(units(23), sorted(units(23).vars)), 23, 22),
    "cnf.models": (lambda: C.models(units(23), units(23).vars), 23, 22),
    "cnf.count_models": (lambda: C.count_models(units(23), units(23).vars), 23, 22),
    "check_model_decomposition": (
        lambda: AL.check_model_decomposition(
            chain_diagram(23), sorted(chain_diagram(23).vars), Assignment()), 23, 22),
    "restrict_diagram": (lambda: AL.restrict_diagram(chain_diagram(23), "v00", 1), 23, 22),
    "treewidth_exact": (lambda: G.treewidth_exact(path_graph(range(11))), 11, 10),
    "exact_elimination_order": (
        lambda: G.exact_elimination_order(path_graph(range(11))), 11, 10),
    "pathwidth_exact": (lambda: G.pathwidth_exact(path_graph(range(11))), 11, 10),
    "width_min": (lambda: G.width_min(path_graph(range(9))), 9, 8),
    "obdd_size": (lambda: LB.obdd_size(units(21), sorted(units(21).vars)), 21, 20),
    "min_obdd sizing": (lambda: LB.min_obdd(units(21)), 21, 20),
    "min_obdd exhaustive": (lambda: LB.min_obdd(units(11)), 11, 10),
}


@pytest.mark.parametrize("call, count, cap", ONE_PAST.values(), ids=ONE_PAST.keys())
def test_one_past_the_default_cap_raises(call, count, cap):
    with pytest.raises(ScaleError, match=rf"^{count} .* cap {cap}\b"):
        call()


def test_restriction_cap_names_the_waiver():
    with pytest.raises(ScaleError, match="pass check_essential=False to waive"):
        AL.restrict_diagram(chain_diagram(23), "v00", 1)
    assert AL.restrict_diagram(chain_diagram(23), "v00", 1, check_essential=False).size == 24
