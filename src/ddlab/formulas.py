"""CNF families over graphs: vertex-cover clauses, the doubled two-copy
variant with its two long negative clauses, junction-guarded combinations,
and the single-long-clause star variant.

Variable naming is stable across the package: doubled copies are ``v#1`` /
``v#2`` and the junction selector is ``jn``.
"""

from __future__ import annotations

from .cnf import Cnf, clause_labels
from .errors import PreconditionError
from .graphs import Decomposition, check_edge_partition, double, edge, grid, grid_order, tag

JUNCTION = "jn"


def _no_isolated(g):
    bad = g.isolated()
    if bad:
        raise PreconditionError(f"isolated vertices {sorted(bad)}")


def vc_formula(g):
    """One positive binary clause per edge; models are the vertex covers."""
    _no_isolated(g)
    return Cnf([(v, 1) for v in sorted(e)] for e in g.edges)


def psi_formula(g):
    """Vertex-cover clauses of the doubled graph plus the two all-negative
    clauses, one per copy class."""
    _no_isolated(g)
    dg = double(g)
    clauses = [[(v, 1) for v in sorted(e)] for e in dg.edges]
    clauses.append([(tag(v, 1), 0) for v in sorted(g.vertices)])
    clauses.append([(tag(v, 2), 0) for v in sorted(g.vertices)])
    return Cnf(clauses)


def star_formula(g):
    """Vertex-cover clauses plus the single all-negative clause."""
    _no_isolated(g)
    clauses = [[(v, 1) for v in sorted(e)] for e in g.edges]
    clauses.append([(v, 0) for v in sorted(g.vertices)])
    return Cnf(clauses)


def junction_formula(g, e1, e2, kind="vc"):
    """Selector-guarded union of the two side formulas.

    The guard literal resolves under jn=1 to the first side's formula and
    under jn=0 to the second side's; guarding clause by clause keeps the
    result a CNF for either kind. The sides' clauses are well-formed and do
    not mention the selector, so the guarded clauses are not checked again.
    """
    e1, e2 = check_edge_partition(g, e1, e2)
    family = {"vc": vc_formula, "psi": psi_formula}.get(kind)
    if family is None:
        raise ValueError(f"unknown junction kind {kind!r}")
    sides = [(0, family(g.subgraph_of_edges(e1))), (1, family(g.subgraph_of_edges(e2)))]
    if any(JUNCTION in side.vars for _, side in sides):
        raise PreconditionError(
            f"the {kind} formula has a variable {JUNCTION!r}, the junction selector's name")
    return Cnf.__new__(Cnf)._fill(
        frozenset(c | {(JUNCTION, bit)} for bit, side in sides for c in side.clauses))


def grid_junction_formula(n, kind="vc"):
    gg = grid(n)
    return junction_formula(gg.graph, gg.hor, gg.vert, kind)


def psi_path_decomposition(n, orientation="hor"):
    """The hand-built width-7 path decomposition of the incidence graph of
    the doubled one-orientation grid formula.

    Bags follow the dictionary traversal: a row-start vertex contributes its
    two copies and the two long-clause vertices; every later vertex adds the
    previous vertex's copies and the two connecting edge clauses.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    traversal = grid_order(n, orientation)
    gg = grid(n)
    # the traversal's first step is an edge of the part it walks along
    part = gg.hor if edge(*traversal[:2]) in gg.hor else gg.vert
    phi = psi_formula(gg.graph.subgraph_of_edges(part))
    by_clause = {c: name for name, c in clause_labels(phi)}

    def edge_clause(a, b):
        return by_clause[frozenset([(tag(a, 1), 1), (tag(b, 2), 1)])]

    long1 = by_clause[frozenset((tag(v, 1), 0) for v in gg.graph.vertices)]
    long2 = by_clause[frozenset((tag(v, 2), 0) for v in gg.graph.vertices)]
    bags = {}
    tree = set()
    for k, v in enumerate(traversal):
        members = {tag(v, 1), tag(v, 2), long1, long2}
        if k % n != 0:
            prev = traversal[k - 1]
            members |= {tag(prev, 1), tag(prev, 2),
                        edge_clause(prev, v), edge_clause(v, prev)}
        bags[f"p{k:03d}"] = frozenset(members)
        if k:
            tree.add(frozenset((f"p{k - 1:03d}", f"p{k:03d}")))
    return Decomposition(bags, tree)
