"""Shared corpus graphs, decomposition helpers, and random generators."""

import itertools

import pytest

from ddlab import cnf as cnf_mod
from ddlab.assignments import Assignment
from ddlab.diagrams import DiagramBuilder, to_json
from ddlab.graphs import (Decomposition, Graph, decomposition_from_elimination,
                          exact_elimination_order, grid_order, tag)


def matching_graph(q):
    vs = [f"u{i}" for i in range(1, q + 1)] + [f"w{i}" for i in range(1, q + 1)]
    return Graph(vs, [(f"u{i}", f"w{i}") for i in range(1, q + 1)])


def path_graph(names):
    names = list(names)
    return Graph(names, list(zip(names, names[1:])))


def cycle_graph(names):
    names = list(names)
    return Graph(names, list(zip(names, names[1:])) + [(names[-1], names[0])])


@pytest.fixture(scope="session")
def single_edge():
    return Graph(["u", "v"], [("u", "v")])


@pytest.fixture(scope="session")
def p3():
    return path_graph(["x1", "x2", "x3"])


@pytest.fixture(scope="session")
def c4():
    return cycle_graph(["a", "b", "c", "d"])


@pytest.fixture(scope="session")
def c5_chord():
    # the five-cycle with one extra chord from the doubled-graph walkthrough
    g = cycle_graph([f"u{i}" for i in range(1, 6)])
    return Graph(g.vertices, set(g.edges) | {frozenset(("u1", "u3"))})


@pytest.fixture(scope="session")
def p8():
    return path_graph([f"v{i}" for i in range(1, 9)])


def exact_decomposition(g):
    """Optimal-width decomposition for graphs within the exact-treewidth cap."""
    _, order = exact_elimination_order(g)
    return decomposition_from_elimination(g, order)


def single_bag_decomposition(g):
    return Decomposition({"b0": frozenset(g.vertices)}, frozenset())


def doubled_window_decomposition(n, width=None):
    """Sliding-window path decomposition of the doubled grid: four consecutive
    row-major vertices, both copies per bag."""
    names = list(grid_order(n).names)
    span = (n + 1) if width is None else width
    bags = {}
    tree = set()
    last = max(0, len(names) - span)
    for k in range(last + 1):
        window = names[k:k + span]
        bags[f"w{k:03d}"] = frozenset(tag(v, c) for v in window for c in (1, 2))
        if k:
            tree.add(frozenset((f"w{k - 1:03d}", f"w{k:03d}")))
    return Decomposition(bags, tree)


def chain_diagram(size):
    """The conjunction of ``size`` positive literals v00, v01, ... as a
    decision chain, one node per variable."""
    builder = DiagramBuilder()
    false, node = builder.sink(0), builder.sink(1)
    for i in reversed(range(size)):
        node = builder.decision(f"v{i:02d}", false, node)
    return builder.finalize(node)


def dt_size(d):
    """The number of nodes of the tree a decision diagram unfolds to: a node
    reached along several paths counts once per path."""
    size = {}
    for i in d.topo():
        size[i] = 1 + (size[d.lo[i]] + size[d.hi[i]] if d.kind[i] else 0)
    return size[d.source]


def dt_paths(d, node=None, prefix=()):
    """Yield (path assignment, sink value) over all source-sink paths of a
    decision diagram."""
    node = d.source if node is None else node
    if not d.kind[node]:
        yield Assignment(prefix), d.lo[node]
        return
    yield from dt_paths(d, d.lo[node], prefix + ((d.var[node], 0),))
    yield from dt_paths(d, d.hi[node], prefix + ((d.var[node], 1),))


def assert_same_classes(d, want):
    """Equal columns, JSON bytes and isomorphism classes, although ``d``
    may be frozen from copy instructions and ``want`` node by node."""
    assert (d.kind, d.var, d.lo, d.hi, d.source) == (
        want.kind, want.var, want.lo, want.hi, want.source)
    assert to_json(d) == to_json(want)
    assert d._iso == want._iso and d._iso_table == want._iso_table
    assert d.merged_size == want.merged_size and d.vars == want.vars


def brute_force_vertex_covers(g):
    """Independent enumerator: subsets touching every edge."""
    verts = sorted(g.vertices)
    covers = []
    for bits in itertools.product((0, 1), repeat=len(verts)):
        chosen = {v for v, b in zip(verts, bits) if b}
        if all(e & chosen for e in g.edges):
            covers.append(dict(zip(verts, bits)))
    return covers


def random_graph(rng, size, edge_prob=0.5, no_isolated=True):
    verts = [f"n{i}" for i in range(size)]
    edges = set()
    for a, b in itertools.combinations(verts, 2):
        if rng.random() < edge_prob:
            edges.add(frozenset((a, b)))
    if no_isolated:
        missing = [v for v in verts if not any(v in e for e in edges)]
        for v in missing:
            other = rng.choice([u for u in verts if u != v])
            edges.add(frozenset((v, other)))
    return Graph(verts, edges)


def random_cnf(rng, nvars, nclauses, max_len=3):
    names = [f"x{i}" for i in range(1, nvars + 1)]
    clauses = []
    for _ in range(nclauses):
        width = rng.randint(1, min(max_len, nvars))
        chosen = rng.sample(names, width)
        clauses.append([(v, rng.randint(0, 1)) for v in chosen])
    return cnf_mod.Cnf(clauses)


def component_and_obdd(phi, order):
    """Ordered diagram with conjunction nodes from component splitting.

    Mirrors a model counter's trace under a fixed variable order: split the
    residual clause set into variable-disjoint components (a decomposable
    conjunction), otherwise decide the next order variable that still
    occurs. Returns a valid ordered and-decomposable diagram computing phi.
    """
    from ddlab.cnf import Cnf, graphs_of, reduce as cnf_reduce

    names = tuple(order.names if hasattr(order, "names") else order)
    builder = DiagramBuilder()
    memo = {}

    def components(cnf):
        remaining = set(cnf.clauses)
        out = []
        while remaining:
            seed = remaining.pop()
            comp = {seed}
            vars_in = {n for n, _ in seed}
            grew = True
            while grew:
                grew = False
                for c in list(remaining):
                    if any(n in vars_in for n, _ in c):
                        remaining.discard(c)
                        comp.add(c)
                        vars_in |= {n for n, _ in c}
                        grew = True
            out.append(Cnf(comp))
        return out

    def build(cnf, pos):
        if frozenset() in cnf.clauses:
            return builder.sink(0)
        if not cnf.clauses:
            return builder.sink(1)
        key = (cnf, pos)
        if key in memo:
            return memo[key]
        parts = components(cnf)
        if len(parts) > 1:
            acc = None
            for part in sorted(parts, key=lambda p: sorted(p.vars)):
                node = build(part, pos)
                acc = node if acc is None else builder.conj(acc, node)
            memo[key] = acc
            return acc
        at = pos
        while names[at] not in cnf.vars:
            at += 1
        x = names[at]
        lo = build(cnf_reduce(cnf, Assignment({x: 0})), at + 1)
        hi = build(cnf_reduce(cnf, Assignment({x: 1})), at + 1)
        node = lo if lo == hi else builder.decision(x, lo, hi)
        memo[key] = node
        return node

    return builder.finalize(build(phi, 0))


def random_and_obdd(rng, names, p_and=0.35, p_sink=0.15, root_kind=None):
    """A random valid ordered diagram with decomposable conjunctions obeying
    the sorted order of ``names``."""
    builder = DiagramBuilder()

    def gen(pool, force=None):
        pool = tuple(pool)
        kind = force
        if kind is None:
            if not pool or rng.random() < p_sink:
                kind = "sink"
            elif len(pool) >= 2 and rng.random() < p_and:
                kind = "and"
            else:
                kind = "decision"
        if kind == "sink" or not pool:
            return builder.sink(rng.randint(0, 1))
        if kind == "and" and len(pool) >= 2:
            cut = rng.randint(1, len(pool) - 1)
            mixed = list(pool)
            rng.shuffle(mixed)
            left = tuple(sorted(mixed[:cut]))
            right = tuple(sorted(mixed[cut:]))
            return builder.conj(gen(left), gen(right))
        x = pool[0]
        rest = pool[1:]

        def subset():
            return tuple(v for v in rest if rng.random() < 0.8)

        return builder.decision(x, gen(subset()), gen(subset()))

    names = tuple(sorted(names))
    src = gen(names, force=root_kind)
    return builder.finalize(src), names
