"""Fooling-set experiments, frontier location, injectivity certificates, and
the minimal-OBDD order search.

An experiment fixes a graph, an induced matching listed as (u_i, w_i) pairs,
an engine, and a variable order whose prefix ends at the last u-side
element. The and-decomposable engine works on the doubled-graph formula with
its two long clauses and identifies u(g) through the unbreakable set; the
plain OBDD engine works on the vertex-cover formula where the frontier is a
singleton. Certificates record the verified injectivity and the implied size
bound, plus a content hash of the diagram they were checked against.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
from dataclasses import dataclass

from . import config, kernels
from .alignment import frontier
from .assignments import Assignment, AssignmentSet, LinearOrder, check_order
from .cnf import encode, evaluate as cnf_evaluate, truth_table as cnf_truth_table
from .diagrams import (DiagramBuilder, json_chunks,
                       truth_table as diagram_truth_table, validate)
from .errors import FormatError, PreconditionError, SoundnessError
from .formulas import psi_formula, vc_formula
from .graphs import best_order, double, is_induced_matching, neatly_crosses, sample_order, tag
from .version import BUILD_ID


@dataclass(frozen=True)
class FoolingExperiment:
    graph: object
    pairs: tuple  # ((u_1, w_1), ..., (u_q, w_q)) in index order
    engine: str  # "and-obdd" | "obdd"
    order: LinearOrder
    prefix_len: int
    u_vars: tuple  # the prefix-side variables carrying the fooling bits, in pair order
    w_vars: tuple  # their w-side partners, in pair order

    @property
    def q(self):
        return len(self.pairs)

    @functools.cached_property
    def prefix_vars(self):
        """The prefix's variables, made once per experiment."""
        return frozenset(self.order.names[:self.prefix_len])

    @functools.cached_property
    def fixed_vars(self):
        """The prefix's variables off the u side, which every fooling
        assignment sets to 1, made once per experiment."""
        return tuple(sorted(self.prefix_vars - set(self.u_vars)))

    def formula(self):
        if self.engine == "and-obdd":
            return psi_formula(self.graph)
        return vc_formula(self.graph)

    def describe(self):
        return {
            "engine": self.engine,
            "graph": {
                "vertices": sorted(self.graph.vertices),
                "edges": sorted(sorted(e) for e in self.graph.edges),
            },
            "matching": [list(p) for p in self.pairs],
            "order": list(self.order.names),
            "prefix_len": self.prefix_len,
        }


# per engine: the fewest ones a fooling assignment has on the u side (the
# and-obdd engine needs two ones beside its one zero)
_FEWEST_ONES = {"and-obdd": 2, "obdd": 0}


def make_experiment(graph, pairs, engine, order=None):
    """Build and verify an experiment; no order means the canonical bad one
    (all u-side variables first, everything else after, each block sorted)."""
    if engine not in _FEWEST_ONES:
        raise FormatError(f"unknown engine {engine!r}")
    pairs = tuple((u, w) for u, w in pairs)
    edges = [frozenset(p) for p in pairs]
    if not set(edges) <= graph.edges:
        raise PreconditionError("matching pairs must be edges of the graph")
    if not is_induced_matching(graph, edges):
        raise PreconditionError("the pairs must form an induced matching")
    if engine == "and-obdd":
        space = double(graph)
        u_vars = tuple(tag(u, 1) for u, _ in pairs)
        w_vars = tuple(tag(w, 2) for _, w in pairs)
    else:
        space = graph
        u_vars = tuple(u for u, _ in pairs)
        w_vars = tuple(w for _, w in pairs)
    if order is None:
        u_block = sorted(u_vars)
        order = u_block + sorted(set(space.vertices) - set(u_block))
    order = check_order(order, space.vertices, exact=True)
    prefix_len = max(map(order.position, u_vars)) + 1
    if min(map(order.position, w_vars)) < prefix_len:
        raise PreconditionError("every u-side element must precede every w-side element")
    if engine == "and-obdd":
        lifted = frozenset(map(frozenset, zip(u_vars, w_vars)))
        if not is_induced_matching(space, lifted):
            raise PreconditionError("lifted matching is not induced in the doubled graph")
        if neatly_crosses(order, lifted) is None:
            raise PreconditionError("matching does not neatly cross the order")
    return FoolingExperiment(graph, pairs, engine, order, prefix_len, u_vars, w_vars)


def fooling_set(exp):
    """All fooling assignments over the experiment's prefix: its other
    variables at 1, and from the engine's fewest ones to q - 1 ones on the
    u side."""
    fewest = _FEWEST_ONES[exp.engine]
    if exp.q <= fewest:
        raise PreconditionError(
            f"the {exp.engine} engine needs q > {fewest}: a fooling assignment "
            f"has at least {fewest} ones and one zero")
    fixed = [(v, 1) for v in exp.fixed_vars]
    return AssignmentSet(Assignment(fixed + list(zip(exp.u_vars, bits)))
                         for bits in itertools.product((0, 1), repeat=exp.q)
                         if fewest <= sum(bits) <= exp.q - 1)


def is_fooling(exp, g):
    if g.vars != exp.prefix_vars:
        return False
    if 0 in map(g.get, exp.fixed_vars):
        return False
    return _FEWEST_ONES[exp.engine] <= sum(map(g.get, exp.u_vars)) <= exp.q - 1


def unbreakable(exp, g):
    """The index set, its unbreakable w-side variables, and the extender.

    The extender builds the canonical total extension that zeroes a chosen
    subset of the unbreakable set and ones everything else; the satisfaction
    iff-condition over all subsets is asserted on the spot.
    """
    if exp.engine != "and-obdd":
        raise PreconditionError("unbreakable sets belong to the and-obdd engine")
    if not is_fooling(exp, g):
        raise PreconditionError("assignment is not fooling for this experiment")
    index_set = tuple(i for i, u in enumerate(exp.u_vars, start=1) if g[u] == 1)
    ub = frozenset(exp.w_vars[i - 1] for i in index_set)

    def extender(subset):
        subset = frozenset(subset)
        if not subset <= frozenset(index_set):
            raise PreconditionError("subset must consist of the one-indices")
        full = dict.fromkeys(exp.order, 1)
        full.update((exp.w_vars[i - 1], 0) for i in subset)
        full.update(dict(g))
        return Assignment(full.items())

    phi = exp.formula()
    for r in range(len(index_set) + 1):
        for subset in itertools.combinations(index_set, r):
            sat = cnf_evaluate(phi, extender(subset))
            if sat != (1 if subset else 0):
                raise SoundnessError(
                    f"extension for subset {subset} evaluates to {sat}")
    return index_set, ub, extender


def _check_class(b, pi, exp):
    """Validate the diagram against the order, as the class the experiment's
    engine reads."""
    cls = validate(b, pi)
    if exp.engine == "and-obdd" and not cls.is_and_obdd:
        raise SoundnessError("diagram is not an ordered and-decomposable diagram")
    if exp.engine == "obdd" and not cls.is_obdd:
        raise SoundnessError("diagram is not an OBDD")


def _check_computes(b, phi):
    if b.vars != phi.vars:
        raise SoundnessError(
            f"diagram tests {sorted(b.vars)} but the formula needs {sorted(phi.vars)}")
    order = sorted(phi.vars)
    if diagram_truth_table(b, order) != cnf_truth_table(phi, order):
        raise SoundnessError("diagram does not compute the experiment's formula")


def locate(b, pi, exp, g, check_input=True):
    """The unique frontier node owning the unbreakable set (and-obdd engine)
    or the singleton frontier node (obdd engine)."""
    _check_class(b, pi, exp)
    if check_input:
        _check_computes(b, exp.formula())
    if not is_fooling(exp, g):
        raise PreconditionError("assignment is not fooling for this experiment")
    fr = frontier(b, pi, g)
    if exp.engine == "obdd":
        if len(fr.l_nodes) != 1:
            raise SoundnessError(
                f"expected a singleton frontier, got {sorted(fr.l_nodes)}")
        return next(iter(fr.l_nodes))
    _, ub, _ = unbreakable(exp, g)
    owners = [u for u in sorted(fr.l_nodes) if ub <= b.vars_below(u)]
    if len(owners) != 1:
        raise SoundnessError(
            f"{len(owners)} frontier nodes contain the unbreakable set; expected one")
    return owners[0]


@dataclass(frozen=True)
class Certificate:
    experiment: dict
    diagram_sha256: str
    diagram_size: int
    fooling_size: int
    u_map: tuple  # ((rendered assignment, node id), ...) in assignment order
    injective: bool
    bound: int

    def to_json(self):
        doc = {
            "build": BUILD_ID,
            "experiment": self.experiment,
            "diagram_sha256": self.diagram_sha256,
            "diagram_size": self.diagram_size,
            "fooling_size": self.fooling_size,
            "u_map": [list(pair) for pair in self.u_map],
            "injective": self.injective,
            "bound": self.bound,
            "wall_clock_ms": None,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def certify(b, pi, exp):
    """Run every fooling assignment through locate and certify injectivity.

    Injectivity is a theorem for valid inputs, so a collision raises rather
    than producing a failed certificate.
    """
    _check_class(b, pi, exp)
    _check_computes(b, exp.formula())
    # each assignment rendered once: the sort key, the collision map and u_map
    fools = sorted(((g.render(), g) for g in fooling_set(exp)), key=operator.itemgetter(0))
    u_map = []
    seen = {}
    for text, g in fools:
        node = locate(b, pi, exp, g, check_input=False)
        if node in seen:
            raise SoundnessError(
                f"u(g) collision at node {node} for {seen[node]!r} and {text!r}")
        seen[node] = text
        u_map.append((text, node))
    bound = len(fools)
    if b.size < bound:
        raise SoundnessError(
            f"diagram of size {b.size} beats the certified bound {bound}")
    digest = hashlib.sha256()
    for piece in json_chunks(b):
        digest.update(piece.encode())
    return Certificate(
        experiment=exp.describe(),
        diagram_sha256=digest.hexdigest(),
        diagram_size=b.size,
        fooling_size=len(fools),
        u_map=tuple(u_map),
        injective=True,
        bound=bound,
    )


# ---------------------------------------------------------------------------
# the minimal-OBDD oracle


def obdd_size(phi, order):
    """Reduced-OBDD node count for one order, via the kernels."""
    names = check_order(order, phi.vars, exact=True)
    config.check_scale(len(names), config.OBDD_SIZING_CAP, "variables for OBDD sizing")
    return kernels.obdd_size_for_order(len(names), encode(phi, names))


def obdd_for_order(phi, order):
    """The reduced OBDD for one order, as an actual diagram.

    Hash-conses on (position, residual truth table), skipping positions the
    residual does not depend on; that is exactly the canonical reduced form,
    so its node count is minimal for the order.
    """
    names = check_order(order, phi.vars, exact=True)
    n = len(names)
    table = cnf_truth_table(phi, names)
    builder = DiagramBuilder()
    memo = {}

    def node_for(p, tt):
        width = 1 << (n - p)
        if tt == 0:
            return builder.sink(0)
        if tt == (1 << width) - 1:
            return builder.sink(1)
        half = width >> 1
        lo = tt & ((1 << half) - 1)
        hi = tt >> half
        if lo == hi:
            return node_for(p + 1, lo)
        key = (p, tt)
        if key not in memo:
            memo[key] = builder.decision(names[p], node_for(p + 1, lo), node_for(p + 1, hi))
        return memo[key]

    try:
        return builder.finalize(node_for(0, table), declared_vars=phi.vars)
    finally:
        del node_for  # the closure refers to itself: a cycle until deleted


def min_obdd(phi, search="exhaustive", count=None, seed=None, verify=False):
    """Minimal (or sampled-minimal) OBDD size with a realizing order.

    The exhaustive search is the Friedman-Supowit subset DP, ``best_order``
    summing ``_level_nodes``; of the optimal orders it returns the
    lexicographically first, the one a scan of all n! orders keeps.

    The sampled search is ``sample_order`` over the ranks of the sorted
    names. It sizes each order with the best size so far as the kernel's
    bound, so an order stops being sized once it cannot beat it. The search
    keeps one table of the level counts the kernel has made, for this call
    only, and sizes each order by ``kernels.obdd_size_from_table`` over it,
    so the kernel runs only for the orders the table cannot decide.
    """
    if search not in ("exhaustive", "sampled"):
        raise FormatError(f"unknown search {search!r}")
    names = sorted(phi.vars)
    n = len(names)
    if n == 0:
        return 1, LinearOrder(())
    config.check_scale(n, config.OBDD_SIZING_CAP, "variables for OBDD sizing")
    if search == "exhaustive":
        config.check_scale(n, config.EXHAUSTIVE_OBDD_CAP, "variables for exhaustive order search")
        cost = _level_nodes(n, cnf_truth_table(phi, names))
        size, index = best_order(n, cost, operator.add)
        order = [names[v] for v in index]
    else:
        # encode once over the ranks of the sorted names; the kernel places
        # each order's positions itself
        base = encode(phi, names)
        known = {}
        size, ranks = sample_order(n, count, seed, lambda ranks, bound:
                                   kernels.obdd_size_from_table(n, base, bound, ranks, known))
        order = [names[rank - 1] for rank in ranks]
    if verify:
        built = obdd_for_order(phi, order)
        if built.size != size:
            raise SoundnessError("searched size disagrees with the constructed OBDD")
        if diagram_truth_table(built, names) != cnf_truth_table(phi, names):
            raise SoundnessError("constructed OBDD does not compute the formula")
    return size, LinearOrder(order)


def _level_nodes(n, table):
    """The ``best_order`` step cost of the reduced OBDD of a truth table.

    Placing v after the placed set S costs one node per distinct subfunction
    left by fixing S that depends on v; the last step adds the sinks. The
    subfunctions are full-width tables, keyed by S, cofactored on v with
    ``kernels.pattern`` and widened back to full width.
    """
    last = (1 << n) - 1
    subs = {0: (table,)}

    def cost(placed, v):
        pat = kernels.pattern(n, v)
        shift = 1 << (n - 1 - v)
        nodes = 0
        below = set()
        for sub in subs[placed]:
            lo = sub & ~pat
            hi = (sub & pat) >> shift
            nodes += lo != hi
            below.add(lo | lo << shift)
            below.add(hi | hi << shift)
        placed |= 1 << v
        subs[placed] = below
        return nodes + len(below) if placed == last else nodes

    return cost
