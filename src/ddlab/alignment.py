"""Alignment of a diagram by an assignment, frontiers, and the model-set
decomposition they induce.

Aligning by g drops every decision out-edge that contradicts g and prunes
what the source can no longer reach. Decision nodes left with a single
out-edge are incomplete; walking from the source through incomplete decision
nodes only (conjunctions pass through) reaches the frontier: the minimal
complete decision nodes L(g). For an ordered diagram and a prefix
assignment, the restricted model set factors exactly into a cube over the
free variables and the product of the frontier subdiagrams' model sets; the
checker here verifies that equation by brute force on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import config
from .assignments import cube, product_all, restrict_set
from .diagrams import (AND, DECISION, DiagramBuilder, copy_nodes, satisfying_set, truth_table,
                       validate)
from .errors import EssentialityError, PreconditionError, SoundnessError
from .kernels import pattern


@dataclass(frozen=True)
class AlignedDiagram:
    """The subgraph surviving alignment; the base diagram is untouched."""

    kept_nodes: frozenset
    kept_edges: frozenset  # (parent, slot, child) with slot in lo/hi/left/right
    incomplete: frozenset  # kept decision nodes with a single out-edge


def align(b, g):
    """Alignment of the diagram by an assignment (any assignment; prefix-ness
    matters only to the lemma checkers downstream). Only the nodes the source
    reaches along edges consistent with g are visited; a kept decision node
    whose variable g sets keeps one out-edge and is incomplete."""
    kind, var, lo, hi = b.kind, b.var, b.lo, b.hi
    keep = set()
    kept_edges = []
    incomplete = []
    stack = [b.source]
    while stack:
        i = stack.pop()
        if i in keep:
            continue
        keep.add(i)
        k = kind[i]
        if k == DECISION:
            bit = g.get(var[i])
            if bit is None:
                out = (("hi", hi[i]), ("lo", lo[i]))
            else:
                incomplete.append(i)
                out = (("hi", hi[i]),) if bit else (("lo", lo[i]),)
        elif k == AND:
            out = (("left", lo[i]), ("right", hi[i]))
        else:
            continue
        for slot, child in out:
            kept_edges.append((i, slot, child))
            stack.append(child)
    return AlignedDiagram(frozenset(keep), frozenset(kept_edges), frozenset(incomplete))


@dataclass(frozen=True)
class Frontier:
    """L(g), the incomplete-path tree T(g) as parent links, and the free set X(g)."""

    l_nodes: frozenset
    tree_parent: dict
    free_vars: frozenset

    def tree_pairs(self):
        return sorted((child, parent) for child, parent in self.tree_parent.items()
                      if parent is not None)


def frontier(b, pi, g):
    """Compute the frontier of an ordered diagram under a prefix assignment.

    The walk from the source passes through conjunctions and incomplete
    decision nodes (those whose variable g binds, keeping only the child g
    chooses) and stops at complete decision nodes, which form L(g), and at
    sinks; nothing else of the aligned diagram is built.

    Asserts the structural facts the construction is entitled to: the
    subdiagrams hanging off L(g) are complete and pairwise variable-disjoint,
    and the union of incomplete paths is a tree. Their failure indicates an
    invalid input diagram and raises a soundness error.
    """
    names = pi if isinstance(pi, tuple) else tuple(pi)
    validate(b, names)
    bound = g.vars
    _require_prefix(bound, names)
    kind, var, lo, hi = b.kind, b.var, b.lo, b.hi
    get = g.get
    l_nodes = []
    parents = {}  # each taken edge once: child -> the walk parents it was reached from
    stack = [b.source]
    while stack:  # a node is pushed when first reached, so popped once
        i = stack.pop()
        k = kind[i]
        if k == DECISION:
            bit = get(var[i])
            if bit is None:
                l_nodes.append(i)
                continue
            children = (hi[i] if bit else lo[i],)
        elif k == AND:  # both sides one node: one taken edge
            children = (lo[i], hi[i]) if lo[i] != hi[i] else (lo[i],)
        else:
            continue
        for child in children:
            if child in parents:
                parents[child].append(i)
            else:
                parents[child] = [i]
                stack.append(child)
    # T(g): the part of the walk on paths that end at frontier nodes. Paths
    # ending at sinks are discarded; those may legally remeet at a shared
    # sink, the L-bound union may not. Going up from each frontier node, every
    # node met but the source must have one walk parent; then the nodes met
    # are all those on such paths, and T(g) is a tree.
    tree_parent = {b.source: None} if l_nodes else {}
    for child in l_nodes:
        while child not in tree_parent:
            walk_parents = parents[child]
            if len(walk_parents) > 1:
                raise SoundnessError(f"incomplete paths remeet at node "
                                     f"{_first_remeet(l_nodes, parents)}; T(g) is not a tree")
            tree_parent[child] = walk_parents[0]
            child = walk_parents[0]
    # completeness below the frontier (first statement of the path lemma): on
    # any path below u the first node testing a g variable is reached through
    # complete nodes, so the aligned walk below u meets an incomplete node
    # exactly when u's subdiagram tests a variable of g
    l_nodes.sort()
    below = [b.vars_below(u) for u in l_nodes]
    for u, tested in zip(l_nodes, below):
        if tested & bound:
            sub, ids = subdiagram(b, u)
            old = {new: i for i, new in ids.items()}  # decision nodes are copied one to one
            raise SoundnessError(
                f"incomplete decision node {min(old[i] for i in align(sub, g).incomplete)} "
                f"below frontier node {u}")
    covered = frozenset().union(*below)
    if len(covered) != sum(map(len, below)):  # two frontier subdiagrams share a variable
        for x, u in enumerate(l_nodes):
            for y in range(x + 1, len(l_nodes)):
                shared = below[x] & below[y]
                if shared:
                    raise SoundnessError(
                        f"frontier subdiagrams {u} and {l_nodes[y]} share variables "
                        f"{sorted(shared)}")
    return Frontier(frozenset(l_nodes), tree_parent, b.vars - bound - covered)


def _first_remeet(l_nodes, parents):
    """The node where incomplete paths to the frontier remeet that a scan of
    the taken edges in sorted order finds twice first: of the nodes reached
    backwards from ``l_nodes`` with two or more walk parents, the least by
    (second-smallest walk parent, node)."""
    reaches = set(l_nodes)
    stack = list(l_nodes)
    remeets = []
    while stack:
        child = stack.pop()
        walk_parents = parents.get(child, ())
        if len(walk_parents) > 1:
            remeets.append((sorted(walk_parents)[1], child))
        for parent_id in walk_parents:
            if parent_id not in reaches:
                reaches.add(parent_id)
                stack.append(parent_id)
    return min(remeets)[1]


def _require_prefix(bound, names):
    """``bound``, an assignment's variables, must be a prefix of ``names``."""
    k = len(bound)
    if set(names[:k]) != bound:
        raise PreconditionError(
            f"assignment variables {sorted(bound)} are not the length-{k} prefix of the order")


def subdiagram(b, root):
    """The diagram rooted at a node, renumbered densely, and the old-id to
    new-id correspondence."""
    builder = DiagramBuilder()
    remap = copy_nodes(builder, b, root)
    return builder.finalize(remap[root]), remap


def check_model_decomposition(b, pi, g):
    """Brute-force both sides of the restricted-model factorization.

    Left: the diagram's satisfying set restricted by g. Right: the cube over
    the free variables times the product of the frontier subdiagrams'
    satisfying sets. Exact set equality decides.
    """
    config.check_scale(len(b.vars), config.BRUTE_FORCE_VAR_CAP, "variables")
    fr = frontier(b, pi, g)
    left = restrict_set(satisfying_set(b), g)
    if not left.elements:
        raise PreconditionError("restricted model set is empty")
    factors = [cube(fr.free_vars)]
    for u in sorted(fr.l_nodes):
        factors.append(satisfying_set(subdiagram(b, u)[0]))
    right = product_all(factors)
    return left == right


def restrict_diagram(b, x, i, check_essential=True):
    """Fix one variable by edge surgery: drop the refuted branch of every
    x-node, contract the confirmed branch, prune.

    The clean function equality f(B') = f(B)|x=i needs every variable of the
    restricted function to be essential; that is checked by brute force
    unless the caller explicitly waives it (``check_essential=False``), in
    which case only the weaker cube-factoring claim holds.
    """
    i = int(i)
    if check_essential:
        _check_essentials(b, x, i)
    if x not in b.vars:
        return b
    confirmed = b.hi if i else b.lo
    redirect = {u: confirmed[u] for u, k in enumerate(b.kind)
                if k == DECISION and b.var[u] == x}
    builder = DiagramBuilder()
    return builder.finalize(copy_nodes(builder, b, b.source, redirect)[b.source])


def _check_essentials(b, x, i):
    config.check_scale(len(b.vars), config.BRUTE_FORCE_VAR_CAP, "variables",
                       "; pass check_essential=False to waive")
    rest = sorted(b.vars - {x})
    if x in b.vars:
        order = [x] + rest
        table = truth_table(b, order)
        half = 1 << len(rest)
        table = (table >> half) if i else (table & ((1 << half) - 1))
    else:
        table = truth_table(b, rest)
        half = 1 << len(rest)
    n = len(rest)
    full = (1 << (1 << n)) - 1
    for p, y in enumerate(rest):
        pat = pattern(n, p)
        width = 1 << (n - 1 - p)
        hi = table & pat
        lo = table & (full ^ pat)
        if (hi >> width) == lo:
            raise EssentialityError(y)
