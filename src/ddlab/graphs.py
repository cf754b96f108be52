"""Graphs, grids, doubling, crossing matchings, width search, and
decompositions.

The width machinery is exhaustive by construction: crossing widths are
maximized per prefix cut (a maximum matching for the plain mode, a maximum
independent set in the edge-conflict graph for the induced mode), and order
minima run either over all orders via a subset DP or over seeded samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import config
from .assignments import LinearOrder, check_order
from .errors import DecompositionError, FormatError, PreconditionError, ScopeError, SoundnessError


def edge(a, b):
    if a == b:
        raise ValueError(f"self-loop at {a!r}")
    return frozenset((a, b))


class Graph:
    """An immutable undirected graph over named vertices."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices, edges=()):
        self.vertices = frozenset(vertices)
        es = set()
        for e in edges:
            e = frozenset(e)
            if len(e) != 2:
                raise ValueError(f"edge {sorted(e)} is not a vertex pair")
            if not e <= self.vertices:
                raise ValueError(f"edge {sorted(e)} uses undeclared vertices")
            es.add(e)
        self.edges = frozenset(es)
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def isolated(self):
        return frozenset(v for v, ns in self._adj.items() if not ns)

    def subgraph_of_edges(self, edges):
        """Same vertex set, restricted edge set."""
        return Graph(self.vertices, edges)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(<{len(self.vertices)} vertices, {len(self.edges)} edges>)"


@dataclass(frozen=True)
class Matching:
    """Disjoint edges; the sides of a crossing are read off its cut."""

    edges: frozenset

    def __post_init__(self):
        if not is_matching(self.edges):
            raise ValueError("matching edges share a vertex")

    def __len__(self):
        return len(self.edges)

    def sorted_edges(self):
        return sorted(tuple(sorted(e)) for e in self.edges)


@dataclass(frozen=True)
class Decomposition:
    """Bags over a tree of bag ids; width is the largest bag minus one."""

    bags: dict
    tree: frozenset

    def __post_init__(self):
        object.__setattr__(self, "bags", {k: frozenset(v) for k, v in self.bags.items()})
        edges = set()
        for e in self.tree:
            e = frozenset(e)
            if len(e) != 2 or not e <= set(self.bags):
                raise ValueError(f"bad tree edge {sorted(e)}")
            edges.add(e)
        object.__setattr__(self, "tree", frozenset(edges))

    @property
    def width(self):
        return max((len(b) for b in self.bags.values()), default=0) - 1

    def is_path(self):
        tree = Graph(self.bags, self.tree)
        return all(tree.degree(b) <= 2 for b in tree.vertices) and _connected(tree)


def _connected(g):
    """Whether ``g`` is connected; a graph with no vertex is."""
    seen = set()
    stack = list(g.vertices)[:1]  # connectivity does not depend on the start
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(g.neighbors(v) - seen)
    return len(seen) == len(g.vertices)


# ---------------------------------------------------------------------------
# grids and doubling


def grid_name(i, j):
    return f"({i},{j})"


@dataclass(frozen=True)
class GridGraph:
    graph: Graph
    hor: frozenset
    vert: frozenset


def grid(n):
    """The n-by-n grid with its horizontal/vertical edge partition."""
    if n < 1:
        raise ValueError("grid size must be positive")
    vertices = {grid_name(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    hor = {edge(grid_name(i, j), grid_name(i, j + 1))
           for i in range(1, n + 1) for j in range(1, n)}
    vert = {edge(grid_name(i, j), grid_name(i + 1, j))
            for i in range(1, n) for j in range(1, n + 1)}
    return GridGraph(Graph(vertices, hor | vert), frozenset(hor), frozenset(vert))


def grid_order(n, orientation="hor"):
    """Dictionary vertex order: row by row (``hor``) or column by column
    (``vert``)."""
    if orientation == "hor":
        return LinearOrder(grid_name(i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    if orientation == "vert":
        return LinearOrder(grid_name(i, j) for j in range(1, n + 1) for i in range(1, n + 1))
    raise FormatError(f"unknown orientation {orientation!r}")


def tag(v, copy):
    return f"{v}#{copy}"


def untag(name):
    base, sep, copy = name.rpartition("#")
    if not sep or copy not in ("1", "2"):
        raise ScopeError(f"{name!r} carries no copy tag")
    return base, int(copy)


def double(g):
    """Two tagged copies of every vertex; each edge becomes its two
    cross-copy versions."""
    bad = g.isolated()
    if bad:
        raise PreconditionError(f"isolated vertices {sorted(bad)} admit no doubling")
    vertices = {tag(v, 1) for v in g.vertices} | {tag(v, 2) for v in g.vertices}
    return Graph(vertices, lift_edges(g.edges))


def lift_edges(edges):
    """Doubled versions of a plain edge set."""
    out = set()
    for e in edges:
        u, v = sorted(e)
        out.add(edge(tag(u, 1), tag(v, 2)))
        out.add(edge(tag(v, 1), tag(u, 2)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# matchings crossing orders


def is_matching(edges):
    seen = set()
    for e in edges:
        if seen & e:
            return False
        seen.update(e)
    return True


def is_induced_matching(g, edges):
    """No edge of g joins matched vertices apart from the matching itself.
    ``edges`` is read once, so a generator gives the verdict of its list."""
    edges = tuple(edges)  # a repeated edge still fails is_matching
    if not is_matching(edges):
        return False
    edge_set = frozenset(edges)
    matched = frozenset().union(*edge_set)
    return all(e in edge_set for e in g.edges if e <= matched)


# the (in prefix, copy tag) pairs of the ends of a neat crossing: all
# prefix ends carry one copy tag and all suffix ends the other
_NEAT = ({(True, 1), (False, 2)}, {(True, 2), (False, 1)})


def neatly_crosses(order, edges):
    """First cut witnessing a neat crossing, or None."""
    for k in range(1, len(order)):
        prefix = order.prefix(k)
        if (all(len(e & prefix) == 1 for e in edges)
                and {(v in prefix, untag(v)[1]) for e in edges for v in e} in _NEAT):
            return k
    return None


def _max_matching(g, cands, prefix):
    """Deterministic augmenting-path maximum matching among the crossing
    edges ``cands``, each with one endpoint in ``prefix``. Returns the edges.
    """
    left_of = {e: next(iter(e & prefix)) for e in cands}
    left = sorted({left_of[e] for e in cands})
    adj = {u: sorted({tuple(sorted(e)) for e in cands if left_of[e] == u}) for u in left}
    match_right = {}

    def try_augment(u, banned):
        for e in adj[u]:
            r = e[0] if e[1] == u else e[1]
            if r in banned:
                continue
            banned.add(r)
            if r not in match_right or try_augment(match_right[r][0], banned):
                match_right[r] = (u, frozenset(e))
                return True
        return False

    try:
        for u in left:
            try_augment(u, set())
    finally:
        del try_augment  # the closure refers to itself: a cycle until deleted
    return frozenset(e for _, e in match_right.values())


def _max_induced_matching(g, cands, prefix):
    """Maximum induced matching of ``g`` among the crossing edges ``cands``,
    deterministic witness: the largest set of them no two of which share a
    vertex or are joined by an edge of ``g``.

    Branch and bound over the sorted candidate list; ties prefer the
    lexicographically smaller edge tuple set.
    """
    cands = sorted(cands, key=lambda e: tuple(sorted(e)))
    conflict = {e: set() for e in cands}
    for i, e in enumerate(cands):
        ne = set(e)
        for v in e:
            ne.update(g.neighbors(v))
        for f in cands[i + 1:]:
            if f & ne:
                conflict[e].add(f)
                conflict[f].add(e)
    best = []

    def recurse(idx, chosen, alive):
        nonlocal best
        if len(chosen) + len(alive) <= len(best):
            return
        if idx == len(cands):
            if len(chosen) > len(best):
                best = list(chosen)
            return
        e = cands[idx]
        if e in alive:
            recurse(idx + 1, chosen + [e], alive - conflict[e] - {e})
        recurse(idx + 1, chosen, alive - {e})

    try:
        recurse(0, [], frozenset(cands))
    finally:
        del recurse  # the closure refers to itself: a cycle until deleted
    return frozenset(best)


def _picker(mode):
    """The function that picks the crossing matchings a width mode counts:
    induced ones for lsim, plain ones for lmm."""
    pick = {"lsim": _max_induced_matching, "lmm": _max_matching}.get(mode)
    if pick is None:
        raise FormatError(f"unknown mode {mode!r}")
    return pick


def crossing_width(g, pi, mode="lmm"):
    """Largest (induced) matching crossing the order, with a witness.

    Returns ``(size, (cut, Matching))``; each witness edge has one end in
    the cut's prefix. Exhaustive over the |V|-1 prefix cuts.
    """
    pick = _picker(mode)
    pi = check_order(pi, g.vertices, exact=True)
    best = frozenset()
    best_cut = 1
    for k in range(1, len(pi)):
        prefix = pi.prefix(k)
        m = pick(g, [e for e in g.edges if len(e & prefix) == 1], prefix)
        if len(m) > len(best):
            best, best_cut = m, k
    return len(best), (best_cut, Matching(best))


def _cut_value(g, subset, pick, cache):
    key = frozenset(subset)
    if key not in cache:
        cands = [e for e in g.edges if len(e & key) == 1]
        cache[key] = len(pick(g, cands, key))
    return cache[key]


def best_order(n, cost, combine):
    """The best order of the indices 0..n-1 (n >= 1) by a subset DP.

    Placing v after the bitmask ``placed`` costs ``cost(placed, v)``, called
    before the DP recurses into ``placed | 1 << v``; ``combine`` (``max`` or
    ``+``) folds the step costs from the last step back. Each placed set
    keeps its first strict minimum over v in increasing order. Returns
    ``(value, index tuple)``.
    """
    full = (1 << n) - 1
    memo = {}

    def best(placed):
        if placed in memo:
            return memo[placed]
        out = None
        for v in range(n):
            bit = 1 << v
            if placed & bit:
                continue
            here = cost(placed, v)
            if placed | bit == full:
                cand = here, (v,)
            else:
                rest, tail = best(placed | bit)
                cand = combine(here, rest), (v,) + tail
            if out is None or cand[0] < out[0]:
                out = cand
        memo[placed] = out
        return out

    try:
        return best(0)
    finally:
        del best  # the closure refers to itself: a cycle until deleted


def sample_order(n, count, seed, value):
    """The first order of least value among ``count`` seeded shuffles of the
    ranks 1..n (n >= 1), as ``(value, ranks)``.

    ``value(ranks, bound)`` returns the value of the order ``ranks``, a list
    of the ranks 1..n, or None once that value reaches ``bound``: the least
    value so far, None for the first order. A cut-off order has value at
    least the best, so it could never have replaced it: the search still
    returns the first order of the least value. ``shuffle`` never reads the
    values it moves, so the draws and the permutation are those of
    shuffling any n sorted items with the same seed.
    """
    if count is None or seed is None:
        raise ValueError("sampled search needs count and seed")
    if count < 1:
        raise ValueError(f"sampled search needs a count of at least 1, not {count}")
    rng = random.Random(seed)
    best = None
    for _ in range(count):
        ranks = list(range(1, n + 1))
        rng.shuffle(ranks)
        got = value(ranks, None if best is None else best[0])
        if got is not None and (best is None or got < best[0]):
            best = got, ranks
    return best


def width_min(g, mode="lsim", search="exhaustive", count=None, seed=None):
    """Minimum crossing width over vertex orders.

    ``mode`` selects induced (lsim) or plain (lmm) matchings. Exhaustive
    search runs ``best_order``, equivalent to trying every order (cut values
    depend only on the prefix set); sampled search runs ``sample_order``
    over the sorted vertices. Returns ``(width, LinearOrder)``.
    """
    pick = _picker(mode)
    if search not in ("exhaustive", "sampled"):
        raise FormatError(f"unknown search {search!r}")
    verts = sorted(g.vertices)
    n = len(verts)
    if n == 0:
        return 0, LinearOrder(())
    cache = {}
    if search == "exhaustive":
        config.check_scale(n, config.EXHAUSTIVE_ORDER_CAP, "vertices for exhaustive order search")

        def cut(placed, v):
            placed |= 1 << v
            prefix = frozenset(verts[i] for i in range(n) if placed >> i & 1)
            return _cut_value(g, prefix, pick, cache)

        width, index = best_order(n, cut, max)
        return width, LinearOrder(verts[i] for i in index)

    def width_of(ranks, bound):
        names = [verts[r - 1] for r in ranks]
        w = 0
        for k in range(1, n):
            w = max(w, _cut_value(g, frozenset(names[:k]), pick, cache))
            if bound is not None and w >= bound:
                return None
        return w

    width, ranks = sample_order(n, count, seed, width_of)
    return width, LinearOrder(verts[r - 1] for r in ranks)


# ---------------------------------------------------------------------------
# the neat-matching extraction of the doubled graph


def extract_neat(g, pi_star):
    """Find an induced matching of double(g) neatly crossing the order.

    Follows the constructive argument: read off a plain-graph order from the
    first-copy positions, take a maximum induced matching crossing it, keep
    the majority copy-side of its prefix endpoints, and lift that side back
    to the doubled graph. The result is self-checked (induced, neat crossing)
    and has at least ceil(lsimw(g)/2) edges.
    """
    dg = double(g)
    pi_star = check_order(pi_star, dg.vertices, exact=True)
    ind = {}
    for v in sorted(g.vertices):
        ind[v] = 1 if pi_star.position(tag(v, 1)) < pi_star.position(tag(v, 2)) else 2
    pi = LinearOrder(sorted(g.vertices, key=lambda v: pi_star.position(tag(v, ind[v]))))
    size, (cut, witness) = crossing_width(g, pi, mode="lsim")
    if size == 0:
        return Matching(frozenset())
    prefix = pi.prefix(cut)
    ends = [(u, w) for e in witness.edges for u in e & prefix for w in e - prefix]

    def lifted(side):
        """The witness edges whose prefix end u has ``ind[u] == side``, lifted."""
        return Matching(frozenset(edge(tag(u, side), tag(w, 3 - side))
                                  for u, w in ends if ind[u] == side))

    # more edges first, then the smaller sorted edge list, then side 1
    result = min(lifted(1), lifted(2), key=lambda m: (-len(m), m.sorted_edges()))
    if not is_induced_matching(dg, result.edges):
        raise SoundnessError("extracted matching is not induced in the doubled graph")
    if neatly_crosses(pi_star, result.edges) is None:
        raise SoundnessError("extracted matching does not neatly cross the order")
    return result


def check_edge_partition(g, e1, e2):
    """The two edge sets as frozensets, checked to partition the graph's
    edges with each set spanning the vertex set."""
    e1 = frozenset(frozenset(e) for e in e1)
    e2 = frozenset(frozenset(e) for e in e2)
    if e1 & e2 or (e1 | e2) != g.edges:
        raise PreconditionError("edge sets must partition the graph's edges")
    for name, part in (("first", e1), ("second", e2)):
        spanned = frozenset().union(*part) if part else frozenset()
        if spanned != g.vertices:
            raise PreconditionError(f"the {name} edge set does not span the vertex set")
    return e1, e2


# ---------------------------------------------------------------------------
# exact treewidth / pathwidth and decomposition checking


def _as_masks(g):
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for e in g.edges:
        a, b = sorted(e)
        adj[idx[a]] |= 1 << idx[b]
        adj[idx[b]] |= 1 << idx[a]
    return verts, adj


def _fill_neighbors(adj, v, eliminated):
    """Neighbors of v in the graph with `eliminated` contracted away."""
    seen = 1 << v
    frontier = adj[v]
    reach = 0
    while frontier:
        low = frontier & -frontier
        u = low.bit_length() - 1
        frontier ^= low
        if (1 << u) & seen:
            continue
        seen |= 1 << u
        if (1 << u) & eliminated:
            frontier |= adj[u] & ~seen
        else:
            reach |= 1 << u
    return reach


def treewidth_exact(g):
    """Exact treewidth by elimination-order search over ``best_order``."""
    return exact_elimination_order(g)[0]


def exact_elimination_order(g):
    """Treewidth together with an optimal elimination order."""
    config.check_scale(len(g.vertices), config.TREEWIDTH_CAP, "vertices")
    verts, adj = _as_masks(g)
    if not verts:
        return -1, ()

    def degree(eliminated, v):
        return _fill_neighbors(adj, v, eliminated).bit_count()

    width, index = best_order(len(verts), degree, max)
    return width, tuple(verts[v] for v in index)


def pathwidth_exact(g):
    """Exact pathwidth: the vertex separation number over ``best_order``."""
    n = len(g.vertices)
    config.check_scale(n, config.TREEWIDTH_CAP, "vertices")
    if n == 0:
        return -1
    _, adj = _as_masks(g)

    def boundary(placed, v):
        placed |= 1 << v
        return sum(1 for u in range(n) if placed >> u & 1 and adj[u] & ~placed)

    return best_order(n, boundary, max)[0]


def decomposition_from_elimination(g, order):
    """Tree decomposition induced by an elimination order (fill-in bags)."""
    order = check_order(order, g.vertices, exact=True)
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    bags = {}
    for v in order:
        later = {u for u in adj[v] if pos[u] > pos[v]}
        bags[f"b{pos[v]}"] = frozenset(later | {v})
        for a in later:
            for b in later:
                if a != b:
                    adj[a].add(b)
    tree = set()
    roots = []
    for v in order:
        later = sorted(bags[f"b{pos[v]}"] - {v}, key=pos.get)
        if later:
            tree.add(frozenset((f"b{pos[v]}", f"b{pos[later[0]]}")))
        else:
            roots.append(f"b{pos[v]}")
    # a disconnected graph yields a forest; chain the component roots
    for a, b in zip(roots, roots[1:]):
        tree.add(frozenset((a, b)))
    return Decomposition(bags, tree)


def validate_decomposition(g, d):
    """Check containment and connectivity; returns the width or raises."""
    ids = set(d.bags)
    if not ids:
        raise DecompositionError("tree", None, "no bags")
    if len(d.tree) != len(ids) - 1 or not _connected(Graph(ids, d.tree)):
        raise DecompositionError("tree", None, "bag graph is not a tree")
    for bid, bag in d.bags.items():
        foreign = bag - g.vertices
        if foreign:
            raise DecompositionError("containment", sorted(foreign)[0],
                                     f"bag {bid} mentions unknown vertex {sorted(foreign)[0]!r}")
    covered = frozenset().union(*d.bags.values()) if d.bags else frozenset()
    missing = g.vertices - covered
    if missing:
        raise DecompositionError("containment", sorted(missing)[0],
                                 f"vertex {sorted(missing)[0]!r} appears in no bag")
    for e in sorted(g.edges, key=sorted):
        if not any(e <= bag for bag in d.bags.values()):
            raise DecompositionError("containment", tuple(sorted(e)),
                                     f"edge {sorted(e)} inside no bag")
    for v in sorted(g.vertices):
        holding = {b for b, bag in d.bags.items() if v in bag}
        if not _connected(Graph(holding, (e for e in d.tree if e <= holding))):
            raise DecompositionError("connectivity", v,
                                     f"bags holding {v!r} are disconnected")
    return d.width


# ---------------------------------------------------------------------------
# file formats: readers parse text and writers return it; the files a verb
# names are read and written by ``verbs.Paths``


def records(text):
    """``(line, words)`` for each line of ``text`` that is neither blank nor a
    ``#`` comment: the one line loop of the line-based file formats."""
    for line in text.splitlines():
        words = line.split()
        if words and not words[0].startswith("#"):
            yield line, words


def write_graph(g):
    lines = [f"v {v}" for v in sorted(g.vertices)]
    lines += [f"e {a} {b}" for a, b in sorted(tuple(sorted(e)) for e in g.edges)]
    return "\n".join(lines) + "\n"


def read_graph(text):
    vertices = set()
    edges = set()
    for raw, parts in records(text):
        if parts[0] == "v" and len(parts) == 2:
            vertices.add(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            edges.add(frozenset(parts[1:]))
        else:
            raise FormatError(f"bad graph line {raw!r}")
    try:
        return Graph(vertices, edges)
    except ValueError as err:
        raise FormatError(str(err)) from err


def write_order(order):
    return "".join(f"{n}\n" for n in order)


def read_order(text):
    return LinearOrder(line.strip() for line, _ in records(text))


def write_decomposition(d):
    lines = []
    for bid in sorted(d.bags):
        members = " ".join(sorted(d.bags[bid]))
        lines.append(f"B {bid} {members}".rstrip())
    lines += [f"T {a} {b}" for a, b in sorted(tuple(sorted(e)) for e in d.tree)]
    return "\n".join(lines) + "\n"


def read_decomposition(text):
    bags = {}
    tree = set()
    for raw, parts in records(text):
        if parts[0] == "B" and len(parts) >= 2:
            if parts[1] in bags:
                raise FormatError(f"bag {parts[1]!r} is given twice")
            bags[parts[1]] = frozenset(parts[2:])
        elif parts[0] == "T" and len(parts) == 3:
            tree.add(frozenset(parts[1:]))
        else:
            raise FormatError(f"bad decomposition line {raw!r}")
    try:
        return Decomposition(bags, tree)
    except ValueError as err:
        raise FormatError(str(err)) from err
