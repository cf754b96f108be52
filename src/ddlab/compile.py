"""Upper-bound constructions: the falsifying-spine decision tree, the
decomposition-guided structured compiler, the split pipeline for CNFs with a
few long clauses, the grid junction diagram, the layered grid OBDDs, and
vtree structuredness checking.

The decomposition-guided compiler processes a rooted tree decomposition: one
memo entry per (bag, interface assignment), a decision ladder enumerating the
bag's own variables, clause checks at the unique highest bag containing the
clause, and a conjunction chain over the child subtrees. Its vtree is the
recursive split the rooted decomposition induces, so every residual CNF of
the same decomposition compiles against one fixed vtree; the split pipeline
relies on exactly that.
"""

from __future__ import annotations

from array import array

from .assignments import Assignment
from .cnf import Cnf, clause_key, graphs_of, reduce as cnf_reduce
from .diagrams import AND, DECISION, SINK, Diagram, DiagramBuilder, graft, validate
from .errors import FormatError, PreconditionError, ScopeError, SoundnessError
from .graphs import Graph, LinearOrder, grid_name, grid_order, records, tag, validate_decomposition
from .formulas import JUNCTION


# ---------------------------------------------------------------------------
# decision trees


def dt_to_diagram(t):
    """The tree ``decision_tree``'s diagram ``t`` unfolds to, with shared sinks.

    Nodes are numbered children first, the 0-branch before the 1-branch,
    each sink where it is first reached. A node of ``t`` reached along
    several paths is expanded node by node once; every later occurrence is
    a copy instruction ``(at, a, b)`` for ``Diagram``: the span
    ``a``..``b - 1`` of an expansion that created no sink, placed again at
    id ``at`` with the ids inside it shifted and the sink ids, which lie
    below it, kept. Only the expanded nodes are hash-consed one by one; a
    copy takes the classes of its span.
    """
    tkind, tvar, tlo, thi = t.kind, t.var, t.lo, t.hi
    kind, var, lo, hi = array("b"), [], array("l"), array("l")
    copies = []
    size = 0  # nodes in the table so far, copies included
    sinks = {}
    spans = {}  # node id of t -> (start, end) of a sink-free expansion

    def build(node):
        nonlocal size
        if tkind[node] == SINK:
            value = tlo[node]
            i = sinks.get(value)
            if i is None:
                i = sinks[value] = size
                size += 1
                kind.append(SINK)
                var.append(None)
                lo.append(value)
                hi.append(-1)
            return i
        start = size
        span = spans.get(node)
        if span is not None:
            a, b = span
            copies.append((start, a, b))
            size += b - a
            return size - 1
        made = len(sinks)
        zero = build(tlo[node])
        one = build(thi[node])
        kind.append(DECISION)
        var.append(tvar[node])
        lo.append(zero)
        hi.append(one)
        size += 1
        if len(sinks) == made:
            spans[node] = (start, size)
        return size - 1

    try:
        source = build(t.source)
    finally:
        del build  # the closure refers to itself: a cycle until deleted
    return Diagram(kind, var, lo, hi, source, t.declared_vars, copies)


class _SpineKeys(dict):
    """Clause -> its spine key, computed once per clause: the sorted
    variable names, then the canonical literal key. The least key picks the
    spine clause."""

    def __missing__(self, c):
        self[c] = key = (tuple(sorted(n for n, _ in c)), clause_key(c))
        return key


def decision_tree(phi):
    """The falsifying-spine recursion, as a decision diagram.

    No clauses: a lone true sink. An empty clause: a lone false sink.
    Otherwise one spine walks the chosen clause's variables towards its
    unique falsification, and each satisfying turn-off recurses on the
    reduced clause set. Equal residual clause sets get one shared node,
    built once per call, and the two sinks are shared; unfolding the shared
    nodes (``dt_to_diagram``) gives the tree the plain recursion builds.
    """
    builder = DiagramBuilder()
    memo = {}
    spine_key = _SpineKeys().__getitem__

    def tree(phi):
        if not phi.clauses:
            return builder.sink(1)
        if frozenset() in phi.clauses:
            return builder.sink(0)
        if phi in memo:
            return memo[phi]
        c = min(phi.clauses, key=spine_key)
        polarity = dict(c)
        spine = sorted(polarity)
        g = {}
        branches = []
        for x in spine:
            side = dict(g)
            side[x] = polarity[x]
            branches.append(tree(cnf_reduce(phi, Assignment(side))))
            g[x] = 1 - polarity[x]
        node = builder.sink(0)
        for x, side in zip(reversed(spine), reversed(branches)):
            if polarity[x]:
                node = builder.decision(x, node, side)
            else:
                node = builder.decision(x, side, node)
        memo[phi] = node
        return node

    try:
        return builder.finalize(tree(phi), declared_vars=phi.vars)
    finally:
        del tree  # the closure refers to itself: a cycle until deleted


# ---------------------------------------------------------------------------
# vtrees


class Vtree:
    """A rooted binary tree whose leaves are the variables, stored densely
    with children before parents (the root is the last node): ``payload``
    holds a leaf's name and an internal node's pair of child ids."""

    __slots__ = ("payload", "_vars")

    def __init__(self, nested):
        # post-order, left subtree first, with an explicit stack so that a
        # vtree of any depth can be built; ``done`` holds the ids of the
        # finished subtrees whose parent is not numbered yet
        payload = []
        vars_of = []
        done = []
        stack = [(nested, False)]
        while stack:
            part, expanded = stack.pop()
            if isinstance(part, str):
                payload.append(part)
                vars_of.append(frozenset((part,)))
            elif expanded:
                right = done.pop()
                left = done.pop()
                payload.append((left, right))
                vars_of.append(vars_of[left] | vars_of[right])
            else:
                left, right = part
                stack += ((part, True), (right, False), (left, False))
                continue
            done.append(len(payload) - 1)
        names = [p for p in payload if isinstance(p, str)]
        if len(set(names)) != len(names):
            raise ValueError("vtree leaves must carry distinct variables")
        self.payload = tuple(payload)
        self._vars = tuple(vars_of)

    @property
    def root(self):
        return len(self.payload) - 1

    @property
    def vars(self):
        return self._vars[self.root]

    def internal_splits(self):
        return [(self._vars[p[0]], self._vars[p[1]])
                for p in self.payload if not isinstance(p, str)]

    def __eq__(self, other):
        return isinstance(other, Vtree) and self.payload == other.payload

    def __hash__(self):
        return hash(self.payload)


def write_vtree(vt):
    lines = []
    for i, p in enumerate(vt.payload):
        if isinstance(p, str):
            lines.append(f"L {i} {p}")
        else:
            lines.append(f"I {i} {p[0]} {p[1]}")
    return "\n".join(lines) + "\n"


def read_vtree(text):
    """The vtree of a table whose ids are dense, each child below its parent,
    and every entry but the last (the root) some node's child exactly once."""
    entries = []
    for raw, parts in records(text):
        try:  # an id that is not an integer makes the line bad too
            if parts[0] == "L" and len(parts) == 3:
                entries.append((int(parts[1]), parts[2]))
                continue
            if parts[0] == "I" and len(parts) == 4:
                entries.append((int(parts[1]), (int(parts[2]), int(parts[3]))))
                continue
        except ValueError:
            pass
        raise FormatError(f"bad vtree line {raw!r}")
    entries.sort(key=lambda e: e[0])
    if not entries or [i for i, _ in entries] != list(range(len(entries))):
        raise FormatError("vtree ids must be dense 0..n-1")
    nested = []
    children = []
    for i, e in entries:
        if isinstance(e, tuple):
            if not all(0 <= c < i for c in e):
                raise FormatError(f"vtree node {i} has children {e} not below it")
            children += e
            e = (nested[e[0]], nested[e[1]])
        nested.append(e)
    if sorted(children) != list(range(len(entries) - 1)):
        raise FormatError("every vtree node but the root must be a child exactly once")
    return Vtree(nested[-1])


def _right_comb(parts):
    """Right-leaning combination; None parts drop out."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = (p, out)
    return out


def _left_comb(parts):
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    out = parts[0]
    for p in parts[1:]:
        out = (out, p)
    return out


# ---------------------------------------------------------------------------
# rooted decompositions


class _Rooted:
    """A pruned, rooted view of a tree decomposition."""

    def __init__(self, d):
        bags = dict(d.bags)
        tree = Graph(bags, d.tree)
        adj = {b: set(tree.neighbors(b)) for b in bags}
        # contract edges whose bags nest, the first such pair in sorted
        # order each time; shrinks to <= |V| useful bags
        while pair := next(((a, b) for a in sorted(bags) for b in sorted(adj[a])
                            if bags[a] <= bags[b] or bags[b] <= bags[a]), None):
            drop, keep = pair if bags[pair[0]] <= bags[pair[1]] else pair[::-1]
            for other in adj[drop] - {keep}:
                adj[other].discard(drop)
                adj[other].add(keep)
                adj[keep].add(other)
            adj[keep].discard(drop)
            del bags[drop], adj[drop]
        self.bags = bags
        self.root = min(bags)
        self.children = {b: [] for b in bags}
        self.parent = {self.root: None}
        order = [self.root]
        seen = {self.root}
        k = 0
        while k < len(order):
            cur = order[k]
            k += 1
            for nxt in sorted(adj[cur]):
                if nxt not in seen:
                    seen.add(nxt)
                    self.parent[nxt] = cur
                    self.children[cur].append(nxt)
                    order.append(nxt)
        self.order = order  # parents before children
        depth = {self.root: 0}
        for b in order[1:]:
            depth[b] = depth[self.parent[b]] + 1
        self.depth = depth

    def interface(self, b):
        p = self.parent[b]
        return frozenset() if p is None else self.bags[b] & self.bags[p]

    def local(self, b):
        return sorted(self.bags[b] - self.interface(b))

    def clause_home(self, clause_vars):
        holders = [b for b in self.order if clause_vars <= self.bags[b]]
        if not holders:
            return None
        return min(holders, key=lambda b: (self.depth[b], b))


# ---------------------------------------------------------------------------
# the decomposition-guided compiler


def compile_primal(phi, d):
    """Compile through a tree decomposition of the primal graph.

    Returns ``(Diagram, Vtree)``; the diagram is a structured and-decomposable
    FBDD for the clause set, respecting the returned vtree in both the
    conjunction-only and the stronger decision-level sense.
    """
    primal, _ = graphs_of(phi)
    validate_decomposition(primal, d)
    rooted = _Rooted(d)
    builder = DiagramBuilder()
    diagram = builder.finalize(_compile_rooted(phi, rooted, builder), declared_vars=phi.vars)
    return diagram, vtree_from_decomposition_rooted(rooted)


def _compile_rooted(phi, rooted, builder):
    """The source id of the decomposition-guided diagram, built into
    ``builder``."""
    clauses_at = {}
    for c in phi.clauses:
        cv = frozenset(n for n, _ in c)
        home = rooted.clause_home(cv)
        if home is None:
            raise PreconditionError(f"no bag contains clause {sorted(c)}")
        clauses_at.setdefault(home, []).append(c)
    relevant = phi.vars
    memo = {}

    def leaf(b, assign):
        for c in clauses_at.get(b, ()):
            if not any(assign.get(n) == s for n, s in c):
                return builder.sink(0)
        acc = None
        for child in rooted.children[b]:
            iface = {v: assign[v] for v in sorted(rooted.bags[child] & rooted.bags[b])
                     if v in assign}
            sub = entry(child, iface)
            if sub == builder.sink(0):
                return builder.sink(0)
            if sub == builder.sink(1):
                continue
            acc = sub if acc is None else builder.conj(acc, sub)
        return builder.sink(1) if acc is None else acc

    def ladder(b, assign, todo):
        if not todo:
            return leaf(b, assign)
        x = todo[0]
        lo = ladder(b, {**assign, x: 0}, todo[1:])
        hi = ladder(b, {**assign, x: 1}, todo[1:])
        if lo == hi:
            return lo
        return builder.decision(x, lo, hi)

    def entry(b, iface):
        key = (b, tuple(sorted(iface.items())))
        if key not in memo:
            todo = [v for v in rooted.local(b) if v in relevant]
            memo[key] = ladder(b, dict(iface), todo)
        return memo[key]

    try:
        return entry(rooted.root, {})
    finally:
        del leaf, ladder, entry  # closures that refer to each other: a cycle until deleted


def vtree_from_decomposition_rooted(rooted, extra_vars=()):
    """The recursive variable split a rooted decomposition induces.

    Per bag: a right-leaning comb over the bag's own variables ending in a
    left-leaning comb over the child subtrees. Extra variables (not placed by
    any bag) comb on top in sorted order. None when there are no variables.
    """
    def part(b):
        child_parts = _left_comb([part(c) for c in rooted.children[b]])
        return _right_comb([*rooted.local(b), child_parts])

    try:
        nested = _right_comb([*sorted(extra_vars), part(rooted.root)])
    finally:
        del part  # the closure refers to itself: a cycle until deleted
    return None if nested is None else Vtree(nested)


def compile_split(phi, long_clauses, d):
    """Two-stage pipeline for a CNF whose long clauses are few.

    Stage 1 builds the decision tree of the long clauses; stage 2 hangs a
    decomposition-guided compilation of the reduced remainder off every true
    leaf, all respecting the one vtree the decomposition induces. Returns
    ``(Diagram, Vtree)``, both from one rooting of the decomposition; the
    diagram declares the CNF's variables, tested or not.
    """
    long_set = frozenset(frozenset(c) for c in long_clauses)
    if not long_set <= phi.clauses:
        raise PreconditionError("long clauses must come from the clause set")
    rest = Cnf(phi.clauses - long_set)
    primal, _ = graphs_of(rest)
    validate_decomposition(primal, d)
    rooted = _Rooted(d)
    dt = decision_tree(Cnf(long_set))
    builder = DiagramBuilder()

    def walk(i, g):
        if dt.kind[i] == SINK:
            if not dt.lo[i]:
                return builder.sink(0)
            residual = cnf_reduce(rest, Assignment(g))
            return _compile_rooted(residual, rooted, builder)
        lo = walk(dt.lo[i], {**g, dt.var[i]: 0})
        hi = walk(dt.hi[i], {**g, dt.var[i]: 1})
        if lo == hi:
            return lo
        return builder.decision(dt.var[i], lo, hi)

    try:
        source = walk(dt.source, {})
    finally:
        del walk  # the closure refers to itself: a cycle until deleted
    return builder.finalize(source, declared_vars=phi.vars), _split_vtree(phi, rest, rooted)


def split_vtree(phi, long_clauses, d):
    """The fixed vtree every stage-2 residual of compile_split respects, the
    one it returns, without compiling."""
    long_set = frozenset(frozenset(c) for c in long_clauses)
    return _split_vtree(phi, Cnf(phi.clauses - long_set), _Rooted(d))


def _split_vtree(phi, rest, rooted):
    """The vtree of a split compile: the rooted decomposition of the
    remainder ``rest``, after the variables only the long clauses test."""
    return vtree_from_decomposition_rooted(rooted, extra_vars=sorted(phi.vars - rest.vars))


# ---------------------------------------------------------------------------
# grid constructions


def _layered(builder, names, start, step, accept):
    """The reduced OBDD of a layered automaton over ``names`` (Bryant, 1986).

    ``step(i, state, bit)`` is the state after ``names[i]`` reads ``bit``, or
    None for a rejecting step; a state left after the last name goes to the
    sink ``accept(state)``. The states reachable from ``start`` are collected
    layer by layer, then the nodes are built from the last layer up, each
    layer's states in sorted order; sinks are shared and a test whose two
    branches are equal is skipped. Returns the node of ``start``.
    """
    layers = [{start}]
    for i in range(len(names)):
        layers.append({step(i, s, bit) for s in layers[-1] for bit in (0, 1)} - {None})
    node = {s: builder.sink(accept(s)) for s in sorted(layers[-1])}
    for i in range(len(names) - 1, -1, -1):
        below, node = node, {}
        for s in sorted(layers[i]):
            lo, hi = (builder.sink(0) if t is None else below[t]
                      for t in (step(i, s, 0), step(i, s, 1)))
            node[s] = lo if lo == hi else builder.decision(names[i], lo, hi)
    return node[start]


def _path_obdd(builder, names):
    """Linear OBDD for the conjunction of consecutive-pair clauses along a
    path of variables: the state is the previous bit (2 before the first
    variable), and two zeros in a row fail."""
    return _layered(builder, names, 2, lambda i, prev, bit: None if prev == bit == 0 else bit,
                    lambda prev: 1)


def _conj_balanced(builder, ids):
    ids = list(ids)
    while len(ids) > 1:
        nxt = []
        for k in range(0, len(ids) - 1, 2):
            nxt.append(builder.conj(ids[k], ids[k + 1]))
        if len(ids) % 2:
            nxt.append(ids[-1])
        ids = nxt
    return ids[0]


def junction_order(n):
    """The grid junction order: the selector first, then dictionary order."""
    return LinearOrder((JUNCTION, *grid_order(n).names))


def grid_junction_diagram(n):
    """Linear-size ordered diagram for the junction vertex-cover formula.

    The selector's 1-branch conjoins the n row OBDDs, its 0-branch the n
    column OBDDs; each row/column is a consecutive run of the dictionary
    order, so the whole diagram obeys the junction order.
    """
    if n < 2:
        raise ValueError("grid junction needs n >= 2")
    builder = DiagramBuilder()
    rows = [_path_obdd(builder, [grid_name(i, j) for j in range(1, n + 1)])
            for i in range(1, n + 1)]
    cols = [_path_obdd(builder, [grid_name(i, j) for i in range(1, n + 1)])
            for j in range(1, n + 1)]
    root = builder.decision(JUNCTION, _conj_balanced(builder, cols),
                            _conj_balanced(builder, rows))
    diagram = builder.finalize(root)
    cls = validate(diagram, junction_order(n))
    if not cls.is_and_obdd:
        raise SoundnessError("grid junction construction broke its order")
    return diagram


def psi_interleaved_order(n, orientation="hor"):
    """Copy-interleaved dictionary order of the doubled grid, row by row or
    column by column as ``grid_order`` reads ``orientation``."""
    names = []
    for v in grid_order(n, orientation):
        names.append(tag(v, 1))
        names.append(tag(v, 2))
    return LinearOrder(names)


def psi_layer_obdd(n, orientation="hor"):
    """Layered OBDD for the doubled one-orientation grid formula.

    The state between layers is the previous vertex's two copy values (the
    second replaced by this vertex's first copy once read) and the two
    saw-a-zero flags, at most sixteen states per layer; edge clauses resolve
    against the previous vertex, the long clauses against the flags at the
    end. Row starts reset the previous-vertex part to 2, no vertex.
    """
    if n < 2:
        raise ValueError("layered grid formula needs n >= 2")
    order = psi_interleaved_order(n, orientation)

    def step(i, state, bit):
        p1, p2, z1, z2 = state
        if i % 2 == 0:
            return None if p2 == bit == 0 else (p1, bit, z1 | (bit == 0), z2)
        if p1 == bit == 0:
            return None
        z2 = z2 | (bit == 0)
        if (i // 2 + 1) % n:  # the next vertex continues this row
            return (p2, bit, z1, z2)
        return (2, 2, z1, z2)

    builder = DiagramBuilder()
    source = _layered(builder, order.names, (2, 2, 0, 0), step,
                      lambda state: state[2] and state[3])
    diagram = builder.finalize(source)
    cls = validate(diagram, order)
    if not cls.is_obdd:
        raise SoundnessError("layered construction broke its order")
    return diagram


def psi_grid_junction_fbdd(n):
    """Selector-rooted combination of the two layered OBDDs; a plain FBDD
    for the doubled-grid junction formula."""
    builder = DiagramBuilder()
    hor = graft(builder, psi_layer_obdd(n, "hor"))
    vert = graft(builder, psi_layer_obdd(n, "vert"))
    root = builder.decision(JUNCTION, vert, hor)
    diagram = builder.finalize(root)
    cls = validate(diagram)
    if not cls.is_fbdd:
        raise SoundnessError("junction combination is not conjunction-free")
    return diagram


# ---------------------------------------------------------------------------
# structuredness


def respects(b, vt, mode="conjunction-only"):
    """Does the diagram respect the vtree?

    Conjunction-only: every conjunction node's child variable sets fit under
    the two sides of some vtree node. The stronger decision-level mode
    additionally reads each decision node as its or-of-conjunctions trace and
    requires the tested variable separated from each child's variables by
    some vtree split (children testing nothing pass). Returns ``(ok,
    witness)`` with the first violating node id.
    """
    if mode not in ("conjunction-only", "decision-dnnf"):
        raise FormatError(f"unknown mode {mode!r}")
    if not b.vars <= vt.vars:
        raise ScopeError(f"vtree misses {sorted(b.vars - vt.vars)}")
    splits = vt.internal_splits()

    def split_exists(one, other):
        for left, right in splits:
            if (one <= left and other <= right) or (one <= right and other <= left):
                return True
        return False

    for i in b.topo():
        if b.kind[i] == AND:
            if not split_exists(b.vars_below(b.lo[i]), b.vars_below(b.hi[i])):
                return False, i
    if mode == "decision-dnnf":
        for i in b.topo():
            if b.kind[i] != DECISION:
                continue
            x = frozenset((b.var[i],))
            for c in b.children(i):
                below = b.vars_below(c)
                if below and not split_exists(x, below):
                    return False, i
    return True, None
