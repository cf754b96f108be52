"""The single-source DAG model: decision nodes, decomposable conjunctions,
and the two sinks.

A diagram is immutable once finalized. Node ids are dense nonnegative
integers; serialization sorts by id so equal diagrams produce identical
files. Class membership (FBDD / OBDD / with conjunctions, ordered or not) is
established by :func:`validate`, which raises a distinct error per violated
invariant rather than returning a verdict, so broken inputs name their
defect.

Semantics follow the accepted-set recursion: a true sink accepts the empty
assignment, a decision node tags its children's accepted sets with the
tested bit, and a conjunction takes the product of its children's sets
(well-defined precisely because conjunctions are decomposable). A total
assignment satisfies the diagram when it extends some accepted assignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import config
from .assignments import Assignment, AssignmentSet, decode_table, product
from .errors import DiagramInvariantError, FormatError, ScopeError
from .kernels import pattern


@dataclass(frozen=True, slots=True)
class Node:
    kind: str
    var: str | None = None
    lo: int | None = None
    hi: int | None = None
    left: int | None = None
    right: int | None = None
    value: int | None = None

    def children(self):
        if self.kind == "decision":
            return (self.lo, self.hi)
        if self.kind == "and":
            return (self.left, self.right)
        return ()


def decision(var, lo, hi):
    return Node("decision", var=var, lo=lo, hi=hi)


def conj(left, right):
    return Node("and", left=left, right=right)


def sink(value):
    return Node("sink", value=int(value))


def _toposort(kids):
    """Children-first order of a node table given each node's children;
    raises on cycles (not a DAG at all)."""
    indeg = [0] * len(kids)
    for children in kids:
        for c in children:
            indeg[c] += 1
    stack = [i for i, d in enumerate(indeg) if d == 0]
    out = []
    while stack:
        i = stack.pop()
        out.append(i)
        for c in kids[i]:
            indeg[c] -= 1
            if not indeg[c]:
                stack.append(c)
    if len(out) != len(kids):
        raise FormatError("node table contains a cycle")
    out.reverse()
    return tuple(out)


class Diagram:
    """An immutable node table with a designated source."""

    __slots__ = ("nodes", "source", "declared_vars", "_topo", "_vars_below", "_classes")

    def __init__(self, nodes, source, declared_vars=None):
        self.nodes = tuple(nodes)
        self.source = source
        n = len(self.nodes)
        kids = []
        for i, node in enumerate(self.nodes):
            children = node.children()
            for c in children:
                if not isinstance(c, int) or not 0 <= c < n:
                    raise FormatError(f"node {i} references missing child {c!r}")
            if node.kind not in ("decision", "and", "sink"):
                raise FormatError(f"node {i} has unknown kind {node.kind!r}")
            kids.append(children)
        if not isinstance(source, int) or not 0 <= source < n:
            raise FormatError(f"source {source!r} is not a node id")
        self._topo = _toposort(kids)
        self._vars_below = self._tested_below()
        tested = self._vars_below[source]
        if declared_vars is not None:
            declared_vars = frozenset(declared_vars)
            if not tested <= declared_vars:
                raise FormatError(
                    f"declared universe misses tested vars {sorted(tested - declared_vars)}")
            if declared_vars == tested:
                declared_vars = None  # repeating the tested set declares nothing
        self.declared_vars = declared_vars
        self._classes = {}  # validate's verdicts, keyed by None or the order's names

    def _tested_below(self):
        """Per node, the variables tested at or below it, in one children-first
        pass. Equal sets are one shared object: a node's set is looked up by
        its test and its children's sets, so a union is computed once per
        distinct combination, however many nodes repeat it."""
        empty = frozenset()
        below = [empty] * len(self.nodes)
        unions = {}  # (var, lo set, hi set) or (left set, right set) -> union
        shared = {empty: empty}
        for i in self._topo:
            node = self.nodes[i]
            if node.kind == "decision":
                one, two = below[node.lo], below[node.hi]
                key = (node.var, one, two)
            elif node.kind == "and":
                one, two = below[node.left], below[node.right]
                key = (one, two)
            else:
                continue
            acc = unions.get(key)
            if acc is None:
                acc = one | two
                if node.kind == "decision":
                    acc |= {node.var}
                acc = unions[key] = shared.setdefault(acc, acc)
            below[i] = acc
        return tuple(below)

    @property
    def size(self):
        """The size measure |B|: the number of nodes."""
        return len(self.nodes)

    @property
    def vars(self):
        return self._vars_below[self.source]

    def vars_below(self, node_id):
        return self._vars_below[node_id]

    def topo(self):
        return self._topo

    def node(self, node_id):
        return self.nodes[node_id]

    def __eq__(self, other):
        return (isinstance(other, Diagram) and self.nodes == other.nodes
                and self.source == other.source
                and self.declared_vars == other.declared_vars)

    def __hash__(self):
        return hash((self.nodes, self.source))

    def __repr__(self):
        return f"Diagram(<{len(self.nodes)} nodes, source {self.source}>)"


class DiagramBuilder:
    """Single-owner accumulator; produces an immutable Diagram on finalize.

    Sinks are canonical: at most one per label, shared by all parents.
    """

    def __init__(self):
        self._nodes = []
        self._sinks = {}

    def _add(self, node):
        self._nodes.append(node)
        return len(self._nodes) - 1

    def sink(self, value):
        value = int(value)
        if value not in self._sinks:
            self._sinks[value] = self._add(sink(value))
        return self._sinks[value]

    def decision(self, var, lo, hi):
        self._check(lo)
        self._check(hi)
        return self._add(decision(var, lo, hi))

    def conj(self, left, right):
        self._check(left)
        self._check(right)
        return self._add(conj(left, right))

    def _check(self, child):
        if not isinstance(child, int) or not 0 <= child < len(self._nodes):
            raise ValueError(f"child id {child!r} does not exist yet")

    def __len__(self):
        return len(self._nodes)

    def finalize(self, source, declared_vars=None, prune=True):
        """Freeze into a Diagram, by default dropping unreachable nodes and
        renumbering densely in old-id order."""
        if not prune:
            return Diagram(self._nodes, source, declared_vars)
        keep = set()
        stack = [source]
        while stack:
            i = stack.pop()
            if i in keep:
                continue
            keep.add(i)
            stack.extend(self._nodes[i].children())
        if len(keep) == len(self._nodes):
            return Diagram(self._nodes, source, declared_vars)
        remap = {}
        nodes = []
        for old in sorted(keep):
            remap[old] = len(nodes)
            nodes.append(self._nodes[old])
        renumbered = []
        for node in nodes:
            if node.kind == "decision":
                renumbered.append(decision(node.var, remap[node.lo], remap[node.hi]))
            elif node.kind == "and":
                renumbered.append(conj(remap[node.left], remap[node.right]))
            else:
                renumbered.append(node)
        return Diagram(renumbered, remap[source], declared_vars)


def copy_nodes(builder, b, root, redirect=None):
    """Copy the nodes at or below ``root`` into a builder, children first
    and sinks shared; returns the old-id to new-id map. A node that
    ``redirect`` maps to one of its descendants is not copied: it maps to
    that descendant's copy."""
    redirect = redirect or {}
    below = {root}
    for i in reversed(b.topo()):  # parents first
        if i in below:
            below.update(b.node(i).children())
    remap = {}
    for i in b.topo():
        if i not in below:
            continue
        node = b.node(i)
        if i in redirect:
            remap[i] = remap[redirect[i]]
        elif node.kind == "sink":
            remap[i] = builder.sink(node.value)
        elif node.kind == "decision":
            remap[i] = builder.decision(node.var, remap[node.lo], remap[node.hi])
        else:
            remap[i] = builder.conj(remap[node.left], remap[node.right])
    return remap


def graft(builder, diagram):
    """Copy a diagram's nodes into a builder (sinks shared); returns the
    copied source id."""
    return copy_nodes(builder, diagram, diagram.source)[diagram.source]


# ---------------------------------------------------------------------------
# class validation


@dataclass(frozen=True)
class DiagramClass:
    is_and_fbdd: bool
    is_fbdd: bool
    is_obdd: bool
    is_and_obdd: bool
    order: tuple | None = None


def validate(b, order=None):
    """Check every structural invariant; returns the class record.

    With an order (over a superset of the tested variables) the decision
    variables must strictly ascend along every path. Without one, an order is
    inferred from the tested-before relation when that relation is acyclic.
    The diagram is immutable, so a verdict is computed once per order and
    kept on it; a failed check raises again on every call.
    """
    names = None if order is None else tuple(getattr(order, "names", order))
    if names in b._classes:
        return b._classes[names]
    n = len(b.nodes)
    indeg = [0] * n
    for node in b.nodes:
        for c in node.children():
            indeg[c] += 1
    sources = [i for i in range(n) if indeg[i] == 0]
    if sources != [b.source]:
        raise DiagramInvariantError(
            "single-source", tuple(sources),
            f"expected the single source {b.source}, found {sources}")
    by_value = {}
    for i, node in enumerate(b.nodes):
        if node.kind == "sink":
            by_value.setdefault(node.value, []).append(i)
        elif node.kind == "decision" and (node.lo is None or node.hi is None):
            raise DiagramInvariantError("decision-edges", i, f"node {i} lacks an out-edge")
    for value, ids in by_value.items():
        if len(ids) > 1:
            raise DiagramInvariantError(
                "sink-form", tuple(ids), f"multiple sinks labelled {value}: {ids}")
    for i, node in enumerate(b.nodes):
        if node.kind == "and":
            shared = b.vars_below(node.left) & b.vars_below(node.right)
            if shared:
                raise DiagramInvariantError(
                    "decomposability", i,
                    f"conjunction {i} children share {sorted(shared)}")
    for i, node in enumerate(b.nodes):
        if node.kind == "decision":
            for c in (node.lo, node.hi):
                if node.var in b.vars_below(c):
                    raise DiagramInvariantError(
                        "read-once", i,
                        f"variable {node.var!r} tested again below node {i}")
    has_and = any(node.kind == "and" for node in b.nodes)
    if names is not None:
        pos = {x: k for k, x in enumerate(names)}
        missing = b.vars - set(pos)
        if missing:
            raise ScopeError(f"order misses tested variables {sorted(missing)}")
        for i, node in enumerate(b.nodes):
            if node.kind != "decision":
                continue
            for c in (node.lo, node.hi):
                late = [y for y in b.vars_below(c) if pos[y] <= pos[node.var]]
                if late:
                    raise DiagramInvariantError(
                        "order", i,
                        f"{sorted(late)} tested below the {node.var!r} node {i} "
                        f"but not after it in the order")
        ordered = names
    else:
        ordered = _infer_order(b)
    is_ordered = ordered is not None
    return b._classes.setdefault(names, DiagramClass(
        is_and_fbdd=True,
        is_fbdd=not has_and,
        is_obdd=is_ordered and not has_and,
        is_and_obdd=is_ordered,
        order=tuple(ordered) if is_ordered else None,
    ))


def _infer_order(b):
    """A linear order all paths obey, if the tested-before digraph is acyclic."""
    succ = {x: set() for x in b.vars}
    for node in b.nodes:
        if node.kind != "decision":
            continue
        for c in node.children():
            for y in b.vars_below(c):
                if y != node.var:
                    succ[node.var].add(y)
    indeg = {x: 0 for x in succ}
    for x, ys in succ.items():
        for y in ys:
            indeg[y] += 1
    ready = sorted(x for x, d in indeg.items() if d == 0)
    out = []
    while ready:
        x = ready.pop(0)
        out.append(x)
        changed = False
        for y in sorted(succ[x]):
            indeg[y] -= 1
            if indeg[y] == 0:
                ready.append(y)
                changed = True
        if changed:
            ready.sort()
    return tuple(out) if len(out) == len(succ) else None


# ---------------------------------------------------------------------------
# semantics


def accepted(b):
    """The accepted-set recursion, bottom-up; members may be partial."""
    config.check_scale(len(b.vars), config.BRUTE_FORCE_VAR_CAP, "variables")
    sets = {}
    for i in b.topo():
        node = b.node(i)
        if node.kind == "sink":
            sets[i] = AssignmentSet([Assignment()]) if node.value else AssignmentSet()
        elif node.kind == "decision":
            lo = product(sets[node.lo], AssignmentSet([Assignment({node.var: 0})]))
            hi = product(sets[node.hi], AssignmentSet([Assignment({node.var: 1})]))
            sets[i] = lo | hi
        else:
            sets[i] = product(sets[node.left], sets[node.right])
    return sets[b.source]


def evaluate(b, a):
    """One pass over the DAG; requires a total assignment over vars(b)."""
    if not b.vars <= a.vars:
        raise ScopeError(f"assignment leaves {sorted(b.vars - a.vars)} unset")
    val = {}
    for i in b.topo():
        node = b.node(i)
        if node.kind == "sink":
            val[i] = node.value
        elif node.kind == "decision":
            val[i] = val[node.hi] if a[node.var] else val[node.lo]
        else:
            val[i] = val[node.left] & val[node.right]
    return val[b.source]


def satisfying_set(b, universe=None):
    """All total assignments over the universe satisfying the diagram."""
    universe = frozenset(universe) if universe is not None else b.vars
    if not b.vars <= universe:
        raise ScopeError(f"universe misses {sorted(b.vars - universe)}")
    config.check_scale(len(universe), config.BRUTE_FORCE_VAR_CAP, "variables")
    order = sorted(universe)
    return decode_table(order, truth_table(b, order))


def truth_table(b, order):
    """Model indicator bitset over an ordered universe covering vars(b).

    This is diagram-route semantics (the extension reading of the accepted
    sets), vectorized; it shares no code path with the clause-route tables.
    """
    order = list(order)
    if not b.vars <= set(order):
        raise ScopeError("order must cover the tested variables")
    n = len(order)
    size = 1 << n
    full = (1 << size) - 1
    pats = {name: pattern(n, p) for p, name in enumerate(order)}
    tt = {}
    for i in b.topo():
        node = b.node(i)
        if node.kind == "sink":
            tt[i] = full if node.value else 0
        elif node.kind == "decision":
            pat = pats[node.var]
            tt[i] = (pat & tt[node.hi]) | ((full ^ pat) & tt[node.lo])
        else:
            tt[i] = tt[node.left] & tt[node.right]
    return tt[b.source]


def count_models(b, universe=None):
    """Exact satisfying-assignment count over the universe, one DAG pass.

    Per node the count is over vars(B_u): each decision branch scales by the
    free variables it skips, a conjunction multiplies its children, and the
    source count lifts to the universe by the untested variables.
    """
    universe = frozenset(universe) if universe is not None else b.vars
    if not b.vars <= universe:
        raise ScopeError(f"universe misses {sorted(b.vars - universe)}")
    counts = {}
    for i in b.topo():
        node = b.node(i)
        if node.kind == "sink":
            counts[i] = node.value
        elif node.kind == "decision":
            mine = b.vars_below(i) - {node.var}
            lo_free = len(mine - b.vars_below(node.lo))
            hi_free = len(mine - b.vars_below(node.hi))
            counts[i] = (counts[node.lo] << lo_free) + (counts[node.hi] << hi_free)
        else:
            free = len(b.vars_below(i) - b.vars_below(node.left) - b.vars_below(node.right))
            counts[i] = (counts[node.left] * counts[node.right]) << free
    return counts[b.source] << (len(universe) - len(b.vars))


def path_assignment(b, node_ids):
    """The assignment read off a directed path's decision out-edges.

    The last node contributes nothing (its out-edge is not on the path). A
    decision step whose 0- and 1-edges share the target is ambiguous and
    rejected.
    """
    node_ids = list(node_ids)
    pairs = []
    for u, v in zip(node_ids, node_ids[1:]):
        node = b.node(u)
        if v not in node.children():
            raise ValueError(f"({u},{v}) is not an edge")
        if node.kind == "decision":
            if node.lo == node.hi:
                raise ValueError(f"node {u} has parallel out-edges; bit is ambiguous")
            pairs.append((node.var, 1 if v == node.hi else 0))
    return Assignment(pairs)


# ---------------------------------------------------------------------------
# serialization


class _Quoted(dict):
    """Variable name -> its JSON string literal, quoted once per name."""

    def __missing__(self, name):
        self[name] = quoted = json.dumps(name)
        return quoted


def to_json(b):
    """The diagram as JSON text, written in one pass.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)`` plus
    a newline, where doc holds the source, the sorted declared (else tested)
    variables and one entry per node in id order.
    """
    quoted = _Quoted()
    entries = []
    for i, node in enumerate(b.nodes):
        if node.kind == "decision":
            entries.append(f'    {{\n      "hi": {node.hi},\n      "id": {i},\n'
                           f'      "kind": "decision",\n      "lo": {node.lo},\n'
                           f'      "var": {quoted[node.var]}\n    }}')
        elif node.kind == "and":
            entries.append(f'    {{\n      "id": {i},\n      "kind": "and",\n'
                           f'      "left": {node.left},\n      "right": {node.right}\n    }}')
        else:
            entries.append(f'    {{\n      "id": {i},\n      "kind": "sink",\n'
                           f'      "value": {node.value}\n    }}')
    names = sorted(b.declared_vars if b.declared_vars is not None else b.vars)
    if names:
        listed = "[\n" + ",\n".join(f"    {quoted[x]}" for x in names) + "\n  ]"
    else:
        listed = "[]"
    return ('{\n  "nodes": [\n' + ",\n".join(entries)
            + f'\n  ],\n  "source": {b.source},\n  "vars": {listed}\n}}\n')


def from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad diagram JSON: {exc}") from exc
    try:
        entries = sorted(doc["nodes"], key=lambda e: e["id"])
        if [e["id"] for e in entries] != list(range(len(entries))):
            raise FormatError("node ids must be dense 0..n-1")
        nodes = []
        for e in entries:
            kind = e["kind"]
            if kind == "decision":
                nodes.append(decision(e["var"], e["lo"], e["hi"]))
            elif kind == "and":
                nodes.append(conj(e["left"], e["right"]))
            elif kind == "sink":
                nodes.append(sink(e["value"]))
            else:
                raise FormatError(f"unknown node kind {kind!r}")
        return Diagram(nodes, doc["source"], doc.get("vars"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad diagram JSON: {exc}") from exc


def save(b, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(b))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return from_json(fh.read())


def to_dot(b):
    """Graphviz source; dashed 0-edges, conjunction nodes shown as wedges."""
    lines = ["digraph diagram {"]
    for i, node in enumerate(b.nodes):
        if node.kind == "decision":
            lines.append(f'  n{i} [label="{node.var}", shape=circle];')
        elif node.kind == "and":
            lines.append(f'  n{i} [label="∧", shape=circle];')
        else:
            label = "T" if node.value else "F"
            lines.append(f'  n{i} [label="{label}", shape=box];')
    for i, node in enumerate(b.nodes):
        if node.kind == "decision":
            lines.append(f"  n{i} -> n{node.lo} [style=dashed, label=0];")
            lines.append(f"  n{i} -> n{node.hi} [label=1];")
        elif node.kind == "and":
            lines.append(f"  n{i} -> n{node.left};")
            lines.append(f"  n{i} -> n{node.right};")
    lines.append("}")
    return "\n".join(lines) + "\n"
