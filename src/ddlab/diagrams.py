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
from .assignments import Assignment, AssignmentSet, check_order, decode_table, product
from .errors import DiagramInvariantError, FormatError, ScopeError
from .kernels import pattern


# The codes of the ``kind`` column; ``Node.kind`` spells them out.
SINK, DECISION, AND = 0, 1, 2


@dataclass(frozen=True, slots=True)
class Node:
    """One node as a record: what ``Diagram.node`` and ``Diagram.nodes``
    hand out and what ``Diagram(nodes, source)`` takes in."""

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


def _columns(records):
    """The kind, var, lo and hi columns of a node table given as records in
    id order: JSON objects, or Nodes read through their fields."""
    kind, var, lo, hi = [], [], [], []
    for i, e in enumerate(records):
        k = e["kind"]
        if k == "decision":
            kind.append(DECISION)
            var.append(e["var"])
            lo.append(e["lo"])
            hi.append(e["hi"])
        elif k == "and":
            kind.append(AND)
            var.append(None)
            lo.append(e["left"])
            hi.append(e["right"])
        elif k == "sink":
            kind.append(SINK)
            var.append(None)
            lo.append(e["value"])
            hi.append(None)
        else:
            raise FormatError(f"node {i} has unknown kind {k!r}")
    return kind, var, lo, hi


def _toposort(kind, lo, hi):
    """Children-first order of a node table (Kahn's algorithm on a stack);
    raises on cycles (not a DAG at all)."""
    n = len(kind)
    indeg = [0] * n
    for k, a, b in zip(kind, lo, hi):
        if k:
            indeg[a] += 1
            indeg[b] += 1
    stack = [i for i, d in enumerate(indeg) if d == 0]
    out = []
    while stack:
        i = stack.pop()
        out.append(i)
        if kind[i]:
            for c in (lo[i], hi[i]):
                indeg[c] -= 1
                if not indeg[c]:
                    stack.append(c)
    if len(out) != n:
        raise FormatError("node table contains a cycle")
    out.reverse()
    return tuple(out)


class Diagram:
    """An immutable node table with a designated source, kept as parallel
    columns indexed by node id.

    ``kind[i]`` is ``SINK``, ``DECISION`` or ``AND``. A decision node tests
    ``var[i]`` and has the 0-child ``lo[i]`` and the 1-child ``hi[i]``; a
    conjunction has the children ``lo[i]`` (left) and ``hi[i]`` (right); a
    sink's value, 0 or 1, is ``lo[i]``. ``var`` is None off decision nodes
    and ``hi`` is None on sinks. ``node(i)`` and ``nodes`` give the same
    table as ``Node`` records. Construction also sorts the nodes into
    isomorphism classes (``iso_class``, ``merged_size``); the semantic
    passes run once per class rather than once per node.
    """

    __slots__ = ("kind", "var", "lo", "hi", "source", "declared_vars",
                 "_topo", "_vars_below", "_iso", "_iso_table", "_verdicts")

    def __init__(self, nodes, source, declared_vars=None):
        """From ``Node`` records in id order."""
        fields = ("kind", "var", "lo", "hi", "left", "right", "value")
        records = [{f: getattr(node, f) for f in fields} for node in nodes]
        self._freeze(*_columns(records), source, declared_vars)

    @classmethod
    def from_columns(cls, kind, var, lo, hi, source, declared_vars=None):
        """A diagram from its four columns, checked as ``Diagram()`` checks."""
        self = cls.__new__(cls)
        self._freeze(kind, var, lo, hi, source, declared_vars)
        return self

    def _freeze(self, kind, var, lo, hi, source, declared_vars):
        self.kind, self.var, self.lo, self.hi = kind, var, lo, hi = (
            tuple(kind), tuple(var), tuple(lo), tuple(hi))
        n = len(kind)
        ascending = True  # every child id below its parent's: id order is children-first
        for i, k, x, a, b in zip(range(n), kind, var, lo, hi):
            if k:
                if not (type(a) is int and type(b) is int and 0 <= a < i and 0 <= b < i):
                    for c in (a, b):
                        if type(c) is not int or not 0 <= c < n:
                            raise FormatError(f"node {i} references missing child {c!r}")
                    ascending = False
                if k == DECISION and not isinstance(x, str):
                    raise FormatError(f"node {i} tests {x!r}; variable names are strings")
            elif type(a) is not int or a not in (0, 1):
                raise FormatError(f"sink {i} has value {a!r}; a sink is 0 or 1")
        if type(source) is not int or not 0 <= source < n:
            raise FormatError(f"source {source!r} is not a node id")
        self.source = source
        # ``topo()`` is computed when first asked for, unless the cycle check
        # needs it now; classifying only needs some children-first order
        self._topo = None if ascending else _toposort(kind, lo, hi)
        self._classify(range(n) if ascending else self._topo)
        tested = self._vars_below[source]
        if declared_vars is not None:
            declared_vars = frozenset(declared_vars)
            odd = [x for x in declared_vars if not isinstance(x, str)]
            if odd:
                raise FormatError(f"declared variables {odd!r} are not strings")
            if not tested <= declared_vars:
                raise FormatError(
                    f"declared universe misses tested vars {sorted(tested - declared_vars)}")
            if declared_vars == tested:
                declared_vars = None  # repeating the tested set declares nothing
        self.declared_vars = declared_vars
        self._verdicts = {}  # validate's verdicts, keyed by None or the order's names

    def _classify(self, up):
        """Hash-cons the nodes into isomorphism classes in one children-first
        pass, and read off each node's tested variables.

        A class is keyed by a sink's value, or by a node's variable (None
        on a conjunction) and its children's classes, so two nodes share a
        class iff their subdiagrams are equal once isomorphic subdiagrams are
        merged. Classes are numbered as first met, so class order is
        children-first too. ``_iso`` holds each node's class; ``_iso_table``
        holds the per-class kind, var, lo, hi and tested-set columns, lo and
        hi naming classes (a sink class's value is its lo). Equal tested sets
        are one shared object: a union is computed once per distinct (var,
        lo set, hi set), however many classes repeat it."""
        kind, var, lo, hi = self.kind, self.var, self.lo, self.hi
        empty = frozenset()
        iso = [0] * len(kind)
        ids = {}  # sink value, or (var, lo class, hi class) -> class
        ckind, cvar, clo, chi, ctested = [], [], [], [], []
        unions = {}  # (var, lo set, hi set) -> union, for classes repeating one
        shared = {empty: empty}
        for i in up:
            k = kind[i]
            if k:
                x, one, two = var[i], iso[lo[i]], iso[hi[i]]
                key = (x, one, two)
            else:
                x, one, two = None, lo[i], None
                key = one
            c = ids.get(key)
            if c is None:
                c = ids[key] = len(ckind)
                acc = empty
                if k:
                    sets = (x, ctested[one], ctested[two])
                    acc = unions.get(sets)
                    if acc is None:
                        acc = sets[1] | sets[2]
                        if x is not None:
                            acc |= {x}
                        acc = unions[sets] = shared.setdefault(acc, acc)
                ckind.append(k)
                cvar.append(x)
                clo.append(one)
                chi.append(two)
                ctested.append(acc)
            iso[i] = c
        self._iso = tuple(iso)
        self._iso_table = (tuple(ckind), tuple(cvar), tuple(clo), tuple(chi),
                           tuple(ctested))
        self._vars_below = tuple(map(ctested.__getitem__, iso))

    @property
    def size(self):
        """The size measure |B|: the number of nodes."""
        return len(self.kind)

    @property
    def vars(self):
        return self._vars_below[self.source]

    def vars_below(self, node_id):
        return self._vars_below[node_id]

    @property
    def merged_size(self):
        """The number of isomorphism classes: the size once isomorphic
        subdiagrams are merged."""
        return len(self._iso_table[0])

    def iso_class(self, node_id):
        """The node's isomorphism class; two nodes share one iff their
        subdiagrams are equal once isomorphic subdiagrams are merged."""
        return self._iso[node_id]

    def topo(self):
        """Children-first node order; ``copy_nodes`` numbers copies in it."""
        if self._topo is None:
            self._topo = _toposort(self.kind, self.lo, self.hi)
        return self._topo

    def children(self, node_id):
        return (self.lo[node_id], self.hi[node_id]) if self.kind[node_id] else ()

    def node(self, node_id):
        k, a, b = self.kind[node_id], self.lo[node_id], self.hi[node_id]
        if k == DECISION:
            return Node("decision", var=self.var[node_id], lo=a, hi=b)
        if k == AND:
            return Node("and", left=a, right=b)
        return Node("sink", value=a)

    @property
    def nodes(self):
        return tuple(map(self.node, range(len(self.kind))))

    def __eq__(self, other):
        return (isinstance(other, Diagram) and self.source == other.source
                and self.kind == other.kind and self.var == other.var
                and self.lo == other.lo and self.hi == other.hi
                and self.declared_vars == other.declared_vars)

    def __hash__(self):
        return hash((self.kind, self.var, self.lo, self.hi, self.source))

    def __repr__(self):
        return f"Diagram(<{len(self.kind)} nodes, source {self.source}>)"


class DiagramBuilder:
    """Single-owner accumulator; produces an immutable Diagram on finalize.

    Sinks are canonical: at most one per label, shared by all parents. A
    child must exist before its parent, so every child id is below its
    parent's.
    """

    def __init__(self):
        self._kind, self._var, self._lo, self._hi = [], [], [], []
        self._sinks = {}

    def _add(self, kind, var, lo, hi):
        n = len(self._kind)
        if kind and not (type(lo) is int and type(hi) is int and 0 <= lo < n and 0 <= hi < n):
            bad = hi if type(lo) is int and 0 <= lo < n else lo
            raise ValueError(f"child id {bad!r} does not exist yet")
        self._kind.append(kind)
        self._var.append(var)
        self._lo.append(lo)
        self._hi.append(hi)
        return n

    def sink(self, value):
        value = int(value)
        i = self._sinks.get(value)
        if i is None:
            i = self._sinks[value] = self._add(SINK, None, value, None)
        return i

    def decision(self, var, lo, hi):
        return self._add(DECISION, var, lo, hi)

    def conj(self, left, right):
        return self._add(AND, None, left, right)

    def __len__(self):
        return len(self._kind)

    def finalize(self, source, declared_vars=None):
        """Freeze into a Diagram, dropping unreachable nodes and renumbering
        densely in old-id order."""
        kind, var, lo, hi = self._kind, self._var, self._lo, self._hi
        n = len(kind)
        if type(source) is not int or not 0 <= source < n:
            return Diagram.from_columns(kind, var, lo, hi, source, declared_vars)
        reached = [False] * n
        reached[source] = True
        for i in range(source, -1, -1):  # parents before children
            if reached[i] and kind[i]:
                reached[lo[i]] = reached[hi[i]] = True
        keep = [i for i in range(n) if reached[i]]
        if len(keep) == n:
            return Diagram.from_columns(kind, var, lo, hi, source, declared_vars)
        remap = dict(zip(keep, range(len(keep))))
        return Diagram.from_columns(
            [kind[i] for i in keep], [var[i] for i in keep],
            [remap[lo[i]] if kind[i] else lo[i] for i in keep],
            [remap[hi[i]] if kind[i] else None for i in keep],
            remap[source], declared_vars)


def copy_nodes(builder, b, root, redirect=None):
    """Copy the nodes at or below ``root`` into a builder, children first
    and sinks shared; returns the old-id to new-id map. A node that
    ``redirect`` maps to one of its descendants is not copied: it maps to
    that descendant's copy."""
    redirect = redirect or {}
    kind, var, lo, hi = b.kind, b.var, b.lo, b.hi
    below = {root}
    for i in reversed(b.topo()):  # parents first
        if i in below:
            below.update(b.children(i))
    remap = {}
    for i in b.topo():
        if i not in below:
            continue
        k = kind[i]
        if i in redirect:
            remap[i] = remap[redirect[i]]
        elif k == SINK:
            remap[i] = builder.sink(lo[i])
        elif k == DECISION:
            remap[i] = builder.decision(var[i], remap[lo[i]], remap[hi[i]])
        else:
            remap[i] = builder.conj(remap[lo[i]], remap[hi[i]])
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
    if names in b._verdicts:
        return b._verdicts[names]
    kind, var, lo, hi, below = b.kind, b.var, b.lo, b.hi, b._vars_below
    inner = [i for i, k in enumerate(kind) if k]
    decisions = [i for i in inner if kind[i] == DECISION]
    has_parent = {lo[i] for i in inner}
    has_parent.update(hi[i] for i in inner)
    sources = [i for i in range(len(kind)) if i not in has_parent]
    if sources != [b.source]:
        raise DiagramInvariantError(
            "single-source", tuple(sources),
            f"expected the single source {b.source}, found {sources}")
    by_value = {}
    for i, k in enumerate(kind):
        if k == SINK:
            by_value.setdefault(lo[i], []).append(i)
    for value, ids in by_value.items():
        if len(ids) > 1:
            raise DiagramInvariantError(
                "sink-form", tuple(ids), f"multiple sinks labelled {value}: {ids}")
    for i in inner:
        if kind[i] == AND:
            shared = below[lo[i]] & below[hi[i]]
            if shared:
                raise DiagramInvariantError(
                    "decomposability", i,
                    f"conjunction {i} children share {sorted(shared)}")
    for i in decisions:
        if var[i] in below[lo[i]] or var[i] in below[hi[i]]:
            raise DiagramInvariantError(
                "read-once", i, f"variable {var[i]!r} tested again below node {i}")
    has_and = AND in kind
    if names is not None:
        pos = {x: k for k, x in enumerate(names)}
        missing = b.vars - set(pos)
        if missing:
            raise ScopeError(f"order misses tested variables {sorted(missing)}")
        for i in decisions:
            for c in (lo[i], hi[i]):
                late = [y for y in below[c] if pos[y] <= pos[var[i]]]
                if late:
                    raise DiagramInvariantError(
                        "order", i,
                        f"{sorted(late)} tested below the {var[i]!r} node {i} "
                        f"but not after it in the order")
        ordered = names
    else:
        ordered = _infer_order(b, decisions)
    is_ordered = ordered is not None
    return b._verdicts.setdefault(names, DiagramClass(
        is_and_fbdd=True,
        is_fbdd=not has_and,
        is_obdd=is_ordered and not has_and,
        is_and_obdd=is_ordered,
        order=tuple(ordered) if is_ordered else None,
    ))


def _infer_order(b, decisions):
    """A linear order all paths obey, if the tested-before digraph is acyclic."""
    succ = {x: set() for x in b.vars}
    for i in decisions:
        later = succ[b.var[i]]
        later |= b.vars_below(b.lo[i])
        later |= b.vars_below(b.hi[i])
    for x, ys in succ.items():
        ys.discard(x)
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
    """The accepted-set recursion, bottom-up over the isomorphism classes;
    members may be partial."""
    config.check_scale(len(b.vars), config.BRUTE_FORCE_VAR_CAP, "variables")
    kind, var, lo, hi, _ = b._iso_table
    sets = [None] * len(kind)
    for c, k in enumerate(kind):
        if k == SINK:
            sets[c] = AssignmentSet([Assignment()]) if lo[c] else AssignmentSet()
        elif k == DECISION:
            zero = product(sets[lo[c]], AssignmentSet([Assignment({var[c]: 0})]))
            one = product(sets[hi[c]], AssignmentSet([Assignment({var[c]: 1})]))
            sets[c] = zero | one
        else:
            sets[c] = product(sets[lo[c]], sets[hi[c]])
    return sets[b._iso[b.source]]


def evaluate(b, a):
    """One pass over the isomorphism classes; requires a total assignment
    over vars(b)."""
    if not b.vars <= a.vars:
        raise ScopeError(f"assignment leaves {sorted(b.vars - a.vars)} unset")
    kind, var, lo, hi, _ = b._iso_table
    val = [0] * len(kind)
    for c, k in enumerate(kind):
        if k == SINK:
            val[c] = lo[c]
        elif k == DECISION:
            val[c] = val[hi[c]] if a[var[c]] else val[lo[c]]
        else:
            val[c] = val[lo[c]] & val[hi[c]]
    return val[b._iso[b.source]]


def satisfying_set(b, universe=None):
    """All total assignments over the universe satisfying the diagram."""
    universe = frozenset(universe) if universe is not None else b.vars
    if not b.vars <= universe:
        raise ScopeError(f"universe misses {sorted(b.vars - universe)}")
    order = sorted(universe)
    return decode_table(order, truth_table(b, order))


def truth_table(b, order):
    """Model indicator bitset over an ordered universe covering vars(b),
    each name once.

    This is diagram-route semantics (the extension reading of the accepted
    sets), vectorized; it shares no code path with the clause-route tables.
    """
    order = check_order(order, b.vars)
    config.check_scale(len(order), config.BRUTE_FORCE_VAR_CAP, "variables")
    n = len(order)
    size = 1 << n
    full = (1 << size) - 1
    pats = {name: pattern(n, p) for p, name in enumerate(order)}
    kind, var, lo, hi, _ = b._iso_table
    tt = [0] * len(kind)
    for c, k in enumerate(kind):
        if k == SINK:
            tt[c] = full if lo[c] else 0
        elif k == DECISION:
            pat = pats[var[c]]
            tt[c] = (pat & tt[hi[c]]) | ((full ^ pat) & tt[lo[c]])
        else:
            tt[c] = tt[lo[c]] & tt[hi[c]]
    return tt[b._iso[b.source]]


def count_models(b, universe=None):
    """Exact satisfying-assignment count over the universe, one pass over the
    isomorphism classes (isomorphic nodes have equal counts).

    Per node the count is over vars(B_u): each decision branch scales by the
    free variables it skips, a conjunction multiplies its children, and the
    source count lifts to the universe by the untested variables. A child's
    tested set lies inside its parent's, so a branch skips |vars(B_u)| minus
    the child's count of variables, less one for the tested variable unless
    the child tests it again; a conjunction's set is exactly the union of its
    children's, so it skips none.
    """
    universe = frozenset(universe) if universe is not None else b.vars
    if not b.vars <= universe:
        raise ScopeError(f"universe misses {sorted(b.vars - universe)}")
    kind, var, lo, hi, below = b._iso_table
    counts = [0] * len(kind)
    for c, k in enumerate(kind):
        if k == SINK:
            counts[c] = lo[c]
        elif k == DECISION:
            x, zero, one = var[c], lo[c], hi[c]
            mine = len(below[c])
            lo_free = mine - len(below[zero]) - (x not in below[zero])
            hi_free = mine - len(below[one]) - (x not in below[one])
            counts[c] = (counts[zero] << lo_free) + (counts[one] << hi_free)
        else:
            counts[c] = counts[lo[c]] * counts[hi[c]]
    return counts[b._iso[b.source]] << (len(universe) - len(b.vars))


def path_assignment(b, node_ids):
    """The assignment read off a directed path's decision out-edges.

    The last node contributes nothing (its out-edge is not on the path). A
    decision step whose 0- and 1-edges share the target is ambiguous and
    rejected.
    """
    node_ids = list(node_ids)
    pairs = []
    for u, v in zip(node_ids, node_ids[1:]):
        if v not in b.children(u):
            raise ValueError(f"({u},{v}) is not an edge")
        if b.kind[u] == DECISION:
            if b.lo[u] == b.hi[u]:
                raise ValueError(f"node {u} has parallel out-edges; bit is ambiguous")
            pairs.append((b.var[u], 1 if v == b.hi[u] else 0))
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
    for i, k, x, a, c in zip(range(len(b.kind)), b.kind, b.var, b.lo, b.hi):
        if k == DECISION:
            entries.append(f'    {{\n      "hi": {c},\n      "id": {i},\n'
                           f'      "kind": "decision",\n      "lo": {a},\n'
                           f'      "var": {quoted[x]}\n    }}')
        elif k == AND:
            entries.append(f'    {{\n      "id": {i},\n      "kind": "and",\n'
                           f'      "left": {a},\n      "right": {c}\n    }}')
        else:
            entries.append(f'    {{\n      "id": {i},\n      "kind": "sink",\n'
                           f'      "value": {a}\n    }}')
    names = sorted(b.declared_vars if b.declared_vars is not None else b.vars)
    if names:
        listed = "[\n" + ",\n".join(f"    {quoted[x]}" for x in names) + "\n  ]"
    else:
        listed = "[]"
    return ('{\n  "nodes": [\n' + ",\n".join(entries)
            + f'\n  ],\n  "source": {b.source},\n  "vars": {listed}\n}}\n')


def from_json(text):
    """A diagram from JSON text. Beyond the shape, node ids are dense, child
    ids and the source are integers naming nodes, a sink's value is 0 or 1,
    and every variable name is a string; anything else is a FormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad diagram JSON: {exc}") from exc
    try:
        entries = doc["nodes"]
        dense = list(range(len(entries)))
        ids = [e["id"] for e in entries]
        if ids != dense:
            entries = sorted(entries, key=lambda e: e["id"])
            ids = [e["id"] for e in entries]
        if ids != dense or set(map(type, ids)) - {int}:
            raise FormatError("node ids must be dense 0..n-1")
        return Diagram.from_columns(*_columns(entries), doc["source"], doc.get("vars"))
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
    for i, k in enumerate(b.kind):
        if k == DECISION:
            lines.append(f'  n{i} [label="{b.var[i]}", shape=circle];')
        elif k == AND:
            lines.append(f'  n{i} [label="∧", shape=circle];')
        else:
            label = "T" if b.lo[i] else "F"
            lines.append(f'  n{i} [label="{label}", shape=box];')
    for i, k in enumerate(b.kind):
        if k == DECISION:
            lines.append(f"  n{i} -> n{b.lo[i]} [style=dashed, label=0];")
            lines.append(f"  n{i} -> n{b.hi[i]} [label=1];")
        elif k == AND:
            lines.append(f"  n{i} -> n{b.lo[i]};")
            lines.append(f"  n{i} -> n{b.hi[i]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
