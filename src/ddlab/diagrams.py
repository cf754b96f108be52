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
from array import array
from dataclasses import dataclass

from . import config
from .assignments import (Assignment, AssignmentSet, check_order, check_universe, decode_table,
                          product)
from .errors import DiagramInvariantError, FormatError, ScopeError
from .kernels import pattern


# The codes of the ``kind`` column.
SINK, DECISION, AND = 0, 1, 2


def _columns(entries):
    """The kind, var, lo and hi columns of a node table given as JSON
    entries in id order."""
    kind, var, lo, hi = [], [], [], []
    names = {}  # one string per distinct name: parsed JSON holds one per node
    for i, e in enumerate(entries):
        k = e["kind"]
        if k == "decision":
            kind.append(DECISION)
            x = e["var"]
            var.append(names.setdefault(x, x) if type(x) is str else x)
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
            hi.append(-1)
        else:
            raise FormatError(f"node {i} has unknown kind {k!r}")
    return kind, var, lo, hi


def _check(kind, var, lo, hi):
    """Raise on the first node, in id order, that is not well formed: a
    decision or conjunction whose children are not int ids of nodes, a
    decision variable that is not a string, a kind other than the three
    codes, or a sink whose value is not 0 or 1 or whose hi is not -1."""
    n = len(kind)
    for i, k, x, a, b in zip(range(n), kind, var, lo, hi):
        if k == DECISION or k == AND:
            for c in (a, b):
                if type(c) is not int or not 0 <= c < n:
                    raise FormatError(f"node {i} references missing child {c!r}")
            if k == DECISION and not isinstance(x, str):
                raise FormatError(f"node {i} tests {x!r}; variable names are strings")
        elif k != SINK:
            raise FormatError(f"node {i} has unknown kind code {k!r}")
        elif type(a) is not int or a not in (0, 1):
            raise FormatError(f"sink {i} has value {a!r}; a sink is 0 or 1")
        elif type(b) is not int or b != -1:
            raise FormatError(f"sink {i} has hi {b!r}; a sink's hi is -1")


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


def _expand(kind, var, lo, hi, copies):
    """The expanded table ``Diagram()`` describes for ``copies``,
    as new ``kind``, ``lo`` and ``hi`` arrays and a ``var`` tuple, and the
    copies as a tuple; a malformed copy is a FormatError. Every entry of
    the given ``kind``, ``lo`` and ``hi`` is an int."""
    copies = tuple(copies)
    ekind, evar, elo, ehi = array("b"), [], array("l"), array("l")
    done = 0  # given rows taken
    for copy in copies:
        if not (type(copy) is tuple and len(copy) == 3 and all(type(v) is int for v in copy)):
            raise FormatError(f"copy {copy!r} is not three ints (at, a, b)")
        at, a, b = copy
        if not 0 <= a < b:
            raise FormatError(f"copy {copy!r} copies no rows: it needs 0 <= a < b")
        if b > at:
            raise FormatError(f"copy {copy!r} copies rows at or past its own start: b > at")
        take = at - len(ekind)
        if not 0 <= take <= len(kind) - done:
            raise FormatError(f"copy {copy!r} starts at {at}, not at the length the "
                              f"table reaches before it")
        ekind.extend(kind[done:done + take])
        evar.extend(var[done:done + take])
        elo.extend(lo[done:done + take])
        ehi.extend(hi[done:done + take])
        done += take
        shift = at - a
        ekind.extend(ekind[a:b])
        evar.extend(evar[a:b])
        # a sink's lo is its value, which a copy from row 0 or 1 must not move
        elo.extend([c + shift if c >= a else c for c in elo[a:b]] if a > 1 else
                   [c + shift if k and c >= a else c for k, c in zip(ekind[a:b], elo[a:b])])
        ehi.extend([c + shift if c >= a else c for c in ehi[a:b]])
    ekind.extend(kind[done:])
    evar.extend(var[done:])
    elo.extend(lo[done:])
    ehi.extend(hi[done:])
    return ekind, tuple(evar), elo, ehi, copies


def _classify(kind, var, lo, hi, topo=None, copies=()):
    """Hash-cons the nodes into isomorphism classes in one children-first
    pass, and read off each class's tested variables.

    Without ``topo`` the pass runs in id order and also checks each node as
    ``_check`` does; it returns None at the first node that fails, or whose
    child ids are not below its own, so that the caller can run ``_check``
    for the error and pass a ``topo`` order. With ``topo`` the nodes were
    checked and the pass runs in that order.

    ``copies`` lists the ``(at, a, b)`` spans of an id-order table that are
    shifted copies of the checked children-first rows ``a`` to ``b - 1``, as
    ``_expand`` makes them: the pass skips each span and gives its rows the
    classes of the rows it copies, since a copied node has the kind and
    variable of its original and children of the same classes.

    A class is keyed by a sink's value, or by a node's variable (None on a
    conjunction) and its children's classes, so two nodes share a class iff
    their subdiagrams are equal once isomorphic subdiagrams are merged.
    Classes are numbered as first met, so class order is children-first too.
    Returns each node's class and the per-class kind, var, lo, hi and
    tested-set columns, lo and hi naming classes (a sink class's value is its
    lo). Equal tested sets are one shared object: a union is computed once per
    distinct (var, lo set, hi set), however many classes repeat it."""
    n = len(kind)
    empty = frozenset()
    iso = array("l", [0]) * n
    ids = {}  # sink value, or (var, lo class, hi class) -> class
    ckind, cvar, clo, chi, ctested = [], [], [], [], []
    unions = {}  # (var, lo set, hi set) -> union, for classes repeating one
    shared = {empty: empty}
    start = 0
    for at, first, stop in (*copies, (n, n, n)):  # the last span is empty
        rows = (zip(range(start, at), kind[start:at], var[start:at], lo[start:at], hi[start:at])
                if topo is None else ((i, kind[i], var[i], lo[i], hi[i]) for i in topo))
        for i, k, x, a, b in rows:
            if k:
                if topo is None and not (
                        type(a) is int and type(b) is int and 0 <= a < i and 0 <= b < i
                        and (isinstance(x, str) if k == DECISION else k == AND)):
                    return None
                one, two = iso[a], iso[b]
                key = (x, one, two)
            else:
                if topo is None and not (k == SINK and type(a) is int and a in (0, 1)
                                         and type(b) is int and b == -1):
                    return None
                x, one, two = None, a, -1
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
        start = at + stop - first
        iso[at:start] = iso[first:stop]
    return iso, (ckind, cvar, clo, chi, ctested)


class Diagram:
    """An immutable node table with a designated source, kept as parallel
    columns indexed by node id.

    ``kind[i]`` is ``SINK``, ``DECISION`` or ``AND``. A decision node tests
    ``var[i]`` and has the 0-child ``lo[i]`` and the 1-child ``hi[i]``; a
    conjunction has the children ``lo[i]`` (left) and ``hi[i]`` (right); a
    sink's value, 0 or 1, is ``lo[i]`` and its ``hi[i]`` is -1. ``kind`` is
    an ``array("b")``, ``lo`` and ``hi`` are ``array("l")``s and ``var`` is
    a tuple, None off decision nodes. Construction also sorts the nodes into
    isomorphism classes (``iso_class``, ``merged_size``), and keeps each
    class's tested variables; the semantic passes run once per class
    reachable from the source, not per node.
    """

    __slots__ = ("kind", "var", "lo", "hi", "source", "declared_vars",
                 "_topo", "_iso", "_iso_table", "_verdicts")

    def __init__(self, kind, var, lo, hi, source, declared_vars=None, copies=()):
        """A diagram from its four columns in id order; a malformed table
        is a FormatError. The columns are copied: no array of the diagram
        is one the caller holds.

        ``copies`` holds ``(at, a, b)`` instructions, run in order: the
        given rows fill the table up to ``at`` nodes, then the rows ``a`` to
        ``b - 1`` are appended again with each child id ``c >= a`` moved to
        ``c + at - a`` (lower ids and sink values stay), and the given rows
        left after the last copy follow. The given child ids and ``source``
        name rows of this expanded table. The diagram equals the one made
        from the expanded columns, but when the rows up to each copy are
        children first, a copied row takes the class of the row it copies
        and is not hash-consed again. A copy that is not three ints with
        ``0 <= a < b <= at``, or whose ``at`` is not the length the table
        reaches before it, is a FormatError."""
        if copies:
            kind, var, lo, hi, copies = _expand(kind, var, lo, hi, copies)
        var = tuple(var)
        n = len(kind)
        # ``topo()`` is computed when first asked for, unless classifying
        # needs it now: when the ids are not children-first
        self._topo = None
        classes = _classify(kind, var, lo, hi, copies=copies)
        if classes is None:
            _check(kind, var, lo, hi)
            self._topo = _toposort(kind, lo, hi)
            classes = _classify(kind, var, lo, hi, self._topo)
        if type(source) is not int or not 0 <= source < n:
            raise FormatError(f"source {source!r} is not a node id")
        self.source = source
        if not copies:  # expanded columns are new arrays; other columns are the caller's
            kind, lo, hi = array("b", kind), array("l", lo), array("l", hi)
        self.kind, self.var, self.lo, self.hi = kind, var, lo, hi
        iso, (ckind, cvar, clo, chi, ctested) = classes
        self._iso = iso
        reached = [False] * len(ckind)
        reached[iso[source]] = True
        for c in range(len(ckind) - 1, -1, -1):
            if reached[c] and ckind[c]:
                reached[clo[c]] = reached[chi[c]] = True
        # the classes the semantic passes visit: those reachable from the
        # source, children first, as a range when that is all of them
        self._iso_table = (tuple(ckind), tuple(cvar), tuple(clo), tuple(chi),
                           tuple(ctested), range(len(ckind)) if all(reached)
                           else tuple([c for c, r in enumerate(reached) if r]))
        tested = ctested[iso[source]]
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

    @property
    def size(self):
        """The size measure |B|: the number of nodes."""
        return len(self.kind)

    @property
    def vars(self):
        return self._iso_table[4][self._iso[self.source]]

    def vars_below(self, node_id):
        return self._iso_table[4][self._iso[node_id]]

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

    def __eq__(self, other):
        return (isinstance(other, Diagram) and self.source == other.source
                and self.kind == other.kind and self.var == other.var
                and self.lo == other.lo and self.hi == other.hi
                and self.declared_vars == other.declared_vars)

    def __hash__(self):
        return hash((self.kind.tobytes(), self.var, self.lo.tobytes(), self.hi.tobytes(),
                     self.source))

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
            i = self._sinks[value] = self._add(SINK, None, value, -1)
        return i

    def decision(self, var, lo, hi):
        return self._add(DECISION, var, lo, hi)

    def conj(self, left, right):
        return self._add(AND, None, left, right)

    def finalize(self, source, declared_vars=None):
        """Freeze into a Diagram, dropping unreachable nodes and renumbering
        densely in old-id order."""
        kind, var, lo, hi = self._kind, self._var, self._lo, self._hi
        n = len(kind)
        if type(source) is not int or not 0 <= source < n:
            return Diagram(kind, var, lo, hi, source, declared_vars)
        reached = [False] * n
        reached[source] = True
        for i in range(source, -1, -1):  # parents before children
            if reached[i] and kind[i]:
                reached[lo[i]] = reached[hi[i]] = True
        keep = [i for i in range(n) if reached[i]]
        if len(keep) == n:
            return Diagram(kind, var, lo, hi, source, declared_vars)
        remap = dict(zip(keep, range(len(keep))))
        return Diagram(
            [kind[i] for i in keep], [var[i] for i in keep],
            [remap[lo[i]] if kind[i] else lo[i] for i in keep],
            [remap[hi[i]] if kind[i] else -1 for i in keep],
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
    names = order if order is None or isinstance(order, tuple) else tuple(order)
    if names in b._verdicts:
        return b._verdicts[names]
    kind, lo, hi = b.kind, b.lo, b.hi
    inner = [i for i, k in enumerate(kind) if k]
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
    # the other invariants depend on a node's isomorphism class alone, so
    # each is checked once per class; a failure cites the least node id of
    # all classes that fail it, the node a check in id order meets first
    ckind, cvar, clo, chi, tested, _ = b._iso_table
    first = b._iso.index
    decisions = [c for c, k in enumerate(ckind) if k == DECISION]
    bad = [(first(c), c) for c, k in enumerate(ckind)
           if k == AND and tested[clo[c]] & tested[chi[c]]]
    if bad:
        i, c = min(bad)
        raise DiagramInvariantError(
            "decomposability", i,
            f"conjunction {i} children share {sorted(tested[clo[c]] & tested[chi[c]])}")
    bad = [first(c) for c in decisions
           if cvar[c] in tested[clo[c]] or cvar[c] in tested[chi[c]]]
    if bad:
        i = min(bad)
        raise DiagramInvariantError(
            "read-once", i, f"variable {b.var[i]!r} tested again below node {i}")
    has_and = AND in ckind
    if names is not None:
        check_order(names, b.vars)
        pos = {x: k for k, x in enumerate(names)}
        bad = []
        for c in decisions:
            x = cvar[c]
            for child in (clo[c], chi[c]):
                late = [y for y in tested[child] if pos[y] <= pos[x]]
                if late:
                    bad.append((first(c), x, late))
                    break
        if bad:
            i, x, late = min(bad)
            raise DiagramInvariantError(
                "order", i,
                f"{sorted(late)} tested below the {x!r} node {i} but not after it in the order")
        ordered = names
    else:
        ordered = _infer_order(b)
    is_ordered = ordered is not None
    return b._verdicts.setdefault(names, DiagramClass(
        is_and_fbdd=True,
        is_fbdd=not has_and,
        is_obdd=is_ordered and not has_and,
        is_and_obdd=is_ordered,
        order=tuple(ordered) if is_ordered else None,
    ))


def _infer_order(b):
    """A linear order all paths obey, if the tested-before digraph is acyclic."""
    kind, var, lo, hi, tested, _ = b._iso_table
    succ = {x: set() for x in b.vars}
    for c, k in enumerate(kind):
        if k == DECISION:
            later = succ[var[c]]
            later |= tested[lo[c]]
            later |= tested[hi[c]]
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
    """The accepted-set recursion, bottom-up over the reachable isomorphism
    classes; members may be partial."""
    config.check_scale(len(b.vars), config.BRUTE_FORCE_VAR_CAP, "variables")
    kind, var, lo, hi, _, live = b._iso_table
    sets = [None] * len(kind)
    for c in live:
        if kind[c] == SINK:
            sets[c] = AssignmentSet([Assignment()]) if lo[c] else AssignmentSet()
        elif kind[c] == DECISION:
            zero = product(sets[lo[c]], AssignmentSet([Assignment({var[c]: 0})]))
            one = product(sets[hi[c]], AssignmentSet([Assignment({var[c]: 1})]))
            sets[c] = zero | one
        else:
            sets[c] = product(sets[lo[c]], sets[hi[c]])
    return sets[b._iso[b.source]]


def evaluate(b, a):
    """One pass over the reachable isomorphism classes; requires a total
    assignment over vars(b)."""
    if not b.vars <= a.vars:
        raise ScopeError(f"assignment leaves {sorted(b.vars - a.vars)} unset")
    kind, var, lo, hi, _, live = b._iso_table
    val = [0] * len(kind)
    for c in live:
        if kind[c] == SINK:
            val[c] = lo[c]
        elif kind[c] == DECISION:
            val[c] = val[hi[c]] if a[var[c]] else val[lo[c]]
        else:
            val[c] = val[lo[c]] & val[hi[c]]
    return val[b._iso[b.source]]


def satisfying_set(b, universe=None):
    """All total assignments over the universe satisfying the diagram."""
    universe = b.vars if universe is None else check_universe(universe, b.vars)
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
    kind, var, lo, hi, _, live = b._iso_table
    tt = [0] * len(kind)
    for c in live:
        if kind[c] == SINK:
            tt[c] = full if lo[c] else 0
        elif kind[c] == DECISION:  # hi where the variable is 1, lo elsewhere
            low = tt[lo[c]]
            tt[c] = low ^ (pats[var[c]] & (tt[hi[c]] ^ low))
        else:
            tt[c] = tt[lo[c]] & tt[hi[c]]
    return tt[b._iso[b.source]]


def count_models(b, universe=None):
    """Exact satisfying-assignment count over the universe, one pass over the
    reachable isomorphism classes (isomorphic nodes have equal counts).

    Per node the count is over vars(B_u): each decision branch scales by the
    free variables it skips, a conjunction multiplies its children, and the
    source count lifts to the universe by the untested variables. A child's
    tested set lies inside its parent's, so a branch skips |vars(B_u)| minus
    the child's count of variables, less one for the tested variable unless
    the child tests it again; a conjunction's set is exactly the union of its
    children's, so it skips none.
    """
    universe = b.vars if universe is None else check_universe(universe, b.vars)
    kind, var, lo, hi, below, live = b._iso_table
    counts = [0] * len(kind)
    for c in live:
        if kind[c] == SINK:
            counts[c] = lo[c]
        elif kind[c] == DECISION:
            x, zero, one = var[c], lo[c], hi[c]
            mine = len(below[c])
            lo_free = mine - len(below[zero]) - (x not in below[zero])
            hi_free = mine - len(below[one]) - (x not in below[one])
            counts[c] = (counts[zero] << lo_free) + (counts[one] << hi_free)
        else:
            counts[c] = counts[lo[c]] * counts[hi[c]]
    return counts[b._iso[b.source]] << (len(universe) - len(b.vars))


# ---------------------------------------------------------------------------
# serialization


class _Quoted(dict):
    """Variable name -> its JSON string literal, quoted once per name."""

    def __missing__(self, name):
        self[name] = quoted = json.dumps(name)
        return quoted


# nodes per piece that ``json_chunks`` yields
JSON_BLOCK = 2048


def json_chunks(b):
    """The diagram's JSON text in pieces, each node entry written once and
    no piece holding more than ``JSON_BLOCK`` nodes; joined, they are
    ``to_json(b)``."""
    quoted = _Quoted()
    kind, var, lo, hi = b.kind, b.var, b.lo, b.hi
    yield '{\n  "nodes": [\n'
    for start in range(0, len(kind), JSON_BLOCK):
        stop = start + JSON_BLOCK
        entries = [f'    {{\n      "hi": {c},\n      "id": {i},\n      "kind": "decision",\n'
                   f'      "lo": {a},\n      "var": {quoted[x]}\n    }}' if k == DECISION else
                   f'    {{\n      "id": {i},\n      "kind": "and",\n'
                   f'      "left": {a},\n      "right": {c}\n    }}' if k else
                   f'    {{\n      "id": {i},\n      "kind": "sink",\n      "value": {a}\n    }}'
                   for i, k, x, a, c in zip(range(start, stop), kind[start:stop],
                                            var[start:stop], lo[start:stop], hi[start:stop])]
        yield (",\n" if start else "") + ",\n".join(entries)
    names = sorted(b.declared_vars if b.declared_vars is not None else b.vars)
    if names:
        listed = "[\n" + ",\n".join(f"    {quoted[x]}" for x in names) + "\n  ]"
    else:
        listed = "[]"
    yield f'\n  ],\n  "source": {b.source},\n  "vars": {listed}\n}}\n'


def to_json(b):
    """The diagram as JSON text: the bytes of ``json.dumps(doc, indent=2,
    sort_keys=True)`` plus a newline, where doc holds the source, the sorted
    declared (else tested) variables and one entry per node in id order."""
    return "".join(json_chunks(b))


def from_json(text):
    """A diagram from JSON text. Beyond the shape, node ids are dense, child
    ids and the source are integers naming nodes, a sink's value is 0 or 1,
    ``vars``, when present, is a list naming each variable once, and every
    variable name is a string; anything else is a FormatError."""
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
        names = doc.get("vars")
        if "vars" in doc and type(names) is not list:
            raise FormatError(f"vars must be a JSON list, not {names!r}")
        if names is not None and len(set(names)) != len(names):
            twice = next(x for k, x in enumerate(names) if x in names[:k])
            raise FormatError(f"vars lists {twice!r} twice")
        return Diagram(*_columns(entries), doc["source"], names)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad diagram JSON: {exc}") from exc


def save(b, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json_chunks(b))


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
