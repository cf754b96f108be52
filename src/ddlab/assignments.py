"""Partial truth assignments and finite sets of them.

An :class:`Assignment` is a finite map from variable names to bits; an
:class:`AssignmentSet` is a finite set of assignments together with the union
of their variable sets. The operations here are the set algebra the rest of
the package is verified against: Cartesian product over disjoint universes,
projection, restriction, and the rectangle "breaks" test. Variable orders
are :class:`LinearOrder` tuples, each made by the one order check,
``check_order``.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .errors import DomainOverlapError, ScopeError, UniformityError


def as_bit(value, what):
    """``value`` as the int 0 or 1; anything but an int or bool equal to 0 or 1
    (a float, a string) raises ``ValueError`` naming ``what``."""
    if isinstance(value, int) and value in (0, 1):
        return int(value)
    raise ValueError(f"{what} must be 0 or 1, got {value!r}")


class Assignment:
    """An immutable partial truth assignment."""

    __slots__ = ("_items", "_map", "_hash")

    def __init__(self, bindings=()):
        if isinstance(bindings, Assignment):
            self._items = bindings._items
            self._map = bindings._map
            self._hash = bindings._hash
            return
        if isinstance(bindings, dict):
            pairs = bindings.items()
        else:
            pairs = bindings
        m = {}
        for name, bit in pairs:
            if type(bit) is not int or bit >> 1:  # only the ints 0 and 1 skip the call
                bit = as_bit(bit, f"bit for {name!r}")
            if name in m and m[name] != bit:
                raise ValueError(f"variable {name!r} bound twice with conflicting bits")
            m[name] = bit
        self._map = m
        self._items = tuple(sorted(m.items()))
        self._hash = hash(self._items)

    @classmethod
    def _rows(cls, items):
        """The assignment whose sorted items are ``items``: a tuple of
        (name, bit) pairs, names strictly increasing and bits the ints 0 and
        1. Nothing is checked; the callers build such tuples only. Its
        name-to-bit map is made when first read (``__getattr__``)."""
        a = object.__new__(cls)
        a._items = items
        a._hash = hash(items)
        return a

    def __getattr__(self, name):
        # called only when normal lookup fails; for ``_map`` that is a member
        # from ``_rows`` whose map no read has made yet
        if name != "_map":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._map = m = dict(self._items)
        return m

    @property
    def vars(self):
        return frozenset(self._map)

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __contains__(self, name):
        return name in self._map

    def __getitem__(self, name):
        return self._map[name]

    def get(self, name, default=None):
        return self._map.get(name, default)

    def __eq__(self, other):
        return isinstance(other, Assignment) and self._items == other._items

    def __hash__(self):
        return self._hash

    def __le__(self, other):
        """Containment: self is a sub-assignment of other."""
        if len(self._items) > len(other._items):
            return False
        get = other._map.get
        return all(get(n) == b for n, b in self._items)

    def union(self, other):
        """Join two consistent assignments; raises on a conflicting bit."""
        m = dict(self._map)
        for n, b in other._items:
            if m.setdefault(n, b) != b:
                raise ValueError(f"inconsistent union at variable {n!r}")
        return Assignment(m)

    def minus(self, other):
        """Drop the bindings of ``other``'s variables."""
        drop = other._map if isinstance(other, Assignment) else set(other)
        return Assignment._rows(tuple(item for item in self._items if item[0] not in drop))

    def project(self, names):
        names = set(names)
        return Assignment._rows(tuple(item for item in self._items if item[0] in names))

    def render(self):
        return ",".join([f"{n}={b}" for n, b in self._items])

    def __repr__(self):
        return f"Assignment({{{self.render()}}})"

    @staticmethod
    def parse(text):
        """Inverse of :meth:`render`; empty string is the empty assignment.

        Names may contain commas (grid vertices do), so tokens are delimited
        by the ``=bit`` tail rather than by splitting on commas.
        """
        import re
        text = text.strip()
        if not text:
            return Assignment()
        pairs = []
        pos = 0
        for m in re.finditer(r"(.+?)=([01])(?:,|$)", text):
            if m.start() != pos:
                raise ValueError(f"bad assignment text at {text[pos:]!r}")
            pairs.append((m.group(1).strip(), int(m.group(2))))
            pos = m.end()
        if pos != len(text):
            raise ValueError(f"bad assignment text at {text[pos:]!r}")
        return Assignment(pairs)


EMPTY = Assignment()


class AssignmentSet:
    """A finite set of assignments; the universe is the union of member vars."""

    __slots__ = ("elements", "universe")

    def __init__(self, elements=()):
        self.elements = frozenset(Assignment(e) if not isinstance(e, Assignment) else e
                                  for e in elements)
        u = set()
        add = u.add
        for a in self.elements:
            for name, _ in a._items:
                add(name)
        self.universe = frozenset(u)

    @classmethod
    def _uniform(cls, members, universe):
        """The set of ``members``, assignments that each bind exactly the
        names of the frozenset ``universe``; an empty set's universe is
        empty. Nothing is checked; the callers build such members only."""
        s = object.__new__(cls)
        s.elements = frozenset(members)
        s.universe = universe if s.elements else frozenset()
        return s

    @property
    def is_uniform(self):
        # every member's variables lie in the universe, so equal sizes suffice
        n = len(self.universe)
        return all(len(a._items) == n for a in self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, a):
        return a in self.elements

    def __eq__(self, other):
        return isinstance(other, AssignmentSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __or__(self, other):
        return AssignmentSet(self.elements | other.elements)

    def render(self):
        return "".join(a.render() + "\n" for a in sorted(self.elements, key=lambda a: a._items))

    def __repr__(self):
        return f"AssignmentSet(<{len(self.elements)} over {sorted(self.universe)}>)"


def cube(names):
    """All total assignments over ``names``; cube(()) is {empty}."""
    names = sorted(set(names))
    return AssignmentSet(Assignment(zip(names, bits))
                         for bits in itertools.product((0, 1), repeat=len(names)))


class LinearOrder(tuple):
    """A permutation of a ground set: the tuple of its names. Every one is
    made by ``check_order``; ``LinearOrder(names)`` is ``check_order(names, ())``."""

    def __new__(cls, names):
        return check_order(names, ())

    @property
    def names(self):
        return self

    def position(self, name):
        """The index of ``name``; the lookup table is built on first use."""
        if "_pos" not in self.__dict__:
            self._pos = {n: i for i, n in enumerate(self)}
        return self._pos[name]

    def prefix(self, k):
        return frozenset(self[:k])

    def __repr__(self):
        return f"LinearOrder({list(self)!r})"


def check_order(order, needed, exact=False):
    """``order`` (any iterable of names) as a ``LinearOrder``, itself when it
    is one: the one check of an order, a ScopeError unless it names no
    variable twice and every variable of the set ``needed``, and with
    ``exact`` no other."""
    names = order if type(order) is LinearOrder else tuple.__new__(LinearOrder, order)
    seen = set(names)
    if len(seen) != len(names):
        raise ScopeError(f"order repeats {sorted({x for x in names if names.count(x) > 1})}")
    if not seen.issuperset(needed):
        raise ScopeError(f"order misses {sorted(set(needed) - seen)}")
    if exact and len(seen) != len(needed):
        raise ScopeError(f"order names foreign variables {sorted(seen - set(needed))}")
    return names


def check_universe(universe, needed):
    """``universe`` as a frozenset: the one check of a universe, a ScopeError
    unless it holds every variable of the set ``needed``."""
    universe = frozenset(universe)
    if not needed <= universe:
        raise ScopeError(f"universe misses {sorted(needed - universe)}")
    return universe


def decode_table(order, table):
    """The uniform set a truth table encodes: bit m of ``table`` set means a
    member binding ``order[p]`` to bit ``len(order) - 1 - p`` of m.

    ``order`` must be strictly increasing, so that each member's sorted items
    are the items of the high half of m followed by those of the low half;
    both halves' item tuples are made once."""
    order = tuple(order)
    if any(a >= b for a, b in zip(order, order[1:])):
        raise ValueError("decode_table needs a strictly increasing order")
    n = len(order)
    low = n // 2
    high_rows = _half_rows(order[:n - low])
    low_rows = _half_rows(order[n - low:])
    low_mask = (1 << low) - 1
    rows = Assignment._rows
    raw = table.to_bytes(((1 << n) + 7) // 8, "little")
    out = []
    for byte_index, byte in enumerate(raw):
        while byte:
            bit = byte & -byte
            m = byte_index * 8 + bit.bit_length() - 1
            out.append(rows(high_rows[m >> low] + low_rows[m & low_mask]))
            byte ^= bit
    return AssignmentSet._uniform(out, frozenset(order))


def _half_rows(names):
    """Entry m: the items binding ``names[p]`` to bit ``len(names) - 1 - p`` of m."""
    return [tuple(zip(names, bits)) for bits in itertools.product((0, 1), repeat=len(names))]


def product(h1, h2):
    """Cartesian product of assignment sets over disjoint universes."""
    if h1.universe & h2.universe:
        raise DomainOverlapError(
            f"universes overlap on {sorted(h1.universe & h2.universe)}")
    return AssignmentSet(a.union(b) for a in h1 for b in h2)


def product_all(sets):
    acc = AssignmentSet([EMPTY])
    for h in sets:
        acc = product(acc, h)
    return acc


def project_set(h, names):
    """Memberwise projection; the result universe shrinks accordingly."""
    names = set(names)
    return AssignmentSet(a.project(names) for a in h)


def restrict_set(h, a):
    """Restriction of a set by an assignment.

    Members extending the projection of ``a`` onto the set's universe survive,
    with that projection's bindings removed.
    """
    a0 = a.project(h.universe)
    names = sorted(h.universe)
    # a uniform member's sorted items line up with names: compare the items
    # at a0's positions in one call and keep the others
    pick = _picker([p for p, name in enumerate(names) if name in a0])
    rest = _picker([p for p, name in enumerate(names) if name not in a0])
    want = a0._items
    n = len(names)
    rows = Assignment._rows
    out = []
    uniform = True
    for b in h.elements:
        items = b._items
        if len(items) == n:
            if pick(items) == want:
                out.append(rows(rest(items)))
        else:
            uniform = False
            if a0 <= b:
                out.append(b.minus(a0))
    if uniform:  # every survivor binds the names of h's universe outside a0's
        return AssignmentSet._uniform(out, h.universe - a0.vars)
    return AssignmentSet(out)


def _picker(positions):
    """A function from a tuple to the tuple of its entries at ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        p = positions[0]
        return lambda row: (row[p],)
    return lambda row: ()


def _finest_parts(rows, low, n):
    """The finest Cartesian factorization of the integer ``rows`` over bits
    ``low .. n-1``, as a list of disjoint masks covering those bits.

    Splits on the lowest bit x: each half is factored, and the two partitions
    are joined. A join block on which both halves project alike is a part of
    the whole; every other block joins x's part. A variable fixed across the
    rows is a part by itself.
    """
    if low == n:
        return []
    if len(rows) == 1:
        return [1 << i for i in range(low, n)]
    x = 1 << low
    r0 = [r for r in rows if not r & x]
    r1 = [r for r in rows if r & x]
    if not r0 or not r1:
        return [x] + _finest_parts(r0 or r1, low + 1, n)
    blocks = _finest_parts(r0, low + 1, n)
    for part in _finest_parts(r1, low + 1, n):
        keep = [b for b in blocks if not b & part]
        if len(keep) < len(blocks) - 1:  # part spans several blocks: merge them
            part = sum(blocks) - sum(keep)
            blocks = keep + [part]
    parts = []
    for b in blocks:
        if {r & b for r in r0} == {r & b for r in r1}:
            parts.append(b)
        else:
            x |= b
    parts.append(x)
    return parts


def breaks(h, y):
    """Decide whether the uniform set ``h`` breaks ``y``, with a witness.

    Returns ``(False, None)`` or ``(True, (v1, v2))`` where ``v1, v2`` is a
    bipartition of the universe splitting ``y`` with
    ``h == project_set(h, v1) x project_set(h, v2)``. The sets V with
    ``h == project_set(h, V) x project_set(h, rest)`` are closed under
    intersection and complement, so they are the unions of a finest set of
    disjoint parts, found once on the members encoded as integer rows (bit i
    binds the i-th sorted name). ``h`` breaks ``y`` exactly when ``y`` touches
    two parts. ``v1`` is the first witness of a scan over the masks below
    2^(n-1) in increasing order: every such witness is a union of parts
    without the last sorted name, one of them touching ``y``, so the first is
    the smallest part that touches ``y``. Polynomial: at most about n·|h|
    recursive calls, each linear in its rows.
    """
    if not h.is_uniform:
        raise UniformityError("breaks requires a uniform assignment set")
    y = frozenset(y)
    if not y <= h.universe:
        raise ScopeError(f"break set {sorted(y - h.universe)} outside the universe")
    if len(y) < 2 or not h.elements:
        return False, None
    names = sorted(h.universe)
    n = len(names)
    # a uniform member's sorted items line up with names
    rows = [sum(bit << i for i, (_, bit) in enumerate(a._items)) for a in h.elements]
    ybits = sum(1 << i for i, name in enumerate(names) if name in y)
    touched = [p for p in _finest_parts(rows, 0, n) if p & ybits]
    if len(touched) < 2:
        return False, None
    mask = min(touched)  # the part holding bit n-1 outweighs every other part
    v1 = frozenset(names[i] for i in range(n) if mask >> i & 1)
    return True, (v1, h.universe - v1)
