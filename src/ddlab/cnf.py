"""CNF clause sets: evaluation, brute-force model enumeration, reduction,
derived graphs, and DIMACS round-trip.

A literal is a ``(name, sign)`` pair with sign 1 for the positive literal; a
clause is a frozenset of literals well-formed in the sense that no variable
occurs twice (so a clause can never contain both x and its negation). A
:class:`Cnf` is a set of clauses; duplicate clauses collapse. The variable set
is always the union of clause variables.

``models`` is an oracle, not a solver: it enumerates the full cube through
the truth-table kernels and is capped accordingly.
"""

from __future__ import annotations

from . import config, kernels
from .assignments import as_bit, check_order, check_universe, decode_table
from .errors import FormatError, ScopeError
from .graphs import Graph


def literal(name, sign):
    return (name, as_bit(sign, "literal sign"))


def clause(literals):
    """Build a well-formed clause; rejects a variable occurring twice and a
    sign that is not an int or bool equal to 0 or 1."""
    lits = frozenset((n, s) if type(s) is int and not s >> 1 else literal(n, s)
                     for n, s in literals)
    names = [n for n, _ in lits]
    if len(set(names)) != len(names):
        bad = sorted(n for n in set(names) if names.count(n) > 1)
        raise ValueError(f"clause mentions {bad} with both polarities")
    return lits


def clause_key(c):
    """Canonical sort key: short clauses first, then lexicographic literals."""
    return (len(c), tuple(sorted(c)))


class Cnf:
    """An immutable clause set over named variables."""

    __slots__ = ("clauses", "vars", "_hash")

    def __init__(self, clauses_in=()):
        self._fill(frozenset(clause(c) for c in clauses_in))

    def _fill(self, clauses):
        """Set the fields from a frozenset of well-formed clauses, unchecked."""
        self.clauses = clauses
        v = set()
        for c in clauses:
            v.update(n for n, _ in c)
        self.vars = frozenset(v)
        self._hash = hash(clauses)
        return self

    def __eq__(self, other):
        return isinstance(other, Cnf) and self.clauses == other.clauses

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.clauses)

    def sorted_clauses(self):
        return sorted(self.clauses, key=clause_key)

    def __repr__(self):
        return f"Cnf(<{len(self.clauses)} clauses over {len(self.vars)} vars>)"


def evaluate(phi, a):
    """1 iff every clause shares a literal with the assignment's literal set."""
    if not phi.vars <= a.vars:
        missing = sorted(phi.vars - a.vars)
        raise ScopeError(f"assignment leaves {missing} unset")
    for c in phi.clauses:
        if not any(a[n] == s for n, s in c):
            return 0
    return 1


def encode(phi, order):
    """Clauses in position space for the kernels; order fixes positions."""
    pos = {name: p for p, name in enumerate(order)}
    out = []
    for c in phi.sorted_clauses():
        out.append([(pos[n] + 1) if s else -(pos[n] + 1) for n, s in sorted(c)])
    return out


def truth_table(phi, order):
    """Model indicator bitset of phi over the ordered universe ``order``,
    which names every variable of phi, each name once."""
    order = check_order(order, phi.vars)
    config.check_scale(len(order), config.BRUTE_FORCE_VAR_CAP, "variables")
    return kernels.cnf_truth_table(len(order), encode(phi, order))


def models(phi, universe):
    """The uniform set of all satisfying assignments over ``universe``."""
    order = sorted(check_universe(universe, phi.vars))
    return decode_table(order, truth_table(phi, order))


def count_models(phi, universe):
    return truth_table(phi, sorted(check_universe(universe, phi.vars))).bit_count()


def reduce(phi, g):
    """The clause-surgery reduction: drop satisfied clauses, erase assigned
    occurrences from the rest. Empty clauses are kept; they mark contradiction.
    A clause cut from a well-formed clause is well-formed, so none is checked
    again.

    A clause is satisfied iff it shares a literal with g's bindings; a clause
    that is not has every literal over g's variables false, so erasing them
    is removing g's falsified literals."""
    true = frozenset(g)
    false = {(n, 1 - b) for n, b in g}
    return Cnf.__new__(Cnf)._fill(
        frozenset(c - false for c in phi.clauses if true.isdisjoint(c)))


def clause_labels(phi):
    """Deterministic clause vertex names, canonical order: [(name, clause)]."""
    return [(f"c{i}", c) for i, c in enumerate(phi.sorted_clauses())]


def graphs_of(phi):
    """Primal and incidence graphs of a clause set.

    Incidence clause vertices are named per :func:`clause_labels`; a variable
    named like one of them would collide, which is rejected loudly.
    """
    labels = clause_labels(phi)
    primal_edges = set()
    for _, c in labels:
        names = sorted(n for n, _ in c)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                primal_edges.add(frozenset((names[i], names[j])))
    primal = Graph(phi.vars, primal_edges)
    clash = phi.vars & {name for name, _ in labels}
    if clash:
        raise FormatError(f"variable names collide with clause vertex names: {sorted(clash)}")
    inc_vertices = set(phi.vars) | {name for name, _ in labels}
    inc_edges = set()
    for name, c in labels:
        for n, _ in c:
            inc_edges.add(frozenset((name, n)))
    incidence = Graph(inc_vertices, inc_edges)
    return primal, incidence


def write_dimacs(phi):
    """DIMACS text with a `c var <index> <name>` map preserving names."""
    names = sorted(phi.vars)
    index = {n: i + 1 for i, n in enumerate(names)}
    lines = [f"c var {i + 1} {n}" for i, n in enumerate(names)]
    lines.append(f"p cnf {len(names)} {len(phi.clauses)}")
    for c in phi.sorted_clauses():
        lits = sorted(((index[n] if s else -index[n]) for n, s in c), key=abs)
        lines.append(" ".join(str(l) for l in lits + [0]))
    return "\n".join(lines) + "\n"


def read_dimacs(text):
    """Parse DIMACS text; returns a :class:`Cnf`.

    Unnamed indices fall back to x<i> names. A name map that gives two
    indices one name, counting the fallbacks, raises ``FormatError``.
    """
    names = {}
    nvars = None
    claimed = None
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            if len(parts) == 4 and parts[1] == "var":
                try:
                    names[int(parts[2])] = parts[3]
                except ValueError as exc:
                    raise FormatError(f"bad name-map line: {raw!r}") from exc
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"bad problem line: {raw!r}")
            if nvars is not None:
                raise FormatError("multiple problem lines")
            try:
                nvars, claimed = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise FormatError(f"bad problem line: {raw!r}") from exc
            continue
        if nvars is None:
            raise FormatError("clause line before problem line")
        try:
            ints = [int(t) for t in parts]
        except ValueError as exc:
            raise FormatError(f"non-integer literal in {raw!r}") from exc
        if not ints or ints[-1] != 0:
            raise FormatError(f"clause line not 0-terminated: {raw!r}")
        for l in ints[:-1]:
            if l == 0 or abs(l) > nvars:
                raise FormatError(f"literal {l} out of range 1..{nvars}")
        clauses.append(ints[:-1])
    if nvars is None:
        raise FormatError("missing problem line")
    if claimed is not None and claimed != len(clauses):
        raise FormatError(f"header claims {claimed} clauses, found {len(clauses)}")
    names = {i: n for i, n in names.items() if 1 <= i <= nvars}
    owner = {}  # name -> its index: the unnamed indices' x<i> fallbacks, then the map
    for n in names.values():
        if n[:1] == "x" and n[1:].isdecimal():
            j = int(n[1:])
            if f"x{j}" == n and 1 <= j <= nvars and j not in names:
                owner[n] = j
    for i, n in sorted(names.items()):
        if owner.setdefault(n, i) != i:
            first, second = sorted((owner[n], i))
            raise FormatError(f"variables {first} and {second} are both named {n!r}")
    return Cnf([(names.get(abs(l), f"x{abs(l)}"), 1 if l > 0 else 0) for l in c]
               for c in clauses)
