"""The verbs that the ``ddlab`` command and experiment bundles share.

Each verb takes ``(args, path)``. ``args`` is a dict of JSON values: numbers,
strings, and lists where a verb takes several names. ``path`` is a
:class:`Paths`, the one route by which a verb reads and writes files: a path
argument names a file as given on the command line, inside the bundle
directory for a bundle step; ``path.text(rel)`` reads the text such a file
holds and ``path.diagram(rel)`` the diagram. The file-format readers parse
that text and the writers return text. Both routes hand a verb its
arguments as an :class:`Args`, so a missing one is a ``FormatError`` that
names it.

Each verb returns ``(info, made)``: ``info`` is what a bundle summary records
for the step, ``made`` the verb's main artifact, a ``Diagram`` or text, or
None when it has none. ``run`` writes the artifact's text to ``args["out"]``
when that key is given, and otherwise hands the artifact back.
"""

from __future__ import annotations

import hashlib
import json
import os

from . import alignment
from . import cnf as cnf_mod
from . import compile as compile_mod
from . import diagrams, formulas, graphs, lowerbound
from .assignments import Assignment, as_bit
from .errors import FormatError
from .version import BUILD_ID


class Args(dict):
    """A verb's arguments, from the command line or a bundle step. A missing
    one is malformed input: a FormatError saying that ``what`` needs it,
    named as a flag when ``flags`` is set (the command line) and as a key
    otherwise (a bundle step)."""

    def __init__(self, values, what, flags=False):
        super().__init__(values)
        self.what, self.flags = what, flags

    def name(self, key):
        """``key`` as the user gave it: a flag or a key."""
        return "--" + key.replace("_", "-") if self.flags else repr(key)

    def __missing__(self, key):
        raise FormatError(f"{self.what} needs {self.name(key)}")


def _integer(args, key):
    """The integer ``args[key]`` holds: an int (a bundle step) or its decimal
    text (the command line). A bool, a float or anything else is a
    FormatError naming the key."""
    value = args[key]
    digits = value.removeprefix("-") if type(value) is str else ""
    if type(value) is int or digits.isascii() and digits.isdigit():
        return int(value)
    raise FormatError(f"{args.name(key)} must be an integer, not {value!r}")


class Paths:
    """The files a verb's path arguments name, and the diagrams written to
    them in this run: the only place a verb's files are opened.

    ``path(rel)`` maps a path argument to its file: ``resolve(rel)``, or
    ``rel`` itself without ``resolve``; ``text`` reads that file and
    ``write`` writes it, with ``resolve`` making its directories first. A
    diagram written through ``write`` is kept with the sha256 of the bytes
    written; ``diagram`` hands it back, unparsed, while the file's bytes
    still have that sha256, and parses the file otherwise. The command line
    makes one ``Paths()`` per verb and a bundle run one per run, so nothing
    is kept past the run.
    """

    def __init__(self, resolve=None):
        self._resolve = resolve
        self._written = {}  # file -> (sha256, Diagram) of the last diagram written there

    def __call__(self, rel):
        return rel if self._resolve is None else self._resolve(rel)

    def text(self, rel):
        """The text of the file ``rel`` names, as written: no newline
        translation."""
        with open(self(rel), encoding="utf-8", newline="") as fh:
            return fh.read()

    def sha256(self, rel):
        """The sha256 hex digest of the file ``rel`` names, read in blocks."""
        digest = hashlib.sha256()
        with open(self(rel), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                digest.update(block)
        return digest.hexdigest()

    def write(self, rel, text, diagram=None):
        """Write ``text``, a string or the pieces of one, to the file ``rel``
        names as UTF-8; ``diagram``, when given, is what the text encodes."""
        file = self(rel)
        if self._resolve is not None:  # a bundle makes the directories it writes into
            os.makedirs(os.path.dirname(file), exist_ok=True)
        digest = hashlib.sha256()
        with open(file, "wb") as fh:
            for data in map(str.encode, (text,) if isinstance(text, str) else text):
                fh.write(data)
                digest.update(data)
        if diagram is not None:
            self._written[file] = digest.hexdigest(), diagram

    def diagram(self, rel):
        """The diagram in the file ``rel`` names."""
        kept = self._written.get(self(rel))
        if kept is not None and kept[0] == self.sha256(rel):
            return kept[1]
        return diagrams.from_json(self.text(rel))


def _listed(value, key, pairs=False):
    """A list argument of names, or with ``pairs`` of name pairs, each a list
    of two names (the command line's matching file gives tuples). A string
    here would be read one character at a time."""
    if isinstance(value, str):
        raise FormatError(f"{key} must be a JSON list, not the string {value!r}")
    if not (isinstance(value, (list, tuple))
            and all(_pair(x) if pairs else isinstance(x, str) for x in value)):
        what = "pairs of strings" if pairs else "strings"
        raise FormatError(f"{key} must be a JSON list of {what}, not {value!r}")
    return value


def _pair(value):
    """Whether ``value`` is a list (or tuple) of two strings."""
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, str) for x in value))


def _only(args, keys, what):
    """Reject the keys given that ``what`` does not read, naming them, before
    anything is read or written; a switch left off counts as not given."""
    unread = sorted(k for k in args.keys() - keys if not (k in SWITCHES and args[k] is False))
    if unread:
        raise FormatError(f"{what} takes no {', '.join(map(args.name, unread))}")


def _graph(args, path):
    """The graph ``grid`` or ``graph`` names; giving both is malformed."""
    if "grid" in args and "graph" in args:
        raise FormatError(f"give {args.name('grid')} or {args.name('graph')}, not both")
    if "grid" in args:
        return graphs.grid(_integer(args, "grid")).graph
    return graphs.read_graph(path.text(args["graph"]))


def _experiment(args, path):
    graph = _graph(args, path)
    pairs = [tuple(p) for p in _listed(args["matching"], "matching", pairs=True)]
    order = graphs.read_order(path.text(args["order"])) if args.get("order") else None
    return lowerbound.make_experiment(graph, pairs, args["engine"], order)


def _search(args):
    """Keyword arguments for the order search that ``args`` asks for, and the
    fields a summary records about it; a ``seed`` without ``sample`` seeds
    nothing and is malformed."""
    if "seed" in args and "sample" not in args:
        raise FormatError(f"{args.name('seed')} needs {args.name('sample')}: "
                          f"only a sampled search is seeded")
    if "sample" in args:
        info = {"sample": _integer(args, "sample"), "seed": _integer(args, "seed")}
        return {"search": "sampled", "count": info["sample"], "seed": info["seed"]}, info
    return {}, {}


def _formula(args, path):
    """The formula ``gen`` builds and the graph it is built on: the
    ``GridGraph`` for the junction families, the plain graph otherwise."""
    family = args["family"]
    if family in ("vc-junction", "psi-junction"):
        _only(args, ("family", "grid", "out", "meta"), f"family {family!r}")
        gg = graphs.grid(_integer(args, "grid"))
        kind = "vc" if family == "vc-junction" else "psi"
        return formulas.junction_formula(gg.graph, gg.hor, gg.vert, kind), gg
    maker = {"vc": formulas.vc_formula, "psi": formulas.psi_formula,
             "star": formulas.star_formula}.get(family)
    if maker is None:
        raise FormatError(f"unknown family {family!r}")
    graph = _graph(args, path)
    return maker(graph), graph


def write(args, path):
    """Write ``text`` to the file ``path`` names."""
    path.write(args["path"], args["text"])
    return {}, None


def gen(args, path):
    """A formula family as DIMACS; with ``meta``, its provenance goes to
    ``<out>.meta.json``, so ``meta`` needs ``out``."""
    if args.get("meta") and "out" not in args:
        raise FormatError(f"{args.name('meta')} needs {args.name('out')}: "
                          f"the provenance file is named after it")
    phi, source = _formula(args, path)
    info = {"variables": len(phi.vars), "clauses": len(phi)}
    if args.get("meta"):
        grid = isinstance(source, graphs.GridGraph)
        graph = source.graph if grid else source
        meta = dict(info, build=BUILD_ID, family=args["family"],
                    graph_sha256=hashlib.sha256(graphs.write_graph(graph).encode()).hexdigest(),
                    partition={"e1": sorted(sorted(e) for e in source.hor),
                               "e2": sorted(sorted(e) for e in source.vert)} if grid else None)
        path.write(args["out"] + ".meta.json",
                   json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return info, cnf_mod.write_dimacs(phi)


def compile(args, path):
    """A diagram by one of the compile methods; the ``primal`` and
    ``split`` methods also write their vtree to ``vtree_out`` when given. A
    key the method does not read is a FormatError naming it."""
    method = args["method"]
    if method not in METHOD_KEYS:
        raise FormatError(f"unknown compile method {method!r}")
    _only(args, ("method", *METHOD_KEYS[method], "out"), f"method {method!r}")
    vtree = None
    if method == "grid-junction":
        diagram = compile_mod.grid_junction_diagram(_integer(args, "n"))
    elif method == "psi-layer" and args.get("junction"):
        _only(args, ("method", "n", "junction", "out"), "method 'psi-layer' with junction")
        diagram = compile_mod.psi_grid_junction_fbdd(_integer(args, "n"))
    elif method == "psi-layer":
        diagram = compile_mod.psi_layer_obdd(_integer(args, "n"), args.get("orientation", "hor"))
    elif method == "dtree":
        phi = cnf_mod.read_dimacs(path.text(args["cnf"]))
        diagram = compile_mod.dt_to_diagram(compile_mod.decision_tree(phi))
    elif method == "primal":
        phi = cnf_mod.read_dimacs(path.text(args["cnf"]))
        d = graphs.read_decomposition(path.text(args["decomp"]))
        diagram, vtree = compile_mod.compile_primal(phi, d)
    elif method == "split":
        wanted = set(_listed(args.get("long", []), "long"))
        phi = cnf_mod.read_dimacs(path.text(args["cnf"]))
        d = graphs.read_decomposition(path.text(args["decomp"]))
        labels = dict(cnf_mod.clause_labels(phi))
        if wanted - labels.keys():
            raise FormatError(f"unknown clause ids {sorted(wanted - labels.keys())}")
        chosen = [c for name, c in labels.items() if name in wanted]
        diagram, vtree = compile_mod.compile_split(phi, chosen, d)
    if vtree is not None and args.get("vtree_out"):
        path.write(args["vtree_out"], compile_mod.write_vtree(vtree))
    return {"size": diagram.size}, diagram


def obdd(args, path):
    """The reduced OBDD for an explicit order, or for an experiment's bad
    order; with ``cnf`` an experiment's keys are a FormatError naming them."""
    if "cnf" in args:
        _only(args, ("cnf", "order", "out"), "obdd with cnf")
        phi = cnf_mod.read_dimacs(path.text(args["cnf"]))
        order = graphs.read_order(path.text(args["order"]))
    else:
        exp = _experiment(args, path)
        phi, order = exp.formula(), exp.order
    diagram = lowerbound.obdd_for_order(phi, order)
    return {"size": diagram.size}, diagram


def count(args, path):
    """The model count over ``universe``, by default the declared variables."""
    diagram = path.diagram(args["diagram"])
    universe = (frozenset(_listed(args["universe"], "universe")) if "universe" in args
                else (diagram.declared_vars or diagram.vars))
    return {"count": diagrams.count_models(diagram, universe)}, None


def eval(args, path):
    """The diagram's value on a total assignment."""
    diagram = path.diagram(args["diagram"])
    return {"value": diagrams.evaluate(diagram, Assignment.parse(args["assignment"]))}, None


def validate(args, path):
    """The diagram's class, as a one-line JSON report."""
    diagram = path.diagram(args["diagram"])
    order = graphs.read_order(path.text(args["order"])) if args.get("order") else None
    cls = diagrams.validate(diagram, order)
    info = {"fbdd": cls.is_fbdd, "obdd": cls.is_obdd, "and_obdd": cls.is_and_obdd}
    report = dict(info, and_fbdd=cls.is_and_fbdd,
                  order=list(cls.order) if cls.order else None)
    return info, json.dumps(report, sort_keys=True) + "\n"


def align(args, path):
    """The diagram's alignment by a partial assignment, or with ``order`` its
    frontier, as a JSON report."""
    diagram = path.diagram(args["diagram"])
    g = Assignment.parse(args["assignment"])
    if args.get("order"):
        fr = alignment.frontier(diagram, graphs.read_order(path.text(args["order"])), g)
        doc = {"L": sorted(fr.l_nodes), "X": sorted(fr.free_vars),
               "tree": [list(p) for p in fr.tree_pairs()]}
    else:
        al = alignment.align(diagram, g)
        doc = {"kept_nodes": sorted(al.kept_nodes),
               "kept_edges": sorted(list(e) for e in al.kept_edges),
               "incomplete": sorted(al.incomplete)}
    return {}, json.dumps(doc, indent=2, sort_keys=True) + "\n"


def restrict(args, path):
    """The diagram with ``var`` fixed to ``bit``; the brute-force essentiality
    check runs unless ``no_essential_check`` is set."""
    diagram = alignment.restrict_diagram(path.diagram(args["diagram"]), args["var"],
                                         as_bit(args["bit"], "bit"),
                                         check_essential=not args.get("no_essential_check"))
    return {"size": diagram.size}, diagram


def export_dot(args, path):
    """The diagram as Graphviz source."""
    return {}, diagrams.to_dot(path.diagram(args["diagram"]))


def minobdd(args, path):
    """The minimal (or sampled-minimal) OBDD size; the text is its order."""
    phi = cnf_mod.read_dimacs(path.text(args["cnf"]))
    search, info = _search(args)
    info["size"], order = lowerbound.min_obdd(phi, verify=bool(args.get("verify")),
                                              **search)
    return info, graphs.write_order(order)


def width(args, path):
    """The minimum crossing width over orders; the text is its order."""
    graph = _graph(args, path)
    search, info = _search(args)
    info["width"], order = graphs.width_min(graph, args.get("mode", "lsim"), **search)
    return info, graphs.write_order(order)


def fool(args, path):
    """The experiment's fooling set, one assignment per line."""
    fs = lowerbound.fooling_set(_experiment(args, path))
    return {"size": len(fs)}, fs.render()


def certify(args, path):
    """The injectivity certificate, as JSON without its timing."""
    exp = _experiment(args, path)
    diagram = path.diagram(args["diagram"])
    cert = lowerbound.certify(diagram, exp.order, exp)
    return ({"bound": cert.bound, "fooling_size": cert.fooling_size,
             "diagram_size": cert.diagram_size}, cert.to_json())


# by the command's name: ``export_dot`` is the verb ``export-dot``
VERBS = {fn.__name__.replace("_", "-"): fn
         for fn in (write, gen, compile, obdd, count, eval, validate, align, restrict,
                    export_dot, minobdd, width, fool, certify)}

# the keys each compile method reads besides ``method`` and ``out``
METHOD_KEYS = {
    "dtree": ("cnf",),
    "primal": ("cnf", "decomp", "vtree_out"),
    "split": ("cnf", "decomp", "long", "vtree_out"),
    "grid-junction": ("n",),
    "psi-layer": ("n", "orientation", "junction"),
}

# Each verb's argument keys: the command's flags are built from them (the key
# ``vtree_out`` is the flag ``--vtree-out``), and a bundle step may give no
# other key. Every verb that returns an artifact takes ``out``.
KEYS = {
    "write": ("path", "text"),
    "gen": ("family", "grid", "graph", "out", "meta"),
    "compile": ("method", *dict.fromkeys(k for keys in METHOD_KEYS.values() for k in keys),
                "out"),
    "obdd": ("cnf", "order", "graph", "grid", "matching", "engine", "out"),
    "count": ("diagram", "universe"),
    "eval": ("diagram", "assignment"),
    "validate": ("diagram", "order", "out"),
    "align": ("diagram", "assignment", "order", "out"),
    "restrict": ("diagram", "var", "bit", "no_essential_check", "out"),
    "export-dot": ("diagram", "out"),
    "minobdd": ("sample", "seed", "cnf", "verify", "out"),
    "width": ("sample", "seed", "graph", "grid", "mode", "out"),
    "fool": ("graph", "matching", "order", "engine", "grid", "out"),
    "certify": ("graph", "matching", "order", "engine", "diagram", "out", "grid"),
}

# the keys that are on or off: a flag without a value on the command line
SWITCHES = frozenset({"meta", "junction", "no_essential_check", "verify"})

# the keys whose values are not text: the counts (``_integer`` reads them),
# ``bit`` (``as_bit``) and the lists (``_listed``); every other key but a
# switch holds a string
NOT_TEXT = frozenset({"n", "grid", "sample", "seed", "bit", "matching", "long", "universe"})


def run(verb, args, path):
    """Run one verb, writing its artifact to ``args["out"]`` when that key is
    given; returns the info and, when there is no ``out``, the artifact
    itself. A diagram goes to ``out`` in pieces, its text never made whole.
    A key the verb does not take, a switch that is not a bool and a text key
    that is not a string are each a FormatError naming the key."""
    unknown = args.keys() - KEYS[verb]
    if unknown:
        raise FormatError(f"{verb} takes no {', '.join(map(repr, sorted(unknown)))}")
    for key, value in args.items():
        want, kind = (bool, "bool") if key in SWITCHES else (str, "string")
        if key not in NOT_TEXT and type(value) is not want:
            raise FormatError(f"{args.name(key)} must be a JSON {kind}, not {value!r}")
    info, made = VERBS[verb](args, path)
    if made is None or "out" not in args:
        return info, made
    diagram = made if isinstance(made, diagrams.Diagram) else None
    path.write(args["out"], made if diagram is None else diagrams.json_chunks(diagram), diagram)
    return info, None
