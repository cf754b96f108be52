"""Reproducible experiment bundles.

A manifest is a JSON document naming a pipeline of steps; running it fills a
bundle directory with every artifact plus a summary, and running it again
reproduces the bundle byte for byte (all randomness is seeded, timings stay
out of the artifacts).
"""

from __future__ import annotations

import hashlib
import json
import os

from . import cnf as cnf_mod
from . import compile as compile_mod
from . import config, diagrams, formulas, graphs, lowerbound
from .assignments import Assignment
from .errors import DdlabError, FormatError
from .version import BUILD_ID


class StepFailure(DdlabError):
    def __init__(self, step, exc):
        super().__init__(f"step {step!r} failed ({type(exc).__name__}): {exc}")
        self.step = step
        self.cause = exc


class MalformedStep(StepFailure, FormatError):
    """A step failed on malformed input, so it exits 2 as the CLI would."""


# causes that make a step malformed; a missing argument is a KeyError on its
# args, a wrongly typed one (``"n": null``) a TypeError
_MALFORMED = (FormatError, ValueError, OSError, KeyError, TypeError)


def _resolve(bundle, rel):
    path = os.path.normpath(os.path.join(bundle, rel))
    if not path.startswith(os.path.abspath(bundle) + os.sep):
        raise FormatError(f"path {rel!r} escapes the bundle")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _write(bundle, rel, text):
    with open(_resolve(bundle, rel), "w", encoding="utf-8") as fh:
        fh.write(text)
    return rel


def _graph_from(args, bundle):
    if "grid" in args:
        return graphs.grid(int(args["grid"])).graph
    return graphs.read_graph(_resolve(bundle, args["graph"]))


def _experiment_from(args, bundle):
    g = _graph_from(args, bundle)
    pairs = [tuple(p) for p in args["matching"]]
    order = None
    if args.get("order"):
        order = graphs.read_order(_resolve(bundle, args["order"]))
    return lowerbound.make_experiment(g, pairs, args["engine"], order)


def _step_write(args, bundle):
    _write(bundle, args["path"], args["text"])
    return {}


def _step_gen(args, bundle):
    family = args["family"]
    if family in ("vc-junction", "psi-junction"):
        gg = graphs.grid(int(args["grid"]))
        phi = formulas.junction_formula(gg.graph, gg.hor, gg.vert,
                                         "vc" if family == "vc-junction" else "psi")
    else:
        g = _graph_from(args, bundle)
        phi = {"vc": formulas.vc_formula, "psi": formulas.psi_formula,
               "star": formulas.star_formula}[family](g)
    cnf_mod.write_dimacs(phi, _resolve(bundle, args["out"]))
    return {"variables": len(phi.vars), "clauses": len(phi)}


def _step_compile(args, bundle):
    method = args["method"]
    vtree = None
    if method == "grid-junction":
        diagram = compile_mod.grid_junction_diagram(int(args["n"]))
    elif method == "psi-layer":
        if args.get("junction"):
            diagram = compile_mod.psi_grid_junction_fbdd(int(args["n"]))
        else:
            diagram = compile_mod.psi_layer_obdd(int(args["n"]),
                                                 args.get("orientation", "hor"))
    elif method == "dtree":
        phi = cnf_mod.read_dimacs(_resolve(bundle, args["cnf"]))
        diagram = compile_mod.dt_to_diagram(compile_mod.decision_tree(phi))
    elif method == "primal":
        phi = cnf_mod.read_dimacs(_resolve(bundle, args["cnf"]))
        d = graphs.read_decomposition(_resolve(bundle, args["decomp"]))
        diagram, vtree = compile_mod.compile_primal(phi, d)
    elif method == "split":
        phi = cnf_mod.read_dimacs(_resolve(bundle, args["cnf"]))
        d = graphs.read_decomposition(_resolve(bundle, args["decomp"]))
        labels = dict(cnf_mod.clause_labels(phi))
        chosen = [labels[name] for name in args["long"]]
        diagram = compile_mod.compile_split(phi, chosen, d)
        vtree = compile_mod.split_vtree(phi, chosen, d)
    else:
        raise FormatError(f"unknown compile method {method!r}")
    diagrams.save(diagram, _resolve(bundle, args["out"]))
    if vtree is not None and args.get("vtree_out"):
        compile_mod.write_vtree(vtree, _resolve(bundle, args["vtree_out"]))
    return {"size": diagram.size}


def _step_obdd(args, bundle):
    """Reduced OBDD for an explicit order, or for an experiment's bad order."""
    if "cnf" in args:
        phi = cnf_mod.read_dimacs(_resolve(bundle, args["cnf"]))
        order = graphs.read_order(_resolve(bundle, args["order"]))
    else:
        exp = _experiment_from(args, bundle)
        phi = exp.formula()
        order = exp.order
    diagram = lowerbound.obdd_for_order(phi, order)
    diagrams.save(diagram, _resolve(bundle, args["out"]))
    return {"size": diagram.size}


def _step_count(args, bundle):
    diagram = diagrams.load(_resolve(bundle, args["diagram"]))
    universe = (frozenset(args["universe"]) if "universe" in args
                else (diagram.declared_vars or diagram.vars))
    return {"count": diagrams.count_models(diagram, universe)}


def _step_eval(args, bundle):
    diagram = diagrams.load(_resolve(bundle, args["diagram"]))
    return {"value": diagrams.evaluate(diagram, Assignment.parse(args["assignment"]))}


def _step_validate(args, bundle):
    diagram = diagrams.load(_resolve(bundle, args["diagram"]))
    order = None
    if args.get("order"):
        order = graphs.read_order(_resolve(bundle, args["order"])).names
    cls = diagrams.validate(diagram, order)
    return {"fbdd": cls.is_fbdd, "obdd": cls.is_obdd, "and_obdd": cls.is_and_obdd}


def _step_minobdd(args, bundle):
    phi = cnf_mod.read_dimacs(_resolve(bundle, args["cnf"]))
    info = {}
    if "sample" in args:
        size, order = lowerbound.min_obdd(phi, search="sampled",
                                          count=int(args["sample"]),
                                          seed=int(args["seed"]),
                                          verify=bool(args.get("verify")))
        info["sample"] = int(args["sample"])
        info["seed"] = int(args["seed"])
    else:
        cap = args.get("order_cap")
        size, order = lowerbound.min_obdd(phi, cap=cap, verify=bool(args.get("verify")))
        info["order_cap"] = cap if cap is not None else config.EXHAUSTIVE_ORDER_CAP
    if args.get("out"):
        _write(bundle, args["out"], graphs.write_order(order))
    info["size"] = size
    return info


def _step_width(args, bundle):
    g = _graph_from(args, bundle)
    info = {}
    if "sample" in args:
        width, order = graphs.width_min(g, args.get("mode", "lsim"), search="sampled",
                                        count=int(args["sample"]), seed=int(args["seed"]))
        info["sample"] = int(args["sample"])
        info["seed"] = int(args["seed"])
    else:
        cap = args.get("order_cap")
        width, order = graphs.width_min(g, args.get("mode", "lsim"), cap=cap)
        info["order_cap"] = cap if cap is not None else config.EXHAUSTIVE_ORDER_CAP
    if args.get("out"):
        _write(bundle, args["out"], graphs.write_order(order))
    info["width"] = width
    return info


def _step_fool(args, bundle):
    exp = _experiment_from(args, bundle)
    fs = lowerbound.fooling_set(exp)
    if args.get("out"):
        _write(bundle, args["out"], fs.render())
    return {"size": len(fs)}


def _step_certify(args, bundle):
    exp = _experiment_from(args, bundle)
    diagram = diagrams.load(_resolve(bundle, args["diagram"]))
    cert = lowerbound.certify(diagram, exp.order, exp)
    _write(bundle, args["out"], cert.to_json())
    return {"bound": cert.bound, "fooling_size": cert.fooling_size,
            "diagram_size": cert.diagram_size}


_STEPS = {
    "write": _step_write,
    "gen": _step_gen,
    "compile": _step_compile,
    "obdd": _step_obdd,
    "count": _step_count,
    "eval": _step_eval,
    "validate": _step_validate,
    "minobdd": _step_minobdd,
    "width": _step_width,
    "fool": _step_fool,
    "certify": _step_certify,
}


def _hash_tree(bundle):
    out = {}
    for root, _, files in os.walk(bundle):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, bundle)
            if rel in ("summary.json", "summary.txt"):
                continue
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def run_experiment(manifest_path, out_dir):
    """Execute a manifest into a bundle directory; returns the summary."""
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad manifest: {exc}") from exc
    steps = manifest.get("steps", [])
    bundle = os.path.abspath(out_dir)
    os.makedirs(bundle, exist_ok=True)
    with open(os.path.join(bundle, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    rows = []
    try:
        for k, step in enumerate(steps):
            name = step.get("name", f"step{k}")
            verb = step.get("verb")
            handler = _STEPS.get(verb)
            if handler is None:
                raise MalformedStep(name, FormatError(f"unknown verb {verb!r}"))
            try:
                info = handler(step.get("args", {}), bundle)
            except Exception as exc:
                failure = MalformedStep if isinstance(exc, _MALFORMED) else StepFailure
                raise failure(name, exc) from exc
            rows.append({"name": name, "verb": verb, "info": info})
    except StepFailure as exc:
        # the bundle so far still gets a summary, naming the step that failed
        _write_summary(bundle, manifest, rows, {"name": exc.step, "error": str(exc)})
        raise
    summary = _write_summary(bundle, manifest, rows)
    lines = [f"bundle: {summary['name']}", ""]
    lines.append(f"{'step':<24} {'verb':<10} info")
    for row in rows:
        info = " ".join(f"{k}={v}" for k, v in sorted(row["info"].items()))
        lines.append(f"{row['name']:<24} {row['verb']:<10} {info}")
    with open(os.path.join(bundle, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return summary


def _write_summary(bundle, manifest, rows, failed=None):
    summary = {
        "build": BUILD_ID,
        "name": manifest.get("name", ""),
        "steps": rows,
        "artifacts": _hash_tree(bundle),
    }
    if failed is not None:
        summary["failed"] = failed
    with open(os.path.join(bundle, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
