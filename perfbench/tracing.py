"""Per-layer spans and work counts for the benchmark's traced run.

A layer is a ddlab module. The traced run wraps the layer's public entry
points listed in ``LAYERS`` and rebinds each wrapper on every public ddlab
module that holds the function under any name, because modules bind names
with ``from ... import`` and a wrapper installed only on the defining module
would miss those calls. The kernel twins (``ddlab._kernels*``) are left
alone: calls into ``ddlab.kernels`` count once, not once more for the
twin's own internal calls. Nothing inside ``src/ddlab`` is changed.

Every wrapped call is a span. Per ``layer.function`` and per layer the
tracer keeps calls, busy time (wall time of the outermost span, so
recursion and nesting inside the same layer count once) and self time (span
time minus the time of the spans it caused); ``<layer>.io`` is the busy time
of the layer's I/O functions taken together. ``WORK`` adds work counts
taken from the arguments and results at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

LAYERS = {
    "kernels": ("cnf_truth_table", "obdd_size_for_order"),
    "assignments": ("breaks", "project_set", "restrict_set", "product",
                    "product_all", "cube"),
    "cnf": ("evaluate", "truth_table", "models", "count_models", "reduce",
            "graphs_of", "read_dimacs", "write_dimacs"),
    "graphs": ("grid", "double", "width_min", "crossing_width",
               "decomposition_from_elimination", "validate_decomposition",
               "read_graph", "write_graph", "read_order", "write_order",
               "read_decomposition", "write_decomposition"),
    "diagrams": ("validate", "truth_table", "satisfying_set", "count_models",
                 "evaluate", "to_json", "from_json", "save", "load"),
    "alignment": ("frontier", "align"),
    "formulas": ("vc_formula", "psi_formula", "star_formula",
                 "junction_formula", "grid_junction_formula"),
    "compile": ("decision_tree", "dt_to_diagram", "compile_primal",
                "compile_split", "split_vtree", "grid_junction_diagram",
                "psi_layer_obdd", "psi_grid_junction_fbdd", "write_vtree"),
    "lowerbound": ("make_experiment", "fooling_set", "unbreakable", "locate",
                   "certify", "obdd_size", "obdd_for_order", "min_obdd"),
    "manifest": ("run_experiment",),
    "cli": ("main",),
}

# functions whose outermost spans make up a layer's I/O time, ``<layer>.io``
IO = {
    "diagrams": ("to_json", "from_json", "save", "load"),
    "cnf": ("read_dimacs", "write_dimacs"),
}


def _kernel_cells(tracer, args, result):
    tracer.work["kernels.cells"] += 1 << args[0]


def _orders_sized(tracer, args, result):
    _kernel_cells(tracer, args, result)
    tracer.work["kernels.orders_sized"] += 1


def _nodes_validated(tracer, args, result):
    tracer.work["diagrams.nodes_validated"] += args[0].size


def _nodes_built(tracer, args, result):
    if tracer.depth["compile"]:
        return  # counted when the outermost compile call returns
    diagram = result[0] if isinstance(result, tuple) else result
    size = getattr(diagram, "size", None)
    if isinstance(size, int):
        tracer.work["compile.nodes_built"] += size


def _bundle_written(tracer, args, result):
    tracer.work["manifest.steps"] += len(result["steps"])
    for root, _, files in os.walk(args[1]):
        for name in files:
            tracer.work["manifest.bytes_written"] += os.path.getsize(os.path.join(root, name))


WORK = {
    "kernels.cnf_truth_table": _kernel_cells,
    "kernels.obdd_size_for_order": _orders_sized,
    "diagrams.validate": _nodes_validated,
    "manifest.run_experiment": _bundle_written,
    **{f"compile.{name}": _nodes_built for name in LAYERS["compile"]},
}

# (metric, unit, how to read it off the tracer); the traced run reports all
PER_LAYER = [
    ("kernels.calls", "count", lambda t: t.layer_calls("kernels")),
    ("kernels.busy_s", "s", lambda t: t.busy["kernels"]),
    ("kernels.self_s", "s", lambda t: t.self_time["kernels"]),
    ("kernels.orders_sized", "count", lambda t: t.work["kernels.orders_sized"]),
    ("kernels.cells", "count", lambda t: t.work["kernels.cells"]),
    ("assignments.breaks.calls", "count", lambda t: t.calls["assignments.breaks"]),
    ("assignments.breaks.busy_s", "s", lambda t: t.busy["assignments.breaks"]),
    ("assignments.project_set.calls", "count", lambda t: t.calls["assignments.project_set"]),
    ("assignments.restrict_set.busy_s", "s", lambda t: t.busy["assignments.restrict_set"]),
    ("assignments.objects", "count", lambda t: t.work["assignments.objects"]),
    ("assignments.self_s", "s", lambda t: t.self_time["assignments"]),
    ("diagrams.validate.calls", "count", lambda t: t.calls["diagrams.validate"]),
    ("diagrams.validate.busy_s", "s", lambda t: t.busy["diagrams.validate"]),
    ("diagrams.nodes_validated", "count", lambda t: t.work["diagrams.nodes_validated"]),
    ("diagrams.truth_table.busy_s", "s", lambda t: t.busy["diagrams.truth_table"]),
    ("diagrams.satisfying_set.busy_s", "s", lambda t: t.busy["diagrams.satisfying_set"]),
    ("diagrams.count_models.busy_s", "s", lambda t: t.busy["diagrams.count_models"]),
    ("diagrams.io.busy_s", "s", lambda t: t.busy["diagrams.io"]),
    ("diagrams.self_s", "s", lambda t: t.self_time["diagrams"]),
    ("alignment.frontier.calls", "count", lambda t: t.calls["alignment.frontier"]),
    ("alignment.frontier.busy_s", "s", lambda t: t.busy["alignment.frontier"]),
    ("alignment.self_s", "s", lambda t: t.self_time["alignment"]),
    ("lowerbound.certify.self_s", "s", lambda t: t.self_time["lowerbound.certify"]),
    ("lowerbound.locate.calls", "count", lambda t: t.calls["lowerbound.locate"]),
    ("lowerbound.unbreakable.busy_s", "s", lambda t: t.busy["lowerbound.unbreakable"]),
    ("lowerbound.obdd_for_order.busy_s", "s", lambda t: t.busy["lowerbound.obdd_for_order"]),
    ("lowerbound.min_obdd.self_s", "s", lambda t: t.self_time["lowerbound.min_obdd"]),
    ("lowerbound.self_s", "s", lambda t: t.self_time["lowerbound"]),
    ("compile.busy_s", "s", lambda t: t.busy["compile"]),
    ("compile.nodes_built", "count", lambda t: t.work["compile.nodes_built"]),
    ("compile.self_s", "s", lambda t: t.self_time["compile"]),
    ("cnf.reduce.calls", "count", lambda t: t.calls["cnf.reduce"]),
    ("cnf.truth_table.busy_s", "s", lambda t: t.busy["cnf.truth_table"]),
    ("cnf.io.busy_s", "s", lambda t: t.busy["cnf.io"]),
    ("cnf.self_s", "s", lambda t: t.self_time["cnf"]),
    ("graphs.width_min.busy_s", "s", lambda t: t.busy["graphs.width_min"]),
    ("graphs.self_s", "s", lambda t: t.self_time["graphs"]),
    ("formulas.self_s", "s", lambda t: t.self_time["formulas"]),
    ("manifest.steps", "count", lambda t: t.work["manifest.steps"]),
    ("manifest.self_s", "s", lambda t: t.self_time["manifest"]),
    ("manifest.bytes_written", "bytes", lambda t: t.work["manifest.bytes_written"]),
    ("cli.self_s", "s", lambda t: t.self_time["cli"]),
    ("bench.self_s", "s", lambda t: t.round_s - t.top_s),
    ("trace.spans", "count", lambda t: t.spans),
    ("trace.run_s", "s", lambda t: t.round_s),
]


class Tracer:
    """Spans and counts for one round at a time; ``reset`` starts the next."""

    def __init__(self):
        self.depth = defaultdict(int)  # open spans per layer and per function
        self._children = []  # per open span: time covered by its child spans
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.work = defaultdict(int)
        self.reset()

    def reset(self):
        for table in (self.calls, self.busy, self.self_time, self.work):
            table.clear()
        self.spans = 0
        self.top_s = 0.0  # time covered by spans opened outside any span
        self.round_s = 0.0

    def layer_calls(self, layer):
        return sum(n for key, n in self.calls.items() if key.startswith(layer + "."))

    def metrics(self):
        return {name: (read(self), unit) for name, unit, read in PER_LAYER}

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        groups = (key, layer) + ((f"{layer}.io",) if name in IO.get(layer, ()) else ())
        work = WORK.get(key)
        depth = self.depth
        busy = self.busy
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            for group in groups:
                depth[group] += 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                else:
                    self.top_s += elapsed
                self.spans += 1
                self.calls[key] += 1
                self.self_time[key] += own
                self.self_time[layer] += own
                for group in groups:
                    depth[group] -= 1
                    if not depth[group]:
                        busy[group] += elapsed
            if work is not None:
                work(self, args, result)
            return result

        return span

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every layer function on every public ddlab module binding it.

        ``modules`` maps layer names to imported ddlab modules; it must hold
        every module whose bindings should be traced.
        """
        undo = []
        for layer, names in LAYERS.items():
            for name in names:
                fn = getattr(modules[layer], name)
                wrapped = self._wrap(layer, name, fn)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapped)
                            undo.append((module, attr, fn))
        assignment = modules["assignments"].Assignment
        plain_init = assignment.__init__
        work = self.work

        def counted_init(obj, *args, **kwargs):
            work["assignments.objects"] += 1
            plain_init(obj, *args, **kwargs)

        assignment.__init__ = counted_init
        undo.append((assignment, "__init__", plain_init))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
