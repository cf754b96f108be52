"""The traced run's wrappers see the calls ddlab makes through names bound
with ``from ... import``, and leave no wrapper behind.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import run
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _modules():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    dd = run.import_ddlab()
    return dd, {name: getattr(dd, name) for name in run.MODULES}


def test_certify_validates_2f_plus_1_times():
    dd, modules = _modules()
    q = 3
    graph = dd.graphs.Graph([f"u{i}" for i in range(q)] + [f"w{i}" for i in range(q)],
                            [(f"u{i}", f"w{i}") for i in range(q)])
    exp = dd.lowerbound.make_experiment(graph, [(f"u{i}", f"w{i}") for i in range(q)], "obdd")
    diagram = dd.lowerbound.obdd_for_order(exp.formula(), exp.order)
    tracer = tracing.Tracer()
    with tracer.installed(modules):
        cert = dd.lowerbound.certify(diagram, exp.order, exp)
    assert cert.fooling_size == 2 ** q - 1
    # once in certify, then once in locate and once in frontier per assignment
    assert tracer.calls["diagrams.validate"] == 2 * cert.fooling_size + 1
    assert tracer.calls["lowerbound.locate"] == tracer.calls["alignment.frontier"] == 7
    assert tracer.work["diagrams.nodes_validated"] == 15 * diagram.size
    assert tracer.work["assignments.objects"] > 0
    assert dd.lowerbound.validate is dd.diagrams.validate
    assert not hasattr(dd.diagrams.validate, "__wrapped__")


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER]
