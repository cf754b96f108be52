"""Acceptance criteria, one test per criterion.

Each test prints a `criterion N ... PASS (x.xs <= budget)` line and enforces
the stated budget. Every expected value is exact; there are no tolerances.
"""

import hashlib
import itertools
import json
import math
import os
import random
import time
from contextlib import contextmanager

from ddlab import alignment as AL
from ddlab import cnf as C
from ddlab import compile as CP
from ddlab import diagrams as D
from ddlab import formulas as F
from ddlab import graphs as G
from ddlab import lowerbound as LB
from ddlab.assignments import Assignment, breaks, cube, product_all, restrict_set
from ddlab.errors import EssentialityError

from conftest import (cycle_graph, doubled_window_decomposition, dt_size,
                      exact_decomposition, matching_graph, path_graph,
                      random_and_obdd, random_graph, single_bag_decomposition)


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s <= {budget_s}s)")
    assert elapsed <= budget_s, f"criterion {number} blew its {budget_s}s budget"


def graph_corpus():
    return {
        "m1": matching_graph(1),
        "m2": matching_graph(2),
        "m3": matching_graph(3),
        "P3": path_graph(["x1", "x2", "x3"]),
        "C4": cycle_graph(["a", "b", "c", "d"]),
        "C5chord": _c5_chord(),
        "grid2": G.grid(2).graph,
        "grid3": G.grid(3).graph,
    }


def _c5_chord():
    g = cycle_graph([f"u{i}" for i in range(1, 6)])
    return G.Graph(g.vertices, set(g.edges) | {frozenset(("u1", "u3"))})


def equal_to_cnf(diagram, phi):
    order = sorted(phi.vars | diagram.vars)
    return D.truth_table(diagram, order) == C.truth_table(phi, order)


def long_negative_clauses(phi):
    return [c for c in phi.clauses if len(c) > 2 and all(s == 0 for _, s in c)]


def split_decomposition(rest):
    primal, _ = C.graphs_of(rest)
    if len(primal.vertices) <= 10:
        return exact_decomposition(primal)
    return G.decomposition_from_elimination(primal, sorted(primal.vertices))


def test_criterion_01_semantics_oracle_equivalence():
    graphs = graph_corpus()
    ran = []
    with criterion(1, "semantics oracle equivalence", 120):
        # the falsifying-spine tree runs on every instance
        instances = {}
        for name, g in graphs.items():
            instances[f"vc({name})"] = F.vc_formula(g)
            instances[f"psi({name})"] = F.psi_formula(g)
        for name in ("P3", "C4", "grid2", "grid3", "C5chord"):
            instances[f"star({name})"] = F.star_formula(graphs[name])
        instances["vc-junction(grid2)"] = F.grid_junction_formula(2)
        instances["vc-junction(grid3)"] = F.grid_junction_formula(3)
        instances["psi-junction(grid2)"] = F.grid_junction_formula(2, "psi")
        assert all(len(phi.vars) <= 18 for phi in instances.values())

        def full_check(diagram, phi, label):
            assert equal_to_cnf(diagram, phi), label
            D.validate(diagram)
            assert D.count_models(diagram, phi.vars) == C.count_models(phi, phi.vars)
            if len(phi.vars) <= 10:
                assert D.satisfying_set(diagram, phi.vars) == C.models(phi, phi.vars)

        for name, phi in sorted(instances.items()):
            diagram = CP.dt_to_diagram(CP.decision_tree(phi))
            full_check(diagram, phi, f"dtree vs {name}")
            ran.append(("dtree", name))

        # the decomposition-guided compiler runs wherever a desk-scale primal
        # decomposition exists (the doubled family's primal graph contains
        # |V|-cliques, so its place is the split pipeline instead)
        for name, phi in sorted(instances.items()):
            primal, _ = C.graphs_of(phi)
            if len(primal.vertices) > 12:
                continue
            if len(primal.vertices) <= 10:
                d = exact_decomposition(primal)
            else:
                d = single_bag_decomposition(primal)
            diagram, vt = CP.compile_primal(phi, d)
            full_check(diagram, phi, f"primal vs {name}")
            if vt is not None:
                assert CP.respects(diagram, vt, "decision-dnnf") == (True, None)
            ran.append(("primal", name))

        # the split pipeline owns the long-clause family
        for name, g in sorted(graphs.items()):
            phi = F.psi_formula(g)
            long = long_negative_clauses(phi)
            rest = C.Cnf(phi.clauses - frozenset(long))
            d = (doubled_window_decomposition(3) if name == "grid3"
                 else split_decomposition(rest))
            diagram, _ = CP.compile_split(phi, long, d)
            full_check(diagram, phi, f"split vs psi({name})")
            vt = CP.split_vtree(phi, long, d)
            assert CP.respects(diagram, vt, "conjunction-only") == (True, None)
            ran.append(("split", f"psi({name})"))
        for name in ("C4", "grid3", "C5chord"):
            phi = F.star_formula(graphs[name])
            long = [c for c in phi.clauses if len(c) > 2]
            rest = C.Cnf(phi.clauses - frozenset(long))
            diagram, _ = CP.compile_split(phi, long, split_decomposition(rest))
            full_check(diagram, phi, f"split vs star({name})")
            ran.append(("split", f"star({name})"))
        phi = F.grid_junction_formula(2)
        diagram, _ = CP.compile_split(phi, [], split_decomposition(phi))
        assert equal_to_cnf(diagram, phi)
        ran.append(("split", "vc-junction(grid2) with no long clauses"))

        for n in (2, 3):
            diagram = CP.grid_junction_diagram(n)
            full_check(diagram, F.grid_junction_formula(n), f"grid-junction {n}")
            ran.append(("grid-junction", f"vc-junction(grid{n})"))

        for n in (2, 3):
            for orientation in ("hor", "vert"):
                gg = G.grid(n)
                part = gg.hor if orientation == "hor" else gg.vert
                target = F.psi_formula(gg.graph.subgraph_of_edges(part))
                diagram = CP.psi_layer_obdd(n, orientation)
                full_check(diagram, target, f"psi-layer {n} {orientation}")
                ran.append(("psi-layer", f"psi(grid{n}[{orientation}])"))
        diagram = CP.psi_grid_junction_fbdd(2)
        full_check(diagram, F.grid_junction_formula(2, "psi"), "psi junction fbdd")
        ran.append(("psi-layer", "junction fbdd vs psi-junction(grid2)"))
    print(f"  compiler/instance pairs checked: {len(ran)}")
    assert len(ran) >= 60


def _ordered_corpus():
    """Compiled ordered diagrams with their orders, all within 12 variables."""
    from conftest import component_and_obdd
    out = []
    out.append((CP.grid_junction_diagram(2), CP.junction_order(2)))
    out.append((CP.grid_junction_diagram(3), CP.junction_order(3)))
    for orientation in ("hor", "vert"):
        out.append((CP.psi_layer_obdd(2, orientation),
                    CP.psi_interleaved_order(2, orientation)))
    for phi in (F.vc_formula(graph_corpus()["C4"]),
                F.vc_formula(matching_graph(3)),
                F.psi_formula(matching_graph(2)),
                F.star_formula(graph_corpus()["C4"]),
                F.vc_formula(graph_corpus()["P3"])):
        exp_order = G.LinearOrder(sorted(phi.vars))
        out.append((LB.obdd_for_order(phi, exp_order), exp_order))
    # conjunction-bearing traces from component splitting
    for phi in (F.psi_formula(matching_graph(2)),
                F.psi_formula(graph_corpus()["P3"])):
        exp_order = G.LinearOrder(sorted(phi.vars))
        out.append((component_and_obdd(phi, exp_order), exp_order))
    return out


def test_criterion_02_model_decomposition_suite():
    with criterion(2, "restricted-model factorization", 60):
        checked = 0
        for diagram, order in _ordered_corpus():
            assert len(diagram.vars) <= 12
            sats = D.satisfying_set(diagram)
            per_diagram = 0
            for k in range(len(order) + 1):
                for g in cube(order.names[:k]):
                    if per_diagram >= 30:
                        break
                    if not restrict_set(sats, g).elements:
                        continue
                    assert AL.check_model_decomposition(diagram, order, g)
                    checked += 1
                    per_diagram += 1
        print(f"  pairs checked: {checked}")
        assert checked >= 200


def test_criterion_03_restriction_suite():
    with criterion(3, "single-variable restriction", 60):
        equal_checked = 0
        size_checked = 0
        for diagram, order in _ordered_corpus():
            for x in sorted(diagram.vars):
                for bit in (0, 1):
                    out = AL.restrict_diagram(diagram, x, bit, check_essential=False)
                    assert out.size <= diagram.size
                    size_checked += 1
                    try:
                        out = AL.restrict_diagram(diagram, x, bit)
                    except EssentialityError:
                        continue
                    rest = sorted(diagram.vars - {x})
                    whole = D.truth_table(diagram, [x] + rest)
                    half = 1 << len(rest)
                    expect = (whole >> half) if bit else (whole & ((1 << half) - 1))
                    assert D.truth_table(out, rest) == expect
                    equal_checked += 1
        print(f"  equality checks: {equal_checked}, size checks: {size_checked}")
        assert equal_checked >= 40 and size_checked >= 100


def test_criterion_04_appendix_case_oracles():
    rng = random.Random(20260809)
    with criterion(4, "restriction case oracles", 120):
        diagrams_used = 0
        # decision-source factorization
        done = 0
        while done < 60:
            b, _ = random_and_obdd(rng, [f"v{i}" for i in range(rng.randint(3, 6))],
                                   root_kind="decision")
            src = b.source
            if b.kind[src] != D.DECISION:
                continue
            x = b.var[src]
            i = rng.randint(0, 1)
            extra = [v for v in b.vars - {x} if rng.random() < 0.4]
            g = Assignment({x: i, **{v: rng.randint(0, 1) for v in extra}})
            child = b.hi[src] if i else b.lo[src]
            sub = AL.subdiagram(b, child)[0]
            left = restrict_set(D.satisfying_set(b), g)
            free = (b.vars - g.vars) - b.vars_below(child)
            right = product_all([restrict_set(D.satisfying_set(sub), g.minus({x})),
                                 cube(free)])
            assert left == right
            done += 1
            diagrams_used += 1
        # conjunction-source factorization
        done = 0
        while done < 60:
            b, _ = random_and_obdd(rng, [f"v{i}" for i in range(rng.randint(4, 6))],
                                   root_kind="and")
            src = b.source
            if b.kind[src] != D.AND:
                continue
            g = Assignment({v: rng.randint(0, 1) for v in b.vars if rng.random() < 0.5})
            left = restrict_set(D.satisfying_set(b), g)
            parts = [restrict_set(D.satisfying_set(AL.subdiagram(b, c)[0]), g)
                     for c in b.children(src)]
            assert left == product_all(parts)
            done += 1
            diagrams_used += 1
        # frontier and free-set recursions, both source kinds
        done = 0
        while done < 60:
            b, _ = random_and_obdd(rng, [f"v{i}" for i in range(rng.randint(4, 8))],
                                   root_kind="decision")
            src = b.source
            if b.kind[src] != D.DECISION or b.var[src] != sorted(b.vars)[0]:
                continue
            order = G.LinearOrder(sorted(b.vars))
            k = rng.randint(1, len(b.vars))
            g = Assignment({v: rng.randint(0, 1) for v in order.names[:k]})
            x = b.var[src]
            child = b.hi[src] if g[x] else b.lo[src]
            sub, idmap = AL.subdiagram(b, child)
            fr = AL.frontier(b, order, g)
            fr_child = AL.frontier(sub, G.LinearOrder(
                [v for v in order.names if v != x]), g.minus({x}))
            assert {idmap[u] for u in fr.l_nodes} == fr_child.l_nodes
            expect_free = ((b.vars - g.vars) - b.vars_below(child)) | fr_child.free_vars
            assert fr.free_vars == expect_free
            done += 1
            diagrams_used += 1
        done = 0
        while done < 60:
            b, _ = random_and_obdd(rng, [f"v{i}" for i in range(rng.randint(4, 8))],
                                   root_kind="and")
            src = b.source
            if b.kind[src] != D.AND:
                continue
            order = G.LinearOrder(sorted(b.vars))
            k = rng.randint(0, len(b.vars))
            g = Assignment({v: rng.randint(0, 1) for v in order.names[:k]})
            fr = AL.frontier(b, order, g)
            union_l = set()
            union_free = set()
            for child in b.children(src):
                sub, idmap = AL.subdiagram(b, child)
                back = {new: old for old, new in idmap.items()}
                sub_vars = b.vars_below(child)
                fr_c = AL.frontier(sub, G.LinearOrder(
                    [v for v in order.names if v in sub_vars]), g.project(sub_vars))
                union_l |= {back[u] for u in fr_c.l_nodes}
                union_free |= fr_c.free_vars
            assert fr.l_nodes == frozenset(union_l)
            assert fr.free_vars == frozenset(union_free)
            done += 1
            diagrams_used += 1
        print(f"  random diagrams exercised: {diagrams_used}")
        assert diagrams_used >= 200


def test_criterion_05_fooling_certificates():
    with criterion(5, "fooling-set certificates", 120):
        from conftest import component_and_obdd
        exp = LB.make_experiment(matching_graph(3),
                                 [(f"u{i}", f"w{i}") for i in range(1, 4)],
                                 "and-obdd")
        for diagram in (LB.obdd_for_order(exp.formula(), exp.order),
                        component_and_obdd(exp.formula(), exp.order)):
            cert = LB.certify(diagram, exp.order, exp)
            assert cert.fooling_size == 2 ** 3 - 3 - 2 == 3
            assert cert.injective and cert.bound == 3
        sizes = {}
        for q in (3, 4):
            exp = LB.make_experiment(
                matching_graph(q),
                [(f"u{i}", f"w{i}") for i in range(1, q + 1)], "obdd")
            diagram = LB.obdd_for_order(exp.formula(), exp.order)
            cert = LB.certify(diagram, exp.order, exp)
            assert cert.fooling_size == 2 ** q - 1
            bad_order_size = LB.obdd_size(exp.formula(), exp.order)
            assert bad_order_size == diagram.size >= 2 ** q - 1
            sizes[q] = (cert.bound, bad_order_size)
        print(f"  obdd engine: q=3 bound/size {sizes[3]}, q=4 bound/size {sizes[4]}")


def test_criterion_06_unbreakability_checks():
    with criterion(6, "extension and unbreakability checks", 60):
        experiments = [
            LB.make_experiment(matching_graph(3),
                               [(f"u{i}", f"w{i}") for i in range(1, 4)], "and-obdd"),
            LB.make_experiment(
                path_graph([f"v{i}" for i in range(1, 9)]),
                [("v1", "v2"), ("v4", "v5"), ("v7", "v8")], "and-obdd"),
        ]
        for exp in experiments:
            psi = exp.formula()
            diagram = LB.obdd_for_order(psi, exp.order)
            sats = D.satisfying_set(diagram)
            for g in LB.fooling_set(exp):
                index_set, ub, extend = LB.unbreakable(exp, g)
                # satisfaction iff the zeroed subset is nonempty, exhaustively
                for r in range(len(index_set) + 1):
                    for subset in itertools.combinations(index_set, r):
                        assert C.evaluate(psi, extend(subset)) == (1 if subset else 0)
                ok, _ = breaks(restrict_set(sats, g), ub)
                assert not ok
        print(f"  experiments checked: {len(experiments)}")


def test_criterion_07_upper_bound_size_tables():
    with criterion(7, "upper-bound size tables", 60):
        print("\n  grid junction sizes:")
        for n in range(2, 7):
            size = CP.grid_junction_diagram(n).size
            print(f"    n={n}: {size} nodes (gate {6 * n * n})")
            assert size <= 6 * n * n
        print("  layered-diagram widths:")
        for n in range(2, 7):
            diagram = CP.psi_layer_obdd(n, "hor")
            per_var = {}
            for k, x in zip(diagram.kind, diagram.var):
                if k == D.DECISION:
                    per_var[x] = per_var.get(x, 0) + 1
            width = max(per_var.values())
            print(f"    n={n}: max layer width {width} (gate 16)")
            assert width <= 16
        print("  decision-tree sizes (p <= 3; contracted / tree node counts):")
        graphs = graph_corpus()
        cases = {
            "vc(m1)": F.vc_formula(graphs["m1"]),
            "vc(m2)": F.vc_formula(graphs["m2"]),
            "vc(m3)": F.vc_formula(graphs["m3"]),
            "vc(P3)": F.vc_formula(graphs["P3"]),
            "star(m1)": F.star_formula(graphs["m1"]),
            "one-clause": C.Cnf([[("x1", 1), ("x2", 1)]]),
            "empty": C.Cnf([]),
        }
        for name, phi in cases.items():
            p = len(phi)
            assert p <= 3
            n = len(phi.vars)
            dt = CP.decision_tree(phi)
            contracted = CP.dt_to_diagram(dt).size
            bound = (n + 1) ** p + 1
            print(f"    {name}: contracted {contracted} / tree {dt_size(dt)}"
                  f" (gate {bound})")
            assert contracted <= bound


def test_criterion_08_width_machinery():
    rng = random.Random(20260809)
    with criterion(8, "neat extraction and width-7 validation", 180):
        orders_checked = 0
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 6))
            dg = G.double(g)
            lsimw, _ = G.width_min(g, "lsim")
            names = sorted(dg.vertices)
            for _ in range(20):
                rng.shuffle(names)
                order = G.LinearOrder(names)
                m = G.extract_neat(g, order)
                assert G.is_induced_matching(dg, m.edges)
                assert G.neatly_crosses(order, m.edges) is not None
                assert len(m) >= math.ceil(lsimw / 2)
                orders_checked += 1
        print(f"  sampled doubled orders: {orders_checked}")
        assert orders_checked >= 500
        for n in (2, 3, 4):
            gg = G.grid(n)
            psi = F.psi_formula(gg.graph.subgraph_of_edges(gg.hor))
            _, incidence = C.graphs_of(psi)
            width = G.validate_decomposition(incidence, F.psi_path_decomposition(n))
            assert width == 7
        print("  width-7 construction validated for n in {2,3,4}")


def test_criterion_09_property_suites():
    rng = random.Random(20260809)
    with criterion(9, "incidence bound and factor-membership suites", 60):
        # treewidth comparison in the proposition's regime: one binary clause
        # per distinct variable pair (see the ledger for the boundary)
        done = 0
        while done < 300:
            g = random_graph(rng, rng.randint(2, 5))
            phi = C.Cnf([[(a, rng.randint(0, 1)) for a in sorted(e)]
                         for e in g.edges])
            primal, incidence = C.graphs_of(phi)
            if len(incidence.vertices) > 10:
                continue
            assert G.treewidth_exact(incidence) <= G.treewidth_exact(primal)
            done += 1
        print(f"  incidence vs primal instances: {done}")
        done = 0
        nonvacuous = 0
        while done < 300:
            m = rng.randint(2, 3)
            pool = [f"v{i}" for i in range(8)]
            rng.shuffle(pool)
            at = 0
            factors = []
            for _ in range(m):
                size = min(rng.randint(1, 3), len(pool) - at)
                if size == 0:
                    break
                names = pool[at:at + size]
                at += size
                members = [dict(zip(names, bits))
                           for bits in itertools.product((0, 1), repeat=size)
                           if rng.random() < 0.7]
                if not members:
                    members = [dict(zip(names, (0,) * size))]
                from ddlab.assignments import AssignmentSet
                factors.append(AssignmentSet([Assignment(d) for d in members]))
            if len(factors) < 2:
                continue
            h = product_all(factors)
            if not h.elements or len(h.universe) < 2:
                continue
            wide = [f for f in factors if len(f.universe) >= 2]
            if rng.random() < 0.5 and wide:
                src = sorted(rng.choice(wide).universe)
                y = frozenset(rng.sample(src, rng.randint(2, len(src))))
            else:
                universe = sorted(h.universe)
                y = frozenset(rng.sample(universe, rng.randint(2, len(universe))))
            ok, _ = breaks(h, y)
            if not ok:
                nonvacuous += 1
                assert any(y <= f.universe for f in factors)
            done += 1
        print(f"  factor-membership instances: {done} ({nonvacuous} non-vacuous)")
        assert nonvacuous >= 50


def test_criterion_10_separation_echo():
    with criterion(10, "ordered-diagram separation direction", 300):
        # report-only growth table; the gate is the strict n=3 direction
        print()
        for n, samples in ((2, 2000), (3, 10000), (4, 500)):
            junction_size = CP.grid_junction_diagram(n).size
            sampled_size, _ = LB.min_obdd(F.grid_junction_formula(n),
                                          search="sampled", count=samples,
                                          seed=20260809)
            print(f"  n={n}: junction diagram {junction_size} nodes vs best of "
                  f"{samples} sampled plain-OBDD orders {sampled_size} nodes")
            if n == 3:
                assert junction_size < sampled_size
                # the exact minimum over all 10! orders, beside the sampled gate
                exact_size, _ = LB.min_obdd(F.grid_junction_formula(n), verify=True)
                print(f"  n={n}: exact minimum plain OBDD {exact_size} nodes")
                assert junction_size < exact_size == 33


def test_criterion_11_deterministic_bundles(tmp_path):
    with criterion(11, "byte-identical bundles", 120):
        from ddlab.manifest import run_experiment
        manifest = {
            "name": "separation-obdd",
            "steps": [
                {"name": "formula", "verb": "gen",
                 "args": {"family": "vc-junction", "grid": 3, "out": "junction.cnf"}},
                {"name": "junction-diagram", "verb": "compile",
                 "args": {"method": "grid-junction", "n": 3, "out": "junction.json"}},
                {"name": "count", "verb": "count",
                 "args": {"diagram": "junction.json"}},
                {"name": "sampled-minimum", "verb": "minobdd",
                 "args": {"cnf": "junction.cnf", "sample": 300, "seed": 11,
                          "out": "best.order"}},
                {"name": "bad-order-obdd", "verb": "obdd",
                 "args": {"grid": 3, "engine": "obdd",
                          "matching": [["(1,1)", "(1,2)"], ["(3,1)", "(3,2)"]],
                          "out": "bad.json"}},
                {"name": "certificate", "verb": "certify",
                 "args": {"grid": 3, "engine": "obdd",
                          "matching": [["(1,1)", "(1,2)"], ["(3,1)", "(3,2)"]],
                          "diagram": "bad.json", "out": "cert.json"}},
            ],
        }
        man = tmp_path / "manifest.json"
        man.write_text(json.dumps(manifest))
        digests = []
        for name in ("b1", "b2"):
            bundle = tmp_path / name
            run_experiment(str(man), str(bundle))
            tree = {}
            for root, _, files in os.walk(bundle):
                for f in sorted(files):
                    path = os.path.join(root, f)
                    rel = os.path.relpath(path, bundle)
                    with open(path, "rb") as fh:
                        tree[rel] = hashlib.sha256(fh.read()).hexdigest()
            digests.append(tree)
        assert digests[0] == digests[1]
        assert "cert.json" in digests[0]
        print(f"  bundle files compared: {len(digests[0])}")
