"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``setup``), runs one round of
calls into ddlab's public functions (``run_round``, the only timed part),
turns the round's results into plain data (``collect``) and checks the first
round's against ``oracles`` or against properties the method must have
(``check``); every later round's ``digest`` must equal the first's.
Every round repeats the same operations on the same inputs, so every round
attempts and fails the same number of operations.

An operation is one order sized, one verdict, one certificate or one bundle
step.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import shutil

import oracles as O


def _random_graph(rng, names, edges):
    """A connected graph: a random spanning tree plus random extra edges."""
    names = list(names)
    rng.shuffle(names)
    chosen = {frozenset((v, rng.choice(names[:k]))) for k, v in enumerate(names) if k}
    others = [frozenset(p) for p in itertools.combinations(sorted(names), 2)
              if frozenset(p) not in chosen]
    chosen |= set(rng.sample(others, edges - len(chosen)))
    return sorted(tuple(sorted(e)) for e in chosen)


def _labels(rng, prefix, count):
    """Distinct two-digit vertex names, so a seed relabels a graph."""
    return [f"{prefix}{k}" for k in rng.sample(range(10, 100), count)]


def _matching(dd, rng, q):
    us, ws = _labels(rng, "u", q), _labels(rng, "w", q)
    pairs = list(zip(us, ws))
    return dd.graphs.Graph(us + ws, pairs), pairs


def _shuffled_orders(names, count, seed):
    """The orders ``lowerbound.min_obdd(search="sampled")`` sizes, in turn."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        order = list(names)
        rng.shuffle(order)
        out.append(tuple(order))
    return out


# ---------------------------------------------------------------------------


class OrderSearch:
    """Sampled plain-OBDD order search on the grid-junction formula at n=3
    (10 variables) and n=4 (17 variables), plus one exhaustive search over
    all orders of a seeded 7-variable formula."""

    name = "order-search"
    SAMPLES = {3: 2000, 4: 2}
    EXHAUSTIVE_VARS = 7
    EXHAUSTIVE_EDGES = 9
    CHECKED = {3: 24, 4: 1}  # sampled orders re-sized by the oracle
    CHECKED_EXHAUSTIVE = 40

    def setup(self, dd, seed, workdir):
        rng = random.Random(seed)
        names = [f"x{k}" for k in range(1, self.EXHAUSTIVE_VARS + 1)]
        edges = _random_graph(rng, names, self.EXHAUSTIVE_EDGES)
        return {
            "sampled": {n: (dd.formulas.grid_junction_formula(n), rng.randrange(1 << 30))
                        for n in self.SAMPLES},
            "edges": edges,
            "star": dd.formulas.star_formula(dd.graphs.Graph(names, edges)),
            "check_seed": rng.randrange(1 << 30),
        }

    def run_round(self, dd, inputs, tracer):
        lb = dd.lowerbound
        sampled = {n: lb.min_obdd(phi, search="sampled", count=self.SAMPLES[n], seed=s)
                   for n, (phi, s) in inputs["sampled"].items()}
        return sampled, lb.min_obdd(inputs["star"])

    def collect(self, dd, inputs, raw):
        sampled, exhaustive = raw
        return {
            "sampled": {n: (size, order.names) for n, (size, order) in sampled.items()},
            "exhaustive": (exhaustive[0], exhaustive[1].names),
            "attempted": sum(self.SAMPLES.values()) + math.factorial(self.EXHAUSTIVE_VARS),
            "failed": 0,
        }

    def digest(self, out):
        return out["sampled"], out["exhaustive"]

    def check(self, dd, inputs, out, traced):
        problems = []
        rng = random.Random(inputs["check_seed"])
        for n, (phi, seed) in inputs["sampled"].items():
            hor, vert = O.grid_edges(n)
            clauses = O.junction_clauses(O.vc_clauses(hor), O.vc_clauses(vert))
            if O.variables(clauses) != sorted(phi.vars):
                problems.append(f"n={n}: formula variables differ from the oracle's")
                continue
            orders = _shuffled_orders(sorted(phi.vars), self.SAMPLES[n], seed)
            best, best_order = out["sampled"][n]
            if best_order not in orders:
                problems.append(f"n={n}: the returned order was not among the sampled ones")
            if O.obdd_size_for_order(clauses, best_order) != best:
                problems.append(f"n={n}: best size {best} differs from the oracle's at its order")
            for order in rng.sample(orders, self.CHECKED[n]):
                size = dd.lowerbound.obdd_size(phi, order)
                expect = O.obdd_size_for_order(clauses, order)
                if size != expect:
                    problems.append(f"n={n}: size {size} != oracle {expect} at {order}")
                if best > expect:
                    problems.append(f"n={n}: best {best} exceeds a sampled order's {expect}")
        junction = dd.compile.grid_junction_diagram(3).size
        if not junction == 4 * 3 ** 2 - 2 * 3 + 1 < out["sampled"][3][0]:
            problems.append(f"grid-3 junction diagram ({junction} nodes) is not smaller "
                            f"than every sampled order ({out['sampled'][3][0]})")
        clauses = O.star_clauses(inputs["edges"])
        best, best_order = out["exhaustive"]
        if O.obdd_size_for_order(clauses, best_order) != best:
            problems.append(f"exhaustive minimum {best} differs from the oracle's at its order")
        names = O.variables(clauses)
        for _ in range(self.CHECKED_EXHAUSTIVE):
            order = rng.sample(names, len(names))
            if O.obdd_size_for_order(clauses, order) < best:
                problems.append(f"exhaustive minimum {best} beaten by {order}")
        return problems


# ---------------------------------------------------------------------------


class Fooling:
    """The lower-bound pipeline: unbreakability verdicts for and-decomposable
    OBDD experiments (all three fooling assignments of the 3-matching; on the
    8-path with matching (v1,v2),(v4,v5),(v7,v8) the one that zeroes v7, whose
    restricted model set has 288 members), then plain-OBDD certificates on
    matching graphs with q = 1..8. The 8-path's other two verdicts (358 and
    608 members) would take 9 and 17 s more, and a round must fit the run
    several times. A seed relabels the vertices, which leaves the work the
    same."""

    name = "fooling"
    CERTIFY_Q = range(1, 9)

    def setup(self, dd, seed, workdir):
        rng = random.Random(seed)
        make = dd.lowerbound.make_experiment
        graph3, pairs3 = _matching(dd, rng, 3)
        path = _labels(rng, "v", 8)
        path_edges = list(zip(path, path[1:]))
        path_pairs = [(path[0], path[1]), (path[3], path[4]), (path[6], path[7])]
        plain = [make(*_matching(dd, rng, q), "obdd") for q in self.CERTIFY_Q]
        return {
            # (experiment, edges, a u-side variable the verdicts must zero or None)
            "and": [(make(graph3, pairs3, "and-obdd"), pairs3, None),
                    (make(dd.graphs.Graph(path, path_edges), path_pairs, "and-obdd"),
                     path_edges, dd.graphs.tag(path[6], 1))],
            "plain": plain,
        }

    def run_round(self, dd, inputs, tracer):
        lb, assignments, diagrams = dd.lowerbound, dd.assignments, dd.diagrams
        verdicts = []
        for exp, _, zero in inputs["and"]:
            diagram = lb.obdd_for_order(exp.formula(), exp.order)
            models = diagrams.satisfying_set(diagram)
            fools = sorted(lb.fooling_set(exp), key=lambda a: a.render())
            for g in (g for g in fools if zero is None or g[zero] == 0):
                index_set, ub, extend = lb.unbreakable(exp, g)
                broken, _ = assignments.breaks(assignments.restrict_set(models, g), ub)
                verdicts.append((exp, diagram, len(fools), index_set, extend, broken))
        certificates = []
        for exp in inputs["plain"]:
            diagram = lb.obdd_for_order(exp.formula(), exp.order)
            before = tracer.calls["diagrams.validate"] if tracer else 0
            cert = lb.certify(diagram, exp.order, exp)
            validated = tracer.calls["diagrams.validate"] - before if tracer else None
            certificates.append((exp, diagram, cert, validated))
        return verdicts, certificates

    def collect(self, dd, inputs, raw):
        verdicts, certificates = raw
        return {"verdicts": verdicts, "certificates": certificates,
                "attempted": len(verdicts) + len(certificates), "failed": 0}

    @staticmethod
    def _check_diagram(dd, label, diagram, clauses, order, problems):
        order = list(order)
        table = O.truth_table(clauses, order)
        if O.table_from_int(dd.diagrams.truth_table(diagram, order), len(order)) != table:
            problems.append(f"{label}: OBDD truth table differs from the oracle's")
        if diagram.size != O.obdd_size(table):
            problems.append(f"{label}: OBDD has {diagram.size} nodes, the reduced one "
                            f"{O.obdd_size(table)}")

    def digest(self, out):
        return ([(v[0].q, v[2], v[3], v[5]) for v in out["verdicts"]],
                [(c[2].bound, c[2].u_map) for c in out["certificates"]])

    def check(self, dd, inputs, out, traced):
        problems = []
        clauses_of = {id(exp): O.psi_clauses(edges) for exp, edges, _ in inputs["and"]}
        checked = set()
        for exp, diagram, fooling_size, index_set, extend, broken in out["verdicts"]:
            label = f"and-obdd q={exp.q} on {len(exp.graph.vertices)} vertices"
            clauses = clauses_of[id(exp)]
            if broken:
                problems.append(f"{label}: a restricted model set breaks its unbreakable set")
            if fooling_size != 2 ** exp.q - exp.q - 2:
                problems.append(f"{label}: fooling set has {fooling_size} members")
            for r in range(len(index_set) + 1):
                for subset in itertools.combinations(index_set, r):
                    value = O.evaluate(clauses, dict(extend(subset)))
                    if value != (1 if subset else 0):
                        problems.append(f"{label}: extension zeroing {subset} evaluates to {value}")
            if id(exp) not in checked:
                checked.add(id(exp))
                self._check_diagram(dd, label, diagram, clauses, exp.order.names, problems)
        for exp, diagram, cert, validated in out["certificates"]:
            label = f"obdd q={exp.q}"
            nodes = [node for _, node in cert.u_map]
            if cert.fooling_size != 2 ** exp.q - 1 or len(nodes) != cert.fooling_size:
                problems.append(f"{label}: fooling set has {cert.fooling_size} members")
            if not cert.injective or len(set(nodes)) != len(nodes):
                problems.append(f"{label}: certificate is not injective")
            if not cert.bound == cert.fooling_size <= diagram.size == cert.diagram_size:
                problems.append(f"{label}: bound {cert.bound} against size {diagram.size}")
            if traced and validated != 2 * cert.fooling_size + 1:
                problems.append(f"{label}: certify validated {validated} times, "
                                f"expected 2|F|+1 = {2 * cert.fooling_size + 1}")
            edges = [tuple(p) for p in exp.pairs]
            self._check_diagram(dd, label, diagram, O.vc_clauses(edges), exp.order.names,
                                problems)
        return problems


# ---------------------------------------------------------------------------


class Bundle:
    """``ddlab run`` on a reference manifest through ``ddlab.cli.main``,
    using every verb. The ``split`` compile step asks for ``vtree_out``,
    which the bundle runner does not write; that step counts as failed."""

    name = "bundle"
    MATCHING_Q = 6
    STAR_VERTICES = 8
    STAR_EDGES = 10

    def setup(self, dd, seed, workdir):
        rng = random.Random(seed)
        graphs, cnf, formulas = dd.graphs, dd.cnf, dd.formulas
        grid4 = graphs.grid(4).graph
        decomp4 = graphs.decomposition_from_elimination(grid4, graphs.grid_order(4).names)
        psi3 = formulas.psi_formula(graphs.grid(3).graph)
        long = [name for name, c in cnf.clause_labels(psi3) if len(c) > 2]
        rest = cnf.Cnf(c for c in psi3.clauses if len(c) <= 2)
        interleaved = [graphs.tag(v, k) for v in graphs.grid_order(3).names for k in (1, 2)]
        decomp3 = graphs.decomposition_from_elimination(cnf.graphs_of(rest)[0], interleaved)
        matching, pairs = _matching(dd, rng, self.MATCHING_Q)
        star_names = [f"s{k}" for k in range(1, self.STAR_VERTICES + 1)]
        star_edges = _random_graph(rng, star_names, self.STAR_EDGES)
        grid3_vars = sorted(graphs.grid(3).graph.vertices) + ["jn"]
        assignment = {v: rng.randrange(2) for v in grid3_vars}
        steps = []

        def step(name, verb, **args):
            steps.append({"name": name, "verb": verb, "args": args})

        step("write-grid4-decomp", "write", path="in/grid4.decomp",
             text=graphs.write_decomposition(decomp4))
        step("write-psi3-decomp", "write", path="in/psi3.decomp",
             text=graphs.write_decomposition(decomp3))
        step("write-matching", "write", path="in/matching.graph",
             text=graphs.write_graph(matching))
        step("write-star-graph", "write", path="in/star.graph",
             text=graphs.write_graph(graphs.Graph(star_names, star_edges)))
        step("gen-vc5", "gen", family="vc", grid=5, out="vc5.cnf")
        step("gen-vc4", "gen", family="vc", grid=4, out="vc4.cnf")
        step("gen-psi3", "gen", family="psi", grid=3, out="psi3.cnf")
        step("gen-star", "gen", family="star", graph="in/star.graph", out="star.cnf")
        step("gen-vc-junction3", "gen", family="vc-junction", grid=3, out="junction3.cnf")
        step("gen-psi-junction2", "gen", family="psi-junction", grid=2, out="psijunction2.cnf")
        step("compile-dtree-vc5", "compile", method="dtree", cnf="vc5.cnf", out="dtree5.json")
        step("compile-primal-vc4", "compile", method="primal", cnf="vc4.cnf",
             decomp="in/grid4.decomp", out="primal4.json", vtree_out="primal4.vtree")
        step("compile-split-psi3", "compile", method="split", cnf="psi3.cnf",
             decomp="in/psi3.decomp", long=long, out="split3.json", vtree_out="split3.vtree")
        for n in (3, 4, 5):
            step(f"compile-junction{n}", "compile", method="grid-junction", n=n,
                 out=f"junction{n}.json")
        step("compile-psi-layer3", "compile", method="psi-layer", n=3, orientation="hor",
             out="layer3.json")
        step("compile-psi-junction2", "compile", method="psi-layer", n=2, junction=True,
             out="psijunction2.json")
        for diagram in ("dtree5", "primal4", "split3", "junction3", "junction4",
                        "junction5", "layer3", "psijunction2"):
            step(f"count-{diagram}", "count", diagram=f"{diagram}.json")
        step("eval-junction3", "eval", diagram="junction3.json",
             assignment=",".join(f"{v}={b}" for v, b in sorted(assignment.items())))
        step("validate-junction5", "validate", diagram="junction5.json")
        step("validate-primal4", "validate", diagram="primal4.json")
        step("width-grid3", "width", grid=3, mode="lsim", sample=200, seed=rng.randrange(1000))
        step("width-matching", "width", graph="in/matching.graph", mode="lmm", sample=50,
             seed=rng.randrange(1000))
        experiment = {"graph": "in/matching.graph", "engine": "obdd",
                      "matching": [list(p) for p in pairs]}
        step("fool", "fool", out="fool.txt", **experiment)
        step("obdd-bad-order", "obdd", out="bad.json", **experiment)
        step("certify", "certify", diagram="bad.json", out="cert.json", **experiment)
        step("minobdd-junction3", "minobdd", cnf="junction3.cnf", sample=300,
             seed=rng.randrange(1000), out="best.order")
        manifest = os.path.join(workdir, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"name": "reference", "steps": steps}, fh, indent=2)
        return {"manifest": manifest, "steps": steps, "workdir": workdir, "rounds": 0,
                "pairs": pairs, "star_edges": star_edges, "assignment": assignment}

    def run_round(self, dd, inputs, tracer):
        inputs["rounds"] += 1
        out_dir = os.path.join(inputs["workdir"], f"bundle{inputs['rounds']}")
        with contextlib.redirect_stdout(io.StringIO()):
            status = dd.cli.main(["run", "--manifest", inputs["manifest"], "--out-dir", out_dir])
        return status, out_dir

    def collect(self, dd, inputs, raw):
        status, out_dir = raw
        summary_path = os.path.join(out_dir, "summary.json")
        summary = {"steps": [], "artifacts": {}}
        if os.path.exists(summary_path):
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
        done = {row["name"]: row["info"] for row in summary["steps"]}
        failed = []
        for step in inputs["steps"]:
            args = step["args"]
            wanted = [args[k] for k in ("out", "path", "vtree_out") if k in args]
            missing = [p for p in wanted if not os.path.exists(os.path.join(out_dir, p))]
            if step["name"] not in done or missing:
                failed.append(step["name"])
        order_path = os.path.join(out_dir, "best.order")
        best_order = None
        if os.path.exists(order_path):
            with open(order_path, encoding="utf-8") as fh:
                best_order = fh.read().split()
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"status": status, "info": done, "artifacts": summary["artifacts"],
                "failed_steps": failed, "best_order": best_order,
                "attempted": len(inputs["steps"]), "failed": len(failed)}

    def digest(self, out):
        return (out["status"], out["info"], out["artifacts"], out["failed_steps"],
                out["best_order"])

    def check(self, dd, inputs, out, traced):
        problems = []
        if out["status"] != 0:
            problems.append(f"ddlab run exited with status {out['status']}")
        hor, vert = O.grid_edges(3)
        psi3 = O.psi_clauses(hor + vert)
        layer3 = O.psi_clauses(hor)
        junction3 = O.junction_clauses(O.vc_clauses(hor), O.vc_clauses(vert))
        psi_junction2 = O.junction_clauses(*map(O.psi_clauses, O.grid_edges(2)))
        q = self.MATCHING_Q
        bad_order = sorted(u for u, _ in inputs["pairs"]) + sorted(w for _, w in inputs["pairs"])
        # step name -> (summary fields, expected values)
        expect = {
            "count-dtree5": (("count",), (O.grid_vertex_covers(5, 5),)),
            "count-primal4": (("count",), (O.grid_vertex_covers(4, 4),)),
            "count-split3": (("count",), (O.count_models(psi3, O.variables(psi3)),)),
            "count-layer3": (("count",), (O.count_models(layer3, O.variables(layer3)),)),
            "count-psijunction2": (("count",), (O.count_models(
                psi_junction2, O.variables(psi_junction2)),)),
            "eval-junction3": (("value",), (O.evaluate(junction3, inputs["assignment"]),)),
            "validate-junction5": (("and_obdd",), (True,)),
            "validate-primal4": (("and_obdd",), (True,)),
            "fool": (("size",), (2 ** q - 1,)),
            "certify": (("bound", "fooling_size"), (2 ** q - 1, 2 ** q - 1)),
            "obdd-bad-order": (("size",), (O.obdd_size_for_order(
                O.vc_clauses(inputs["pairs"]), bad_order),)),
        }
        for n in (3, 4, 5):
            expect[f"count-junction{n}"] = (("count",), (
                O.grid_vertex_covers(n, n, vert=False) + O.grid_vertex_covers(n, n, hor=False),))
            expect[f"compile-junction{n}"] = (("size",), (4 * n * n - 2 * n + 1,))
        for name, clauses in {"gen-vc5": O.vc_clauses(sum(O.grid_edges(5), [])),
                              "gen-vc4": O.vc_clauses(sum(O.grid_edges(4), [])),
                              "gen-psi3": psi3, "gen-star": O.star_clauses(inputs["star_edges"]),
                              "gen-vc-junction3": junction3,
                              "gen-psi-junction2": psi_junction2}.items():
            expect[name] = (("variables", "clauses"), (len(O.variables(clauses)), len(clauses)))
        for name, (fields, want) in expect.items():
            if name in out["failed_steps"]:
                continue  # counted as failed; only the operations that ran are checked
            got = tuple(out["info"][name][f] for f in fields)
            if got != want:
                problems.append(f"{name}: got {got}, expected {want}")
        for name in ("width-grid3", "width-matching"):
            if name not in out["failed_steps"] and out["info"][name]["width"] < 1:
                problems.append(f"{name}: width below 1")
        if "minobdd-junction3" not in out["failed_steps"]:
            size = out["info"]["minobdd-junction3"]["size"]
            if O.obdd_size_for_order(junction3, out["best_order"]) != size:
                problems.append(f"minobdd: size {size} differs from the oracle's at its order")
            if size <= 4 * 3 ** 2 - 2 * 3 + 1:
                problems.append(f"minobdd: a sampled order ({size}) beat the junction diagram")
        return problems


WORKLOADS = {w.name: w for w in (OrderSearch(), Fooling(), Bundle())}
