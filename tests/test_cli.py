import argparse
import gc
import hashlib
import io
import json
import os
import pathlib
import tracemalloc

import pytest

from ddlab import cli
from ddlab import cnf as C
from ddlab import diagrams as D
from ddlab import manifest, verbs


# a decision node whose two edges reach equal sinks: valid JSON, invalid diagram
BROKEN_DIAGRAM = {"source": 2, "vars": ["x"],
                  "nodes": [{"id": 0, "kind": "sink", "value": 1},
                            {"id": 1, "kind": "sink", "value": 1},
                            {"id": 2, "kind": "decision", "var": "x", "lo": 0, "hi": 1}]}

# a AND b over the two variables a and b
A_AND_B = {"source": 3, "vars": ["a", "b"],
           "nodes": [{"id": 0, "kind": "sink", "value": 0},
                     {"id": 1, "kind": "sink", "value": 1},
                     {"id": 2, "kind": "decision", "var": "b", "lo": 0, "hi": 1},
                     {"id": 3, "kind": "decision", "var": "a", "lo": 0, "hi": 2}]}


def put(name, text):
    """Write ``text`` to the file ``name`` in the working directory."""
    pathlib.Path(name).write_text(text)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_psi_grid2(self, tmp_path, capsys):
        out = tmp_path / "psi2.cnf"
        code, _, _ = run(["gen", "--family", "psi", "--grid", "2",
                          "--out", str(out), "--meta"], capsys)
        assert code == 0
        phi = C.read_dimacs(out.read_text())
        assert len(phi.vars) == 8 and len(phi) == 10
        meta = json.loads((tmp_path / "psi2.cnf.meta.json").read_text())
        assert meta["family"] == "psi" and meta["variables"] == 8

    def test_vc_junction(self, tmp_path, capsys):
        out = tmp_path / "j.cnf"
        code, _, _ = run(["gen", "--family", "vc-junction", "--grid", "2",
                          "--out", str(out)], capsys)
        assert code == 0
        phi = C.read_dimacs(out.read_text())
        assert len(phi.vars) == 5 and len(phi) == 4

    def test_meta_without_out_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["gen", "--family", "vc", "--grid", "2", "--meta"], capsys)
        message = json.loads(err)["message"]
        assert code == 2 and out == "" and "--meta needs --out" in message
        assert list(tmp_path.iterdir()) == []


class TestCompileCountValidate:
    def test_grid_junction_count_and_class(self, tmp_path, capsys):
        d = tmp_path / "gj.json"
        code, _, _ = run(["compile", "--method", "grid-junction", "--n", "2",
                          "--out", str(d)], capsys)
        assert code == 0
        code, out, _ = run(["count", "--diagram", str(d)], capsys)
        assert code == 0 and out.strip() == "18"
        code, out, _ = run(["validate", "--diagram", str(d)], capsys)
        assert code == 0 and json.loads(out)["and_obdd"]

    def test_primal_pipeline(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        run(["gen", "--family", "vc", "--grid", "2", "--out", str(cnf)], capsys)
        phi = C.read_dimacs(cnf.read_text())
        from ddlab.graphs import write_decomposition
        from conftest import exact_decomposition
        primal, _ = C.graphs_of(phi)
        decomp = tmp_path / "d.txt"
        decomp.write_text(write_decomposition(exact_decomposition(primal)))
        diag = tmp_path / "b.json"
        vt = tmp_path / "b.vtree"
        code, _, _ = run(["compile", "--method", "primal", "--cnf", str(cnf),
                          "--decomp", str(decomp), "--out", str(diag),
                          "--vtree-out", str(vt)], capsys)
        assert code == 0 and vt.exists()
        code, out, _ = run(["count", "--diagram", str(diag)], capsys)
        assert out.strip() == "7"

    def test_validate_rejects_broken_diagram(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(BROKEN_DIAGRAM))
        code, _, err = run(["validate", "--diagram", str(bad)], capsys)
        assert code == 1
        assert json.loads(err.splitlines()[0])["error"] == "DiagramInvariantError"

    def test_malformed_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("{nope")
        code, _, err = run(["count", "--diagram", str(bad)], capsys)
        assert code == 2
        assert json.loads(err.splitlines()[0])["error"] == "FormatError"

    @pytest.mark.parametrize("node, field, value", [
        (1, "value", 2), (1, "value", "1"), (3, "lo", False), (2, "var", 7)],
        ids=["sink-value-2", "sink-value-string", "boolean-child", "numeric-var"])
    def test_loader_rejections_are_exit_2(self, tmp_path, capsys, node, field, value):
        doc = json.loads(json.dumps(A_AND_B))
        del doc["vars"]  # no declared universe, so the one bad field is the only fault
        doc["nodes"][node][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(["count", "--diagram", str(bad)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err.splitlines()[0])["error"] == "FormatError"

    @pytest.mark.parametrize("names", ["ab", {"a": 1, "b": 2}, None],
                             ids=["string", "object", "null"])
    def test_vars_that_are_not_a_list_are_exit_2(self, tmp_path, capsys, names):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**A_AND_B, "vars": names}))
        code, out, err = run(["count", "--diagram", str(bad)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err.splitlines()[0])["error"] == "FormatError"

    @pytest.mark.parametrize("cnf, decomp, message", [
        ("p cnf x 1\n1 0\n", "B b1 x1\n", "bad problem line: 'p cnf x 1'"),
        ("p cnf 1 1\n1 0\n", "B b1 x1\nB b1 x1\n", "bag 'b1' is given twice"),
    ], ids=["dimacs-header", "bag-twice"])
    def test_malformed_input_files_are_exit_2(self, tmp_path, capsys, monkeypatch,
                                              cnf, decomp, message):
        monkeypatch.chdir(tmp_path)
        put("f.cnf", cnf)
        put("d.txt", decomp)
        code, out, err = run(["compile", "--method", "primal", "--cnf", "f.cnf",
                              "--decomp", "d.txt"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "FormatError", "message": message}

    def test_missing_input_file_is_exit_2(self, tmp_path, capsys):
        code, _, err = run(["compile", "--method", "dtree", "--cnf", str(tmp_path / "f.cnf"),
                            "--out", str(tmp_path / "x.json")], capsys)
        assert code == 2
        assert json.loads(err.splitlines()[0])["error"] == "FileNotFoundError"

    def test_missing_method_arguments_are_exit_2(self, tmp_path, capsys):
        code, _, err = run(["compile", "--method", "primal",
                            "--out", str(tmp_path / "x.json")], capsys)
        assert code == 2
        assert "--cnf" in json.loads(err.splitlines()[0])["message"]
        code, _, _ = run(["compile", "--method", "grid-junction",
                          "--out", str(tmp_path / "x.json")], capsys)
        assert code == 2


class TestEvalAlignRestrict:
    def test_eval(self, tmp_path, capsys):
        d = tmp_path / "gj.json"
        run(["compile", "--method", "grid-junction", "--n", "2", "--out", str(d)], capsys)
        assignment = "jn=1,(1,1)=1,(1,2)=1,(2,1)=1,(2,2)=1"
        code, out, _ = run(["eval", "--diagram", str(d),
                            "--assignment", assignment], capsys)
        assert code == 0 and out.strip() == "1"

    def test_align_and_frontier_reports(self, tmp_path, capsys):
        d = tmp_path / "gj.json"
        run(["compile", "--method", "grid-junction", "--n", "2", "--out", str(d)], capsys)
        code, out, _ = run(["align", "--diagram", str(d),
                            "--assignment", "jn=1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "kept_nodes" in doc and "incomplete" in doc
        order = tmp_path / "o.txt"
        from ddlab.compile import junction_order
        from ddlab.graphs import write_order
        order.write_text(write_order(junction_order(2)))
        code, out, _ = run(["align", "--diagram", str(d), "--assignment", "jn=1",
                            "--order", str(order)], capsys)
        doc = json.loads(out)
        assert set(doc) == {"L", "X", "tree"}

    def test_restrict(self, tmp_path, capsys):
        d = tmp_path / "gj.json"
        run(["compile", "--method", "grid-junction", "--n", "2", "--out", str(d)], capsys)
        out_path = tmp_path / "r.json"
        code, _, _ = run(["restrict", "--diagram", str(d), "--var", "jn",
                          "--bit", "1", "--out", str(out_path)], capsys)
        assert code == 0
        restricted = D.load(str(out_path))
        assert restricted.size <= D.load(str(d)).size
        # the jn=1 side counts row covers over the full grid universe
        code, out, _ = run(["count", "--diagram", str(out_path), "--universe",
                            "(1,1),(1,2),(2,1),(2,2)"], capsys)
        assert code == 0 and out.strip() == "9"


    def test_restrict_without_out_prints_what_out_writes(self, tmp_path, capsys):
        d = tmp_path / "gj.json"
        run(["compile", "--method", "grid-junction", "--n", "2", "--out", str(d)], capsys)
        argv = ["restrict", "--diagram", str(d), "--var", "jn", "--bit", "1"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        run(argv + ["--out", str(tmp_path / "r.json")], capsys)
        assert out.encode() == (tmp_path / "r.json").read_bytes()


class TestLb:
    def write_experiment(self, tmp_path):
        from ddlab.graphs import write_graph
        from conftest import matching_graph
        g = tmp_path / "g.txt"
        g.write_text(write_graph(matching_graph(3)))
        m = tmp_path / "m.txt"
        m.write_text("u1 w1\nu2 w2\nu3 w3\n")
        return g, m

    def test_fool(self, tmp_path, capsys):
        g, m = self.write_experiment(tmp_path)
        code, out, _ = run(["lb", "fool", "--graph", str(g), "--matching", str(m),
                            "--engine", "and-obdd"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_certify_roundtrip(self, tmp_path, capsys):
        g, m = self.write_experiment(tmp_path)
        from ddlab import lowerbound as LB
        from conftest import matching_graph
        exp = LB.make_experiment(matching_graph(3),
                                 [("u1", "w1"), ("u2", "w2"), ("u3", "w3")], "obdd")
        diagram = LB.obdd_for_order(exp.formula(), exp.order)
        dpath = tmp_path / "b.json"
        D.save(diagram, dpath)
        cert = tmp_path / "cert.json"
        code, out, err = run(["lb", "certify", "--diagram", str(dpath),
                              "--graph", str(g), "--matching", str(m),
                              "--engine", "obdd", "--out", str(cert)], capsys)
        assert code == 0
        doc = json.loads(cert.read_text())
        assert doc["bound"] == 7 and doc["injective"]
        assert "wall_clock_ms" in json.loads(err.splitlines()[-1])

    def test_certify_without_diagram_names_the_command(self, tmp_path, capsys):
        g, m = self.write_experiment(tmp_path)
        code, _, err = run(["lb", "certify", "--graph", str(g), "--matching", str(m),
                            "--engine", "obdd"], capsys)
        assert code == 2
        assert json.loads(err) == {"error": "FormatError",
                                   "message": "ddlab lb certify needs --diagram"}

    def test_minobdd_requires_seed(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        run(["gen", "--family", "vc", "--grid", "2", "--out", str(cnf)], capsys)
        code, _, err = run(["minobdd", "--cnf", str(cnf), "--sample", "10"], capsys)
        assert code == 2
        code, out, _ = run(["minobdd", "--cnf", str(cnf), "--sample", "10",
                            "--seed", "1"], capsys)
        assert code == 0 and out.splitlines()[0].isdigit()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_below_one_is_exit_2(self, tmp_path, capsys, count):
        cnf = tmp_path / "f.cnf"
        run(["gen", "--family", "vc", "--grid", "2", "--out", str(cnf)], capsys)
        for argv in (["minobdd", "--cnf", str(cnf)], ["width", "--grid", "2"]):
            code, out, err = run(argv + ["--sample", count, "--seed", "1"], capsys)
            assert code == 2 and out == "", argv
            assert "count of at least 1" in err and "Traceback" not in err


class TestRun:
    def test_empty_manifest(self, tmp_path, capsys):
        man = tmp_path / "m.json"
        man.write_text('{"name": "empty", "steps": []}')
        code, _, _ = run(["run", "--manifest", str(man),
                          "--out-dir", str(tmp_path / "b")], capsys)
        assert code == 0
        assert (tmp_path / "b" / "summary.json").exists()

    def test_failing_step_names_itself(self, tmp_path, capsys):
        man = tmp_path / "m.json"
        man.write_text(json.dumps({
            "name": "boom",
            "steps": [{"name": "badstep", "verb": "count",
                       "args": {"diagram": "missing.json"}}],
        }))
        code, _, err = run(["run", "--manifest", str(man),
                            "--out-dir", str(tmp_path / "b")], capsys)
        assert code == 2
        assert "badstep" in json.loads(err.splitlines()[0])["message"]

    def run_step(self, tmp_path, capsys, verb, args):
        man = tmp_path / "m.json"
        man.write_text(json.dumps({"name": "one", "steps": [
            {"name": "only", "verb": verb, "args": args}]}))
        code, _, err = run(["run", "--manifest", str(man),
                            "--out-dir", str(tmp_path / "b")], capsys)
        return code, json.loads(err.splitlines()[0])["message"]

    def test_unknown_verb_is_exit_2(self, tmp_path, capsys):
        code, message = self.run_step(tmp_path, capsys, "frobnicate", {})
        assert code == 2 and "unknown verb" in message

    def test_unknown_compile_method_is_exit_2(self, tmp_path, capsys):
        code, message = self.run_step(tmp_path, capsys, "compile",
                                      {"method": "magic", "out": "b.json"})
        assert code == 2 and "unknown compile method" in message

    def test_count_without_diagram_is_exit_2(self, tmp_path, capsys):
        code, message = self.run_step(tmp_path, capsys, "count", {})
        assert code == 2 and "FormatError" in message and "diagram" in message

    def test_gen_meta_without_out_is_exit_2(self, tmp_path, capsys):
        code, message = self.run_step(tmp_path, capsys, "gen",
                                      {"family": "vc", "grid": 2, "meta": True})
        assert code == 2 and "FormatError" in message and "'meta' needs 'out'" in message
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "manifest.json", "summary.json"]

    def test_missing_argument_is_named_as_a_flag_or_a_key(self, tmp_path, capsys):
        code, message = self.run_step(tmp_path, capsys, "width", {"grid": 2, "sample": 10})
        assert code == 2 and "width needs 'seed'" in message
        code, _, err = run(["width", "--grid", "2", "--sample", "10"], capsys)
        assert code == 2 and "needs --seed" in json.loads(err)["message"]

    @pytest.mark.parametrize("verb,args,what", [
        ("gen", {"family": "cycle", "grid": 2, "out": "f.cnf"}, "unknown family 'cycle'"),
        ("width", {"grid": 2, "mode": "bandwidth"}, "unknown mode 'bandwidth'")])
    def test_unknown_family_or_mode_is_exit_2(self, tmp_path, capsys, verb, args, what):
        code, message = self.run_step(tmp_path, capsys, verb, args)
        assert code == 2 and "FormatError" in message and what in message

    @pytest.mark.parametrize("argv,verb,args", [
        (["compile", "--method", "psi-layer", "--n", "2", "--orientation", "vertical"],
         "compile", {"method": "psi-layer", "n": 2, "orientation": "vertical"}),
        (["width", "--grid", "2", "--mode", "bandwidth"],
         "width", {"grid": 2, "mode": "bandwidth"}),
    ], ids=["orientation", "mode"])
    def test_a_bad_word_is_the_same_error_on_both_routes(self, tmp_path, capsys,
                                                         argv, verb, args):
        code, out, err = run(argv, capsys)
        doc = json.loads(err)
        assert code == 2 and out == "" and doc["error"] == "FormatError"
        code, message = self.run_step(tmp_path, capsys, verb, args)
        assert code == 2 and message.endswith(f"(FormatError): {doc['message']}")

    def test_a_key_error_inside_a_verb_is_a_failure_not_bad_input(self, tmp_path, capsys,
                                                                  monkeypatch):
        def broken(args, path):
            return {}[("no", "such", "key")]

        monkeypatch.setitem(verbs.VERBS, "count", broken)
        code, message = self.run_step(tmp_path, capsys, "count", {"diagram": "d.json"})
        assert code == 1 and "KeyError" in message
        with pytest.raises(KeyError):  # the command shows the traceback
            cli.main(["count", "--diagram", "d.json"])

    @pytest.mark.parametrize("argv,verb,args", [
        (["width", "--grid", "2", "--graph", "nonexistent.txt"],
         "width", {"grid": 2, "graph": "nonexistent.txt"}),
        (["gen", "--family", "vc", "--grid", "2", "--graph", "g.txt"],
         "gen", {"family": "vc", "grid": 2, "graph": "g.txt"}),
    ], ids=["width", "gen"])
    def test_grid_and_graph_together_are_exit_2_on_both_routes(self, tmp_path, capsys,
                                                              monkeypatch, argv, verb, args):
        monkeypatch.chdir(tmp_path)
        put("g.txt", "a b\n")
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "FormatError",
                                   "message": "give --grid or --graph, not both"}
        code, message = self.run_step(tmp_path, capsys, verb, args)
        assert code == 2 and message.endswith("(FormatError): give 'grid' or 'graph', not both")

    @pytest.mark.parametrize("verb,args", [
        ("width", {"grid": 2, "seed": 1}),
        ("minobdd", {"cnf": "f.cnf", "seed": 1}),
    ], ids=["width", "minobdd"])
    def test_a_seed_without_a_sample_is_exit_2_on_both_routes(self, tmp_path, capsys,
                                                              monkeypatch, verb, args):
        monkeypatch.chdir(tmp_path)
        cnf = "p cnf 2 1\n1 2 0\n"
        put("f.cnf", cnf)
        code, out, err = run([verb, *(x for k, v in args.items() for x in (f"--{k}", str(v)))],
                             capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "FormatError", "message":
                                   "--seed needs --sample: only a sampled search is seeded"}
        code, error = self.run_manifest(tmp_path, capsys, {"name": "seed", "steps": [
            {"name": "w", "verb": "write", "args": {"path": "f.cnf", "text": cnf}},
            {"name": "s", "verb": verb, "args": args}]})
        assert code == 2 and error["message"].endswith(
            "(FormatError): 'seed' needs 'sample': only a sampled search is seeded")

    # a count that is not an integer: (verb, the other args, key, its text on
    # the command line, its value in a bundle step)
    NOT_INTEGERS = [
        ("compile", {"method": "grid-junction"}, "n", "3.7", 3.7),
        ("compile", {"method": "psi-layer"}, "n", "three", "3.0"),
        ("compile", {"method": "psi-layer", "junction": True}, "n", "2e0", True),
        ("gen", {"family": "vc"}, "grid", "2.9", 2.9),
        ("gen", {"family": "vc-junction"}, "grid", "", False),
        ("width", {"sample": 2, "seed": 1}, "grid", "+2", True),
        ("width", {"grid": 2, "seed": 1}, "sample", "2.5", 2.5),
        ("minobdd", {"cnf": "f.cnf", "seed": 1}, "sample", "1_0", [2]),
        ("width", {"grid": 2, "sample": 2}, "seed", "1.5", 1.5),
        ("minobdd", {"cnf": "f.cnf", "sample": 2}, "seed", "--1", {"seed": 1}),
    ]

    @pytest.mark.parametrize("verb,args,key,text,value", NOT_INTEGERS,
                             ids=[f"{c[0]}-{c[2]}-{i}" for i, c in enumerate(NOT_INTEGERS)])
    def test_a_count_that_is_not_an_integer_is_exit_2_on_both_routes(
            self, tmp_path, capsys, monkeypatch, verb, args, key, text, value):
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "b")
        put("f.cnf", "p cnf 2 1\n1 2 0\n")
        argv = [verb, f"--{key}={text}", "--out", "made.out"]
        for k, v in args.items():
            argv += [f"--{k}"] if v is True else [f"--{k}", str(v)]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "FormatError",
                                   "message": f"--{key} must be an integer, not {text!r}"}
        args = dict(args, out="made.out", **{key: value})
        code, message = self.run_step(tmp_path, capsys, verb, args)
        assert code == 2 and message.endswith(
            f"(FormatError): {key!r} must be an integer, not {value!r}")
        assert sorted(os.listdir()) == ["f.cnf", "manifest.json", "summary.json"]

    def test_an_integer_is_read_from_its_text_or_an_int(self):
        for flags, value in ((True, "-3"), (True, "3"), (False, 3), (False, -3)):
            assert verbs._integer(verbs.Args({"n": value}, "x", flags), "n") == int(value)

    # a key that the method, family or (with cnf) obdd does not read, and
    # what the message names as not reading it
    UNREAD_KEYS = [
        ("compile", {"method": "dtree", "cnf": "f.cnf", "orientation": "bogus"},
         "method 'dtree'", "orientation"),
        ("compile", {"method": "dtree", "cnf": "f.cnf", "n": 9}, "method 'dtree'", "n"),
        ("compile", {"method": "dtree", "cnf": "f.cnf", "junction": True},
         "method 'dtree'", "junction"),
        ("compile", {"method": "dtree", "cnf": "f.cnf", "vtree_out": "t.vtree"},
         "method 'dtree'", "vtree_out"),
        ("compile", {"method": "primal", "cnf": "f.cnf", "decomp": "d.txt", "long": ["c0"]},
         "method 'primal'", "long"),
        ("compile", {"method": "grid-junction", "n": 2, "cnf": "f.cnf"},
         "method 'grid-junction'", "cnf"),
        ("compile", {"method": "grid-junction", "n": 2, "decomp": "d.txt"},
         "method 'grid-junction'", "decomp"),
        ("compile", {"method": "psi-layer", "n": 2, "junction": True, "orientation": "bogus"},
         "method 'psi-layer' with junction", "orientation"),
        ("gen", {"family": "vc-junction", "grid": 2, "graph": "g.txt"},
         "family 'vc-junction'", "graph"),
        ("obdd", {"cnf": "f.cnf", "order": "f.order", "graph": "g.txt"}, "obdd with cnf", "graph"),
        ("obdd", {"cnf": "f.cnf", "order": "f.order", "grid": 2}, "obdd with cnf", "grid"),
        ("obdd", {"cnf": "f.cnf", "order": "f.order", "matching": [["a", "b"]]},
         "obdd with cnf", "matching"),
        ("obdd", {"cnf": "f.cnf", "order": "f.order", "engine": "obdd"}, "obdd with cnf", "engine"),
    ]

    @pytest.mark.parametrize("verb,args,what,key", UNREAD_KEYS, ids=[
        f"{v}-{a.get('method') or a.get('family') or 'cnf'}-{k}" for v, a, _, k in UNREAD_KEYS])
    def test_a_key_the_method_does_not_read_is_exit_2_on_both_routes(
            self, tmp_path, capsys, monkeypatch, verb, args, what, key):
        inputs = {"f.cnf": "p cnf 2 1\n1 2 0\n", "f.order": "x1\nx2\n", "g.txt": "a b\n",
                  "d.txt": "b0 x1 x2\n"}
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "b")
        for name, text in inputs.items():
            put(name, text)
        args = dict(args, out="made.out")
        if verb != "obdd":  # a bundle verb only: the command has no obdd
            argv = [verb]
            for k, v in args.items():
                value = [] if v is True else [",".join(v) if isinstance(v, list) else str(v)]
                argv += ["--" + k.replace("_", "-"), *value]
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert json.loads(err) == {"error": "FormatError",
                                       "message": f"{what} takes no --{key.replace('_', '-')}"}
            assert sorted(os.listdir()) == sorted(inputs)
        man = tmp_path / "m.json"
        man.write_text(json.dumps({"name": "one", "steps": [
            {"name": "only", "verb": verb, "args": args}]}))
        code, _, err = run(["run", "--manifest", str(man), "--out-dir", "."], capsys)
        assert code == 2 and len(err.splitlines()) == 1
        assert json.loads(err)["message"].endswith(f"(FormatError): {what} takes no {key!r}")
        assert sorted(os.listdir()) == sorted([*inputs, "manifest.json", "summary.json"])

    def test_wrongly_typed_argument_is_exit_2(self, tmp_path, capsys):
        code, message = self.run_step(tmp_path, capsys, "compile",
                                      {"method": "grid-junction", "n": None, "out": "b.json"})
        assert code == 2 and message.endswith("(FormatError): 'n' must be an integer, not None")

    @pytest.mark.parametrize("verb,args,message", [
        ("compile", {"method": "psi-layer", "n": 3, "junction": "false", "out": "d.json"},
         "'junction' must be a JSON bool, not 'false'"),
        ("restrict", {"diagram": "ab.json", "var": "a", "bit": 1, "no_essential_check": "no",
                      "out": "r.json"}, "'no_essential_check' must be a JSON bool, not 'no'"),
        ("minobdd", {"cnf": "f.cnf", "verify": "no", "out": "o.txt"},
         "'verify' must be a JSON bool, not 'no'"),
        ("write", {"path": "w.txt", "text": ["a", "b"]},
         "'text' must be a JSON string, not ['a', 'b']"),
        ("eval", {"diagram": "ab.json", "assignment": 5},
         "'assignment' must be a JSON string, not 5"),
        ("align", {"diagram": "ab.json", "assignment": 5, "out": "a.json"},
         "'assignment' must be a JSON string, not 5"),
    ], ids=["junction", "no-essential-check", "verify", "text", "eval-assignment",
            "align-assignment"])
    def test_a_switch_that_is_no_bool_or_text_that_is_no_string_is_exit_2(
            self, tmp_path, capsys, verb, args, message):
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "ab.json").write_text(json.dumps(A_AND_B))
        (tmp_path / "b" / "f.cnf").write_text("p cnf 2 1\n1 2 0\n")
        code, got = self.run_step(tmp_path, capsys, verb, args)
        assert code == 2 and got.endswith(f"(FormatError): {message}")
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "ab.json", "f.cnf", "manifest.json", "summary.json"]

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_a_path_outside_the_bundle_is_exit_2(self, tmp_path, capsys, where):
        out = "../x.json" if where == "parent" else str(tmp_path / "x.json")
        code, message = self.run_step(tmp_path, capsys, "compile",
                                      {"method": "grid-junction", "n": 2, "out": out})
        assert code == 2 and message.endswith(f"(FormatError): path {out!r} escapes the bundle")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "m.json"]

    def test_unknown_clause_ids_for_split_are_exit_2(self, tmp_path, capsys):
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "f.cnf").write_text("p cnf 2 1\n1 2 0\n")
        (tmp_path / "b" / "d.txt").write_text("B 0 x1 x2\n")
        code, message = self.run_step(tmp_path, capsys, "compile",
                                      {"method": "split", "cnf": "f.cnf", "decomp": "d.txt",
                                       "long": ["c0", "c7"], "out": "s.json"})
        assert code == 2 and message.endswith("(FormatError): unknown clause ids ['c7']")
        assert not (tmp_path / "b" / "s.json").exists()

    def test_restrict_bit_other_than_0_or_1_is_exit_2(self, tmp_path, capsys):
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "ab.json").write_text(json.dumps(A_AND_B))
        code, message = self.run_step(tmp_path, capsys, "restrict",
                                      {"diagram": "ab.json", "var": "a", "bit": 2})
        assert code == 2 and "bit must be 0 or 1" in message

    def test_failing_step_still_leaves_a_summary(self, tmp_path, capsys):
        man = tmp_path / "m.json"
        man.write_text(json.dumps({"name": "half", "steps": [
            {"name": "first", "verb": "write", "args": {"path": "a.txt", "text": "hi\n"}},
            {"name": "second", "verb": "count", "args": {"diagram": "missing.json"}},
            {"name": "third", "verb": "write", "args": {"path": "b.txt", "text": "no\n"}}]}))
        code, _, err = run(["run", "--manifest", str(man),
                            "--out-dir", str(tmp_path / "b")], capsys)
        assert code == 2
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert [row["name"] for row in summary["steps"]] == ["first"]
        assert summary["failed"]["name"] == "second"
        assert summary["failed"]["error"] == json.loads(err.splitlines()[0])["message"]
        assert sorted(summary["artifacts"]) == ["a.txt", "manifest.json"]

        digest = hashlib.sha256(b"hi\n").hexdigest()
        assert summary["artifacts"]["a.txt"] == digest

    def run_manifest(self, tmp_path, capsys, doc):
        man = tmp_path / "m.json"
        man.write_text(json.dumps(doc))
        code, _, err = run(["run", "--manifest", str(man),
                            "--out-dir", str(tmp_path / "b")], capsys)
        return code, json.loads(err.splitlines()[0])

    def test_only_written_files_get_directories(self, tmp_path, capsys):
        code, error = self.run_manifest(tmp_path, capsys, {"name": "dirs", "steps": [
            {"name": "w", "verb": "write", "args": {"path": "in/g.txt", "text": "a b\n"}},
            {"name": "c", "verb": "compile",
             "args": {"method": "grid-junction", "n": 2, "out": "out/d.json"}},
            {"name": "x", "verb": "count", "args": {"diagram": "sub/dir/missing.json"}}]})
        assert code == 2 and "'x' failed" in error["message"]
        assert (tmp_path / "b" / "in" / "g.txt").exists()
        assert (tmp_path / "b" / "out" / "d.json").exists()
        assert not (tmp_path / "b" / "sub").exists()

    def test_step_that_is_not_an_object_is_exit_2(self, tmp_path, capsys):
        code, error = self.run_manifest(tmp_path, capsys, {"name": "x", "steps": ["oops"]})
        assert code == 2 and "step0" in error["message"]
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["steps"] == [] and summary["failed"]["name"] == "step0"

    def test_manifest_that_is_a_list_is_exit_2(self, tmp_path, capsys):
        code, error = self.run_manifest(tmp_path, capsys, [{"verb": "count"}])
        assert code == 2 and error["error"] == "FormatError"

    def test_steps_that_are_not_a_list_are_exit_2(self, tmp_path, capsys):
        code, error = self.run_manifest(tmp_path, capsys, {"name": "x", "steps": 5})
        assert code == 2 and error["error"] == "FormatError"

    def test_a_manifest_that_is_not_json_is_exit_2(self, tmp_path, capsys):
        man = tmp_path / "m.json"
        man.write_text('{"name": "x", "steps": [}')
        code, _, err = run(["run", "--manifest", str(man),
                            "--out-dir", str(tmp_path / "b")], capsys)
        assert code == 2 and json.loads(err)["message"].startswith("bad manifest: Expecting value")
        assert not (tmp_path / "b").exists()

    def test_a_step_name_that_is_not_a_string_is_exit_2(self, tmp_path, capsys):
        code, error = self.run_manifest(tmp_path, capsys, {"name": "x", "steps": [
            {"name": ["w"], "verb": "write", "args": {"path": "a.txt", "text": "hi\n"}}]})
        assert code == 2 and error["message"].endswith(
            "(FormatError): a step's name is a string and its args a JSON object")
        assert not (tmp_path / "b" / "a.txt").exists()

    @pytest.mark.parametrize("verb,args", [
        ("count", {"diagram": "ab.json", "universe": "a,b"}),
        ("compile", {"method": "split", "cnf": "f.cnf", "decomp": "d.txt",
                     "long": "c8,c9", "out": "s.json"}),
        ("fool", {"grid": 2, "engine": "obdd", "matching": ["(1,1) (1,2)"]}),
    ])
    def test_string_for_a_list_of_names_is_exit_2(self, tmp_path, capsys, verb, args):
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "ab.json").write_text(json.dumps(A_AND_B))
        code, message = self.run_step(tmp_path, capsys, verb, args)
        assert code == 2 and "must be a JSON list" in message

    @pytest.mark.parametrize("names", ["ab", {"a": 1, "b": 2}, None],
                             ids=["string", "object", "null"])
    def test_diagram_vars_that_are_not_a_list_are_exit_2(self, tmp_path, capsys, names):
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "ab.json").write_text(json.dumps({**A_AND_B, "vars": names}))
        code, message = self.run_step(tmp_path, capsys, "count", {"diagram": "ab.json"})
        assert code == 2 and "vars must be a JSON list" in message

    def test_diagram_vars_that_repeat_a_name_are_exit_2_on_both_routes(self, tmp_path, capsys,
                                                                       monkeypatch):
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "b")
        put("ab.json", json.dumps({**A_AND_B, "vars": ["a", "a", "b"]}))
        code, out, err = run(["count", "--diagram", "ab.json"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "FormatError", "message": "vars lists 'a' twice"}
        code, message = self.run_step(tmp_path, capsys, "count", {"diagram": "ab.json"})
        assert code == 2 and message.endswith("(FormatError): vars lists 'a' twice")

    @pytest.mark.parametrize("verb", sorted(verbs.KEYS))
    def test_a_key_the_verb_does_not_take_is_exit_2(self, tmp_path, capsys, verb):
        code, message = self.run_step(tmp_path, capsys, verb, {"nope": 1})
        assert code == 2 and message.endswith(f"(FormatError): {verb} takes no 'nope'")
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "manifest.json", "summary.json"]

    def test_a_misspelt_key_is_exit_2_not_ignored(self, tmp_path, capsys):
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "ab.json").write_text(json.dumps(A_AND_B))
        code, message = self.run_step(tmp_path, capsys, "count",
                                      {"diagram": "ab.json", "univers": ["a", "b", "c"]})
        assert code == 2 and message.endswith("count takes no 'univers'")
        code, message = self.run_step(tmp_path, capsys, "compile",
                                      {"method": "grid-junction", "n": 2, "ot": "d.json"})
        assert code == 2 and message.endswith("compile takes no 'ot'")
        # the key is checked before anything is written, a directory included
        code, message = self.run_step(tmp_path, capsys, "compile",
                                      {"method": "grid-junction", "n": 2, "ot": "d.json",
                                       "out": "sub/d.json"})
        assert code == 2 and message.endswith("compile takes no 'ot'")
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "ab.json", "manifest.json", "summary.json"]

    def test_invalid_diagram_step_stays_exit_1(self, tmp_path, capsys):
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "bad.json").write_text(json.dumps(BROKEN_DIAGRAM))
        code, message = self.run_step(tmp_path, capsys, "validate", {"diagram": "bad.json"})
        assert code == 1 and "DiagramInvariantError" in message

    def test_reproducible_bundles(self, tmp_path, capsys):
        man = tmp_path / "m.json"
        man.write_text(json.dumps({
            "name": "fooling-q3",
            "steps": [
                {"name": "build", "verb": "obdd",
                 "args": {"graph": "g.txt",
                          "matching": [["u1", "w1"], ["u2", "w2"], ["u3", "w3"]],
                          "engine": "and-obdd", "out": "b.json"}},
                {"name": "cert", "verb": "certify",
                 "args": {"graph": "g.txt",
                          "matching": [["u1", "w1"], ["u2", "w2"], ["u3", "w3"]],
                          "engine": "and-obdd", "diagram": "b.json",
                          "out": "cert.json"}},
            ],
        }))
        from ddlab.graphs import write_graph
        from conftest import matching_graph
        digests = []
        for name in ("b1", "b2"):
            bundle = tmp_path / name
            bundle.mkdir()
            (bundle / "g.txt").write_text(write_graph(matching_graph(3)))
            code, _, _ = run(["run", "--manifest", str(man),
                              "--out-dir", str(bundle)], capsys)
            assert code == 0
            tree = {}
            for root, _, files in os.walk(bundle):
                for f in sorted(files):
                    p = os.path.join(root, f)
                    rel = os.path.relpath(p, bundle)
                    tree[rel] = hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
            digests.append(tree)
            cert = json.loads((bundle / "cert.json").read_text())
            assert cert["bound"] == 3
        assert digests[0] == digests[1]

    def test_split_step_writes_the_cli_vtree(self, tmp_path, capsys):
        from ddlab import graphs as G
        from conftest import exact_decomposition
        bundle = tmp_path / "b"
        bundle.mkdir()
        cnf = bundle / "psi2.cnf"
        run(["gen", "--family", "psi", "--grid", "2", "--out", str(cnf)], capsys)
        phi = C.read_dimacs(cnf.read_text())
        labels = C.clause_labels(phi)
        long = [name for name, c in labels if len(c) > 2]
        rest = C.Cnf(c for name, c in labels if name not in long)
        decomp = exact_decomposition(C.graphs_of(rest)[0])
        (bundle / "d.txt").write_text(G.write_decomposition(decomp))
        code, _, _ = run(["compile", "--method", "split", "--cnf", str(cnf),
                          "--decomp", str(bundle / "d.txt"), "--long", ",".join(long),
                          "--out", str(tmp_path / "cli.json"),
                          "--vtree-out", str(tmp_path / "cli.vtree")], capsys)
        assert code == 0
        man = tmp_path / "m.json"
        man.write_text(json.dumps({"name": "split", "steps": [
            {"name": "split", "verb": "compile",
             "args": {"method": "split", "cnf": "psi2.cnf", "decomp": "d.txt",
                      "long": long, "out": "b.json", "vtree_out": "b.vtree"}}]}))
        code, _, _ = run(["run", "--manifest", str(man), "--out-dir", str(bundle)], capsys)
        assert code == 0
        assert (bundle / "b.vtree").read_text() == (tmp_path / "cli.vtree").read_text()


@pytest.mark.parametrize("argv", [
    ["width", "--graph", "e a b"],
    ["minobdd", "--cnf", "c x"],
    ["lb", "fool", "--graph", "e a b", "--matching", "e u1 w1", "--engine", "obdd"],
], ids=["graph", "dimacs", "matching"])
def test_file_names_that_read_like_text_are_files(tmp_path, capsys, monkeypatch, argv):
    from ddlab import formulas as F
    from ddlab import graphs as G
    from conftest import matching_graph
    monkeypatch.chdir(tmp_path)
    put("e a b", G.write_graph(matching_graph(3)))
    put("c x", C.write_dimacs(F.vc_formula(G.grid(2).graph)))
    put("e u1 w1", "u1 w1\nu2 w2\nu3 w3\n")
    code, out, err = run(argv, capsys)
    assert code == 0 and out and err == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "ddlab" in capsys.readouterr().out


def test_help_flag(capsys):
    for argv in (["--help"], ["lb", "certify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ddlab")


@pytest.mark.parametrize("argv", [
    ["count", "--bogus", "1"], [], ["lb"], ["restrict", "--bit", "x"],
], ids=["unknown-flag", "no-command", "no-lb-command", "bit-not-an-int"])
def test_malformed_arguments_are_one_json_line(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and "usage:" not in err
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "FormatError"


def test_a_closed_stdout_exits_1_and_reports_nothing(capsys, monkeypatch):
    # the text goes nowhere, so the failure is not malformed input (exit 2)
    # and the flush at exit must not report the closed pipe again
    read_end, write_end = os.pipe()

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return write_end

    try:
        with monkeypatch.context() as m:
            m.setattr("sys.stdout", ClosedPipe())
            assert cli.main(["gen", "--family", "vc", "--grid", "2"]) == 1
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        os.close(read_end)
        os.close(write_end)
    assert capsys.readouterr().err == ""


def test_each_subcommand_takes_its_verbs_keys_as_flags():
    def subcommands(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    commands = dict(subcommands(cli.build_parser()))
    commands.update(subcommands(commands.pop("lb")))
    del commands["run"]
    # each flag, whether it is on/off and the type it converts its value to
    flags = {verb: {(a.option_strings[0], isinstance(a, argparse._StoreTrueAction), a.type)
                    for a in p._actions if a.dest != "help"}
             for verb, p in commands.items()}
    assert verbs.KEYS.keys() == verbs.VERBS.keys()
    assert flags == {verb: {("--" + key.replace("_", "-"), key in verbs.SWITCHES,
                             int if key == "bit" else None) for key in keys}
                     for verb, keys in verbs.KEYS.items() if verb not in ("write", "obdd")}


def test_a_second_call_leaves_no_argparse_garbage(capsys):
    """The parser is built once per process: argparse's objects refer to
    each other, so each parser built per call is garbage for the cyclic
    collector."""
    cli.main(["width", "--grid", "2"])
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cli.main(["width", "--grid", "2"])
        gc.collect()
        left = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


# One shared verb through the command line and through a one-step bundle on
# the same inputs: (CLI arguments, step verb, step arguments, the CLI's stdout
# given the step's info). The CLI writes cli.*, the step b.*; where the CLI
# prints the verb's text, the step writes it to text.out.
MATCHING = [["u1", "w1"], ["u2", "w2"], ["u3", "w3"]]
GRID3_MATCHING = [["(1,1)", "(1,2)"], ["(3,1)", "(3,2)"]]  # induced in the 3x3 grid
PARITY = [
    ("gen --family vc --grid 3 --out cli.cnf", "gen",
     {"family": "vc", "grid": 3, "out": "b.cnf"},
     "wrote cli.cnf: {variables} variables, {clauses} clauses\n"),
    ("gen --family psi --grid 2 --out cli.cnf", "gen",
     {"family": "psi", "grid": 2, "out": "b.cnf"},
     "wrote cli.cnf: {variables} variables, {clauses} clauses\n"),
    ("gen --family psi --grid 2 --meta --out cli.cnf", "gen",
     {"family": "psi", "grid": 2, "meta": True, "out": "b.cnf"},
     "wrote cli.cnf: {variables} variables, {clauses} clauses\n"),
    ("gen --family star --graph g.txt --out cli.cnf", "gen",
     {"family": "star", "graph": "g.txt", "out": "b.cnf"},
     "wrote cli.cnf: {variables} variables, {clauses} clauses\n"),
    ("gen --family vc-junction --grid 3 --out cli.cnf", "gen",
     {"family": "vc-junction", "grid": 3, "out": "b.cnf"},
     "wrote cli.cnf: {variables} variables, {clauses} clauses\n"),
    ("gen --family psi-junction --grid 2 --out cli.cnf", "gen",
     {"family": "psi-junction", "grid": 2, "out": "b.cnf"},
     "wrote cli.cnf: {variables} variables, {clauses} clauses\n"),
    ("compile --method dtree --cnf vc2.cnf --out cli.json", "compile",
     {"method": "dtree", "cnf": "vc2.cnf", "out": "b.json"},
     "wrote cli.json: {size} nodes\n"),
    ("compile --cnf vc2.cnf --method dtree", "compile",
     {"method": "dtree", "cnf": "vc2.cnf", "out": "text.out"}, "{text}"),
    ("compile --method primal --cnf vc2.cnf --decomp d.txt --out cli.json "
     "--vtree-out cli.vtree", "compile",
     {"method": "primal", "cnf": "vc2.cnf", "decomp": "d.txt", "out": "b.json",
      "vtree_out": "b.vtree"},
     "wrote cli.json: {size} nodes\n"),
    ("compile --method split --cnf psi2.cnf --decomp ds.txt --long c8,c9 --out cli.json "
     "--vtree-out cli.vtree", "compile",
     {"method": "split", "cnf": "psi2.cnf", "decomp": "ds.txt", "long": ["c8", "c9"],
      "out": "b.json", "vtree_out": "b.vtree"},
     "wrote cli.json: {size} nodes\n"),
    ("compile --method grid-junction --n 3 --out cli.json", "compile",
     {"method": "grid-junction", "n": 3, "out": "b.json"},
     "wrote cli.json: {size} nodes\n"),
    ("compile --method psi-layer --n 2 --orientation vert --out cli.json", "compile",
     {"method": "psi-layer", "n": 2, "orientation": "vert", "out": "b.json"},
     "wrote cli.json: {size} nodes\n"),
    ("compile --method psi-layer --n 2 --junction --out cli.json", "compile",
     {"method": "psi-layer", "n": 2, "junction": True, "out": "b.json"},
     "wrote cli.json: {size} nodes\n"),
    ("count --diagram gj.json --universe (1,1),(1,2),(2,1),(2,2),jn,x", "count",
     {"diagram": "gj.json", "universe": ["(1,1)", "(1,2)", "(2,1)", "(2,2)", "jn", "x"]},
     "{count}\n"),
    ("eval --diagram gj.json --assignment jn=1,(1,1)=1,(1,2)=0,(2,1)=1,(2,2)=1", "eval",
     {"diagram": "gj.json", "assignment": "jn=1,(1,1)=1,(1,2)=0,(2,1)=1,(2,2)=1"},
     "{value}\n"),
    ("validate --diagram gj.json", "validate",
     {"diagram": "gj.json", "out": "text.out"}, "{text}"),
    ("align --diagram gj.json --assignment jn=1", "align",
     {"diagram": "gj.json", "assignment": "jn=1", "out": "text.out"}, "{text}"),
    ("align --diagram gj.json --assignment jn=1,(1,1)=0 --order gj.order", "align",
     {"diagram": "gj.json", "assignment": "jn=1,(1,1)=0", "order": "gj.order",
      "out": "text.out"}, "{text}"),
    ("align --diagram gj.json --assignment jn=0 --out cli.align", "align",
     {"diagram": "gj.json", "assignment": "jn=0", "out": "b.align"}, ""),
    ("restrict --diagram gj.json --var jn --bit 1 --out cli.json", "restrict",
     {"diagram": "gj.json", "var": "jn", "bit": 1, "out": "b.json"},
     "wrote cli.json: {size} nodes\n"),
    ("restrict --diagram gj.json --var (1,1) --bit 0 --no-essential-check --out cli.json",
     "restrict",
     {"diagram": "gj.json", "var": "(1,1)", "bit": 0, "no_essential_check": True,
      "out": "b.json"},
     "wrote cli.json: {size} nodes\n"),
    ("export-dot --diagram gj.json", "export-dot",
     {"diagram": "gj.json", "out": "text.out"}, "{text}"),
    ("export-dot --out cli.dot --diagram gj.json", "export-dot",
     {"out": "b.dot", "diagram": "gj.json"}, ""),
    ("minobdd --cnf vc2.cnf", "minobdd",
     {"cnf": "vc2.cnf", "out": "text.out"}, "{size}\n{text}"),
    ("minobdd --cnf junction3.cnf --sample 40 --seed 5", "minobdd",
     {"cnf": "junction3.cnf", "sample": 40, "seed": 5, "out": "text.out"}, "{size}\n{text}"),
    ("width --grid 3 --sample 40 --seed 2", "width",
     {"grid": 3, "sample": 40, "seed": 2, "out": "text.out"}, "{width}\n{text}"),
    ("width --graph g.txt --mode lmm", "width",
     {"graph": "g.txt", "mode": "lmm", "out": "text.out"}, "{width}\n{text}"),
    ("lb fool --graph g.txt --matching m.txt --engine and-obdd", "fool",
     {"graph": "g.txt", "matching": MATCHING, "engine": "and-obdd", "out": "text.out"},
     "{text}"),
    ("lb certify --diagram bad3.json --graph g.txt --matching m.txt --engine obdd "
     "--out cli.cert", "certify",
     {"diagram": "bad3.json", "graph": "g.txt", "matching": MATCHING, "engine": "obdd",
      "out": "b.cert"},
     "bound {bound} (|F|={fooling_size}, diagram size {diagram_size}); wrote cli.cert\n"),
    # --out on the verbs that print text, and --grid for an experiment's graph
    ("validate --out cli.txt --diagram gj.json --order gj.order", "validate",
     {"diagram": "gj.json", "order": "gj.order", "out": "b.txt"}, ""),
    ("width --out cli.order --grid 3 --sample 40 --seed 2", "width",
     {"grid": 3, "sample": 40, "seed": 2, "out": "b.order"}, "{width}\n"),
    ("minobdd --out cli.order --cnf vc2.cnf", "minobdd",
     {"cnf": "vc2.cnf", "out": "b.order"}, "{size}\n"),
    ("lb fool --out cli.txt --graph g.txt --matching m.txt --engine obdd", "fool",
     {"graph": "g.txt", "matching": MATCHING, "engine": "obdd", "out": "b.txt"}, ""),
    ("lb fool --grid 3 --matching m3.txt --engine obdd", "fool",
     {"grid": 3, "matching": GRID3_MATCHING, "engine": "obdd", "out": "text.out"}, "{text}"),
    ("lb certify --grid 3 --matching m3.txt --engine obdd --diagram grid3bad.json "
     "--out cli.cert", "certify",
     {"grid": 3, "matching": GRID3_MATCHING, "engine": "obdd", "diagram": "grid3bad.json",
      "out": "b.cert"},
     "bound {bound} (|F|={fooling_size}, diagram size {diagram_size}); wrote cli.cert\n"),
]


@pytest.mark.parametrize("argv,verb,args,stdout", PARITY, ids=[c[0].split(" --out")[0]
                                                            for c in PARITY])
def test_cli_and_bundle_step_agree(tmp_path, capsys, monkeypatch, argv, verb, args, stdout):
    from ddlab import formulas as F
    from ddlab import graphs as G
    from ddlab import lowerbound as LB
    from ddlab.compile import grid_junction_diagram, junction_order
    from conftest import exact_decomposition, matching_graph
    bundle = tmp_path / "b"
    bundle.mkdir()
    monkeypatch.chdir(bundle)
    put("g.txt", G.write_graph(matching_graph(3)))
    put("m.txt", "".join(f"{u} {w}\n" for u, w in MATCHING))
    vc2 = F.vc_formula(G.grid(2).graph)
    put("vc2.cnf", C.write_dimacs(vc2))
    put("d.txt", G.write_decomposition(exact_decomposition(C.graphs_of(vc2)[0])))
    gg3 = G.grid(3)
    junction3 = F.junction_formula(gg3.graph, gg3.hor, gg3.vert, "vc")
    put("junction3.cnf", C.write_dimacs(junction3))
    psi2 = F.psi_formula(G.grid(2).graph)
    put("psi2.cnf", C.write_dimacs(psi2))
    assert [name for name, c in C.clause_labels(psi2) if len(c) > 2] == ["c8", "c9"]
    rest = C.Cnf(c for c in psi2.clauses if len(c) <= 2)
    put("ds.txt", G.write_decomposition(exact_decomposition(C.graphs_of(rest)[0])))
    D.save(grid_junction_diagram(2), "gj.json")
    put("gj.order", G.write_order(junction_order(2)))
    exp = LB.make_experiment(matching_graph(3), [tuple(p) for p in MATCHING], "obdd")
    D.save(LB.obdd_for_order(exp.formula(), exp.order), "bad3.json")
    put("m3.txt", "".join(f"{u} {w}\n" for u, w in GRID3_MATCHING))
    exp = LB.make_experiment(gg3.graph, [tuple(p) for p in GRID3_MATCHING], "obdd")
    D.save(LB.obdd_for_order(exp.formula(), exp.order), "grid3bad.json")

    code, out, _ = run(argv.split(), capsys)
    assert code == 0
    man = tmp_path / "m.json"
    man.write_text(json.dumps({"name": "parity", "steps": [
        {"name": "step", "verb": verb, "args": args}]}))
    code, _, _ = run(["run", "--manifest", str(man), "--out-dir", str(bundle)], capsys)
    assert code == 0
    info = json.loads((bundle / "summary.json").read_text())["steps"][0]["info"]
    # the files' names after the cli/b prefix, so that cli.cnf.meta.json counts
    written = sorted(p.name[len("cli"):] for p in bundle.glob("cli.*"))
    assert written == sorted(p.name[len("b"):] for p in bundle.glob("b.*"))
    for rest in written:
        assert (bundle / f"cli{rest}").read_bytes() == (bundle / f"b{rest}").read_bytes()
    text = (bundle / "text.out").read_text() if "{text}" in stdout else None
    assert out == stdout.format(text=text, **info)


# ---------------------------------------------------------------------------
# diagrams kept within one bundle run


@pytest.fixture
def parses(monkeypatch):
    """The lengths of the texts ``diagrams.from_json`` parses while the test runs."""
    calls = []
    real = D.from_json

    def counted(text):
        calls.append(len(text))
        return real(text)

    monkeypatch.setattr(D, "from_json", counted)
    return calls


def reuse_inputs():
    """The input files of the steps below, in the working directory."""
    from ddlab import formulas as F
    from ddlab import graphs as G
    from conftest import exact_decomposition, matching_graph
    put("g.txt", G.write_graph(matching_graph(3)))
    vc3 = F.vc_formula(G.grid(3).graph)
    put("vc3.cnf", C.write_dimacs(vc3))
    put("d.txt", G.write_decomposition(exact_decomposition(C.graphs_of(vc3)[0])))
    put("vc3.order", G.write_order(G.grid_order(3).names))
    psi2 = F.psi_formula(G.grid(2).graph)
    put("psi2.cnf", C.write_dimacs(psi2))
    rest = C.Cnf(c for c in psi2.clauses if len(c) <= 2)
    put("ds.txt", G.write_decomposition(exact_decomposition(C.graphs_of(rest)[0])))


# every kind of diagram a bundle step writes: each compile method and obdd
WRITTEN = [
    ("compile", {"method": "dtree", "cnf": "vc3.cnf"}),
    ("compile", {"method": "primal", "cnf": "vc3.cnf", "decomp": "d.txt"}),
    ("compile", {"method": "split", "cnf": "psi2.cnf", "decomp": "ds.txt",
                 "long": ["c8", "c9"]}),
    ("compile", {"method": "grid-junction", "n": 3}),
    ("compile", {"method": "psi-layer", "n": 2, "orientation": "vert"}),
    ("compile", {"method": "psi-layer", "n": 2, "junction": True}),
    ("obdd", {"cnf": "vc3.cnf", "order": "vc3.order"}),
    ("obdd", {"graph": "g.txt", "matching": MATCHING, "engine": "and-obdd"}),
]


@pytest.mark.parametrize("verb,args", WRITTEN,
                         ids=[f"{v}-{a.get('method', a.get('engine', 'order'))}"
                              f"{'-junction' if a.get('junction') else ''}"
                              for v, a in WRITTEN])
def test_written_diagrams_read_back_equal(tmp_path, monkeypatch, verb, args):
    # what makes handing back a written diagram exact: parsing its text gives it back
    monkeypatch.chdir(tmp_path)
    reuse_inputs()
    _, diagram = verbs.VERBS[verb](args, verbs.Paths())
    assert isinstance(diagram, D.Diagram)
    assert D.from_json(D.to_json(diagram)) == diagram  # columns, source, declared_vars


def test_paths_hand_back_what_they_wrote_while_the_bytes_match(tmp_path, parses):
    path = verbs.Paths()
    b = D.DiagramBuilder()
    d = b.finalize(b.decision("x", b.sink(0), b.sink(1)))
    file = str(tmp_path / "d.json")
    path.write(file, D.to_json(d), d)
    assert path.diagram(file) is d and parses == []
    with open(file, "a", encoding="utf-8") as fh:
        fh.write("\n")  # the same diagram, no longer the same bytes
    again = path.diagram(file)
    assert again is not d and again == d and len(parses) == 1
    assert verbs.Paths().diagram(file) == d and len(parses) == 2


def written_diagram(tmp_path):
    """A Paths that wrote a two-node diagram in pieces, the file and the diagram."""
    path = verbs.Paths()
    b = D.DiagramBuilder()
    d = b.finalize(b.decision("x", b.sink(0), b.sink(1)))
    file = str(tmp_path / "d.json")
    path.write(file, D.json_chunks(d), d)
    return path, file, d


def test_an_untouched_file_hands_back_the_diagram_written(tmp_path, parses):
    path, file, d = written_diagram(tmp_path)
    assert pathlib.Path(file).read_text() == D.to_json(d)
    assert path.diagram(file) is d and path.diagram(file) is d and parses == []


def test_a_same_length_edit_is_parsed(tmp_path, parses):
    path, file, d = written_diagram(tmp_path)
    data = pathlib.Path(file).read_bytes()
    edited = data.replace(b'"value": 0', b'"value": 1')  # one byte flipped
    assert len(edited) == len(data) and edited != data
    pathlib.Path(file).write_bytes(edited)
    again = path.diagram(file)
    assert D.count_models(d) == 1 and D.count_models(again) == 2 and len(parses) == 1


def test_a_diagram_overwritten_with_plain_text_is_parsed(tmp_path, parses):
    path, file, d = written_diagram(tmp_path)
    path.write(file, json.dumps(A_AND_B))
    again = path.diagram(file)
    assert again.vars == {"a", "b"} and D.count_models(again) == 1 and len(parses) == 1


def test_a_missing_diagram_file_fails_as_any_missing_file(tmp_path, capsys):
    path, file, d = written_diagram(tmp_path)
    os.remove(file)
    for reader in (path, verbs.Paths()):  # kept or not
        with pytest.raises(FileNotFoundError):
            reader.diagram(file)
    code, _, err = run(["count", "--diagram", file], capsys)
    assert code == 2 and json.loads(err.splitlines()[0])["error"] == "FileNotFoundError"


def test_writing_a_large_diagram_makes_no_copy_of_its_text(tmp_path, monkeypatch):
    # the vc(grid 5) decision tree, whose JSON is 8 MB: the writer holds one
    # block of it at a time (tracemalloc counts Python allocations only)
    from ddlab import formulas as F
    from ddlab import graphs as G
    monkeypatch.chdir(tmp_path)
    put("vc5.cnf", C.write_dimacs(F.vc_formula(G.grid(5).graph)))
    path = verbs.Paths()
    tracemalloc.start()
    try:
        info, text = verbs.run("compile", {"method": "dtree", "cnf": "vc5.cnf",
                                           "out": "t.json"}, path)
        live, peak = tracemalloc.get_traced_memory()  # live holds the diagram
    finally:
        tracemalloc.stop()
    assert info == {"size": 71186} and text is None
    assert os.path.getsize("t.json") == 8_022_098
    assert peak - live < 3_000_000


@pytest.mark.parametrize("out,made", [(None, []), ("d.json", ["json_chunks"])])
def test_a_diagram_step_without_out_makes_no_json(tmp_path, capsys, monkeypatch, out, made):
    # the runner drops what a step hands back, so a diagram nobody writes
    # is never rendered
    from ddlab import formulas as F
    from ddlab import graphs as G
    calls = []
    for name in ("to_json", "json_chunks"):
        real = getattr(D, name)
        monkeypatch.setattr(D, name, lambda b, real=real, name=name: calls.append(name) or real(b))
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "vc2.cnf").write_text(C.write_dimacs(F.vc_formula(G.grid(2).graph)))
    args = {"method": "dtree", "cnf": "vc2.cnf"}
    if out is not None:
        args["out"] = out
    man = tmp_path / "m.json"
    man.write_text(json.dumps({"name": "one", "steps": [
        {"name": "dtree", "verb": "compile", "args": args}]}))
    code, _, _ = run(["run", "--manifest", str(man), "--out-dir", str(tmp_path / "b")], capsys)
    assert code == 0 and calls == made


REUSE_STEPS = [
    {"name": "gen", "verb": "gen", "args": {"family": "vc", "grid": 3, "out": "vc3.cnf"}},
    {"name": "graph", "verb": "write",
     "args": {"path": "in/g.txt", "text": "".join(f"v {v}\n" for p in MATCHING for v in p)
              + "".join(f"e {u} {w}\n" for u, w in MATCHING)}},
    {"name": "dtree", "verb": "compile",
     "args": {"method": "dtree", "cnf": "vc3.cnf", "out": "dtree.json"}},
    {"name": "junction", "verb": "compile",
     "args": {"method": "grid-junction", "n": 3, "out": "out/junction.json"}},
    {"name": "count-dtree", "verb": "count", "args": {"diagram": "dtree.json"}},
    {"name": "count-junction", "verb": "count", "args": {"diagram": "out/junction.json"}},
    {"name": "eval-junction", "verb": "eval",
     "args": {"diagram": "out/junction.json",
              "assignment": "jn=1,(1,1)=1,(1,2)=0,(1,3)=1,(2,1)=1,(2,2)=1,(2,3)=0,"
                            "(3,1)=1,(3,2)=1,(3,3)=1"}},
    {"name": "validate-dtree", "verb": "validate",
     "args": {"diagram": "dtree.json", "out": "dtree.class"}},
    {"name": "validate-junction", "verb": "validate", "args": {"diagram": "out/junction.json"}},
    {"name": "obdd", "verb": "obdd",
     "args": {"graph": "in/g.txt", "matching": MATCHING, "engine": "obdd", "out": "bad.json"}},
    {"name": "certify", "verb": "certify",
     "args": {"graph": "in/g.txt", "matching": MATCHING, "engine": "obdd",
              "diagram": "bad.json", "out": "cert.json"}},
]
LOADS = sum("diagram" in step["args"] for step in REUSE_STEPS)


def run_manifest(tmp_path, capsys, steps, out_dir):
    man = tmp_path / "m.json"
    man.write_text(json.dumps({"name": "reuse", "steps": steps}))
    code, _, err = run(["run", "--manifest", str(man), "--out-dir", str(out_dir)], capsys)
    return code, json.loads((out_dir / "summary.json").read_text()), err


def test_a_run_reuses_its_diagrams_and_matches_steps_run_one_by_one(tmp_path, capsys, parses):
    code, whole, _ = run_manifest(tmp_path, capsys, REUSE_STEPS, tmp_path / "whole")
    assert code == 0 and parses == []  # every diagram a step read, an earlier step wrote
    rows = []
    for step in REUSE_STEPS:
        code, single, _ = run_manifest(tmp_path, capsys, [step], tmp_path / "single")
        assert code == 0
        rows += single["steps"]
    assert len(parses) == LOADS
    assert rows == whole["steps"]
    artifacts = {k: v for k, v in whole["artifacts"].items() if k != "manifest.json"}
    assert artifacts == {k: v for k, v in single["artifacts"].items() if k != "manifest.json"}
    assert {"dtree.json", "out/junction.json", "bad.json", "cert.json"} <= artifacts.keys()


def test_an_overwritten_diagram_is_read_again(tmp_path, capsys):
    made = {"name": "made", "verb": "compile",
            "args": {"method": "grid-junction", "n": 2, "out": "d.json"}}
    count = {"name": "count", "verb": "count", "args": {"diagram": "d.json"}}
    over = {"name": "over", "verb": "write",
            "args": {"path": "d.json", "text": json.dumps(A_AND_B)}}
    code, summary, _ = run_manifest(tmp_path, capsys, [made, count, over, count],
                                    tmp_path / "b")
    assert code == 0
    assert [row["info"] for row in summary["steps"]] == [
        {"size": 13}, {"count": 18}, {}, {"count": 1}]
    over["args"]["text"] = '{"nodes": ['
    code, summary, err = run_manifest(tmp_path, capsys, [made, over, count], tmp_path / "c")
    assert code == 2 and summary["failed"]["name"] == "count"
    assert json.loads(err.splitlines()[0])["error"] == "MalformedStep"


def test_nothing_is_kept_past_a_run(tmp_path, parses):
    bundle = tmp_path / "b"
    man = tmp_path / "m.json"
    gen, _, dtree, _, count = REUSE_STEPS[:5]
    man.write_text(json.dumps({"name": "first", "steps": [gen, dtree, count]}))
    first = manifest.run_experiment(str(man), str(bundle))
    assert parses == []
    man.write_text(json.dumps({"name": "second", "steps": [count]}))
    second = manifest.run_experiment(str(man), str(bundle))
    assert len(parses) == 1 and second["steps"] == first["steps"][-1:]


# A sink source and an unreachable decision node on y: the loader takes it,
# and only validate rejects it. (CLI arguments, step verb, step arguments,
# exit status, what the CLI prints: stdout for 0, the error message for 1.)
UNREACHABLE = {"nodes": [{"id": 0, "kind": "sink", "value": 1},
                         {"id": 1, "kind": "decision", "var": "y", "lo": 0, "hi": 0}],
               "source": 0}
UNREACHABLE_RUNS = [
    (["count", "--diagram", "u.json"], "count", {"diagram": "u.json"}, 0, "1\n"),
    (["eval", "--diagram", "u.json", "--assignment", ""], "eval",
     {"diagram": "u.json", "assignment": ""}, 0, "1\n"),
    (["validate", "--diagram", "u.json"], "validate", {"diagram": "u.json"}, 1,
     "single-source: expected the single source 0, found [1]"),
    (["align", "--diagram", "u.json", "--assignment", ""], "align",
     {"diagram": "u.json", "assignment": "", "out": "text.out"}, 0,
     json.dumps({"incomplete": [], "kept_edges": [], "kept_nodes": [0]}, indent=2,
                sort_keys=True) + "\n"),
    (["restrict", "--diagram", "u.json", "--var", "y", "--bit", "1", "--out", "text.out"],
     "restrict", {"diagram": "u.json", "var": "y", "bit": 1, "out": "text.out"}, 0,
     "wrote text.out: 2 nodes\n"),
    (["export-dot", "--diagram", "u.json"], "export-dot",
     {"diagram": "u.json", "out": "text.out"}, 0,
     'digraph diagram {\n  n0 [label="T", shape=box];\n  n1 [label="y", shape=circle];\n'
     "  n1 -> n0 [style=dashed, label=0];\n  n1 -> n0 [label=1];\n}\n"),
]


@pytest.mark.parametrize("argv,verb,args,code,shown", UNREACHABLE_RUNS,
                         ids=[r[1] for r in UNREACHABLE_RUNS])
def test_every_verb_on_a_diagram_with_an_unreachable_node(tmp_path, capsys, monkeypatch,
                                                          argv, verb, args, code, shown):
    monkeypatch.chdir(tmp_path)
    put("u.json", json.dumps(UNREACHABLE))
    got, out, err = run(argv, capsys)
    assert got == code and "Traceback" not in err
    if code:
        assert json.loads(err.splitlines()[0])["message"] == shown
    else:
        assert out == shown
    bundle = tmp_path / "b"
    bundle.mkdir()
    put("b/u.json", json.dumps(UNREACHABLE))
    put("m.json", json.dumps({"name": "one", "steps": [
        {"name": "step", "verb": verb, "args": args}]}))
    got, _, err = run(["run", "--manifest", "m.json", "--out-dir", "b"], capsys)
    assert got == code and "Traceback" not in err
    summary = json.loads((bundle / "summary.json").read_text())
    if code:
        assert shown in summary["failed"]["error"]
    elif verb in ("count", "eval"):
        assert list(summary["steps"][0]["info"].values()) == [1]
    elif verb == "restrict":
        assert summary["steps"][0]["info"] == {"size": 2}
        assert json.loads((bundle / "text.out").read_text())["nodes"] == UNREACHABLE["nodes"]
    else:
        assert (bundle / "text.out").read_text() == shown


@pytest.mark.parametrize("argv,error", [
    (["validate", "--diagram", "ab.json", "--order", "repeat.txt"], "order repeats ['a']"),
    (["validate", "--diagram", "ab.json", "--order", "short.txt"], "order misses ['b']"),
    (["eval", "--diagram", "ab.json", "--assignment", "a=1"], "assignment leaves ['b'] unset"),
    (["count", "--diagram", "ab.json", "--universe", "a"], "universe misses ['b']"),
], ids=["order-repeats", "order-misses", "partial-assignment", "short-universe"])
def test_scope_errors_are_malformed_input(tmp_path, capsys, monkeypatch, argv, error):
    monkeypatch.chdir(tmp_path)
    put("ab.json", json.dumps(A_AND_B))
    put("repeat.txt", "a\nb\na\n")
    put("short.txt", "a\n")
    code, _, err = run(argv, capsys)
    assert code == 2
    assert json.loads(err.splitlines()[0]) == {"error": "ScopeError", "message": error}
