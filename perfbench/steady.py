#!/usr/bin/env python3
"""Check that the benchmark is steady on one commit.

    python3 perfbench/steady.py --runs 10

Runs two sets of ``--runs`` untraced runs of every workload in
``BENCHMARK.json``, one process at a time, each run with its own seed (the
first set seeds 1 .. runs, the second runs+1 .. 2*runs). Workloads alternate
inside a set so that a slow spell of the machine falls on all of them. For
every workload and end-to-end metric it reports each set's median and spread
(the distance between the first and third quartile as a share of the median)
and whether

* every spread except that of ``setup_s`` stays within the metric's bound
  (a set-up is about 70 ms of import and input building, and its spread
  between runs, 0.12 to 0.37 as measured, is the shared machine's; only its
  medians are bounded),
* the two sets' medians differ by no more than the bound, in either direction,
  as a share of the first set's median,
* both sets fail exactly the same share of their attempted operations,
* every run exited 0 and reported ``correct``.

Exits 0 when all hold. The runs' results go to ``perfbench/out/steady-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def one_run(bench, workload, seed):
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "status": proc.returncode,
            "result": result, "stderr": proc.stderr[-2000:]}


def judge(bench, runs):
    """Rows of (workload, metric, bound, medians, spreads, ok) and a list of problems."""
    problems = []
    rows = []
    for r in runs:
        if r["result"] is None or not r["result"]["correct"]:
            problems.append(f"{r['workload']} seed {r['seed']}: status {r['status']}, "
                            f"result {r['result']}; {r['stderr'][-300:]}")
    good = [r for r in runs if r["result"] is not None]
    for workload in sorted({r["workload"] for r in runs}):
        by_set = [[r["result"] for r in good if r["workload"] == workload and r["set"] == k]
                  for k in (0, 1)]
        if any(len(s) < 2 for s in by_set):
            problems.append(f"{workload}: too few good runs to judge")
            continue
        shares = [Fraction(sum(x["failed"] for x in s), sum(x["attempted"] for x in s))
                  for s in by_set]
        if shares[0] != shares[1]:
            problems.append(f"{workload}: failed shares differ between sets: {shares}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[x["metrics"][name]["value"] for x in s] for s in by_set]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            ok = abs(medians[1] - medians[0]) / medians[0] <= bound
            if name != "setup_s":
                ok = ok and all(s <= bound for s in spreads)
            if not ok:
                problems.append(f"{workload} {name}: medians {medians}, spreads {spreads}, "
                                f"bound {bound}")
            rows.append((workload, name, bound, medians, spreads, ok))
    return rows, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for k in (0, 1):
        for i in range(args.runs):
            for workload in workloads:
                run = one_run(bench, workload, k * args.runs + i + 1)
                run["set"] = k
                runs.append(run)
                value = (run["result"] or {}).get("metrics", {}).get("run_rel", {}).get("value")
                print(f"set {k} {workload} seed {run['seed']}: status {run['status']} "
                      f"run_rel {value}", file=sys.stderr, flush=True)
    rows, problems = judge(bench, runs)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"steady-{time.time_ns()}.json"), "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "problems": problems}, fh, indent=2)
    print(f"{'workload':<14} {'metric':<12} {'bound':>5}  medians / spreads per set")
    for workload, name, bound, medians, spreads, ok in rows:
        cells = "  ".join(f"{m:.4g} / {s:.3f}" for m, s in zip(medians, spreads))
        print(f"{workload:<14} {name:<12} {bound:>5}  {cells}  {'ok' if ok else 'FAIL'}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"steady": not problems, "problems": len(problems)}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
