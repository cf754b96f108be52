#!/usr/bin/env python3
"""Run one benchmark workload against the ddlab sources of this checkout.

    python3 perfbench/run.py --workload order-search --seed 1 --seconds 30 --trace 0

The run imports ddlab with the pure-Python kernels (``DDLAB_PURE=1``), so
the figures do not depend on whether the Cython extension happens to be
built, and builds the workload's inputs from the seed. Then it repeats whole
rounds of the workload for ``--seconds``: a round starts only while a round
of median length would still end in time, and there is at least one. Only
the calls into ddlab inside a round are timed. Before the first round and
after every round the run times ``reference()``, fixed work that does not
touch ddlab. ``run_rel`` and ``cpu_rel`` are the median over rounds of a
round's wall and process CPU time divided by the mean of the two reference
times around it: the round's cost in units of the reference, which a slow
spell of the shared machine moves far less than the round's seconds (see
the README for the figures). The seconds themselves go to the metadata line
and the record. ``peak_rss_mb`` is the peak resident memory of the process,
read right after the last round, so it covers the import, the set-up and
the rounds. After that the set-up is repeated (a fresh import of ddlab plus
the inputs) until there are ``SETUPS`` of them; ``setup_s`` is their
median. Last, the first round's outputs are checked; every later round's
digest must equal the first's.

With ``--trace 1`` the same rounds run with every layer's public functions
wrapped (see ``tracing.py``) and the per-layer metrics are reported instead,
each the lower median over rounds (the value of one round).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run
with its metadata (kernel backend, Python version, cores, git sha, seed) is
written under ``perfbench/out/records``. The process runs single-threaded and
starts no other process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Every import compiles from source: no bytecode is read from or written to
# the checkout, so earlier runs or test runs cannot change set-up time.
sys.dont_write_bytecode = True
sys.pycache_prefix = os.path.join(OUT, "no-bytecode")
os.environ["DDLAB_PURE"] = "1"

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
SETUPS = 15
MODULES = ("assignments", "cnf", "graphs", "diagrams", "alignment", "formulas",
           "compile", "lowerbound", "manifest", "cli", "kernels")


def import_ddlab():
    """A fresh import of ddlab from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "ddlab" or m.startswith("ddlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    dd = types.SimpleNamespace(ddlab=importlib.import_module("ddlab"))
    for name in MODULES:
        setattr(dd, name, importlib.import_module(f"ddlab.{name}"))
    return dd


def git_sha():
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_work():
    """Fixed pure-Python work that does not touch ddlab, about 35 ms.

    It mixes what ddlab's rounds do: dict updates and hashing of small
    frozensets, many small objects kept alive, a sort with a key function
    and bit operations on integers of tens of thousands of bits.
    """
    acc, table, big = 0, {}, (1 << 40000) - 1
    for i in range(30000):
        key = (i % 101, i % 13)
        table[key] = table.get(key, 0) + i
        acc ^= hash(frozenset((i & 255, (i >> 3) & 255)))
        if i % 64 == 0:
            acc ^= ((big >> (i % 97)) & (big << 3)).bit_length()
    sets = [frozenset((i & 1023, (i >> 2) & 1023, i % 7)) for i in range(3000)]
    counts = {}
    for k, s in enumerate(sets):
        counts[s] = counts.get(s, 0) + k
    sorted(counts.items(), key=lambda kv: (kv[1], len(kv[0])))
    big = (1 << 60000) - 1
    for i in range(100):
        acc ^= ((big >> i) & (big << (i % 17))).bit_count()
    return acc


def reference():
    """Median wall and median CPU time of seven runs of ``reference_work``
    (about 0.25 s): how fast the shared machine runs at the moment. The
    cyclic garbage collector is off meanwhile; otherwise a collection of
    the whole heap, due or not depending on what ran before, would double
    some of the times."""
    walls, cpus = [], []
    gc.disable()
    try:
        for _ in range(7):
            wall, cpu = time.perf_counter(), time.process_time()
            reference_work()
            walls.append(time.perf_counter() - wall)
            cpus.append(time.process_time() - cpu)
    finally:
        gc.enable()
    return statistics.median(walls), statistics.median(cpus)


def per_reference(times, refs):
    """Each round's time over the mean of the reference times around it."""
    return statistics.median(t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:]))


def ddlab_modules():
    return {m: mod for m, mod in sys.modules.items() if m == "ddlab" or m.startswith("ddlab.")}


def timed_setup(workload, seed, workdir):
    start = time.perf_counter()
    dd = import_ddlab()
    inputs = workload.setup(dd, seed, workdir)
    return time.perf_counter() - start, dd, inputs


def run(workload, seed, seconds, traced, workdir):
    first_s, dd, inputs = timed_setup(workload, seed, workdir)
    tracer = tracing.Tracer() if traced else None
    first, walls, cpus, layers, problems = None, [], [], [], []
    attempted = failed = 0
    refs = [reference()]
    began = time.perf_counter()
    with (tracer.installed({m: getattr(dd, m) for m in MODULES})
          if tracer else contextlib.nullcontext()):
        # start a round only if a typical one still ends inside the window
        while not walls or (time.perf_counter() - began
                            + statistics.median(walls) <= seconds):
            gc.collect()  # every round starts from the same heap, untimed
            if tracer:
                tracer.reset()
            wall, cpu = time.perf_counter(), time.process_time()
            raw = workload.run_round(dd, inputs, tracer)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            if tracer:
                tracer.round_s = wall
                layers.append(tracer.metrics())
            walls.append(wall)
            cpus.append(cpu)
            out = workload.collect(dd, inputs, raw)
            attempted += out["attempted"]
            failed += out["failed"]
            if first is None:
                first = out  # checked in full below; later rounds only compared
            elif workload.digest(out) != workload.digest(first):
                problems.append(f"round {len(walls)} disagrees with the first")
            del raw, out
            refs.append(reference())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the remaining set-ups; the checks then run on the first import's modules
    kept = ddlab_modules()
    setups = [first_s]
    for k in range(1, SETUPS):
        again = os.path.join(workdir, f"setup{k}")
        os.makedirs(again)
        gc.collect()
        setups.append(timed_setup(workload, seed, again)[0])
    for name in ddlab_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    problems += workload.check(dd, inputs, first, traced)
    if traced:
        metrics = {name: {"value": statistics.median_low(r[name][0] for r in layers),
                          "unit": unit} for name, (_, unit) in layers[0].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_rel": {"value": per_reference(walls, [r[0] for r in refs]), "unit": "x"},
            "cpu_rel": {"value": per_reference(cpus, [r[1] for r in refs]), "unit": "x"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    meta = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "rounds": len(walls), "round_wall_s": walls, "round_cpu_s": cpus,
        "reference_wall_s": [r[0] for r in refs], "reference_cpu_s": [r[1] for r in refs],
        "run_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
        "reference_s": statistics.median(r[0] for r in refs),
        "setup_s": setups, "problems": problems,
        "kernel_backend": getattr(dd.ddlab, "KERNEL_BACKEND", "unknown"),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }
    return result, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "ddlab")):
        print(f"no ddlab sources under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result, meta = run(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = os.path.join(OUT, "records")
    os.makedirs(records, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(records, name), "w", encoding="utf-8") as fh:
        json.dump({**meta, "result": result}, fh, indent=2, sort_keys=True)
    for problem in meta["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: meta[k] for k in ("workload", "seed", "rounds", "run_s", "cpu_s",
                                           "reference_s", "kernel_backend", "python", "nproc",
                                           "git_sha")}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
