"""The committed benchmark records at the repository root.

A speed claim counts only with a ``BENCH_<label>_parent.json`` and a
``BENCH_<label>_change.json`` record, each a copy of a ``perfbench/run.py``
record, from the same kernel backend, each naming it.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_a_correct_run(path):
    record = json.loads(path.read_text())
    for key in ("kernel_backend", "git_sha", "workload"):
        assert isinstance(record[key], str) and record[key], key
    assert record["result"]["correct"] is True


@pytest.mark.parametrize("path", [p for p in RECORDS if p.stem.endswith("_parent")],
                         ids=lambda p: p.name)
def test_pair_shares_backend_and_workload(path):
    change = path.with_name(path.name.replace("_parent.json", "_change.json"))
    parent, after = json.loads(path.read_text()), json.loads(change.read_text())
    assert parent["kernel_backend"] == after["kernel_backend"]
    assert parent["workload"] == after["workload"]
