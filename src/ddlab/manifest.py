"""Reproducible experiment bundles.

A manifest is a JSON document naming a pipeline of steps; running it fills a
bundle directory with every artifact plus a summary, and running it again
reproduces the bundle byte for byte (all randomness is seeded, timings stay
out of the artifacts).
"""

from __future__ import annotations

import functools
import json
import os

from . import verbs
from .errors import MALFORMED, DdlabError, FormatError
from .version import BUILD_ID


class StepFailure(DdlabError):
    def __init__(self, step, exc):
        super().__init__(f"step {step!r} failed ({type(exc).__name__}): {exc}")
        self.step = step
        self.cause = exc


class MalformedStep(StepFailure, FormatError):
    """A step failed on malformed input, so it exits 2 as the CLI would."""


def _resolve(bundle, rel):
    path = os.path.normpath(os.path.join(bundle, rel))
    if not path.startswith(os.path.abspath(bundle) + os.sep):
        raise FormatError(f"path {rel!r} escapes the bundle")
    return path


def _hash_tree(bundle, path):
    out = {}
    for root, _, files in os.walk(bundle):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), bundle)
            if rel in ("summary.json", "summary.txt"):
                continue
            out[rel] = path.sha256(rel)
    return dict(sorted(out.items()))


def run_experiment(manifest_path, out_dir):
    """Execute a manifest into a bundle directory; returns the summary."""
    try:
        manifest = json.loads(verbs.Paths().text(manifest_path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("bad manifest: not a JSON object")
    steps = manifest.get("steps", [])
    if not isinstance(steps, list):
        raise FormatError("bad manifest: steps is not a list")
    bundle = os.path.abspath(out_dir)
    path = verbs.Paths(functools.partial(_resolve, bundle))
    path.write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    rows = []
    try:
        for k, step in enumerate(steps):
            name = f"step{k}"
            try:
                if not isinstance(step, dict):
                    raise FormatError(f"a step is a JSON object, not {step!r}")
                name = step.get("name", name)
                verb, args = step.get("verb"), step.get("args", {})
                if not isinstance(name, str) or not isinstance(args, dict):
                    raise FormatError("a step's name is a string and its args a JSON object")
                if not isinstance(verb, str) or verb not in verbs.VERBS:
                    raise FormatError(f"unknown verb {verb!r}")
                info, _ = verbs.run(verb, verbs.Args(args, verb), path)
            except Exception as exc:
                failure = MalformedStep if isinstance(exc, MALFORMED) else StepFailure
                raise failure(name, exc) from exc
            rows.append({"name": name, "verb": verb, "info": info})
    except StepFailure as exc:
        # the bundle so far still gets a summary, naming the step that failed
        _write_summary(bundle, path, manifest, rows, {"name": exc.step, "error": str(exc)})
        raise
    summary = _write_summary(bundle, path, manifest, rows)
    lines = [f"bundle: {summary['name']}", ""]
    lines.append(f"{'step':<24} {'verb':<10} info")
    for row in rows:
        info = " ".join(f"{k}={v}" for k, v in sorted(row["info"].items()))
        lines.append(f"{row['name']:<24} {row['verb']:<10} {info}")
    path.write("summary.txt", "\n".join(lines) + "\n")
    return summary


def _write_summary(bundle, path, manifest, rows, failed=None):
    summary = {
        "build": BUILD_ID,
        "name": manifest.get("name", ""),
        "steps": rows,
        "artifacts": _hash_tree(bundle, path),
    }
    if failed is not None:
        summary["failed"] = failed
    path.write("summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
