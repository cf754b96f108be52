"""Command-line front end.

Human-readable results go to stdout; diagnostics are line-delimited JSON on
stderr. Exit status 0 is success, 1 a validation or soundness failure, and 2
malformed input. Every randomized verb takes an explicit seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import diagrams, graphs, verbs
from .errors import MALFORMED, DdlabError, FormatError
from .version import BUILD_ID


def _fail(exc, code):
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


def _split_names(text):
    """Comma-separated names, stripped, empty ones dropped; commas inside
    parentheses belong to the name."""
    out = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [n for n in out if n]


def _read_matching(text):
    pairs = []
    for raw, parts in graphs.records(text):
        if len(parts) != 2:
            raise FormatError(f"bad matching line {raw!r}")
        pairs.append((parts[0], parts[1]))
    return pairs


def _verb_args(ns, path):
    """The arguments as a bundle step holds them: the lists that the command
    line takes as text (comma lists, a matching file) become lists."""
    if getattr(ns, "method", None) is not None:
        what = f"--method {ns.method}"
    elif ns.verb == "lb":
        what = f"ddlab lb {ns.lbverb}"
    else:
        what = f"ddlab {ns.verb}"
    args = verbs.Args(((k, v) for k, v in vars(ns).items()
                       if v is not None and k not in ("func", "verb", "lbverb")),
                      what, flags=True)
    for key in ("universe", "long"):
        if key in args:
            args[key] = _split_names(args[key])
    if "matching" in args:
        args["matching"] = _read_matching(path.text(args["matching"]))
    return args


# per verb: the info field printed first, and the line printed when the text
# went to --out instead of stdout; by default the text alone, and nothing
# when it went to --out
_SHOW = {
    "gen": (None, "wrote {out}: {variables} variables, {clauses} clauses"),
    "compile": (None, "wrote {out}: {size} nodes"),
    "restrict": (None, "wrote {out}: {size} nodes"),
    "count": ("count", None),
    "eval": ("value", None),
    "minobdd": ("size", None),
    "width": ("width", None),
    "certify": (None, "bound {bound} (|F|={fooling_size}, diagram size {diagram_size}); "
                      "wrote {out}"),
}


def cmd_verb(ns):
    """Run a verb shared with bundles and print what it returns."""
    verb = ns.lbverb if ns.verb == "lb" else ns.verb
    path = verbs.Paths()
    args = _verb_args(ns, path)
    start = time.perf_counter()
    info, made = verbs.run(verb, args, path)
    elapsed = (time.perf_counter() - start) * 1000.0
    field, wrote = _SHOW.get(verb, (None, None))
    if field is not None:
        print(info[field])
    if "out" not in args:
        if isinstance(made, diagrams.Diagram):
            sys.stdout.writelines(diagrams.json_chunks(made))
        elif made is not None:
            sys.stdout.write(made)
    elif wrote is not None:
        print(wrote.format(out=args["out"], **info))
    if verb == "certify":
        print(json.dumps({"wall_clock_ms": elapsed}, sort_keys=True), file=sys.stderr)


def cmd_run(args):
    from .manifest import run_experiment
    summary = run_experiment(args.manifest, args.out_dir)
    print(f"bundle {args.out_dir}: {len(summary['steps'])} steps")


class _Parser(argparse.ArgumentParser):
    """Malformed arguments are malformed input: a FormatError, shown as the
    one JSON line of every other, not as usage text."""

    def error(self, message):
        raise FormatError(message)


# the subcommands that run a verb, in the order --help lists them, and their
# help; "lb" groups the verbs in _LB
_COMMANDS = {
    "gen": "generate a formula family as DIMACS",
    "compile": "compile a diagram",
    "count": "count satisfying assignments of a diagram",
    "eval": "evaluate a diagram on a total assignment",
    "validate": "check diagram invariants and class",
    "align": "alignment or frontier report",
    "restrict": "restrict a diagram by one variable",
    "width": "minimum crossing width over orders",
    "lb": "lower-bound experiments",
    "fool": "print the fooling set",
    "certify": "injectivity certificate",
    "minobdd": "minimal OBDD size oracle",
    "export-dot": "Graphviz export",
}
_LB = ("fool", "certify")


@functools.cache
def build_parser():
    """The command's parser, built once per process on first use. It names
    each verb's keys (``verbs.KEYS``) as flags; the verbs check their values."""
    parser = _Parser(prog="ddlab", description=__doc__)
    parser.add_argument("--version", action="version", version=BUILD_ID)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in _COMMANDS.items():
        if verb == "lb":
            lb = sub.add_parser(verb, help=text).add_subparsers(dest="lbverb", required=True)
            continue
        p = (lb if verb in _LB else sub).add_parser(verb, help=text)
        for key in verbs.KEYS[verb]:
            flag = "--" + key.replace("_", "-")
            if key in verbs.SWITCHES:
                p.add_argument(flag, action="store_true")
            else:
                # --bit is an int, as a bundle step gives it: the verb refuses the string "1"
                p.add_argument(flag, type=int if key == "bit" else None)
        p.set_defaults(func=cmd_verb)

    p = sub.add_parser("run", help="run a manifest into a bundle directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
    except BrokenPipeError:
        # the reader went away: nothing more can be shown, and the flush at
        # exit must find devnull, or it reports the closed pipe once more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except MALFORMED as exc:
        return _fail(exc, 2)
    except DdlabError as exc:
        return _fail(exc, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
