"""Batch command line over JSON files: the entry point.

Verbs:

* ``lattice``    dump a family lattice (elements + Moebius-to-top values),
* ``transform``  change coordinate systems on a vector file,
* ``model``      emit distributions/coordinates of the built-in models,
* ``verify``     run a seeded identity suite and report exact residuals.

Exit codes: 0 all checks pass, 1 an identity check failed, 2 usage or
parse error.  Rationals travel as "p/q" strings; floats appear only under
``--float``.  Output is byte-identical for identical inputs and seed;
wall-clock timing is attached only on request since it would break that.
The environment variable ``LCUM_CAPACITY`` overrides the default ground
set cap of 12.

This module builds the parser and maps errors to exit codes, and loads
none of the library: ``main`` parses first, then imports the verbs from
:mod:`lcumulants.commands`, so ``--help`` and a usage error start fast.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

# The keys of ``commands._SUITES``, for the help text.
_SUITE_NAMES = ("conditions", "gmm", "hmm", "secant", "split-binomials", "weisner")


class SystemExit2(Exception):
    """Usage or parse problem; mapped to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcumulants",
        description="Exact lattice-cumulant transforms and model verifiers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("lattice", help="dump a partition lattice as JSON")
    p.add_argument("--family", required=True, help="full | noncrossing | interval | onecluster | tree")
    p.add_argument("--n", type=int, help="ground set size (size-indexed families)")
    p.add_argument("--tree", help="newick file, literal newick, caterpillarN, starN, quartet")
    p.add_argument("--float", dest="float_mode", action="store_true", help="emit floats instead of p/q strings")
    p.add_argument("--output", "-o")
    p.set_defaults(func="cmd_lattice")

    p = sub.add_parser("transform", help="change coordinate systems on a vector file")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--from", dest="source", help="defaults to the file's system tag")
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--family")
    p.add_argument("--tree")
    p.add_argument("--float", dest="float_mode", action="store_true", help="emit floats instead of p/q strings")
    p.add_argument("--output", "-o")
    p.set_defaults(func="cmd_transform")

    p = sub.add_parser("model", help="emit model distributions and coordinates")
    model_sub = p.add_subparsers(dest="model", required=True)

    g = model_sub.add_parser("gmm", help="latent binary tree model")
    g.add_argument("--tree", required=True)
    g.add_argument("--params", required=True)
    g.add_argument("--emit", default="moments", help="distribution | moments | treecumulants")
    g.add_argument("--float", dest="float_mode", action="store_true")
    g.add_argument("--output", "-o")
    g.set_defaults(func="cmd_model_gmm")

    g = model_sub.add_parser("secant", help="rank-two mixture chart")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", required=True)
    g.add_argument("--a", required=True, help="comma-separated rationals")
    g.add_argument("--b", required=True, help="comma-separated rationals")
    g.add_argument("--emit", default="moments", help="moments | treecumulants")
    g.add_argument("--float", dest="float_mode", action="store_true")
    g.add_argument("--output", "-o")
    g.set_defaults(func="cmd_model_secant")

    g = model_sub.add_parser("hmm", help="binary hidden chain with emissions")
    g.add_argument("--params", required=True)
    g.add_argument("--emit", default="distribution", help="distribution | treecumulants | normalized")
    g.add_argument("--float", dest="float_mode", action="store_true")
    g.add_argument("--output", "-o")
    g.set_defaults(func="cmd_model_hmm")

    p = sub.add_parser("verify", help="run a seeded identity suite")
    p.add_argument("suite", help=" | ".join(_SUITE_NAMES))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--jobs", type=int, help="worker processes for trial batches, at most the usable CPU count")
    p.add_argument("--family", default="full")
    p.add_argument("--tree")
    p.add_argument("--params")
    p.add_argument("--which", help="condition name for the conditions suite")
    p.add_argument("--expect", choices=("true", "false"), help="assert the condition outcome")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--output", "-o")
    p.set_defaults(func="cmd_verify")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes -2/7 for an option: pass "--t -2/7" as "--t=-2/7"
        if re.fullmatch(r"--[^=]+", argv[i - 1]) and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    from . import commands

    try:
        return getattr(commands, args.func)(args)
    except (SystemExit2, OSError, ValueError, KeyError) as exc:  # CapacityError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # Under ``-m`` this file runs as ``__main__``; run the package's copy, whose
    # SystemExit2 is the one the verbs raise.
    from lcumulants.cli import main as package_main

    raise SystemExit(package_main())
