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
Only the verb argv names, and under ``model`` its kind, gets its
arguments; the others are bare subparsers with their help strings.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

# The keys of ``commands._SUITES``, for the help text.
_SUITE_NAMES = ("conditions", "gmm", "hmm", "secant", "split-binomials", "weisner")

# The verify options that have a default; a suite that does not read one
# still accepts it at this value.
VERIFY_DEFAULTS = {"seed": 0, "trials": 5, "family": "full"}


class SystemExit2(Exception):
    """Usage or parse problem; mapped to exit code 2."""


def _lattice_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, help="full | noncrossing | interval | onecluster | tree")
    p.add_argument("--n", type=int, help="ground set size (size-indexed families)")
    p.add_argument("--tree", help="newick file, literal newick, caterpillarN, starN, quartet")
    p.add_argument("--float", dest="float_mode", action="store_true", help="emit floats instead of p/q strings")
    p.add_argument("--output", "-o")
    p.set_defaults(func="cmd_lattice")


def _transform_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--from", dest="source", help="defaults to the file's system tag")
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--family")
    p.add_argument("--tree")
    p.add_argument("--float", dest="float_mode", action="store_true", help="emit floats instead of p/q strings")
    p.add_argument("--output", "-o")
    p.set_defaults(func="cmd_transform")


def _model_gmm_args(g: argparse.ArgumentParser) -> None:
    g.add_argument("--tree", required=True)
    g.add_argument("--params", required=True)
    g.add_argument("--emit", default="moments", help="distribution | moments | treecumulants")
    g.add_argument("--float", dest="float_mode", action="store_true")
    g.add_argument("--output", "-o")
    g.set_defaults(func="cmd_model_gmm")


def _model_secant_args(g: argparse.ArgumentParser) -> None:
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", required=True)
    g.add_argument("--a", required=True, help="comma-separated rationals")
    g.add_argument("--b", required=True, help="comma-separated rationals")
    g.add_argument("--emit", default="moments", help="moments | treecumulants")
    g.add_argument("--float", dest="float_mode", action="store_true")
    g.add_argument("--output", "-o")
    g.set_defaults(func="cmd_model_secant")


def _model_hmm_args(g: argparse.ArgumentParser) -> None:
    g.add_argument("--params", required=True)
    g.add_argument("--emit", default="distribution", help="distribution | treecumulants | normalized")
    g.add_argument("--float", dest="float_mode", action="store_true")
    g.add_argument("--output", "-o")
    g.set_defaults(func="cmd_model_hmm")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", help=" | ".join(_SUITE_NAMES))
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=VERIFY_DEFAULTS["seed"])
    p.add_argument("--trials", type=int, default=VERIFY_DEFAULTS["trials"])
    p.add_argument("--jobs", type=int, help="worker processes for trial batches, at most the usable CPU count")
    p.add_argument("--family", default=VERIFY_DEFAULTS["family"])
    p.add_argument("--tree")
    p.add_argument("--params")
    p.add_argument("--which", help="condition name for the conditions suite")
    p.add_argument("--expect", choices=("true", "false"), help="assert the condition outcome")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--output", "-o")
    p.set_defaults(func="cmd_verify")


def _subparsers(sub, choices, named: str | None) -> None:
    """One subparser per choice; only the one argv names gets its arguments.

    The others keep their help strings, which is all the parent's help and
    its choice errors read.  The parent's options take no value, so the
    choice argparse takes is the first word of argv that is not an option.
    """
    for name, help_text, add in choices:
        p = sub.add_parser(name, help=help_text)
        if name == named:
            add(p)


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of the verb argv names, and of its model kind under ``model``."""
    verb, kind = ([word for word in argv if not word.startswith("-")] + [None, None])[:2]

    def model_args(p: argparse.ArgumentParser) -> None:
        model_sub = p.add_subparsers(dest="model", required=True)
        kinds = [
            ("gmm", "latent binary tree model", _model_gmm_args),
            ("secant", "rank-two mixture chart", _model_secant_args),
            ("hmm", "binary hidden chain with emissions", _model_hmm_args),
        ]
        _subparsers(model_sub, kinds, kind)

    parser = argparse.ArgumentParser(
        prog="lcumulants",
        description="Exact lattice-cumulant transforms and model verifiers.",
    )
    verbs = [
        ("lattice", "dump a partition lattice as JSON", _lattice_args),
        ("transform", "change coordinate systems on a vector file", _transform_args),
        ("model", "emit model distributions and coordinates", model_args),
        ("verify", "run a seeded identity suite", _verify_args),
    ]
    _subparsers(parser.add_subparsers(dest="verb", required=True), verbs, verb)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes -2/7 for an option: pass "--t -2/7" as "--t=-2/7"
        if re.fullmatch(r"--[^=]+", argv[i - 1]) and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser(argv).parse_args(argv)
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
