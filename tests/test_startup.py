"""The start-up contract: the CLI parses before it loads the library.

``python -m lcumulants.cli`` imports the package, ``cli`` and nothing of
the library until a verb runs, so ``--help`` and a usage error load no
layer module, no ``dataclasses``, ``fractions`` or ``hashlib``.  A verb
loads the layers it runs, but the value classes are written by hand, so
no verb loads ``dataclasses`` or the ``inspect`` it imports.  The package
exports its names lazily, one module on first use.  None of this may
change a byte of output.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lcumulants
from lcumulants import cli, commands
from lcumulants.cli import main

SRC = Path(lcumulants.__file__).resolve().parent.parent
LAYERS = ("lattice", "lcumulant", "models", "moments", "partition", "rng", "topology", "trees")
# What argument parsing must not load: the layers but partition, and the
# standard modules the library pulls in (hashlib loads OpenSSL).
NOT_AT_START = {f"lcumulants.{name}" for name in LAYERS if name != "partition"} | {
    "lcumulants.commands",
    "dataclasses",
    "fractions",
    "hashlib",
}


def _python(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60, **kwargs)


def _table(tmp_path: Path) -> str:
    """A two-variable probability table written to a file; returns its path."""
    source = tmp_path / "p.json"
    table = {"0,0": "1/4", "0,1": "1/4", "1,0": "1/8", "1,1": "3/8"}
    source.write_text(json.dumps({"arities": [2, 2], "system": "probabilities", "table": table}))
    return str(source)


def _imported(stderr: str) -> set[str]:
    """The modules a ``-X importtime`` run names on stderr."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines() if line.startswith("import time:")}


class TestHelpBytes:
    """The help of every verb, pinned before the verbs left ``cli``."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "b8bfcea3def451ac8bfc3386f4d9271200a9bf65acd056b2a9126b9e0a9d39b6"),
            (["lattice"], "7dbd19e9dbe701e4cfc451a60ede37085e64622ff948beca698cb68c8776450a"),
            (["transform"], "c7f74d93ac1b4382f17af17ac5925cfe60bb5c7d125c6fea461dc163db903550"),
            (["model"], "63860a4aa91c28022d0a02a4456e532435ae06dff24078c33cad5e60c3b8cf8f"),
            (["model", "gmm"], "ef7485d53f610c1664d2f37c674fe68a990aa936ed6b8051deaa855cc42945a3"),
            (["model", "secant"], "d16b3d71e56a035b6f4935c353333523dcefd1a9cd616b86e3fcab4ff47e78b4"),
            (["model", "hmm"], "62678a73b1eb567a224bd90f38fd2587506acf2f6d2f2e4d9b2d73b325406fe3"),
            (["verify"], "4c97cc3d11d90a0c24754e272e1cb157feab157317ca8982d4a72a3676c08f4d"),
        ],
        ids=["top", "lattice", "transform", "model", "model-gmm", "model-secant", "model-hmm", "verify"],
    )
    def test_help_digest(self, capsys, monkeypatch, argv, digest):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to the terminal width
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_the_help_suite_names_are_the_suites(self):
        assert list(cli._SUITE_NAMES) == sorted(commands._SUITES)


class TestStartup:
    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["verify"], 2)],
        ids=["help", "usage-error"],
    )
    def test_parsing_loads_no_library(self, argv, code):
        proc = _python("-X", "importtime", "-m", "lcumulants.cli", *argv)
        assert proc.returncode == code
        imported = _imported(proc.stderr)
        assert "lcumulants" in imported
        assert imported & NOT_AT_START == set()

    def test_a_transform_loads_no_openssl(self, tmp_path):
        proc = _python("-X", "importtime", "-m", "lcumulants.cli", "transform", "-i", _table(tmp_path), "--to", "moments")
        assert proc.returncode == 0
        imported = _imported(proc.stderr)
        assert "lcumulants.moments" in imported
        assert "hashlib" not in imported

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "-i", "TABLE", "--to", "lcumulants", "--family", "full"],
            ["verify", "gmm", "--tree", "quartet", "--trials", "1"],
        ],
        ids=["transform", "verify"],
    )
    def test_a_verb_loads_no_dataclasses(self, tmp_path, argv):
        argv = [_table(tmp_path) if arg == "TABLE" else arg for arg in argv]
        proc = _python("-X", "importtime", "-m", "lcumulants.cli", *argv)
        assert proc.returncode == 0
        imported = _imported(proc.stderr)
        assert "lcumulants.lcumulant" in imported
        assert imported & {"dataclasses", "inspect"} == set()

    def test_verify_keeps_its_inputs_digest(self, capsys):
        assert main(["verify", "weisner", "--family", "full", "--n", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs_digest"] == "sha256:276a1237c0621e61"

    def test_a_usage_error_from_a_verb_exits_two_under_dash_m(self):
        # Run as ``-m``, the entry module is ``__main__``; the verbs raise the
        # package's SystemExit2, which must still map to exit code 2.
        proc = _python("-m", "lcumulants.cli", "verify", "weisner", "--family", "bogus")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: unknown family 'bogus'\n")


class TestLazyPackage:
    def test_import_loads_no_layer(self):
        code = "import sys, lcumulants; print(sorted(m for m in sys.modules if m.startswith('lcumulants')))"
        proc = _python("-c", code)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "['lcumulants']"

    def test_every_submodule_resolves_as_an_attribute(self):
        code = "import lcumulants; print([type(getattr(lcumulants, m)).__name__ for m in %r])" % (LAYERS,)
        proc = _python("-c", code)
        assert proc.returncode == 0
        assert proc.stdout.strip() == str(["module"] * len(LAYERS))

    def test_every_export_is_the_defining_object(self):
        for name, module in lcumulants._EXPORTS.items():
            assert getattr(lcumulants, name) is getattr(importlib.import_module(f"lcumulants.{module}"), name), name

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            lcumulants.no_such_name

    def test_star_import_gives_the_same_names(self):
        namespace: dict = {}
        exec("from lcumulants import *", namespace)
        names = sorted(set(namespace) - {"__builtins__"})
        assert names == sorted(lcumulants.__all__)
        assert set(names) <= set(dir(lcumulants))
        # The 89 exports and the eight layer modules.  The enumerator, the
        # family predicates and induced_subtree are test oracles, not exports.
        assert len(names) == 97
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == (
            "b0b8e9c5abbfa288c4bae4faf4f56cb7058a5eb8efa1134adefd0c082081d77a"
        )
