"""Fixed job mixes of the three workloads, and the seeded data they run on.

The mix of a workload (which verbs, boxes, families, tree shapes and trial
counts it runs, and in what order) is a constant of this file.  The seed
draws only data: probability tables, the ``--seed`` values handed to the
verify suites, and the leaf labellings of trees.  Every job draws from its
own stream, keyed by the seed and the job id, so a job's data does not
depend on its place in the mix.

This module does not import the program; it only builds argv lists and
tables, and checks the outputs that come back.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("cli-batch", "lattice-order", "api-session")

# A job that runs longer than this is stopped and counts as failed.
JOB_TIMEOUT_S = 60.0
# No job starts after this many seconds of a run, so that a run ends
# within three minutes even when the program has become much slower.
RUN_BUDGET_S = 120.0
# A traced run alternates an untraced and a traced pass this many times;
# the per-layer figures cover all its traced passes.
TRACE_ROUNDS = 2

# Outcomes of ``verify conditions`` that the paper's families are known to
# have: the full lattice satisfies C0..C3, non-crossing, one-cluster and
# tree lattices fail C3, and interval lattices fail C1.
KNOWN_CONDITIONS = {
    ("full", "C0"): True,
    ("full", "C1"): True,
    ("full", "C2"): True,
    ("full", "C3"): True,
    ("noncrossing", "C3"): False,
    ("onecluster", "C3"): False,
    ("onecluster", "C0"): True,
    ("tree", "C3"): False,
    ("interval", "C1"): False,
}

# Newick templates with the leaf slots in the order of the named shapes
# (``caterpillarN`` lists leaves 1..N along the spine).  A labelling fills
# the slots with a seeded permutation of 1..N.
_SHAPES = {
    "caterpillar5": "({},{},({},({},{})h3)h2)h1;",
    "caterpillar6": "({},{},({},({},({},{})h4)h3)h2)h1;",
    "caterpillar8": "({},{},({},({},({},({},({},{})h6)h5)h4)h3)h2)h1;",
    "balanced7": "((({},{})x,({},{})y)u,(({},{})z,{})w)r;",
}
_SHAPE_LEAVES = {"caterpillar5": 5, "caterpillar6": 6, "caterpillar8": 8, "balanced7": 7}

NEWICK6 = "((1,2)a,((3,4)c,(5,6)d)b)r;"


@dataclass(frozen=True)
class JobSpec:
    """One entry of a fixed mix.  ``shape`` is what the seed must not change."""

    id: str
    verb: str
    shape: dict = field(hash=False)


@dataclass
class Job:
    """A job with its seeded data.

    CLI jobs carry ``argv`` (after ``python -m lcumulants.cli``) and
    ``files`` to write before the pass; ``{work}`` in either is replaced by
    the pass's work directory and ``{out:ID}`` by the stdout file of job ID,
    which runs earlier in the same pass.  Library jobs carry ``data``.
    """

    spec: JobSpec
    argv: list[str] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    @property
    def id(self) -> str:
        return self.spec.id


# -- the fixed mixes -----------------------------------------------------------


def _verify(suite: str, **shape) -> JobSpec:
    name = "-".join(str(v) for v in shape.values())
    return JobSpec(f"verify-{suite}-{name}" if name else f"verify-{suite}", "verify", {"suite": suite, **shape})


def _cli_batch_mix() -> list[JobSpec]:
    mix = [
        _verify("secant", n=4, trials=3),
        _verify("secant", n=5, trials=3),
        _verify("gmm", tree="quartet", trials=3),
        _verify("gmm", tree="caterpillar5", trials=3),
        _verify("gmm", tree="caterpillar6", trials=2),
        _verify("gmm", tree="newick6", trials=1),
        _verify("hmm", n=4, trials=3),
        _verify("hmm", n=5, trials=3),
        _verify("hmm", n=6, trials=3),
        _verify("split-binomials", tree="caterpillar6"),
        _verify("split-binomials", tree="quartet"),
    ]
    # Round trips: probabilities -> coordinates, then back in a second job.
    for box, target, family in [
        ((2,) * 6, "classical_cumulants", "full"),
        ((2,) * 6, "lcumulants", "noncrossing"),
        ((2,) * 6, "lcumulants", "interval"),
        ((2,) * 6, "treecumulants", "caterpillar6"),
        ((3, 3, 2, 2), "lcumulants", "full"),
        ((3, 3, 2, 2), "lcumulants", "noncrossing"),
        ((3, 3, 2, 2), "lcumulants", "interval"),
    ]:
        tag = f"{'x'.join(map(str, box))}-{target}-{family}"
        shape = {"box": list(box), "target": target, "family": family}
        mix.append(JobSpec(f"transform-{tag}", "transform", {**shape, "direction": "forward"}))
        mix.append(JobSpec(f"inverse-{tag}", "transform", {**shape, "direction": "inverse"}))
    return mix


def _lattice_order_mix() -> list[JobSpec]:
    mix = []
    for family, n in [("full", 7), ("noncrossing", 8), ("interval", 9), ("onecluster", 8), ("caterpillar8", None)]:
        mix.append(JobSpec(f"lattice-{family}-{n or ''}".rstrip("-"), "lattice", {"family": family, "n": n}))
    for family, n in [("full", 5), ("noncrossing", 5), ("onecluster", 5), ("interval", 6), ("caterpillar5", None)]:
        mix.append(_verify("weisner", family=family, n=n) if n else _verify("weisner", family=family))
    for family, which, expect in [
        ("full", None, None),
        ("noncrossing", "C3", "false"),
        ("interval", "C1", "false"),
        ("onecluster", "C0", "true"),
        ("caterpillar5", "C3", "false"),
    ]:
        shape = {"family": family, "n": 5}
        if which:
            shape.update(which=which, expect=expect)
        mix.append(_verify("conditions", **shape))
    return mix


# Library session: (box, family) pairs.  Full and non-crossing lattices are
# used up to order 7, trees on binary boxes up to 7 leaves.
_API_BOXES = [
    ((2,) * 6, ["full", "noncrossing", "interval", "onecluster", "caterpillar6"]),
    ((2,) * 7, ["full", "noncrossing", "interval", "onecluster", "balanced7"]),
    ((2,) * 8, ["interval", "onecluster"]),
    ((3, 3, 2, 2), ["full", "noncrossing", "interval", "onecluster"]),
    ((3, 2, 2, 2, 2), ["full", "noncrossing", "interval", "onecluster"]),
    ((3, 3, 3), ["full", "noncrossing", "interval", "onecluster"]),
    ((4, 3, 2), ["full", "noncrossing", "interval", "onecluster"]),
]


def _api_session_mix() -> list[JobSpec]:
    mix = []
    for box, families in _API_BOXES:
        for family in families:
            # About a quarter of the tables are signed (algebraic).
            signed = len(mix) % 4 == 3
            shape = {"box": list(box), "family": family, "signed": signed}
            mix.append(JobSpec(f"roundtrip-{'x'.join(map(str, box))}-{family}", "roundtrip", shape))
    return mix


MIXES = {
    "cli-batch": _cli_batch_mix,
    "lattice-order": _lattice_order_mix,
    "api-session": _api_session_mix,
}


# -- seeded data ---------------------------------------------------------------


def _rng(seed: int, stream: str, job_id: str) -> random.Random:
    # String seeds are hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{stream}:{seed}:{job_id}")


def _table(rng: random.Random, box: list[int], signed: bool) -> list[str]:
    """A table over the box in lexicographic state order, summing to one.

    The weights are a seeded shuffle of a fixed multiset (1..20, or -9..20
    for a signed table), so every seed gives the table the same
    denominator.  Exact rational arithmetic costs more on some
    denominators than on others; the seed must change the inputs, not the
    amount of work.
    """
    size = math.prod(box)
    low = -9 if signed else 1
    weights = [low + (7 * i) % (21 - low) for i in range(size)]
    rng.shuffle(weights)
    total = sum(weights)
    return [str(Fraction(w, total)) for w in weights]


def _states(box: list[int]) -> list[str]:
    return [",".join(map(str, x)) for x in itertools.product(*[range(r) for r in box])]


def labelled_tree(rng: random.Random, shape: str) -> str:
    leaves = list(range(1, _SHAPE_LEAVES[shape] + 1))
    rng.shuffle(leaves)
    return _SHAPES[shape].format(*leaves)


def _family_args(family: str, tree: str | None) -> list[str]:
    if family in _SHAPES:
        return ["--family", "tree", "--tree", tree or family]
    return ["--family", family]


def _cli_job(spec: JobSpec, rng: random.Random) -> Job:
    shape = spec.shape
    if spec.verb == "lattice":
        tree = labelled_tree(rng, shape["family"]) if shape["family"] in _SHAPES else None
        argv = ["lattice", *_family_args(shape["family"], tree)]
        if shape["n"]:
            argv += ["--n", str(shape["n"])]
        return Job(spec, argv)
    if spec.verb == "verify":
        suite = shape["suite"]
        argv = ["verify", suite]
        if suite in ("weisner", "conditions"):
            family = shape["family"]
            tree = labelled_tree(rng, family) if family in _SHAPES else None
            argv += _family_args(family, tree)
            if shape.get("n"):
                argv += ["--n", str(shape["n"])]
            if shape.get("which"):
                argv += ["--which", shape["which"], "--expect", shape["expect"]]
            return Job(spec, argv)
        if "n" in shape:
            argv += ["--n", str(shape["n"])]
        if "tree" in shape:
            argv += ["--tree", NEWICK6 if shape["tree"] == "newick6" else shape["tree"]]
        if "trials" in shape:
            argv += ["--trials", str(shape["trials"])]
        argv += ["--seed", str(rng.randrange(2**32))]
        return Job(spec, argv)
    # transform
    family = shape["family"]
    fam_args = [] if shape["target"] == "classical_cumulants" else _family_args(family, None)
    forward_id = spec.id.replace("inverse-", "transform-", 1)
    if shape["direction"] == "forward":
        table = _table(rng, shape["box"], signed=False)
        payload = {
            "arities": shape["box"],
            "system": "probabilities",
            "table": dict(zip(_states(shape["box"]), table)),
        }
        name = f"{spec.id}.json"
        argv = ["transform", "-i", "{work}/" + name, "--to", shape["target"], *fam_args]
        return Job(spec, argv, files={name: json.dumps(payload)})
    argv = ["transform", "-i", "{out:" + forward_id + "}", "--to", "probabilities", *fam_args]
    return Job(spec, argv)


def _api_job(spec: JobSpec, rng: random.Random) -> Job:
    shape = spec.shape
    data = {"table": _table(rng, shape["box"], shape["signed"])}
    if shape["family"] in _SHAPES:
        data["tree"] = labelled_tree(rng, shape["family"])
    return Job(spec, data=data)


def timed_stream(index: int) -> str:
    """The data stream of the index-th timed pass of a library session; the
    first is the one whose outputs are pinned."""
    return "timed" if index == 0 else f"timed-{index}"


def draw(workload: str, seed: int, stream: str = "timed") -> list[Job]:
    """The workload's fixed mix with data drawn from ``seed``.

    ``stream`` separates independent draws from one seed; the library
    session warms up on the ``warmup`` stream, which timing never uses.
    """
    make = _api_job if workload == "api-session" else _cli_job
    return [make(spec, _rng(seed, stream, spec.id)) for spec in MIXES[workload]()]


def inputs_bytes(jobs: list[Job]) -> bytes:
    """A canonical serialisation of everything a job list feeds the program."""
    return json.dumps(
        [[j.id, j.argv, j.files, j.data] for j in jobs], sort_keys=True
    ).encode()


# -- output checks ---------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fraction_table(table: dict) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in table.items()}


def check_cli(job: Job, stdout: bytes, forward_input: dict | None) -> str | None:
    """Why a CLI job's output is wrong, or None when it is right.

    ``forward_input`` is the table a round-trip inverse must reproduce.
    Exit codes and pinned digests are checked by the caller.
    """
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    shape = job.spec.shape
    if job.spec.verb == "verify":
        if out.get("passed") is not True:
            return "report did not pass"
        if shape["suite"] == "conditions":
            kind = "tree" if shape["family"] in _SHAPES else shape["family"]
            for row in out["results"]:
                which = row["check"].split()[0]
                known = KNOWN_CONDITIONS.get((kind, which))
                if known is not None and row["holds"] is not known:
                    return f"{which} on {kind}: holds={row['holds']}, expected {known}"
    elif job.spec.verb == "lattice":
        if not out["elements"] or len(out["elements"]) != len(out["mobius_to_top"]):
            return "malformed lattice dump"
    elif shape["direction"] == "inverse":
        if out.get("system") != "probabilities":
            return f"round trip ended in {out.get('system')!r}"
        if forward_input is None or _fraction_table(out["table"]) != _fraction_table(forward_input["table"]):
            return "round trip did not reproduce the input table"
    return None
