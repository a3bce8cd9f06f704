"""Fuzzed command lines and input files for ``transform``, ``model``, ``lattice`` and ``verify``.

Whatever the arguments and file contents, the CLI must finish with exit
code 0, 1 or 2 and print no traceback.  The inputs stay small (boxes of at
most 27 states, ground sets of at most four points, trees with few leaves,
at most five variables and two trials for ``verify``),
so each example runs in milliseconds, and the examples are derandomized so
every run of the suite checks the same ones.  Newick-shaped tree strings
must exit 0 or 2, and a string ``from_newick`` accepts must come back
unchanged through ``to_newick``.
"""

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcumulants.cli import main
from lcumulants.topology import from_newick, to_newick

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

SYSTEMS = ["probabilities", "moments", "central_moments", "classical_cumulants", "lcumulants", "treecumulants"]
FAMILIES = ["full", "noncrossing", "interval", "onecluster", "tree"]
TREES = ["quartet", "caterpillar3", "caterpillar4", "star3", "star4", "((1,2)a,(3,4)b)r;", "(3,1,(2,4)h2)h1;"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0", "1", "1/2", "-1/3", "2/3", "1/0", "x", "", "a", "1,0"]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["0", "1", "u", "v", "table"]), inner, max_size=3),
    max_leaves=6,
)
rationals = st.one_of(st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "-1/4"]), scalars)
# Short Newick-like text: parse errors, duplicate leaves, inner integers.
tree_texts = st.one_of(st.sampled_from(TREES), st.text(alphabet="(),;1234ab", max_size=14))
# Newick-shaped strings of at most six leaves, some well formed: labels
# may repeat, be missing, collide with generated ``v#`` names, or not be
# integers where a leaf is due.
newick_leaves = st.sampled_from(["1", "2", "3", "4", "5", "6", "0", "01", "x", "v0", "1 2", ""])
newick_labels = st.sampled_from(["", "", "a", "b", "r", "v0", "v1", "7", "1 2", "x y"])
newick_texts = st.builds(
    "".join,
    st.tuples(
        st.recursive(
            newick_leaves,
            lambda inner: st.builds(
                lambda children, label: "(" + ",".join(children) + ")" + label,
                st.lists(inner, min_size=1, max_size=3),
                newick_labels,
            ),
            max_leaves=6,
        ),
        st.sampled_from([";", "", " ;"]),
    ),
)


def corrupt(draw, data: dict, keys: list[str]) -> dict:
    """Replace or drop a few top-level fields of a well-formed file."""
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        if draw(st.booleans()):
            data[key] = draw(json_values)
        else:
            data.pop(key, None)
    return data


@st.composite
def vector_files(draw):
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    states = itertools.product(*(range(r) for r in arities))
    table = {",".join(map(str, x)): draw(rationals) for x in states}
    data = {"arities": arities, "system": draw(st.sampled_from(SYSTEMS)), "table": table}
    if draw(st.booleans()):
        data["values"] = [[draw(rationals) for _ in range(r)] for r in arities]
    return corrupt(draw, data, ["arities", "system", "table", "values"])


@st.composite
def gmm_files(draw):
    edges = [("a", 1), ("a", 2), ("a", "b"), ("b", 3), ("b", 4)]
    data = {
        "root": draw(st.sampled_from(["a", "b", "1", 1, "z"])),
        "root_dist": [draw(rationals), draw(rationals)],
        "edges": [
            {"u": u, "v": v, "table": [[draw(rationals), draw(rationals)], [draw(rationals), draw(rationals)]]}
            for u, v in edges
        ],
    }
    if draw(st.booleans()):
        data["edges"][draw(st.integers(0, len(edges) - 1))] = draw(json_values)
    return corrupt(draw, data, ["root", "root_dist", "edges"])


@st.composite
def hmm_files(draw):
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    data = {
        "arities": arities,
        "initial": [draw(rationals), draw(rationals)],
        "transitions": [[draw(rationals), draw(rationals)] for _ in arities[1:]],
        "emissions": [[[draw(rationals) for _ in range(r)] for _ in range(2)] for r in arities],
    }
    return corrupt(draw, data, ["arities", "initial", "transitions", "emissions", "values"])


def options(draw, flags: dict) -> list[str]:
    """Some of the given options, each with a drawn value; a value of None is a bare flag."""
    argv: list[str] = []
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv.append(flag)
            if values is not None:
                argv.append(draw(values))
    return argv


def run(capsys, argv: list[str]) -> int:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    return code


@pytest.fixture
def input_file(tmp_path):
    return tmp_path / "input.json"


@FUZZ
@given(data=st.data(), payload=vector_files())
def test_transform(capsys, input_file, data, payload):
    input_file.write_text(json.dumps(payload))
    draw = data.draw
    argv = ["transform", "-i", str(input_file), "--to", draw(st.sampled_from(SYSTEMS + ["nonsense"]))]
    argv += options(
        draw,
        {
            "--from": st.sampled_from(SYSTEMS + ["nonsense"]),
            "--family": st.sampled_from(FAMILIES + ["nonsense"]),
            "--tree": tree_texts,
            "--float": None,
        },
    )
    run(capsys, argv)


@FUZZ
@given(data=st.data())
def test_model(capsys, input_file, data):
    draw = data.draw
    model = draw(st.sampled_from(["gmm", "hmm", "secant"]))
    if model == "gmm":
        input_file.write_text(json.dumps(draw(gmm_files())))
        argv = ["model", "gmm", "--tree", draw(tree_texts), "--params", str(input_file)]
        emits = ["distribution", "moments", "treecumulants", "nonsense"]
    elif model == "hmm":
        input_file.write_text(json.dumps(draw(hmm_files())))
        argv = ["model", "hmm", "--params", str(input_file)]
        emits = ["distribution", "treecumulants", "normalized", "nonsense"]
    else:
        n = draw(st.integers(-1, 4))
        pieces = st.lists(st.sampled_from(["0", "1", "1/2", "-2", "x", "1/0", ""]), min_size=1, max_size=4).map(",".join)
        argv = ["model", "secant", "--n", str(n), "--t", draw(pieces), "--a", draw(pieces), "--b", draw(pieces)]
        emits = ["moments", "treecumulants", "nonsense"]
    argv += options(draw, {"--emit": st.sampled_from(emits), "--float": None})
    run(capsys, argv)


@FUZZ
@given(data=st.data())
def test_lattice(capsys, data):
    draw = data.draw
    argv = ["lattice", "--family", draw(st.sampled_from(FAMILIES + ["nonsense"]))]
    argv += options(
        draw,
        {
            "--n": st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["", "x", "2.5"])),
            "--tree": tree_texts,
            "--float": None,
        },
    )
    run(capsys, argv)


@FUZZ
@given(data=st.data())
def test_verify(capsys, input_file, data):
    # Never --jobs: the suite must not start worker processes.
    draw = data.draw
    suite = draw(st.sampled_from(["gmm", "hmm", "secant", "split-binomials"]))
    argv = ["verify", suite]
    argv += options(
        draw,
        {
            "--n": st.one_of(st.integers(-1, 5).map(str), st.sampled_from(["", "x"])),
            "--trials": st.integers(-1, 2).map(str),
            "--seed": st.integers(-2, 2**64).map(str),
            "--tree": tree_texts,
            "--timing": None,
        },
    )
    if suite == "split-binomials" and draw(st.booleans()):
        input_file.write_text(json.dumps(draw(gmm_files())))
        argv += ["--params", str(input_file)]
    run(capsys, argv)


@FUZZ
@given(text=newick_texts)
def test_newick(capsys, text):
    code = run(capsys, ["lattice", "--family", "tree", "--tree", text])
    assert code in (0, 2), (text, code)
    try:
        tree = from_newick(text)
    except ValueError:
        assert code == 2, text
        return
    assert from_newick(to_newick(tree)) == tree, text
