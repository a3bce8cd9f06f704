import hashlib
import json
from fractions import Fraction

import pytest

from lcumulants.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestLattice:
    def test_full_three(self, capsys):
        code, data = run_json(capsys, "lattice", "--family", "full", "--n", "3")
        assert code == 0
        assert len(data["elements"]) == 5
        assert data["mobius_to_top"] == ["2", "-1", "-1", "-1", "1"]

    def test_tree_caterpillar(self, capsys, tmp_path):
        nwk = tmp_path / "cat4.nwk"
        nwk.write_text("((3,4)h2,1,2)h1;\n")
        code, data = run_json(capsys, "lattice", "--family", "tree", "--tree", str(nwk))
        assert code == 0
        assert len(data["elements"]) == 13

    def test_named_tree_shortcut(self, capsys):
        code, data = run_json(capsys, "lattice", "--family", "tree", "--tree", "caterpillar4")
        assert code == 0
        assert len(data["elements"]) == 13

    def test_malformed_newick_file(self, capsys, tmp_path):
        nwk = tmp_path / "bad.nwk"
        nwk.write_text("(1,2\n")
        assert main(["lattice", "--family", "tree", "--tree", str(nwk)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse tree")

    def test_deeply_nested_newick(self, capsys):
        text = "(" * 3000 + "1,2" + ")" * 3000
        assert main(["lattice", "--family", "tree", "--tree", text]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse tree")

    def test_interval_singleton(self, capsys):
        code, data = run_json(capsys, "lattice", "--family", "interval", "--n", "1")
        assert code == 0
        assert len(data["elements"]) == 1

    def test_capacity_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LCUM_CAPACITY", "3")
        code = main(["lattice", "--family", "full", "--n", "4"])
        assert code == 2

    def test_missing_n(self, capsys):
        assert main(["lattice", "--family", "full"]) == 2


class TestTransform:
    @pytest.fixture
    def moment_file(self, tmp_path):
        payload = {
            "arities": [2, 2],
            "system": "moments",
            "table": {"0,0": "1", "1,0": "1/2", "0,1": "1/3", "1,1": "1/4"},
        }
        path = tmp_path / "mv.json"
        path.write_text(json.dumps(payload))
        return path

    def test_probabilities_to_moments_point_mass(self, capsys, tmp_path):
        payload = {
            "arities": [2, 2],
            "system": "probabilities",
            "table": {"0,0": "0", "1,0": "0", "0,1": "0", "1,1": "1"},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, "transform", "-i", str(path), "--to", "moments")
        assert code == 0
        assert all(v == "1" for v in data["table"].values())

    def test_moments_to_boolean_cumulants(self, capsys, moment_file):
        code, data = run_json(
            capsys, "transform", "-i", str(moment_file), "--to", "lcumulants", "--family", "interval"
        )
        assert code == 0
        m12, m1, m2 = Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)
        assert Fraction(data["table"]["1,1"]) == m12 - m1 * m2

    def test_round_trip(self, capsys, moment_file, tmp_path):
        code, forward = run_json(
            capsys, "transform", "-i", str(moment_file), "--to", "lcumulants", "--family", "noncrossing"
        )
        assert code == 0
        mid = tmp_path / "lv.json"
        mid.write_text(json.dumps(forward))
        code, back = run_json(
            capsys, "transform", "-i", str(mid), "--to", "moments", "--family", "noncrossing"
        )
        assert code == 0
        assert back["table"] == json.loads(moment_file.read_text())["table"]

    def test_chain_to_tree_cumulants(self, capsys, tmp_path):
        payload = {
            "arities": [2, 2, 2, 2],
            "system": "probabilities",
            "table": {f"{a},{b},{c},{d}": "1/16" for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(
            capsys,
            "transform", "-i", str(path), "--to", "treecumulants", "--tree", "caterpillar4",
        )
        assert code == 0
        assert data["system"] == "treecumulants"
        assert Fraction(data["table"]["1,1,0,0"]) == 0  # independent uniform bits

    def test_unknown_target(self, capsys, moment_file):
        assert main(["transform", "-i", str(moment_file), "--to", "nonsense"]) == 2

    def test_missing_file(self, capsys):
        assert main(["transform", "-i", "/nonexistent.json", "--to", "moments"]) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"arities": [2], "system": "moments", "table": ["1", "0"]},
            {"arities": [2], "system": "probabilities", "table": ["1", "0"]},
            {"arities": 2, "system": "moments", "table": {"0": "1", "1": "1/2"}},
            {"arities": [2], "system": "moments", "table": {"0": "1", "1": None}},
        ],
        ids=["moments", "probabilities", "arities-number", "null-value"],
    )
    def test_list_table_is_a_usage_error(self, capsys, tmp_path, payload):
        path = tmp_path / "vec.json"
        path.write_text(json.dumps(payload))
        assert main(["transform", "-i", str(path), "--to", "moments"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_huge_box_with_a_small_table_is_a_usage_error(self, capsys, tmp_path):
        # 2^40 box states: the missing entry must be found without listing them.
        path = tmp_path / "vec.json"
        path.write_text(json.dumps({"arities": [2] * 40, "system": "moments", "table": {",".join("0" * 40): "1"}}))
        assert main(["transform", "-i", str(path), "--to", "central_moments"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: missing entries")
        assert "Traceback" not in err

    def test_central_moments_target(self, capsys, moment_file):
        code, data = run_json(capsys, "transform", "-i", str(moment_file), "--to", "central_moments")
        assert code == 0
        assert Fraction(data["table"]["1,1"]) == Fraction(1, 4) - Fraction(1, 2) * Fraction(1, 3)
        assert data["table"]["1,0"] == "0"


GMM_PARAMS = {
    "root": "a",
    "root_dist": ["2/3", "1/3"],
    "edges": [
        {"u": "a", "v": 1, "table": [["3/4", "1/4"], ["1/5", "4/5"]]},
        {"u": "a", "v": 2, "table": [["2/3", "1/3"], ["1/6", "5/6"]]},
        {"u": "a", "v": "b", "table": [["1/2", "1/2"], ["1/3", "2/3"]]},
        {"u": "b", "v": 3, "table": [["4/5", "1/5"], ["1/4", "3/4"]]},
        {"u": "b", "v": 4, "table": [["5/6", "1/6"], ["1/7", "6/7"]]},
    ],
}

HMM_PARAMS = {
    "arities": [2, 2, 2],
    "initial": ["1/2", "1/2"],
    "transitions": [["1/4", "2/3"], ["1/3", "3/5"]],
    "emissions": [
        [["3/4", "1/4"], ["1/6", "5/6"]],
        [["2/3", "1/3"], ["1/5", "4/5"]],
        [["1/2", "1/2"], ["1/8", "7/8"]],
    ],
}


class TestModelVerbs:
    def test_gmm_distribution_sums_to_one(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(GMM_PARAMS))
        code, data = run_json(
            capsys, "model", "gmm", "--tree", "quartet", "--params", str(params), "--emit", "distribution"
        )
        assert code == 0
        total = sum(Fraction(v) for v in data["table"].values())
        assert total == 1

    def test_gmm_moments_emission(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(GMM_PARAMS))
        code, data = run_json(
            capsys, "model", "gmm", "--tree", "quartet", "--params", str(params), "--emit", "moments"
        )
        assert code == 0
        assert data["system"] == "moments"
        assert data["table"]["0,0,0,0"] == "1"

    def test_gmm_tree_cumulants_split(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(GMM_PARAMS))
        code, data = run_json(
            capsys, "model", "gmm", "--tree", "quartet", "--params", str(params), "--emit", "treecumulants"
        )
        assert code == 0
        t = {k: Fraction(v) for k, v in data["table"].items()}
        assert t["1,0,1,0"] * t["0,1,0,1"] == t["1,0,0,1"] * t["0,1,1,0"]

    def test_secant_golden(self, capsys):
        code, data = run_json(
            capsys,
            "model", "secant", "--n", "4", "--t", "1/3", "--a", "0,0,0,0", "--b", "1,1,1,1",
            "--emit", "treecumulants",
        )
        assert code == 0
        assert data["table"]["1,2,3,4"] == "2/81"

    def test_secant_zero_denominator(self, capsys):
        assert main(["model", "secant", "--n", "1", "--t", "1/0", "--a", "0", "--b", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse rational")

    def test_hmm_emissions(self, capsys, tmp_path):
        params = tmp_path / "hmm.json"
        params.write_text(json.dumps(HMM_PARAMS))
        code, data = run_json(capsys, "model", "hmm", "--params", str(params), "--emit", "distribution")
        assert code == 0
        assert sum(Fraction(v) for v in data["table"].values()) == 1
        code, data = run_json(capsys, "model", "hmm", "--params", str(params), "--emit", "treecumulants")
        assert code == 0
        assert len(data["table"]) == 7

    @pytest.mark.parametrize(
        "verb, text",
        [
            (["hmm"], "{not json"),
            (["gmm", "--tree", "quartet"], json.dumps({**GMM_PARAMS, "edges": 5})),
            (["hmm"], json.dumps({**HMM_PARAMS, "initial": 1})),
        ],
        ids=["not-json", "gmm-edges-number", "hmm-initial-number"],
    )
    def test_bad_params_file(self, capsys, tmp_path, verb, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["model", *verb, "--params", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_gmm_leaves_outside_one_to_n(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({
            "root": "a",
            "root_dist": ["1/2", "1/2"],
            "edges": [
                {"u": "a", "v": leaf, "table": [["3/4", "1/4"], ["1/5", "4/5"]]} for leaf in (1, 2, 5)
            ],
        }))
        assert main(["model", "gmm", "--tree", "(1,2,5)a;", "--params", str(params)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: leaf 5 is not in 1..3")
        assert "labelled 1..n" in err


class TestVerify:
    def test_secant_suite_passes(self, capsys):
        code, data = run_json(capsys, "verify", "secant", "--n", "4", "--seed", "7", "--trials", "2")
        assert code == 0
        assert data["passed"] is True
        assert data["counts"]["failed"] == 0

    def test_weisner_suite_passes(self, capsys):
        code, data = run_json(capsys, "verify", "weisner", "--family", "full", "--n", "4")
        assert code == 0
        assert data["passed"] is True

    def test_conditions_failure_reports_witness(self, capsys):
        code, data = run_json(
            capsys, "verify", "conditions", "--family", "onecluster", "--n", "4", "--which", "C3"
        )
        assert code == 1
        row = data["results"][0]
        assert row["holds"] is False
        assert row["witness"]

    def test_conditions_expectation_flag(self, capsys):
        code, data = run_json(
            capsys,
            "verify", "conditions", "--family", "onecluster", "--n", "4", "--which", "C3",
            "--expect", "false",
        )
        assert code == 0
        assert data["passed"] is True

    def test_gmm_suite(self, capsys):
        code, data = run_json(capsys, "verify", "gmm", "--seed", "3", "--trials", "1")
        assert code == 0
        assert data["passed"] is True

    def test_hmm_suite(self, capsys):
        code, data = run_json(capsys, "verify", "hmm", "--n", "3", "--seed", "5", "--trials", "1")
        assert code == 0
        assert data["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["hmm", "--n", "13"],
            ["secant", "--n", "13"],
            ["gmm", "--tree", "caterpillar13"],
            ["split-binomials", "--tree", "caterpillar13"],
        ],
        ids=["hmm", "secant", "gmm", "split-binomials"],
    )
    def test_oversized_suite_is_refused_before_any_trial(self, capsys, monkeypatch, argv):
        import time

        monkeypatch.delenv("LCUM_CAPACITY", raising=False)
        start = time.perf_counter()
        assert main(["verify", *argv, "--trials", "1"]) == 2
        assert time.perf_counter() - start < 3
        assert capsys.readouterr().err.rstrip().endswith("of 13 exceeds the cap of 12")

    @pytest.mark.parametrize("extra", [["--n", "0", "--trials", "0"], ["--trials", "-1"]], ids=["n0", "negative-trials"])
    def test_hmm_bad_sizes_are_usage_errors(self, capsys, extra):
        assert main(["verify", "hmm", *extra]) == 2
        assert capsys.readouterr().err.startswith("error: verify hmm needs")

    def test_split_binomials_suite(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(GMM_PARAMS))
        code, data = run_json(
            capsys, "verify", "split-binomials", "--tree", "quartet", "--params", str(params)
        )
        assert code == 0
        assert data["passed"] is True

    def test_unknown_suite(self, capsys):
        assert main(["verify", "nonsense"]) == 2

    def test_byte_identical_reports(self, capsys):
        _, first = run(capsys, "verify", "secant", "--n", "3", "--seed", "11", "--trials", "2")
        _, second = run(capsys, "verify", "secant", "--n", "3", "--seed", "11", "--trials", "2")
        assert first == second

    def test_jobs_do_not_change_bytes(self, capsys):
        _, solo = run(capsys, "verify", "hmm", "--n", "3", "--seed", "2", "--trials", "2")
        _, multi = run(capsys, "verify", "hmm", "--n", "3", "--seed", "2", "--trials", "2", "--jobs", "2")
        assert solo == multi

    @pytest.mark.parametrize("requested, cpus, expected", [("64", 2, [2]), ("2", 4, [2]), ("8", 1, [])])
    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch, requested, cpus, expected):
        import multiprocessing

        started = []

        class InProcessPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        _, solo = run(capsys, "verify", "hmm", "--n", "3", "--seed", "2", "--trials", "2")
        _, pooled = run(capsys, "verify", "hmm", "--n", "3", "--seed", "2", "--trials", "2", "--jobs", requested)
        assert started == expected
        assert pooled == solo

    def test_timing_flag_adds_field(self, capsys):
        code, data = run_json(
            capsys, "verify", "weisner", "--family", "interval", "--n", "3", "--timing"
        )
        assert code == 0
        assert "timing_seconds" in data

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "weisner", "--family", "interval", "--n", "3", "-o", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True


LEAF_ROOT_PARAMS = {
    "root": "1",
    "root_dist": ["2/5", "3/5"],
    "edges": [
        {"u": "1", "v": "h1", "table": [["3/4", "1/4"], ["1/3", "2/3"]]},
        {"u": "h1", "v": "2", "table": [["5/6", "1/6"], ["2/7", "5/7"]]},
        {"u": "h1", "v": "h2", "table": [["1/2", "1/2"], ["1/5", "4/5"]]},
        {"u": "h2", "v": "3", "table": [["7/8", "1/8"], ["3/8", "5/8"]]},
        {"u": "h2", "v": "h3", "table": [["2/3", "1/3"], ["1/4", "3/4"]]},
        {"u": "h3", "v": "4", "table": [["4/5", "1/5"], ["1/6", "5/6"]]},
        {"u": "h3", "v": "5", "table": [["3/5", "2/5"], ["2/9", "7/9"]]},
    ],
}

DEGREE_FOUR_PARAMS = {
    "root": "a",
    "root_dist": ["1/3", "2/3"],
    "edges": [
        {"u": "a", "v": "1", "table": [["3/4", "1/4"], ["1/3", "2/3"]]},
        {"u": "a", "v": "2", "table": [["5/6", "1/6"], ["2/7", "5/7"]]},
        {"u": "a", "v": "r", "table": [["1/2", "1/2"], ["1/5", "4/5"]]},
        {"u": "r", "v": "3", "table": [["7/8", "1/8"], ["3/8", "5/8"]]},
        {"u": "r", "v": "4", "table": [["2/3", "1/3"], ["1/4", "3/4"]]},
        {"u": "r", "v": "b", "table": [["4/5", "1/5"], ["1/6", "5/6"]]},
        {"u": "b", "v": "5", "table": [["3/5", "2/5"], ["2/9", "7/9"]]},
        {"u": "b", "v": "6", "table": [["1/2", "1/2"], ["1/9", "8/9"]]},
    ],
}

_WEIGHT_TOTAL = sum(1 + a + 2 * b + 3 * c for a in range(3) for b in range(2) for c in range(2))
VALUED_TABLE = {
    "arities": [3, 2, 2],
    "system": "probabilities",
    "values": [["-1", "1/2", "3"], ["0", "2"], ["-2/3", "5"]],
    "table": {
        f"{a},{b},{c}": f"{1 + a + 2 * b + 3 * c}/{_WEIGHT_TOTAL}" for a in range(3) for b in range(2) for c in range(2)
    },
}

RELABELLED_CATERPILLAR = "(4,2,(6,(1,(3,5)h4)h3)h2)h1;"
DEGREE_FOUR_TREE = "((1,2)a,3,4,(5,6)b)r;"


class TestGoldenBytes:
    """Output digests recorded before the moment maps and the GMM law became per-axis and upward passes.

    ``verify gmm`` needs a trivalent tree for its closed form, so the
    degree-4 tree is pinned through ``verify split-binomials`` and
    ``model gmm`` instead.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["verify", "gmm", "--tree", RELABELLED_CATERPILLAR, "--trials", "2"],
                "e7b710fa40a5f50e6b74cb872badfcc9601e8e74b21d89e9a0e1985dd1077c45",
            ),
            (
                ["verify", "split-binomials", "--tree", DEGREE_FOUR_TREE, "--seed", "3"],
                "14c068d6d4beb7e49a245d3b4719f03074ef2bf6a5d03a76c5c5283693583ce7",
            ),
            (
                ["model", "gmm", "--tree", DEGREE_FOUR_TREE, "--params", "degree4.json", "--emit", "distribution"],
                "742df9e82a8e48627d2e9637316036eba134c9e444b2a4a4ead065e99c109420",
            ),
            (
                ["verify", "hmm", "--n", "7", "--trials", "1"],
                "600d05a3a314153bb51dbde0b410c482ace31059b3635febf5e8cb6dfc81c7c3",
            ),
            (
                ["verify", "secant", "--n", "6", "--trials", "1"],
                "403e59615207f976d62fa6a7b442f7bbda5843f7812835eeac3dd39d48bb992b",
            ),
            (
                ["verify", "split-binomials", "--tree", "caterpillar5", "--params", "params.json"],
                "75cf006f36f47498c6be0a943200df66a3e25e88341d5c384d58dc43f8389d3c",
            ),
            (
                ["model", "gmm", "--tree", "caterpillar5", "--params", "params.json", "--emit", "distribution"],
                "44c9cd28bd51762b4f0aaab2bd82788acee25982ea970084fbd000ce44bdc31f",
            ),
            (
                ["transform", "-i", "valued.json", "--to", "central_moments"],
                "936dbe6497bf2ffb12cb0731a7d0e62162dcc054c2b9a79289b4848ca92ced48",
            ),
        ],
        ids=[
            "verify-gmm-relabelled-caterpillar",
            "verify-split-binomials-degree-four",
            "model-gmm-degree-four",
            "verify-hmm-n7",
            "verify-secant-n6",
            "verify-split-binomials-leaf-root",
            "model-gmm-leaf-root",
            "transform-central-moments-values",
        ],
    )
    def test_stdout_digest(self, capsys, tmp_path, monkeypatch, argv, digest):
        # Relative paths: the verify report echoes its options.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "params.json").write_text(json.dumps(LEAF_ROOT_PARAMS))
        (tmp_path / "degree4.json").write_text(json.dumps(DEGREE_FOUR_PARAMS))
        (tmp_path / "valued.json").write_text(json.dumps(VALUED_TABLE))
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
