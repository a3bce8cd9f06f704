import hashlib
import importlib.util
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import lcumulants.lattice
from lcumulants.cli import main
from lcumulants.commands import WEISNER_FIBRE_LIMIT, _max_diff
from lcumulants.lattice import Family
from lcumulants.topology import from_newick, to_newick


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

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("(1,2", "missing ')' for 1 open '(': the input ends at offset 4"),
            ("(1,(2,3)b", "missing ')' for 1 open '(': the input ends at offset 9"),
            ("((1,", "missing ')' for 2 open '(': the input ends at offset 4"),
            (";", "missing a node: the input ends at offset 0"),
            ("   ", "missing a node: the input ends at offset 0"),
        ],
    )
    def test_newick_that_ends_early(self, text, fault, capsys):
        assert main(["lattice", "--family", "tree", "--tree", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse tree {text.strip()!r}: {fault}")
        assert "index out of range" not in err

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("(1(2,3)a)r;", "expected ',' or ')' after a child, found '(' at offset 2"),
            ("((1,2)a(3,4)b)r;", "expected ',' or ')' after a child, found '(' at offset 7"),
        ],
    )
    def test_newick_siblings_need_a_comma(self, text, fault, capsys):
        assert main(["lattice", "--family", "tree", "--tree", text]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot parse tree {text!r}: {fault}")

    def test_deeply_nested_newick(self, capsys):
        text = "(" * 3000 + "1,2" + ")" * 3000
        assert main(["lattice", "--family", "tree", "--tree", text]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse tree")

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("((1,2)a,(3,4)a)r;", "repeated label 'a'"),
            ("(1,1,2)r;", "repeated label '1'"),
            ("(1 2,3)r;", "childless label '1 2' is not an integer leaf"),
            ("(1,2,x)r;", "childless label 'x' is not an integer leaf"),
            ("(1,\u00b2)r;", "childless label '\u00b2' is not an integer leaf"),
        ],
        ids=["inner-name", "leaf", "two-tokens", "letter", "superscript-digit"],
    )
    def test_newick_label_that_names_no_one_node(self, text, fault, capsys):
        assert main(["lattice", "--family", "tree", "--tree", text]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot parse tree {text!r}: {fault}")

    def test_generated_names_avoid_the_given_ones(self, capsys):
        text = "((1,2),(3,4)v0)r;"
        tree = from_newick(text)
        assert len(tree.inner_nodes()) == 3
        assert from_newick(to_newick(tree)) == tree
        code, data = run_json(capsys, "lattice", "--family", "tree", "--tree", text)
        _, quartet = run_json(capsys, "lattice", "--family", "tree", "--tree", "quartet")
        assert code == 0
        assert data["elements"] == quartet["elements"]

    def test_a_tree_dump_checks_a_given_n(self, capsys):
        _, quartet = run(capsys, "lattice", "--family", "tree", "--tree", "quartet")
        assert run(capsys, "lattice", "--family", "tree", "--tree", "quartet", "--n", "4") == (0, quartet)
        for n in ("3", "5"):
            assert main(["lattice", "--family", "tree", "--tree", "quartet", "--n", n]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --n {n} does not match the 4 leaves of the tree\n"

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

    def test_a_dump_over_the_element_limit_is_refused(self, capsys, monkeypatch):
        # Counted from the first-block tables: no element is built.
        def refuse(*args, **kwargs):
            raise AssertionError("the weight table was read")

        monkeypatch.setattr(lcumulants.lattice, "mobius_weights", refuse)
        start = time.perf_counter()
        assert main(["lattice", "--family", "full", "--n", "12"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the full lattice has 4213597 elements, above the dump limit of 1000000\n"


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

    def test_moments_that_give_no_table(self, capsys, tmp_path):
        # The inverse moment map gives a table summing to m(0) = 1/2: a usage
        # error, with the text DiscreteDistribution gives on that table.
        payload = {"arities": [2, 2], "system": "moments", "table": {"0,0": "1/2", "0,1": "1/3", "1,0": "1/4", "1,1": "1/12"}}
        path = tmp_path / "mv.json"
        path.write_text(json.dumps(payload))
        assert main(["transform", "-i", str(path), "--to", "probabilities"]) == 2
        assert capsys.readouterr().err == "error: table sums to 1/2, not 1\n"

    def test_moments_of_a_signed_table(self, capsys, tmp_path):
        # The CLI reads every table as algebraic, so negative masses are printed.
        payload = {"arities": [2, 2], "system": "moments", "table": {"0,0": "1", "0,1": "1/3", "1,0": "1/4", "1,1": "1/2"}}
        path = tmp_path / "mv.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, "transform", "-i", str(path), "--to", "probabilities")
        assert code == 0
        assert data["table"] == {"0,0": "11/12", "0,1": "-1/6", "1,0": "-1/4", "1,1": "1/2"}

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

    def test_signed_rationals_after_a_space(self, capsys):
        glued = run(capsys, "model", "secant", "--n", "2", "--t=-2/7", "--a", "1,2", "--b=-1/3,4")
        spaced = run(capsys, "model", "secant", "--n", "2", "--t", "-2/7", "--a", "1,2", "--b", "-1/3,4")
        assert glued[0] == 0 and spaced == glued

    def test_unknown_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["model", "secant", "--n", "2", "--t", "-2/7", "--a", "1,2", "--b", "3,4", "--c", "-1"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("emit", ["distribution", "treecumulants"])
    @pytest.mark.parametrize(
        "change, named",
        [
            ({"transitions": [["3/2", "1/4"], ["1/3", "3/5"]]}, "entry 0 of the transition row 1 is 3/2"),
            ({"initial": ["-1/2", "3/2"]}, "entry 0 of the initial distribution is -1/2"),
            (
                {"emissions": [[["3/2", "-1/2"], ["1/6", "5/6"]], *HMM_PARAMS["emissions"][1:]]},
                "entry 0 of the emission row 0 of variable 1 is 3/2",
            ),
            ({"initial": ["1/3", "1/3", "1/3"]}, "the initial distribution has 3 entries, not 2"),
            ({"transitions": [["1/4", "2/3", "0"], ["1/3", "3/5"]]}, "the transition row 1 has 3 entries, not 2"),
        ],
        ids=["transition-above-one", "initial-negative", "emission-outside", "initial-three", "transition-three"],
    )
    def test_chain_that_is_not_a_probability_model(self, capsys, tmp_path, change, named, emit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**HMM_PARAMS, **change}))
        assert main(["model", "hmm", "--params", str(bad), "--emit", emit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named}")

    def test_gmm_missing_edge_is_named(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({**GMM_PARAMS, "edges": GMM_PARAMS["edges"][1:]}))
        assert main(["model", "gmm", "--tree", "quartet", "--params", str(params)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no conditional table for the edge a -> 1\n"

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

    def test_bernoulli_cumulants_match_the_moment_recursion(self):
        # Every moment of a Bernoulli(t) variable is t, so kappa_d is
        # t - sum_k C(d-1, k-1) kappa_k t over k < d.
        from math import comb

        from lcumulants.commands import _bernoulli_cumulants

        for t in (Fraction(0), Fraction(1, 2), Fraction(2, 7), Fraction(-3, 5)):
            kappa = []
            for d in range(1, 11):
                kappa.append(t - sum(comb(d - 1, k - 1) * kappa[k - 1] * t for k in range(1, d)))
            assert _bernoulli_cumulants(t, 10) == kappa
            assert kappa[3] == t * (1 - t) * (6 * t**2 - 6 * t + 1)

    @pytest.mark.parametrize("state", [(0, 0, 1, 0, 0), (1, 1, 1, 1, 1)], ids=["mean", "order-five"])
    def test_secant_coefficient_row_reads_every_order(self, capsys, monkeypatch, state):
        # One mean or one order-five cumulant off by 1/11 fails the row.
        import lcumulants.commands

        exact = lcumulants.commands.classical_cumulants

        def off_at_one_state(mv, capacity):
            kv = exact(mv, capacity)
            entries = dict(kv.entries)
            entries[state] += Fraction(1, 11)
            return type(kv)(kv.space, kv.system, entries, family=kv.family)

        monkeypatch.setattr(lcumulants.commands, "classical_cumulants", off_at_one_state)
        code, data = run_json(capsys, "verify", "secant", "--n", "5", "--trials", "1")
        assert code == 1
        assert [(row["check"], row["residual"]) for row in data["results"] if not row["pass"]] == [
            ("trial 0: cumulant coefficients", "1/11")
        ]

    def test_weisner_suite_passes(self, capsys):
        code, data = run_json(capsys, "verify", "weisner", "--family", "full", "--n", "4")
        assert code == 0
        assert data["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [["--family", kind, "--n", "1"] for kind in ("full", "noncrossing", "interval", "onecluster")]
        + [["--family", "tree", "--tree", "(1)r;"]],
        ids=["full", "noncrossing", "interval", "onecluster", "one-leaf-tree"],
    )
    def test_weisner_on_one_element_checks_nothing(self, capsys, argv):
        assert main(["verify", "weisner", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a one-element lattice has no meet-fiber sum to check\n"

    def test_weisner_over_the_fibre_limit_is_refused(self, capsys, monkeypatch):
        # Counted from the first-block tables: no weight is built.
        def refuse(*args, **kwargs):
            raise AssertionError("the weight table was read")

        monkeypatch.setattr(lcumulants.lattice, "mobius_weights", refuse)
        start = time.perf_counter()
        assert main(["verify", "weisner", "--family", "full", "--n", "8"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the full lattice has 17135460 meet-fiber sums to check, above the limit of 5000000\n"
        )

    @pytest.mark.parametrize("kind, n", [("full", 7), ("noncrossing", 8)])
    def test_weisner_fibre_limit_admits(self, kind, n):
        count = lcumulants.lattice.element_count(Family(kind), n)
        assert (count - 1) * count <= WEISNER_FIBRE_LIMIT

    def test_weisner_fibre_limit_admits_the_benchmark_jobs(self, capsys, monkeypatch):
        spec = importlib.util.spec_from_file_location("jobs", Path(__file__).parent.parent / "perfbench" / "jobs.py")
        jobs = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "jobs", jobs)  # its dataclasses look their module up there
        spec.loader.exec_module(jobs)
        weisner = [
            job.argv
            for workload in jobs.WORKLOADS
            for job in jobs.draw(workload, 0)
            if job.argv[:2] == ["verify", "weisner"]
        ]
        assert weisner
        for argv in weisner:
            assert main(argv) == 0, argv
        capsys.readouterr()

    def test_conditions_failure_reports_witness(self, capsys):
        code, data = run_json(
            capsys, "verify", "conditions", "--family", "onecluster", "--n", "4", "--which", "C3"
        )
        assert code == 1
        row = data["results"][0]
        assert row["holds"] is False
        assert row["witness"]

    @pytest.mark.parametrize(
        "argv, witness",
        [
            (["--n", "7"], "size 7 above the exhaustive-check limit"),
            (["--family", "tree", "--tree", "caterpillar6"], "tree with 6 leaves exceeds the requested size 4"),
            (["--n", "0"], "size 0 leaves no ground set to check"),
            (["--n", "-3"], "size -3 leaves no ground set to check"),
        ],
        ids=["above-the-check-limit", "tree-wider-than-n", "zero-size", "negative-size"],
    )
    def test_conditions_checked_nothing_is_a_usage_error(self, capsys, argv, witness):
        assert main(["verify", "conditions", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {witness}\n"

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["--family", "full"], 0, "f07d2f56fb216b670151e76df4e1698027876d2fac7e6c2ab78d57fb034856c8"),
            (["--family", "noncrossing"], 1, "2ec8368433d81bc6566874c3687c64dacd2a79858cb412de53a898a2f3030351"),
            (["--family", "interval"], 1, "86ec35198d0399f0208ab05ae7b50f376841df63f2b5e8ca3971be2a393f3e8f"),
            (["--family", "onecluster"], 1, "411349d8e44b3b6a46d1c8813a85b4ab27e889cbc3c168b1fb0d3c056b53300a"),
            (
                ["--family", "tree", "--tree", "caterpillar6"],
                1,
                "845e27baa7ac43d7850232ce2b317bd3f77f230b2db56c47db47890b2b103984",
            ),
            (
                ["--family", "tree", "--tree", "(2,3,(1,(6,(5,4)h4)h3)h2)h1;"],
                1,
                "aa2e4644ad42c5130ddf9b9c86bf63355be04d234b0dcc3fdde9b57cc7a3927c",
            ),
        ],
        ids=["full", "noncrossing", "interval", "onecluster", "caterpillar6", "relabelled-caterpillar6"],
    )
    def test_conditions_bytes(self, capsys, argv, code, digest):
        got, out = run(capsys, "verify", "conditions", *argv, "--n", "6")
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("tree", ["star5", "(1,(2,3,4,5)a,6)r;"], ids=["star5", "degree-five-inner"])
    def test_gmm_suite_on_an_unresolved_tree(self, capsys, tree):
        # The closed form runs in the coordinates of the trivalent refinement.
        code, data = run_json(capsys, "verify", "gmm", "--tree", tree, "--trials", "1")
        assert code == 0
        assert data["passed"] is True

    def test_hmm_suite(self, capsys):
        code, data = run_json(capsys, "verify", "hmm", "--n", "3", "--seed", "5", "--trials", "1")
        assert code == 0
        assert data["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["hmm", "--n", "13", "--trials", "1"],
            ["secant", "--n", "13", "--trials", "1"],
            ["gmm", "--tree", "caterpillar13", "--trials", "1"],
            ["split-binomials", "--tree", "caterpillar13"],
        ],
        ids=["hmm", "secant", "gmm", "split-binomials"],
    )
    def test_oversized_suite_is_refused_before_any_trial(self, capsys, monkeypatch, argv):
        import time

        monkeypatch.delenv("LCUM_CAPACITY", raising=False)
        start = time.perf_counter()
        assert main(["verify", *argv]) == 2
        assert time.perf_counter() - start < 3
        assert capsys.readouterr().err.rstrip().endswith("of 13 exceeds the cap of 12")

    @pytest.mark.parametrize("verb", ["secant", "hmm", "gmm"])
    def test_oversized_model_is_refused_before_any_work(self, capsys, monkeypatch, tmp_path, verb):
        # Valid 13-variable parameters: without the check each verb would
        # build (and print) the whole 2^13 box.
        import time

        from lcumulants.topology import caterpillar

        monkeypatch.delenv("LCUM_CAPACITY", raising=False)
        params = tmp_path / "p.json"
        if verb == "secant":
            argv = ["--n", "13", "--t", "1/3", "--a", ",".join(["1/2"] * 13), "--b", ",".join(["1/5"] * 13)]
        elif verb == "hmm":
            chain = dict(HMM_PARAMS, arities=[2] * 13)
            chain.update(transitions=HMM_PARAMS["transitions"][:1] * 12, emissions=HMM_PARAMS["emissions"][:1] * 13)
            params.write_text(json.dumps(chain))
            argv = ["--params", str(params), "--emit", "treecumulants"]
        else:
            tree = caterpillar(13)
            edges = [{"u": u, "v": v, "table": [["3/4", "1/4"], ["1/5", "4/5"]]} for v, u in tree.parent_map().items()]
            params.write_text(json.dumps({"root": "h1", "root_dist": ["2/3", "1/3"], "edges": edges}))
            argv = ["--tree", "caterpillar13", "--params", str(params), "--emit", "treecumulants"]
        start = time.perf_counter()
        assert main(["model", verb, *argv]) == 2
        assert time.perf_counter() - start < 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip().endswith("of 13 exceeds the cap of 12")

    @pytest.mark.parametrize(
        "suite, extra",
        [
            ("hmm", ["--n", "0", "--trials", "0"]),
            ("hmm", ["--n", "1", "--trials", "1"]),
            ("hmm", ["--trials", "-1"]),
            ("secant", ["--n", "4", "--trials", "0"]),
            ("secant", ["--n", "4", "--trials", "-2"]),
            ("gmm", ["--trials", "0"]),
            ("gmm", ["--trials", "-1"]),
            ("gmm", ["--tree", "(1)r;", "--trials", "1"]),
            ("split-binomials", ["--tree", "(1)r;"]),
        ],
        ids=["hmm-n0", "hmm-n1", "hmm-negative-trials", "secant-zero-trials", "secant-negative-trials",
             "gmm-zero-trials", "gmm-negative-trials", "gmm-one-leaf", "split-binomials-one-leaf"],
    )
    def test_bad_sizes_are_usage_errors(self, capsys, suite, extra):
        assert main(["verify", suite, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: verify {suite} needs")

    @pytest.mark.parametrize("tree, leaves", [("quartet", 4), ("caterpillar5", 5)])
    @pytest.mark.parametrize(
        "suite", [["weisner", "--family", "tree"], ["gmm", "--trials", "1"], ["split-binomials"]], ids=lambda s: s[0]
    )
    def test_a_tree_suite_checks_a_given_n(self, capsys, suite, tree, leaves):
        # Without --n the report shows the default n of 4, whatever the tree.
        argv = ["verify", *suite, "--tree", tree]
        code, bare = run(capsys, *argv)
        assert code == 0
        assert json.loads(bare)["options"]["n"] == 4
        code, given = run(capsys, *argv, "--n", str(leaves))
        assert code == 0
        assert json.loads(given)["results"] == json.loads(bare)["results"]
        if leaves == 4:
            assert given == bare
        for n in (leaves - 1, leaves + 1):
            assert main([*argv, "--n", str(n)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --n {n} does not match the {leaves} leaves of the tree\n"

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

    @pytest.mark.parametrize(
        "suite, unread",
        [
            (["secant", "--n", "4", "--trials", "1"], ["--family", "noncrossing"]),
            (["hmm", "--n", "3", "--trials", "1"], ["--tree", "quartet"]),
            (["gmm", "--tree", "quartet", "--trials", "1"], ["--which", "C0"]),
            (["weisner", "--family", "full", "--n", "3"], ["--trials", "2"]),
            (["conditions", "--family", "full", "--n", "3"], ["--seed", "1"]),
            (["split-binomials", "--tree", "quartet"], ["--jobs", "1"]),
        ],
        ids=lambda arg: arg[0],
    )
    def test_an_option_the_suite_does_not_read_is_refused(self, capsys, suite, unread):
        assert main(["verify", *suite, *unread]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verify {suite[0]} does not read {unread[0]}\n"

    def test_every_unread_option_is_named(self, capsys):
        argv = ["verify", "secant", "--n", "4", "--trials", "1", "--family", "noncrossing", "--tree", "quartet"]
        assert main([*argv, "--which", "C0"]) == 2
        assert capsys.readouterr().err == "error: verify secant does not read --family, --tree, --which\n"

    @pytest.mark.parametrize(
        "suite, defaults",
        [
            (["secant", "--n", "4", "--trials", "1"], ["--family", "full"]),
            (["weisner", "--family", "noncrossing", "--n", "3"], ["--seed", "0", "--trials", "5"]),
            (["split-binomials", "--tree", "quartet"], ["--trials", "5", "--family", "full"]),
        ],
        ids=lambda arg: arg[0],
    )
    def test_an_unread_option_at_its_default_is_accepted(self, capsys, suite, defaults):
        code, bare = run(capsys, "verify", *suite)
        assert code == 0
        assert run(capsys, "verify", *suite, *defaults) == (0, bare)

    def test_byte_identical_reports(self, capsys):
        _, first = run(capsys, "verify", "secant", "--n", "3", "--seed", "11", "--trials", "2")
        _, second = run(capsys, "verify", "secant", "--n", "3", "--seed", "11", "--trials", "2")
        assert first == second

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_are_refused_before_any_trial(self, capsys, monkeypatch, jobs):
        def refuse(item):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("lcumulants.commands._hmm_trial", refuse)
        assert main(["verify", "hmm", "--n", "3", "--trials", "1", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be at least 1, not {jobs}\n"

    @pytest.mark.parametrize(
        "suite",
        [["hmm", "--n", "3"], ["gmm", "--tree", "caterpillar5"], ["secant", "--n", "5"]],
        ids=["hmm", "gmm", "secant"],
    )
    def test_jobs_do_not_change_bytes(self, capsys, suite):
        # The workers run the integer model laws; their rows must merge into the same report.
        _, solo = run(capsys, "verify", *suite, "--seed", "2", "--trials", "2")
        _, multi = run(capsys, "verify", *suite, "--seed", "2", "--trials", "2", "--jobs", "2")
        assert solo == multi

    @pytest.mark.parametrize(
        "requested, cpus, affinity, expected",
        [
            ("64", 2, 2, [2]),
            ("2", 4, 4, [2]),
            ("8", 1, 1, []),
            ("4", 4, 1, []),  # taskset -c 0 on a 4-CPU machine
            ("4", 8, 3, [3]),
            ("64", 2, None, [2]),  # no affinity mask on the platform: the CPU count
            ("8", 1, None, []),
        ],
    )
    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch, requested, cpus, affinity, expected):
        import multiprocessing
        import os

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
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
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

RELABELLED_PARAMS = {
    "root_dist": ["3/7", "4/7"],
    "edges": [
        {"u": "h1", "v": "4", "table": [["2/3", "1/3"], ["1/5", "4/5"]]},
        {"u": "h1", "v": "2", "table": [["3/4", "1/4"], ["2/9", "7/9"]]},
        {"u": "h1", "v": "h2", "table": [["5/8", "3/8"], ["1/6", "5/6"]]},
        {"u": "h2", "v": "6", "table": [["4/7", "3/7"], ["1/3", "2/3"]]},
        {"u": "h2", "v": "h3", "table": [["9/10", "1/10"], ["2/5", "3/5"]]},
        {"u": "h3", "v": "1", "table": [["1/2", "1/2"], ["1/8", "7/8"]]},
        {"u": "h3", "v": "h4", "table": [["5/6", "1/6"], ["3/10", "7/10"]]},
        {"u": "h4", "v": "3", "table": [["7/9", "2/9"], ["1/4", "3/4"]]},
        {"u": "h4", "v": "5", "table": [["3/5", "2/5"], ["1/7", "6/7"]]},
    ],
}

MIXED_ARITY_HMM = {
    "arities": [3, 2, 4, 2],
    "values": [["-1", "1/2", "3"], ["0", "2"], ["-2", "0", "1/3", "5"], ["7", "-1/4"]],
    "initial": ["2/5", "3/5"],
    "transitions": [["1/4", "2/3"], ["1/3", "3/5"], ["5/7", "1/6"]],
    "emissions": [
        [["1/2", "1/3", "1/6"], ["1/8", "0", "7/8"]],
        [["2/3", "1/3"], ["1/5", "4/5"]],
        [["1/4", "1/4", "1/4", "1/4"], ["1/10", "2/5", "3/10", "1/5"]],
        [["5/9", "4/9"], ["1/7", "6/7"]],
    ],
}

TWELVE_MIXED_ARITY_HMM = {
    "arities": [2, 3] * 6,
    "values": [
        ["-1", "2"],
        ["0", "1/2", "3"],
        ["1/3", "-2"],
        ["-1", "1", "5/2"],
        ["2", "7"],
        ["0", "1", "4"],
        ["-3/2", "1/2"],
        ["1/5", "2/5", "-1"],
        ["0", "3"],
        ["-2", "0", "2"],
        ["1", "1/4"],
        ["3", "-1/3", "0"],
    ],
    "initial": ["2/5", "3/5"],
    "transitions": [
        ["1/3", "3/4"],
        ["1/5", "2/3"],
        ["1/2", "5/7"],
        ["2/9", "4/5"],
        ["1/4", "1/2"],
        ["3/8", "5/6"],
        ["1/6", "7/9"],
        ["2/5", "3/5"],
        ["1/7", "6/7"],
        ["3/10", "2/3"],
        ["1/3", "1/2"],
    ],
    "emissions": [
        [["1/3", "2/3"], ["3/4", "1/4"]],
        [["1/2", "1/4", "1/4"], ["1/6", "1/3", "1/2"]],
        [["2/5", "3/5"], ["5/6", "1/6"]],
        [["1/3", "1/3", "1/3"], ["1/8", "3/8", "1/2"]],
        [["1/7", "6/7"], ["1/2", "1/2"]],
        [["0", "1/2", "1/2"], ["2/3", "1/6", "1/6"]],
        [["3/5", "2/5"], ["1/9", "8/9"]],
        [["1/4", "1/2", "1/4"], ["1/5", "1/5", "3/5"]],
        [["5/8", "3/8"], ["1/3", "2/3"]],
        [["1/10", "3/10", "3/5"], ["1/2", "0", "1/2"]],
        [["4/7", "3/7"], ["2/9", "7/9"]],
        [["1/3", "1/6", "1/2"], ["3/4", "1/8", "1/8"]],
    ],
}

SIGNED_SECANT = [
    "--n", "6", "--t=-2/7", "--a", "1/2,-3,5/4,0,-1/6,2", "--b=-1/3,4,1/5,-7/2,3,-1",
]


class TestMaxDiff:
    def test_only_unequal_pairs_are_subtracted(self):
        class Opaque:
            """Equal to itself only, and never subtracted."""

            def __sub__(self, other):
                raise AssertionError("an equal pair was subtracted")

        same = Opaque()
        left = {1: same, 2: Fraction(1, 3), 3: Fraction(-1, 2)}
        right = {1: same, 2: Fraction(1, 4), 3: Fraction(1, 2)}
        assert _max_diff(left, right) == 1
        assert str(_max_diff({1: same, 2: Fraction(2, 3)}, {1: same, 2: Fraction(2, 3)})) == "0"


class TestGoldenBytes:
    """Output digests recorded before the moment maps and the model laws became per-axis and upward passes.

    The degree-4 tree is pinned through ``verify split-binomials`` and
    ``model gmm``: ``verify gmm`` refused unresolved trees when these were
    recorded.  The twelve-variable chain's closed form was recorded before
    it became a pass over the hidden chain as a latent tree.
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
                ["verify", "secant", "--n", "9", "--trials", "1"],
                "4cd47e0c026bf59a845fad8ece826019e0b75fc606e98b2f14d77c209971b9a1",
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
            (
                ["model", "hmm", "--params", "mixed.json", "--emit", "distribution"],
                "9b0838de1d86a5a957b25922cab86a4988969591cebd173dab46f5fb1c9d19b7",
            ),
            (
                ["model", "hmm", "--params", "mixed.json", "--emit", "treecumulants"],
                "ebaad82c76962b6816f2e66f11169543f5a61933018b97ff481f5a47a2f263df",
            ),
            (
                ["model", "hmm", "--params", "twelve.json", "--emit", "treecumulants"],
                "08409ff61dad884ab64242ff7d1e554bf7b47c75e1c7a46350f4215b2b8085b0",
            ),
            (
                ["model", "secant", *SIGNED_SECANT, "--emit", "moments"],
                "a186cb5d4597e85595dca32fb4a7860985435f1ad85734f471f646574488d09c",
            ),
            (
                ["model", "gmm", "--tree", RELABELLED_CATERPILLAR, "--params", "relabelled.json", "--emit", "distribution"],
                "2e1ad46c772b0971327c37a2ec9f07cf673c121174b1f8d22de6ad730dd4209d",
            ),
        ],
        ids=[
            "verify-gmm-relabelled-caterpillar",
            "verify-split-binomials-degree-four",
            "model-gmm-degree-four",
            "verify-hmm-n7",
            "verify-secant-n6",
            "verify-secant-n9",
            "verify-split-binomials-leaf-root",
            "model-gmm-leaf-root",
            "transform-central-moments-values",
            "model-hmm-mixed-arity",
            "model-hmm-mixed-arity-treecumulants",
            "model-hmm-twelve-mixed-arity-treecumulants",
            "model-secant-signed",
            "model-gmm-relabelled-caterpillar",
        ],
    )
    def test_stdout_digest(self, capsys, tmp_path, monkeypatch, argv, digest):
        # Relative paths: the verify report echoes its options.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "params.json").write_text(json.dumps(LEAF_ROOT_PARAMS))
        (tmp_path / "degree4.json").write_text(json.dumps(DEGREE_FOUR_PARAMS))
        (tmp_path / "valued.json").write_text(json.dumps(VALUED_TABLE))
        (tmp_path / "mixed.json").write_text(json.dumps(MIXED_ARITY_HMM))
        (tmp_path / "twelve.json").write_text(json.dumps(TWELVE_MIXED_ARITY_HMM))
        (tmp_path / "relabelled.json").write_text(json.dumps(RELABELLED_PARAMS))
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCapacitySetting:
    """``LCUM_CAPACITY`` reaches every library call the CLI makes."""

    @pytest.mark.parametrize("raw", ["abc", "-3", "0", "3.5", "12x"])
    @pytest.mark.parametrize(
        "argv",
        [["lattice", "--family", "full", "--n", "3"], ["verify", "secant", "--n", "3", "--trials", "1"]],
        ids=["lattice", "verify"],
    )
    def test_a_malformed_or_non_positive_cap_is_a_usage_error(self, capsys, monkeypatch, raw, argv):
        monkeypatch.setenv("LCUM_CAPACITY", raw)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: LCUM_CAPACITY must be a positive integer, not {raw!r}\n"

    def test_an_empty_cap_is_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("LCUM_CAPACITY", "")
        assert main(["lattice", "--family", "interval", "--n", "12"]) == 0
        assert main(["lattice", "--family", "interval", "--n", "13"]) == 2
        assert capsys.readouterr().err.rstrip().endswith("exceeds the cap of 12")

    def test_transform_at_thirteen(self, capsys, monkeypatch, tmp_path):
        import itertools

        states = list(itertools.product(range(2), repeat=13))
        weights = [1 + (7 * i) % 20 for i in range(len(states))]
        table = {",".join(map(str, x)): str(Fraction(w, sum(weights))) for x, w in zip(states, weights)}
        source, there, back = tmp_path / "p.json", tmp_path / "there.json", tmp_path / "back.json"
        source.write_text(json.dumps({"arities": [2] * 13, "system": "probabilities", "table": table}))
        monkeypatch.setenv("LCUM_CAPACITY", "13")
        for target, family in [("lcumulants", ["--family", "full"]), ("classical_cumulants", [])]:
            assert main(["transform", "-i", str(source), "--to", target, *family, "-o", str(there)]) == 0
            assert main(["transform", "-i", str(there), "--to", "probabilities", *family, "-o", str(back)]) == 0
            assert json.loads(back.read_text())["table"] == table, target
        monkeypatch.delenv("LCUM_CAPACITY")
        assert main(["transform", "-i", str(source), "--to", "lcumulants", "--family", "full"]) == 2
        assert capsys.readouterr().err.rstrip().endswith("ground set of size 13 exceeds the cap of 12")

    def test_verify_hmm_at_thirteen(self, capsys, monkeypatch):
        monkeypatch.setenv("LCUM_CAPACITY", "13")
        code, data = run_json(capsys, "verify", "hmm", "--n", "13", "--trials", "1")
        assert code == 0
        assert data["passed"] is True

    def test_secant_calls_receive_the_cap(self, capsys, monkeypatch):
        # The split minors cannot finish at 13, so spy on the calls at 4.
        import inspect

        import lcumulants.commands

        seen = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                seen.append((fn.__name__, inspect.signature(fn).bind(*args, **kwargs).arguments.get("capacity")))
                return fn(*args, **kwargs)

            return wrapper

        for name in ["classical_cumulants", "subset_tree_cumulants"]:
            monkeypatch.setattr(lcumulants.commands, name, spy(getattr(lcumulants.commands, name)))
        monkeypatch.setenv("LCUM_CAPACITY", "5")
        code, data = run_json(capsys, "verify", "secant", "--n", "4", "--trials", "1")
        assert code == 0 and data["passed"] is True
        assert seen == [("classical_cumulants", 5), ("subset_tree_cumulants", 5)]
