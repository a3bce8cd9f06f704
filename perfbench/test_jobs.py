"""Invariants of the benchmark itself.

    python3 -m pytest perfbench

The seed must draw data and never the mix; the pins, the metric lists and
BENCHMARK.json must agree with the code that runs and reports them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import jobs
import run


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_two_seeds_give_the_same_mix_and_different_inputs(workload):
    first, second = jobs.draw(workload, 1), jobs.draw(workload, 2)
    # The spec carries verb, box, family, tree shape and trial count.
    assert [j.spec for j in first] == [j.spec for j in second]
    assert jobs.inputs_bytes(first) != jobs.inputs_bytes(second)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(workload):
    assert jobs.inputs_bytes(jobs.draw(workload, 7)) == jobs.inputs_bytes(jobs.draw(workload, 7))


def test_each_timed_pass_of_a_session_has_its_own_tables():
    streams = [jobs.inputs_bytes(jobs.draw("api-session", 3, jobs.timed_stream(i))) for i in range(3)]
    assert len(set(streams)) == 3
    assert streams[0] == jobs.inputs_bytes(jobs.draw("api-session", 3))


def test_inputs_do_not_depend_on_the_hash_seed():
    code = "import jobs, sys; sys.stdout.buffer.write(jobs.inputs_bytes(jobs.draw('api-session', 3)))"
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=run.BENCH, capture_output=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(outputs) == 1


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_job_is_pinned(workload):
    pinned = json.loads((run.BENCH / "expected.json").read_text())
    assert pinned["default_seed"] == run.DEFAULT_SEED
    assert set(pinned["jobs"][workload]) == {spec.id for spec in jobs.MIXES[workload]()}


def test_the_pass_count_depends_only_on_the_seconds():
    assert run.timed_passes("cli-batch", 0) == run.MIN_PASSES
    assert run.timed_passes("cli-batch", 90) == 10


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.metric_unit(name)) for name in run.PER_LAYER
    ]



@pytest.mark.parametrize("slow_type", [7, 11])
def test_one_slow_run_of_a_job_type_moves_no_percentile(slow_type):
    # Sixteen job types whose latencies lie far apart, three passes each:
    # the median falls between types 7 and 8, the 75th percentile on type 11.
    timed = [{"id": f"job-{k}", "latency_s": 0.1 * (k + 1)} for _ in range(3) for k in range(16)]
    steady, _ = run.end_to_end(timed, 1.0, [0.1], 10.0)
    timed[32 + slow_type]["latency_s"] *= 2
    slowed, context = run.end_to_end(timed, 1.0, [0.1], 10.0)
    assert (context["tail"]["percentile"], context["tail"]["jobs_beyond"]) == (75, 12)
    for name in ("job_p50_s", "job_tail_s"):
        assert slowed[name]["value"] == steady[name]["value"]
    assert slowed["jobs_per_s"]["value"] < steady["jobs_per_s"]["value"]
