"""Benchmark of lcumulants: three closed-loop workloads, checked, optionally traced.

    python3 perfbench/run.py --workload cli-batch|lattice-order|api-session \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the checkout's own ``src/``
(nothing needs to be installed) and exits with code 2 when there is none.
One client runs one job at a time, each job starting when the previous one
ends, so at most one job process is ever alive.

* ``cli-batch`` and ``lattice-order`` start one fresh
  ``python -m lcumulants.cli`` process per job.
* ``api-session`` runs its jobs inside long-lived processes
  (``session.py``) that import the library, warm up, then run passes.

``BENCHMARK.json`` gates ``cli-batch`` and ``api-session`` only, which
between them run every layer.  ``lattice-order`` stays runnable for its
trace, which isolates the cost of the explicit partition order; see
``baseline.json`` for why it is not gated.

The mixes are fixed in ``jobs.py``; ``--seed`` draws only their data.
Every job's output is checked: exit code, no traceback, the workload's own
checks (round trips, known condition outcomes) and, on the default seed,
the output digest pinned in ``expected.json``.  A job that takes longer
than ``jobs.JOB_TIMEOUT_S`` is killed and counts as failed.

With ``--trace 0`` the timed run makes a fixed number of whole passes over
the mix (see ``timed_passes``) and reports the end-to-end metrics over all
the jobs of those passes (see ``end_to_end``).  With ``--trace 1`` it
alternates untraced and traced passes (``jobs.TRACE_ROUNDS`` of each) and
reports the per-layer metrics of the traced passes (see ``tracer.py``) and
the tracing overhead.

The last line of stdout is the result; the line before it is the context
of the run (interpreter, CPUs, a spin-loop timing before and after, the
median latency of every job type, the tail percentile used).  The spin
loop is context only; no metric is scaled by it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import jobs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PYTHON = sys.executable
# A fixed hash seed removes set-iteration order as a source of noise;
# the reports are byte-identical under any hash seed.
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}

DEFAULT_SEED = 0
HARD_LIMIT_S = 170.0
# How long one timed pass over the mix took at the seed commit.  A timed
# run makes ``--seconds`` worth of these passes (see ``timed_passes``).
NOMINAL_PASS_S = {"cli-batch": 9.0, "lattice-order": 9.0, "api-session": 13.0}
# Every job type runs at least twice, and every library session gets a pass.
MIN_PASSES = 2
SETUP_PROBES_PER_PASS = 3
# The library workload spreads its timed passes over this many sessions;
# each session also gives one set-up sample, at the cost of a warm-up pass.
API_SESSIONS = 2

END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    "partition.all_partitions.calls",
    "partition.all_partitions.self_s",
    "partition.partitions_enumerated",
    "lattice.build.calls",
    "lattice.build.self_s",
    "lattice.elements_built",
    "lattice.order_pairs",
    "lattice.build_reuse_ratio",
    "lattice.weisner_sum.calls",
    "lattice.weisner_sum.self_s",
    "lattice.check_condition.calls",
    "lattice.check_condition.self_s",
    "lattice.to_json.self_s",
    "lcumulant.to_lcumulants.calls",
    "lcumulant.to_lcumulants.self_s",
    "lcumulant.from_lcumulants.calls",
    "lcumulant.from_lcumulants.self_s",
    "lcumulant.from_lcumulants.c0_check_s",
    "moments.moments_from_distribution.self_s",
    "moments.moments_from_distribution.box_pairs",
    "moments.distribution_from_moments.self_s",
    "moments.central_moments.self_s",
    "moments.central_moments_direct.self_s",
    "trees.tree_cumulants.self_s",
    "trees.subset_tree_cumulants.self_s",
    "trees.gmm_tree_cumulants.self_s",
    "models.gmm_distribution.self_s",
    "models.gmm_joint_states",
    "models.verify_split_binomials.self_s",
    "models.split_minors_checked",
    "models.hmm_distribution.self_s",
    "topology.induced_subtree.calls",
    "topology.induced_subtree.self_s",
    "cli.main.self_s",
    "cli.output_bytes",
    *(f"{layer}.self_s" for layer in tracer.LAYERS),
    "trace.overhead_ratio",
]


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- processes -------------------------------------------------------------------


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    timed_out: bool
    stdout: bytes
    stderr: bytes


def run_process(argv: list[str], out_path: Path, timeout: float) -> Proc:
    """Run one child to completion, killing it after ``timeout`` seconds.

    Wall time runs from just before the spawn to the reap.  The resident
    set is the child's own peak, from the ``wait4`` rusage.
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=ENV, cwd=ROOT)
    pidfd = os.pidfd_open(child.pid)
    timed_out = True
    try:
        timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
    finally:
        if timed_out:
            os.kill(child.pid, signal.SIGKILL)
        _, status, usage = os.wait4(child.pid, 0)
        os.close(pidfd)
    wall = time.monotonic() - start
    # Reaped above; setting the code keeps Popen from waiting for it again.
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(child.returncode, wall, usage.ru_maxrss / 1024, timed_out,
                out_path.read_bytes(), err_path.read_bytes())


class Clock:
    """The run's budget: no job starts after ``jobs.RUN_BUDGET_S``."""

    def __init__(self) -> None:
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def may_start(self) -> bool:
        return self.elapsed() < jobs.RUN_BUDGET_S

    def timeout(self, limit: float = jobs.JOB_TIMEOUT_S) -> float:
        return min(limit, HARD_LIMIT_S - self.elapsed())


def spin() -> float:
    """A fixed pure-Python loop, timed as context for host noise."""
    start = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x ^= i * 7
    return time.perf_counter() - start


# -- CLI workloads -----------------------------------------------------------------


def _argv(job: jobs.Job, work: Path) -> list[str]:
    out = []
    for arg in job.argv:
        if arg.startswith("{out:"):
            arg = str(work / f"{arg[5:-1]}.out")
        out.append(arg.replace("{work}", str(work)))
    return out


def cli_job_error(job: jobs.Job, proc: Proc, pin: dict | None, forward_input: dict | None,
                  check_digest: bool) -> str | None:
    if proc.timed_out:
        return "timeout"
    if b"Traceback" in proc.stderr:
        return "traceback on stderr"
    if pin is None:
        return "no pinned expectation for this job"
    if proc.code != pin["exit"]:
        return f"exit code {proc.code}, expected {pin['exit']}"
    try:
        error = jobs.check_cli(job, proc.stdout, forward_input)
        if error:
            return error
        if "elements" in pin and len(json.loads(proc.stdout)["elements"]) != pin["elements"]:
            return "lattice size differs from the pinned one"
    except (KeyError, TypeError, AttributeError) as exc:
        return f"output lacks the expected fields: {exc!r}"
    if check_digest and jobs.sha256(proc.stdout) != pin["sha256"]:
        return "output digest differs from the pinned one"
    return None


def run_cli_pass(job_list: list[jobs.Job], work: Path, clock: Clock, pins: dict | None,
                 check_digest: bool, traced: bool = False) -> list[dict]:
    """One pass over the mix, one fresh process per job."""
    inputs = {}
    for job in job_list:
        for name, text in job.files.items():
            (work / name).write_text(text)
            inputs[job.id] = json.loads(text)
    results = []
    for job in job_list:
        if not clock.may_start():
            break
        out_path = work / f"{job.id}.out"
        trace_path = work / f"{job.id}.trace.json"
        if traced:
            cmd = [PYTHON, str(BENCH / "cli_job.py"), str(trace_path), *_argv(job, work)]
        else:
            cmd = [PYTHON, "-m", "lcumulants.cli", *_argv(job, work)]
        proc = run_process(cmd, out_path, clock.timeout())
        forward = inputs.get(job.id.replace("inverse-", "transform-", 1))
        pin = pins.get(job.id) if pins is not None else {"exit": proc.code}
        result = {
            "id": job.id,
            "latency_s": proc.wall_s,
            "rss_mb": proc.rss_mb,
            "exit": proc.code,
            "sha256": jobs.sha256(proc.stdout),
            "stdout_bytes": len(proc.stdout),
            "error": cli_job_error(job, proc, pin, forward, check_digest),
        }
        if proc.stdout and job.spec.verb == "lattice" and result["error"] is None:
            result["elements"] = len(json.loads(proc.stdout)["elements"])
        if traced and result["error"] is None:
            result["trace"] = json.loads(trace_path.read_text())
        results.append(result)
    return results


def cli_setup_probe(work: Path, clock: Clock) -> tuple[float, str | None]:
    """Fresh interpreter until the package is imported and the parser built."""
    proc = run_process([PYTHON, "-m", "lcumulants.cli", "--help"], work / "setup.out", clock.timeout())
    ok = proc.code == 0 and proc.stdout.startswith(b"usage:") and not proc.timed_out
    return proc.wall_s, None if ok else f"setup probe failed with exit code {proc.code}"


def lcumulants_file(work: Path, clock: Clock) -> str:
    proc = run_process([PYTHON, "-c", "import lcumulants; print(lcumulants.__file__)"],
                       work / "file.out", clock.timeout())
    return proc.stdout.decode().strip()


# -- the library session -----------------------------------------------------------


def run_session(mode: str, seed: int, work: Path, clock: Clock, passes: int = 1) -> tuple[dict, Proc]:
    proc = run_process(
        [PYTHON, str(BENCH / "session.py"), "--mode", mode, "--seed", str(seed), "--passes", str(passes),
         "--budget", str(jobs.RUN_BUDGET_S - clock.elapsed())],
        work / f"session-{mode}.out",
        clock.timeout(HARD_LIMIT_S),
    )
    if proc.code != 0 or proc.timed_out:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise SessionError(f"session ({mode}) exited with code {proc.code}: {' '.join(tail)}")
    return json.loads(proc.stdout.splitlines()[-1]), proc


class SessionError(Exception):
    pass


def check_session(results: list[dict], pins: dict, check_digest: bool) -> list[dict]:
    for r in results:
        if r["error"] is None:
            pin = pins.get(r["id"])
            if pin is None:
                r["error"] = "no pinned expectation for this job"
            elif check_digest and r["sha256"] != pin["sha256"]:
                r["error"] = "output digest differs from the pinned one"
    return results


# -- metrics -----------------------------------------------------------------------


def job_latencies(results: list[dict]) -> dict[str, float]:
    """The median latency of each job type over the given results."""
    samples: dict[str, list[float]] = {}
    for r in results:
        samples.setdefault(r["id"], []).append(r["latency_s"])
    return {job_id: statistics.median(v) for job_id, v in samples.items()}


def overhead_ratio(traced: list[dict], untraced: list[dict]) -> float:
    """Traced over untraced time of the same jobs."""
    return sum(r["latency_s"] for r in traced) / sum(r["latency_s"] for r in untraced)


def latency_tail(timed: list[dict], typical: dict[str, float]) -> dict | None:
    """The highest of the 99th, 90th and 75th percentiles (nearest rank) of
    the jobs' latencies, each job counted at ``typical[job id]``, that has
    at least ten jobs beyond it; or None.  The jobs beyond it are runs of
    the few slowest job types; how many distinct types they are is
    recorded beside it."""
    ordered = sorted(timed, key=lambda r: typical[r["id"]])
    for percentile in (99, 90, 75):
        rank = math.ceil(percentile / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return {"percentile": percentile, "s": typical[ordered[rank - 1]["id"]],
                    "jobs": len(ordered), "jobs_beyond": len(ordered) - rank,
                    "job_types_beyond": len({r["id"] for r in ordered[rank:]})}
    return None


def timed_passes(workload: str, seconds: float) -> int:
    """The number of passes a timed run makes: as many as took ``seconds``
    at the seed commit.  It does not depend on the speed of the commit being
    measured, so every commit is measured on the same number of jobs.
    """
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def end_to_end(timed: list[dict], wall: float, setup: list[float], rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics of a timed run.

    The rate is jobs over the sum of their latencies, which leaves out the
    benchmark's own work between jobs; the plain wall-clock rate is kept in
    the context.  The percentiles are taken over all the jobs of the run,
    each counted at its job type's median latency over the run's passes.
    The mix is a few dozen job types whose latencies lie far apart, so a
    percentile falls on one job type; counted at its median, one run of
    that type caught in a slow stretch of the host does not move it.  A
    run of a fixed number of passes has a fixed number of jobs, so its tail
    percentile is the same on every commit; when no percentile qualifies
    (a run cut short by the budget), ``job_tail_s`` is left out.
    """
    latencies = [r["latency_s"] for r in timed]
    typical = job_latencies(timed)
    tail = latency_tail(timed, typical)
    values = {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_s": statistics.median(typical[r["id"]] for r in timed),
        "job_tail_s": tail and tail["s"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    context = {
        "jobs": len(timed),
        "timed_wall_s": wall,
        "wall_jobs_per_s": len(timed) / wall,
        "tail": tail,
        "setup_samples_s": setup,
        "job_median_s": typical,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
               if values[name] is not None}
    return metrics, context


def per_layer(summary: dict, overhead_ratio: float, output_bytes: int) -> dict:
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    values = {
        "lattice.build_reuse_ratio": summary["build_keys"] / max(calls.get("lattice.build", 0), 1),
        "lcumulant.from_lcumulants.c0_check_s": summary["c0_check_s"],
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in tracer.LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    for name in PER_LAYER:
        if name in values:
            continue
        if name in counts:
            values[name] = counts[name]
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        else:
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
    return {name: {"value": values[name], "unit": metric_unit(name)} for name in PER_LAYER}


# -- the workloads -------------------------------------------------------------------


def run_cli_workload(args, work: Path, clock: Clock, pins: dict) -> tuple[dict, list[dict], dict]:
    job_list = jobs.draw(args.workload, args.seed)
    check_digest = args.seed == DEFAULT_SEED
    context = {"lcumulants_file": lcumulants_file(work, clock)}
    if args.trace:
        untraced, traced = [], []
        for _ in range(jobs.TRACE_ROUNDS):
            untraced += run_cli_pass(job_list, work, clock, pins, check_digest)
            traced += run_cli_pass(job_list, work, clock, pins, check_digest, traced=True)
        summary = tracer.merge([r["trace"] for r in traced if "trace" in r])
        output_bytes = sum(r["stdout_bytes"] for r in traced)
        metrics = per_layer(summary, overhead_ratio(traced, untraced), output_bytes)
        return metrics, untraced + traced, context
    # Set-up probes run before every pass, so that they spread over the run.
    setup, probes, timed = [], [], []
    wall = 0.0
    passes = timed_passes(args.workload, args.seconds)
    for _ in range(passes):
        if not clock.may_start():
            break
        for _ in range(SETUP_PROBES_PER_PASS):
            seconds, error = cli_setup_probe(work, clock)
            setup.append(seconds)
            probes.append({"id": "setup", "error": error})
        start = time.monotonic()
        timed += run_cli_pass(job_list, work, clock, pins, check_digest)
        wall += time.monotonic() - start
    metrics, extra = end_to_end(timed, wall, setup, max(r["rss_mb"] for r in timed))
    context.update(extra, passes=passes)
    return metrics, probes + timed, context


def run_api_workload(args, work: Path, clock: Clock, pins: dict) -> tuple[dict, list[dict], dict]:
    """``API_SESSIONS`` sessions, each giving one set-up sample and a share
    of the timed passes (the first sessions take one more when they do not
    divide evenly).  Outputs are checked against their pins on the first
    pass of each session, whose data is the pinned stream.
    """
    check_digest = args.seed == DEFAULT_SEED
    if args.trace:
        out, _ = run_session("trace", args.seed, work, clock)
        results = check_session(out["warmup"], pins, False)
        results += check_session(out["untraced"] + out["traced"], pins, check_digest)
        metrics = per_layer(out["trace"], overhead_ratio(out["traced"], out["untraced"]), 0)
        return metrics, results, {"lcumulants_file": out["lcumulants_file"]}
    setup, warmup, timed, wall, rss = [], [], [], 0.0, 0.0
    passes = timed_passes(args.workload, args.seconds)
    for session in range(API_SESSIONS):
        session_passes = passes // API_SESSIONS + (session < passes % API_SESSIONS)
        start = time.monotonic()
        out, proc = run_session("timed", args.seed, work, clock, session_passes)
        setup.append(out["setup_end"] - start)
        warmup += check_session(out["warmup"], pins, False)
        for index, results in enumerate(out["passes"]):
            timed += check_session(results, pins, check_digest and index == 0)
        wall += out["wall_s"]
        rss = max(rss, proc.rss_mb)
    metrics, extra = end_to_end(timed, wall, setup, rss)
    context = {"lcumulants_file": out["lcumulants_file"], **extra, "passes": passes}
    return metrics, warmup + timed, context


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "lcumulants" / "__init__.py").is_file():
        print(f"error: no lcumulants sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    clock = Clock()
    # Byte-compile first, so that no job pays for compiling the sources.
    subprocess.run([PYTHON, "-m", "compileall", "-q", str(SRC), str(BENCH)], env=ENV, check=True)
    pins = json.loads((BENCH / "expected.json").read_text())["jobs"][args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    spin_before = spin()
    try:
        runner = run_api_workload if args.workload == "api-session" else run_cli_workload
        metrics, results, context = runner(args, work, clock, pins)
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [r for r in results if r["error"] is not None]
    for r in failures[:20]:
        print(f"failed: {r['id']}: {r['error']}", file=sys.stderr)
    context.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        python=sys.version.split()[0], nproc=len(os.sched_getaffinity(0)),
        failed_ratio=len(failures) / len(results),
        spin_before_s=spin_before, spin_after_s=spin(), run_s=clock.elapsed(),
    )
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
