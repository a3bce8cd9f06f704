"""The api-session client: one long-lived process that imports the library.

    python perfbench/session.py --mode timed|trace --seed N --passes P --budget S

Both modes import ``lcumulants`` and run one warm-up pass over the mix on
the ``warmup`` data stream, which timing never uses; the monotonic clock
reading at the end of the warm-up is reported as ``setup_end``.  Then:

* ``timed`` runs ``--passes`` passes over the mix, each job after the
  previous one ends.  Pass i draws its tables from its own data stream, so
  no pass repeats a table that an earlier pass left in the process;
* ``trace`` runs an untraced and a traced pass, ``jobs.TRACE_ROUNDS``
  times; counts cover exactly the traced passes.

No job starts after ``--budget`` seconds.

A job is moments_from_distribution -> to_lcumulants -> from_lcumulants ->
distribution_from_moments, and must give back its input table exactly.
The last line of stdout is one JSON object with the per-job results.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from fractions import Fraction

import jobs
import tracer


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def run_job(lc, job: jobs.Job) -> dict:
    """Run one round trip; the timed region covers building the family and
    the four library calls."""
    shape, data = job.spec.shape, job.data
    space = lc.StateSpace.of(shape["box"])
    table = {x: Fraction(v) for x, v in zip(space.states(), data["table"])}
    signed = shape["signed"]
    dist = lc.DiscreteDistribution(space, table, algebraic=signed)
    result = {"id": job.id, "error": None}
    signal.setitimer(signal.ITIMER_REAL, jobs.JOB_TIMEOUT_S)
    start = time.perf_counter()
    try:
        if "tree" in data:
            fam = lc.Family(lc.TREE, lc.from_newick(data["tree"]))
        else:
            fam = lc.Family(shape["family"])
        lv = lc.to_lcumulants(lc.moments_from_distribution(dist), fam)
        back = lc.distribution_from_moments(lc.from_lcumulants(lv), algebraic=signed)
    except JobTimeout:
        result["error"] = f"timeout after {jobs.JOB_TIMEOUT_S} s"
    except Exception as exc:  # a failed job is reported, never fatal
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        result["latency_s"] = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if result["error"] is None:
        if back.table != table:
            result["error"] = "round trip did not reproduce the input table"
        else:
            result["sha256"] = jobs.sha256(json.dumps(lv.to_json(), sort_keys=True).encode())
    return result


def run_pass(lc, job_list: list[jobs.Job], deadline: float) -> list[dict]:
    """One pass over the mix; no job starts after ``deadline``."""
    return [run_job(lc, job) for job in job_list if time.monotonic() < deadline]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("timed", "trace"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True, help="timed passes in timed mode")
    ap.add_argument("--budget", type=float, required=True, help="start no job after this many seconds")
    args = ap.parse_args()
    deadline = time.monotonic() + args.budget
    signal.signal(signal.SIGALRM, _alarm)

    import lcumulants as lc

    out: dict = {"lcumulants_file": lc.__file__}
    warm = run_pass(lc, jobs.draw("api-session", args.seed, stream="warmup"), deadline)
    out["setup_end"] = time.monotonic()
    out["warmup"] = warm
    if args.mode == "timed":
        start = time.perf_counter()
        passes = [run_pass(lc, jobs.draw("api-session", args.seed, stream=jobs.timed_stream(i)), deadline)
                  for i in range(args.passes)]
        out.update(passes=passes, wall_s=time.perf_counter() - start)
    else:
        # Untraced and traced passes alternate, so that the overhead ratio
        # compares latencies taken over the same stretch of time.
        timed = jobs.draw("api-session", args.seed)
        tr = tracer.Tracer()
        untraced, traced = [], []
        for _ in range(jobs.TRACE_ROUNDS):
            untraced += run_pass(lc, timed, deadline)
            tr.install()
            traced += run_pass(lc, timed, deadline)
            tr.uninstall()
        out.update(untraced=untraced, traced=traced, trace=tr.summary())
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
