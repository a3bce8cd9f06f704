"""Pin the exit code and output digest of every job on the default seed.

    python3 perfbench/pin.py

Runs one untraced pass of each workload on ``run.DEFAULT_SEED`` and writes
``expected.json``, which every benchmark run checks against.  Run it only
when the program's output bytes change on purpose; it refuses to pin a job
whose output fails the workload's own checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import jobs
import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=run.WORK))
    clock = run.Clock()
    pinned: dict = {}
    failures = []
    try:
        for workload in ("cli-batch", "lattice-order"):
            results = run.run_cli_pass(jobs.draw(workload, run.DEFAULT_SEED), work, clock, None, False)
            failures += [r for r in results if r["error"]]
            pinned[workload] = {
                r["id"]: {"exit": r["exit"], "sha256": r["sha256"],
                          **({"elements": r["elements"]} if "elements" in r else {})}
                for r in results
            }
        out, _ = run.run_session("timed", run.DEFAULT_SEED, work, clock)
        timed = out["passes"][0]
        failures += [r for r in out["warmup"] + timed if r["error"]]
        pinned["api-session"] = {r["id"]: {"sha256": r["sha256"]} for r in timed if not r["error"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for r in failures:
        print(f"failed: {r['id']}: {r['error']}", file=sys.stderr)
    if failures:
        return 1
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps({"default_seed": run.DEFAULT_SEED, "jobs": pinned}, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, pinned.values()))} jobs in {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
