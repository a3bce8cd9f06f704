"""Run one CLI job inside a traced process.

    python perfbench/cli_job.py TRACE_OUT ARG...

Installs the tracer, calls ``lcumulants.cli.main(ARG...)`` exactly as
``python -m lcumulants.cli ARG...`` would, writes the trace summary to
TRACE_OUT as JSON and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys

import tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    from lcumulants import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump(tr.summary(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
