"""Run one ddseries CLI command with every layer traced.

    python -X importtime perfbench/cli_traced.py SPANS_OUT <subcommand> [args...]

behaves like ``python -m ddseries.cli <subcommand> [args...]`` and also
writes the spans of the call, under one root span for the subcommand, and
the in-process import and main() times to SPANS_OUT as JSON.
"""

from __future__ import annotations

import json
import sys
import time

t0 = time.perf_counter()
import ddseries.cli  # noqa: E402
t1 = time.perf_counter()

import tracing  # noqa: E402  (after ddseries, so the import time is the CLI's own)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    root = [0, None, "cli." + argv[0], time.perf_counter(), 0.0, 0]
    tracer.spans.append(root)
    tracer.stack.append(0)
    try:
        code = ddseries.cli.main(argv)
    finally:
        root[4] = time.perf_counter()
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": t1 - t0, "main_s": root[4] - root[3],
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
