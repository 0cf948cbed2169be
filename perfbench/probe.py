"""Fresh-interpreter children of the benchmark.

  python3 perfbench/probe.py setup WORKLOAD SEED DIR
      time ``import survquant`` plus the workload's set-up in this new
      interpreter; print {"import_s", "setup_s"} as JSON.

  python3 perfbench/probe.py cli SPANS_JSON -- ARGS...
      run ``survquant.cli.main(ARGS)`` with spans recorded, write the spans
      to SPANS_JSON and exit with main's exit code.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import checkout


def setup(workload: str, seed: str, directory: str) -> None:
    started = perf_counter()
    checkout.use_source_tree()  # imports survquant
    imported = perf_counter()
    import workloads

    workloads.WORKLOADS[workload](int(seed), Path(directory))
    done = perf_counter()
    print(json.dumps({"import_s": imported - started, "setup_s": done - started}))


def traced_cli(spans_path: str, argv: list) -> int:
    checkout.use_source_tree()
    import spans
    from survquant import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(*rest)
    elif mode == "cli" and rest[1] == "--":
        sys.exit(traced_cli(rest[0], rest[2:]))
    else:
        sys.exit(f"usage: see {__file__}")
