"""survquant benchmark: one workload, one seed, one run.

  python3 perfbench/run.py --workload {sim_ls,sim_kde,plan,cli} --seed N \
      --seconds S --trace {0,1}

Closed loop on one process (the ``cli`` workload waits on one child process
at a time), at most ``nproc`` threads. The last line of stdout is the
result as JSON: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. The lines above it are the human report. The exit code is 1
when an output of the program is wrong, 2 when there is no program to
measure. See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checkout
import reference
import spans

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
HERE = Path(__file__).resolve().parent
PROBE = HERE / "probe.py"
# per-layer metrics measured by the run itself rather than from spans
RUN_LAYER_UNITS = {"cli.process_overhead_s": "s", "cli.import_s": "s",
                   "cli.import.scipy_s": "s", "trace.throughput_ratio": "ratio"}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim_ls", "sim_kde", "plan", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


# ---------------------------------------------------------------- timing --


class Records:
    """One row per timed call: (cell, unit, wall seconds, ops, not-estimable
    replicates, calibrated seconds, reference samples before and after)."""

    def __init__(self, kind):
        self.kind = kind  # the reference kernel that calibrates the calls
        self.rows = []

    def add(self, cell, seconds, ops, out, before, after):
        self.rows.append((cell.name, cell.unit, seconds, ops,
                          int(getattr(out, "n_failures", 0)),
                          reference.calibrated(seconds, self.kind, before, after),
                          before, after))

    def of(self, cells):
        return [row for row in self.rows if row[0] in cells]

    def times(self, cells=None, calibrated=True):
        rows = self.rows if cells is None else self.of(cells)
        return [row[5] if calibrated else row[2] for row in rows]

    def median(self, cell, calibrated=True):
        return statistics.median(self.times((cell,), calibrated))

    def rate(self, cells, calibrated=True):
        """Ops completed per second of the calls of these cells."""
        return sum(row[3] for row in self.of(cells)) / sum(self.times(cells, calibrated))

    @property
    def ops(self):
        return sum(row[3] for row in self.rows)


def run_rounds(workload, records, first, *, rounds=None, seconds=None, tracer=None):
    """Run whole rounds from ``first`` until ``rounds`` are done or
    ``seconds`` of wall time have passed."""
    started = perf_counter()
    r = first
    before = reference.sample(records.kind)
    while True:
        for cell in workload.cells:
            inputs = cell.prepare(r)
            if tracer is not None:
                tracer.cell, tracer.trace = cell.name, f"{cell.name}/{r}"
            t0 = perf_counter()
            ops, out = cell.run(inputs)
            elapsed = perf_counter() - t0
            after = reference.sample(records.kind)
            cell.check(r, out)
            records.add(cell, elapsed, ops, out, before, after)
            before = after
        r += 1
        if rounds is not None and r - first >= rounds:
            return
        if seconds is not None and perf_counter() - started >= seconds:
            return


def tail(samples):
    """Highest whole percentile with at least 10 samples above it:
    (percentile, value, sample count); the maximum below 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1], n
    q = math.floor(100 * (n - 10) / n)
    return q, xs[math.ceil(q * n / 100) - 1], n


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def measure_setup(workload: str, seed: int, directory: Path):
    """Median over fresh interpreters of import + workload set-up:
    (calibrated seconds, wall seconds, import wall seconds). Each child is
    calibrated by the reference samples taken here just before and after it."""
    directory.mkdir(parents=True, exist_ok=True)
    results, calibrated = [], []
    before = reference.sample("interpreted")
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(PROBE), "setup", workload, str(seed), str(directory)],
            capture_output=True, text=True, check=True)
        after = reference.sample("interpreted")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
        calibrated.append(reference.calibrated(
            results[-1]["setup_s"], "interpreted", before, after))
        before = after
    return (statistics.median(calibrated),
            statistics.median(r["setup_s"] for r in results),
            statistics.median(r["import_s"] for r in results))


def import_breakdown(env):
    """``-X importtime`` of ``import survquant.cli``: (survquant s, scipy s).

    scipy counts every scipy module imported outside another scipy module,
    with what it imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import survquant.cli"],
        env=env, capture_output=True, text=True, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        name = parts[2].strip()
        level = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        entries.append((level, name, int(parts[1])))
    survquant = sum(c for lvl, n, c in entries if lvl == 0 and n.startswith("survquant"))
    scipy, open_parents = 0, []
    for level, name, cumulative in reversed(entries):  # parents come first
        while open_parents and open_parents[-1][0] >= level:
            open_parents.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(p[2] for p in open_parents):
            scipy += cumulative
        open_parents.append((level, name, is_scipy))
    return survquant / 1e6, scipy / 1e6


# ---------------------------------------------------------------- report --


def end_to_end(workload, records, setup_s):
    q, tail_s, n = tail(records.times())
    cells = [cell.name for cell in workload.cells]
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput": (records.rate(workload.primary_cells), "op/s"),
        "cycle_s": (sum(records.median(c) for c in cells), "s"),
        "tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload.name == "cli"), "MB"),
    }
    # the named per-workload figures of README.md, for the report only
    named = {}
    if workload.name.startswith("sim"):
        named["reps_per_s"] = (metrics["throughput"][0], "rep/s")
    if workload.name == "sim_ls":
        named["reps_per_s_nproc"] = (records.rate(("J1_nproc",)), "rep/s")
    if workload.name == "plan":
        named["solves_per_s"] = (metrics["throughput"][0], "solve/s")
        named["power_evals_per_s"] = (records.rate(("uni_grid", "joint_grid")), "eval/s")
    if workload.name == "cli":
        for c in cells:
            named[f"cli.{c}_p50_s"] = (records.median(c), "s")
        named[f"cli.tail_s (p{q} of {n} calls)"] = (tail_s, "s")
    named["fail_frac"] = (sum(row[4] for row in records.rows) / records.ops, "ratio")
    references = [row[7] for row in records.rows]
    lines = [f"tail_s is p{q} of {n} calls",
             f"reference sample ({records.kind} kernel): median "
             f"{statistics.median(references) * 1e3:.4f} ms, "
             f"range {min(references) * 1e3:.4f} to {max(references) * 1e3:.4f} ms",
             f"wall-clock throughput = {records.rate(workload.primary_cells, False):.6g} op/s",
             "wall-clock cycle_s = "
             f"{sum(records.median(c, False) for c in cells):.6g} s"]
    for cell in cells:
        rows = records.of((cell,))
        lines.append(f"cell {cell}: {len(rows)} calls, {sum(r[3] for r in rows)} ops, "
                     f"median {records.median(cell) * 1e3:.3f} ms calibrated, "
                     f"{records.median(cell, False) * 1e3:.3f} ms wall")
    return metrics, named, lines


def traced_run(workload, seconds, spans_path):
    """K rounds untraced, then the same K rounds traced; K is fixed by
    --seconds so the counts repeat exactly for a seed."""
    import workloads

    k = max(1, round(seconds / 2 / workload.nominal_round_s))
    plain = Records(workload.reference_kernel)
    run_rounds(workload, plain, 1, rounds=k)
    extra = {}
    if workload.name == "cli":
        overheads = []
        for name, argv in workload.commands.items():
            t0 = perf_counter()
            code, _ = workloads.run_cli_in_process(argv)
            inproc = perf_counter() - t0
            if code != 0:
                raise workloads.GateError(f"cli {name} exited {code} in-process")
            overheads.append(plain.median(name, False) - inproc)
        extra["cli.process_overhead_s"] = statistics.median(overheads)
    else:
        extra["cli.process_overhead_s"] = 0.0
    env = workloads.cli_env(checkout.SRC)
    imports = [import_breakdown(env) for _ in range(IMPORT_REPEATS)]
    extra["cli.import_s"] = statistics.median(i[0] for i in imports)
    extra["cli.import.scipy_s"] = statistics.median(i[1] for i in imports)

    tracer = spans.Tracer()
    tracer.install()
    workload.tracer = tracer
    traced = Records(workload.reference_kernel)
    try:
        run_rounds(workload, traced, 1, rounds=k, tracer=tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
        tracer.dump(spans_path)
    metrics = spans.layer_metrics(tracer.spans)
    metrics.update(extra)
    metrics["trace.throughput_ratio"] = sum(plain.times()) / sum(traced.times())
    units = {**spans.metric_units(), **RUN_LAYER_UNITS}
    lines = [f"traced {k} rounds; tracing keeps {metrics['trace.throughput_ratio']:.3f} "
             "of the untraced throughput",
             f"spans written to {spans_path}"]
    if tracer.missing:
        lines.append("sites not found: " + ", ".join(tracer.missing))
    return {name: (metrics[name], unit) for name, unit in units.items()}, \
        plain.ops + traced.ops, lines


def main() -> int:
    args = parse_args()
    checkout.use_source_tree()
    env = checkout.environment()
    import workloads

    workdir = checkout.WORK / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    print("environment: " + json.dumps(env, sort_keys=True))
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        pinned = json.loads((HERE / "pinned.json").read_text())[args.workload]
        workloads.compare_pinned(workload.gate(), pinned, args.workload)
        run_rounds(workload, Records(workload.reference_kernel), 0, rounds=1)  # warm-up
        if args.trace:
            metrics, attempted, lines = traced_run(
                workload, args.seconds, workdir / "spans.json")
        else:
            setup_s, setup_wall, import_s = measure_setup(
                args.workload, args.seed, workdir / "setup")
            records = Records(workload.reference_kernel)
            if workload.fixed_rounds:
                run_rounds(workload, records, 1, rounds=max(
                    1, round(args.seconds / workload.nominal_round_s)))
            else:
                run_rounds(workload, records, 1, seconds=args.seconds)
            metrics, named, lines = end_to_end(workload, records, setup_s)
            (workdir / "calls.json").write_text(json.dumps(records.rows))
            attempted = records.ops
            lines.append(f"wall-clock setup_s = {setup_wall:.6g} s, of which import "
                         f"survquant {import_s:.6g} s (medians of {SETUP_REPEATS})")
            lines += [f"{name} = {v:.6g} {unit}" for name, (v, unit) in named.items()]
    except workloads.GateError as exc:
        print(f"correctness gate failed: {exc}")
        result.update(attempted=1, failed=1)
        print(json.dumps(result))
        return 1
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result.update(correct=True, attempted=attempted, metrics={
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
