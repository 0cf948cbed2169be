"""The benchmark's four workloads: inputs made from a seed, timed cells, gates.

A workload is a list of cells. One round calls every cell once, in order.
Each cell has three steps:

* ``prepare(r)`` builds the inputs of round ``r`` from the workload seed
  (untimed),
* ``run(inputs)`` makes the public survquant calls or the CLI process
  (timed) and returns ``(ops, output)``,
* ``check(r, output)`` verifies the output (untimed) and raises
  ``GateError`` when it is wrong.

``gate()`` runs a small study at fixed inputs, independent of the seed, and
returns the values that ``pinned.json`` pins. ``pin.py`` rewrites that file.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import survquant as sq
from survquant import cli as sq_cli
from survquant.density import KdeConfig

NPROC = len(os.sched_getaffinity(0))
ALPHA = 0.05
# The README's delayed-effect plan: exponential control at rate 1.5, median
# shifted by 0.1, hazards equal until t_cut = 0.2, censoring at rate 0.48.
RATE, P_PLAN, DELTA, T_CUT, CENS = 1.5, 0.5, 0.1, 0.2, 0.48
# The CLI's default KDE cross-validation grid, 0.1 .. 1.0 in steps of 0.02.
CV_GRID = np.arange(0.1, 1.0 + 1e-12, 0.02)
KDE_CV = KdeConfig("select-by-cv", CV_GRID)
GATE_SEED = 0
PROBE = Path(__file__).resolve().parent / "probe.py"


class GateError(Exception):
    """An output of the program is wrong."""


@dataclass
class Cell:
    name: str
    unit: str  # what one op is: rep, solve, eval or call
    prepare: Callable[[int], object]
    run: Callable[[object], tuple]
    check: Callable[[int, object], None]


def round_seed(seed: int, r: int, tag: int) -> int:
    """A 32-bit master seed for cell ``tag`` of round ``r``."""
    state = np.random.SeedSequence([seed, r, tag]).generate_state(1)
    return int(state[0])


def delayed_plan():
    return sq.scenario_from_delta(RATE, P_PLAN, DELTA, t_cut=T_CUT, censoring_rate=CENS)


def _float_or_none(x):
    return None if math.isnan(x) else float(x)


def _report_summary(report):
    p = report.p_values
    return {
        "rejections": int(np.count_nonzero(p[~np.isnan(p)] < report.alpha)),
        "failures": int(report.n_failures),
        "p_values": [_float_or_none(v) for v in p],
    }


def _check_report(report, reps):
    if report.replications != reps or report.n_used + report.n_failures != reps:
        raise GateError("replicate accounting does not add up")
    p = report.p_values[~np.isnan(report.p_values)]
    if p.size != report.n_used or np.any((p < 0) | (p > 1)):
        raise GateError("p-values missing or outside [0, 1]")


class Workload:
    name = ""
    primary_unit = ""  # the unit ``throughput`` counts
    nominal_round_s = 1.0  # sizes the fixed-length runs and traced passes
    # Run round(seconds / nominal_round_s) whole rounds instead of stopping
    # at --seconds: with few, unequal calls per round, a varying call count
    # would move the tail's rank from one command's times to another's.
    fixed_rounds = False
    reference_kernel = "interpreted"  # the kind of work it does, reference.py
    tracer = None  # a spans.Tracer while a traced pass runs

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cells = self.build()

    @property
    def primary_cells(self) -> tuple:
        """The cells whose ops per second make ``throughput``."""
        return tuple(c.name for c in self.cells if c.unit == self.primary_unit)

    def build(self) -> list:
        raise NotImplementedError

    def gate(self) -> dict:
        raise NotImplementedError


# ------------------------------------------------------------------ sim --


class _Simulation(Workload):
    """Cells that each run one ``empirical_rejection`` study."""

    def _sim_cell(self, name, tag, scenario, n, ps, reps, method="ls",
                  tuning=None, threads=1, check=None):
        def prepare(r):
            return sq.SimulationPlan(
                scenario, n, ps, reps, alpha=ALPHA, density_method=method,
                tuning=tuning, master_seed=round_seed(self.seed, r, tag),
                threads=threads,
            )

        def run(plan):
            return plan.replications, sq.empirical_rejection(plan)

        def default_check(r, report):
            _check_report(report, reps)

        return Cell(name, "rep", prepare, run, check or default_check)


class SimLs(_Simulation):
    """LS operating characteristics on the README's delayed-effect plan."""

    name = "sim_ls"
    primary_unit = "rep"
    primary_cells = ("J1",)
    nominal_round_s = 0.25

    def build(self):
        plan = delayed_plan()
        null = sq.scenario_from_delta(RATE, 0.75, 0.0, censoring_rate=1.0)
        self._last_j1 = {}

        def keep_j1(r, report):
            _check_report(report, 100)
            self._last_j1[r] = report.p_values.tobytes()

        def same_as_j1(r, report):
            _check_report(report, 100)
            if report.p_values.tobytes() != self._last_j1.pop(r, None):
                raise GateError(
                    f"p-values at threads={NPROC} differ from threads=1"
                )

        # J1 and J1_nproc share their seed (tag 1): same replicates, so the
        # p-values must be byte-identical.
        return [
            self._sim_cell("J1", 1, plan, 500, (0.5,), 100, check=keep_j1),
            self._sim_cell("J1_nproc", 1, plan, 500, (0.5,), 100,
                           threads=NPROC, check=same_as_j1),
            self._sim_cell("J3", 3, plan, 500, (0.25, 0.5, 0.75), 30),
            self._sim_cell("ph_null", 4, null, 50, (0.75,), 100),
        ]

    def gate(self):
        plan = delayed_plan()
        null = sq.scenario_from_delta(RATE, 0.75, 0.0, censoring_rate=1.0)
        out = {}
        for key, scenario, n, ps, reps in (
            ("J1", plan, 500, (0.5,), 100),
            ("J3", plan, 500, (0.25, 0.5, 0.75), 30),
            ("ph_null", null, 50, (0.75,), 300),
        ):
            report = sq.empirical_rejection(sq.SimulationPlan(
                scenario, n, ps, reps, alpha=ALPHA, master_seed=GATE_SEED))
            out[key] = _report_summary(report)
        return out


class SimKde(_Simulation):
    """KDE-CV operating characteristics with the CLI's default CV grid."""

    name = "sim_kde"
    primary_unit = "rep"
    nominal_round_s = 0.25
    reference_kernel = "arrays"

    # about 230 events per arm at n=300 (exact pair sums), about 760 at
    # n=1000 (binned); the switch is at 500 events
    CELLS = (("n300", 5, 300, (0.5,), 4), ("n1000", 6, 1000, (0.5,), 2),
             ("J3_n500", 7, 500, (0.25, 0.5, 0.75), 2))

    def build(self):
        plan = delayed_plan()
        return [
            self._sim_cell(name, tag, plan, n, ps, reps, method="kde", tuning=KDE_CV)
            for name, tag, n, ps, reps in self.CELLS
        ]

    def gate(self):
        plan = delayed_plan()
        out = {}
        for name, _, n, ps, _ in self.CELLS:
            report = sq.empirical_rejection(sq.SimulationPlan(
                plan, n, ps, 2, alpha=ALPHA, density_method="kde",
                tuning=KDE_CV, master_seed=GATE_SEED))
            out[name] = _report_summary(report)
        return out


# ----------------------------------------------------------------- plan --

FAMILIES = ((None, "ph"), (T_CUT, "delayed"))
UNI_P = (0.5, 0.75)
JOINT_P = ((0.5, 0.75), (0.25, 0.5, 0.75), (0.2, 0.4, 0.6, 0.8))
TARGETS = (0.8, 0.9, 0.95)
GRID_N = (50, 100, 200, 500, 1000)


def _uni_grid(deltas):
    powers = []
    for t_cut, _ in FAMILIES:
        for p in UNI_P:
            for d in deltas:
                sc = sq.scenario_from_delta(RATE, p, d, t_cut=t_cut, censoring_rate=CENS)
                sigma = math.sqrt(sq.scenario_sigma2(sc, p)[0])
                for n in GRID_N:
                    powers.append(sq.power_univariate(
                        sq.PowerSpec(alpha=ALPHA, deltas=d, sigma=sigma, per_group_n=n)))
    return len(powers), powers


def _uni_solve(delta):
    results = []
    for t_cut, _ in FAMILIES:
        for p in UNI_P:
            sc = sq.scenario_from_delta(RATE, p, delta, t_cut=t_cut, censoring_rate=CENS)
            sigma = math.sqrt(sq.scenario_sigma2(sc, p)[0])
            for target in TARGETS:
                results.append(sq.min_sample_size(target, delta, sigma=sigma, alpha=ALPHA))
    return len(results), results


def _joint_inputs(delta, t_cut, ps):
    sc = sq.scenario_from_delta(RATE, P_PLAN, delta, t_cut=t_cut, censoring_rate=CENS)
    psi = sq.scenario_psi(sc, ps)
    return psi, np.array([sc.quantile_difference(p) for p in ps])


def _joint_grid(delta):
    powers = []
    for t_cut, _ in FAMILIES:
        for ps in JOINT_P:
            psi, deltas = _joint_inputs(delta, t_cut, ps)
            for n in GRID_N:
                powers.append(sq.power_multivariate(
                    sq.PowerSpec(alpha=ALPHA, deltas=deltas, psi=psi, per_group_n=n)))
    return len(powers), powers


def _joint_solve(delta):
    results = []
    for t_cut, _ in FAMILIES:
        for ps in JOINT_P:
            psi, deltas = _joint_inputs(delta, t_cut, ps)
            for target in TARGETS:
                results.append(sq.min_sample_size(target, deltas, psi=psi, alpha=ALPHA))
    return len(results), results


def _check_grid(r, powers):
    # each block runs n = GRID_N in order: power lies in [alpha, 1] and rises
    # with n, up to rounding
    for start in range(0, len(powers), len(GRID_N)):
        block = powers[start:start + len(GRID_N)]
        if not all(ALPHA - 1e-12 <= x <= 1.0 for x in block) or any(
                b < a - 1e-12 for a, b in zip(block, block[1:])):
            raise GateError("power outside [alpha, 1] or not monotone in n")


def _check_solves(r, results):
    for res in results:
        if not res.power_at_n_minus_1 < res.target_power <= res.achieved_power:
            raise GateError(f"sample size {res.per_group_n} is not minimal")


class Plan(Workload):
    """Closed-form planning: power grids and sample-size solves."""

    name = "plan"
    primary_unit = "solve"
    nominal_round_s = 0.1

    def build(self):
        # A solve's cost grows steeply as delta shrinks (a joint solve takes
        # 35 ms at delta 0.15 and 230 ms at 0.08), so deltas stay within 5%
        # of the plan's: the draws vary the inputs, not the amount of work.
        def delta(r, tag):
            rng = np.random.default_rng(round_seed(self.seed, r, tag))
            return DELTA * float(rng.uniform(0.95, 1.05))

        return [
            Cell("uni_grid", "eval",
                 lambda r: tuple(delta(r, 10) * k for k in (0.5, 1.0, 1.5, 2.0)),
                 _uni_grid, _check_grid),
            Cell("uni_solve", "solve", lambda r: delta(r, 11), _uni_solve, _check_solves),
            Cell("joint_grid", "eval", lambda r: delta(r, 12), _joint_grid, _check_grid),
            Cell("joint_solve", "solve", lambda r: delta(r, 13), _joint_solve, _check_solves),
        ]

    def gate(self):
        _, uni = _uni_solve(DELTA)
        _, joint = _joint_solve(DELTA)
        return {
            "uni_grid": _uni_grid((0.05, 0.1, 0.15, 0.2))[1],
            "joint_grid": _joint_grid(DELTA)[1],
            "uni_solve": [[r.per_group_n, r.achieved_power] for r in uni],
            "joint_solve": [[r.per_group_n, r.achieved_power] for r in joint],
        }


# ------------------------------------------------------------------ cli --

SCENARIO_TEXT = (
    f"lambda_a = {RATE}\ndelta = {DELTA}\np = {P_PLAN}\n"
    f"t_cut = {T_CUT}\nlambda_cens = {CENS}\n"
)


def write_trial_csv(path: Path, data) -> None:
    lines = ["time,status,group"]
    for group, arm in ((1, data.arm1), (2, data.arm2)):
        # float() first: the reader rejects repr(np.float64(...))
        lines += [f"{float(t)!r},{int(e)},{group}" for t, e in zip(arm.times, arm.events)]
    path.write_text("\n".join(lines) + "\n")


def cli_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CI", "SURVQUANT_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    return env


def run_cli_in_process(argv) -> tuple:
    """``cli.main`` in this process: (exit code, stdout text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = sq_cli.main(list(argv))
    return code, buffer.getvalue()


class Cli(Workload):
    """Each subcommand as a fresh ``python -m survquant.cli`` process."""

    name = "cli"
    primary_unit = "call"
    nominal_round_s = 1.5  # 10 rounds, 50 calls, in a 15 s run
    fixed_rounds = True

    def build(self):
        wd = self.workdir
        scenario = wd / "plan.scn"
        scenario.write_text(SCENARIO_TEXT)
        trial = wd / "trial.csv"
        rng = np.random.default_rng(round_seed(self.seed, 0, 20))
        write_trial_csv(trial, sq.sample_trial(delayed_plan(), 500, 500, rng))
        test_seed = str(round_seed(self.seed, 0, 21) % 100_000)
        sim_seed = str(round_seed(self.seed, 0, 22) % 100_000)
        scn = ["--scenario", str(scenario)]
        self.commands = {
            "power": ["power", *scn, "--delta", "0.05,0.1,0.15,0.2",
                      "--n", "50,100,200,500,1000"],
            "samplesize": ["samplesize", *scn, "--power", "0.8,0.9,0.95"],
            "test_ls": ["test", str(trial), "--p", "0.25,0.5,0.75",
                        "--bonferroni", "--seed", test_seed],
            "test_kde": ["test", str(trial), "--p", "0.25,0.5,0.75",
                         "--bonferroni", "--method", "kde"],
            "simulate": ["simulate", *scn, "--n", "200", "--reps", "50",
                         "--seed", sim_seed, "--threads", "1"],
        }
        self.env = cli_env(Path(sq.__file__).resolve().parents[1])
        # every invocation of a command must print exactly what cli.main
        # prints in-process on the same arguments
        self.expected = {}
        return [self._cli_cell(name, argv) for name, argv in self.commands.items()]

    def _cli_cell(self, name, argv):
        spans_file = self.workdir / f"spans-{name}.json"

        def run(_):
            if self.tracer is None:
                command = [sys.executable, "-m", "survquant.cli", *argv]
            else:
                command = [sys.executable, str(PROBE), "cli", str(spans_file), "--", *argv]
            proc = subprocess.run(command, env=self.env, capture_output=True,
                                  text=True, check=False)
            return 1, proc

        def check(r, proc):
            if self.tracer is not None:
                self.tracer.adopt(json.loads(spans_file.read_text())["spans"])
            if proc.returncode != 0:
                raise GateError(f"cli {name} exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-200:]}")
            if name not in self.expected:
                code, text = run_cli_in_process(argv)
                self.expected[name] = text if code == 0 else None
            if proc.stdout != self.expected[name]:
                raise GateError(f"cli {name} output differs from cli.main in-process")

        return Cell(name, "call", lambda r: None, run, check)

    def gate(self):
        out = {}
        for name in ("power", "samplesize"):
            code, text = run_cli_in_process(self.commands[name] + ["--json", "-"])
            if code != 0:
                raise GateError(f"cli {name} exited {code} in-process")
            out[name] = [
                [row.get("n_per_group", row.get("per_group_n")),
                 row.get("power", row.get("achieved_power"))]
                for row in json.loads(text)["results"]
            ]
        return out


WORKLOADS = {cls.name: cls for cls in (SimLs, SimKde, Plan, Cli)}


def compare_pinned(observed, pinned, where="") -> None:
    """Integers exactly, floats within 1e-9, missing values both missing."""
    if isinstance(pinned, dict):
        if not isinstance(observed, dict) or observed.keys() != pinned.keys():
            raise GateError(f"pinned keys differ at {where or 'top'}")
        for key in pinned:
            compare_pinned(observed[key], pinned[key], f"{where}.{key}")
    elif isinstance(pinned, list):
        if not isinstance(observed, list) or len(observed) != len(pinned):
            raise GateError(f"pinned length differs at {where}")
        for i, (o, p) in enumerate(zip(observed, pinned)):
            compare_pinned(o, p, f"{where}[{i}]")
    elif isinstance(pinned, int) or pinned is None:
        if observed != pinned or type(observed) is not type(pinned):
            raise GateError(f"{where}: {observed!r} != pinned {pinned!r}")
    elif observed is None or abs(float(observed) - pinned) > 1e-9:
        raise GateError(f"{where}: {observed!r} differs from pinned {pinned!r} by > 1e-9")
