"""Command line front end for two-sample survival-quantile analysis.

Subcommands:

  test        run the quantile-equality test on a CSV dataset
  power       closed-form power over a (delta, n) grid for a scenario
  samplesize  minimum per-group n reaching target powers
  simulate    Monte Carlo rejection rate under a scenario

power, samplesize and simulate plan one quantile or, from a comma list --p
or p_list, several jointly, through scenarios._plan_design and
_planned_power; a joint row joins its probabilities and deltas with ';'.

Every output embeds a run manifest: the resolved configuration, seeds, the
tuning values actually used, and the package version, so a result can be
reproduced from the output alone. JSON (--json) is the canonical machine
format; the default CSV (power, simulate) and table (test, samplesize)
views are derived from the same payload. JSON has no nan or infinity: a
nan is written as null and +-inf as the strings "Infinity" and "-Infinity".
Exit codes: 0 success, 2 invalid input, 3 numerical failure (unreachable
quantile, singular covariance, and kin).

Datasets are CSV with header time,status,group: non-negative event or
censoring time, status 1 for an observed event and 0 for censoring, group
1 or 2. Extra columns are ignored with a warning on stderr.
"""
from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
# Each command imports the modules it runs where it runs them, so that
# power and samplesize never load the test and simulation code, and test
# never loads the planning and simulation code.
from .errors import (DEFAULT_SIM_SIGMA_EPS, DatasetFormatError, NumericalError, ValidationError,
                     _check_open_unit, _probabilities, _whole_count)

_SIGMA_AUTO_GRID = np.linspace(0.1, 10.0, 199)  # 0.1 .. 10 in steps of 0.05
_REQUIRED_COLUMNS = ("time", "status", "group")


# ---------------------------------------------------------------------------
# serialization helpers

def _jsonable(value):
    """value as plain JSON types; nan becomes null and +-inf the strings
    "Infinity" and "-Infinity", which strict JSON parsers accept."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return None if math.isnan(value) else value
    if isinstance(value, (int, np.integer, bool, np.bool_)):
        return int(value) if not isinstance(value, bool) else value
    return value


def _canonical(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _cell(value) -> str:
    """Deterministic cell rendering for CSV output."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _pretty(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    return _cell(value)


def _emit_csv(manifest: dict, header, rows) -> None:
    out = sys.stdout
    out.write("# manifest: " + _canonical(manifest) + "\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_cell(v) for v in row) + "\n")


def _emit_table(manifest: dict, header, rows) -> None:
    rendered = [[_pretty(v) for v in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rendered)) if rendered else len(header[i])
        for i in range(len(header))
    ]
    out = sys.stdout
    out.write("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for r in rendered:
        out.write("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip() + "\n")
    out.write("\nmanifest: " + _canonical(manifest) + "\n")


def _emit_json(payload, destination: str) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if destination == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(destination).write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write JSON output {destination}: {exc}") from None


def _emit(json_path, payload: dict, tables, view) -> None:
    """With --json, payload goes to json_path; otherwise view (_emit_csv or
    _emit_table) renders each (title, header, rows) of tables after its
    title, with payload's manifest."""
    if json_path:
        _emit_json(payload, json_path)
        return
    for title, header, rows in tables:
        sys.stdout.write(title)
        view(payload["manifest"], header, rows)


def _emit_results(json_path, manifest: dict, header, rows, view) -> None:
    """_emit with one JSON object per row."""
    results = [dict(zip(header, row)) for row in rows]
    _emit(json_path, {"manifest": manifest, "results": results}, [("", header, rows)], view)


def _manifest(command: str, config: dict, seeds: dict, tuning: dict,
              dataset=None) -> dict:
    out = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "tuning": tuning,
        "version": __version__,
    }
    if dataset is not None:
        out["dataset"] = dataset
    return out


# ---------------------------------------------------------------------------
# dataset ingestion

def _read_text(path: str, what: str):
    """The file's bytes and its UTF-8 text; what names the file in errors."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from None
    # spreadsheet exports often start with a byte-order mark
    bom = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        return raw, raw[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        start = bom + exc.start
        raise DatasetFormatError(
            f"not UTF-8 text (byte 0x{raw[start]:02x})",
            line=raw.count(b"\n", 0, start) + 1,
        ) from None


def read_dataset(path: str):
    """Parse a time,status,group CSV into TwoArmData.

    Returns (data, info) where info carries the sha256 of the file bytes and
    any ignored extra column names.
    """
    import hashlib

    from .survival import SurvivalSample, TwoArmData

    raw, text = _read_text(path, "dataset")
    digest = hashlib.sha256(raw).hexdigest()
    reader = csv.reader(io.StringIO(text))
    try:
        names = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise DatasetFormatError("dataset file is empty", line=1) from None
    for column in _REQUIRED_COLUMNS:
        if column not in names:
            raise DatasetFormatError(
                f"missing required column {column!r} (header must contain "
                "time,status,group)", line=1,
            )
    extra = [n for n in names if n not in _REQUIRED_COLUMNS]
    index = {column: names.index(column) for column in _REQUIRED_COLUMNS}
    times = {1: [], 2: []}
    events = {1: [], 2: []}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue  # tolerate a trailing blank line
        if len(row) != len(names):
            raise DatasetFormatError(
                f"expected {len(names)} fields, found {len(row)}", line=lineno
            )
        try:
            time_value = float(row[index["time"]])
        except ValueError:
            raise DatasetFormatError(
                f"time is not a number: {row[index['time']]!r}", line=lineno
            ) from None
        if not math.isfinite(time_value) or time_value < 0:
            raise DatasetFormatError(
                f"time must be finite and non-negative, got {time_value!r}",
                line=lineno,
            )
        status = row[index["status"]].strip()
        if status not in ("0", "1"):
            raise DatasetFormatError(
                f"status must be 0 or 1, got {status!r}", line=lineno
            )
        group = row[index["group"]].strip()
        if group not in ("1", "2"):
            raise DatasetFormatError(
                f"group must be 1 or 2, got {group!r}", line=lineno
            )
        times[int(group)].append(time_value)
        events[int(group)].append(status == "1")
    for group in (1, 2):
        if not times[group]:
            raise ValidationError(f"two groups required: group {group} has no rows")
    data = TwoArmData(
        SurvivalSample(np.array(times[1]), np.array(events[1])),
        SurvivalSample(np.array(times[2]), np.array(events[2])),
    )
    return data, {"path": str(path), "sha256": digest, "ignored_columns": extra}


# ---------------------------------------------------------------------------
# scenario plumbing

def _scenario_values(path: str, p_values=None, delta=None) -> dict:
    """The scenario file's values with --p and --delta laid over them;
    ScenarioConfig checks the result."""
    from .scenarios import _parse_scenario_values

    values = _parse_scenario_values(_read_text(path, "scenario config")[1])
    if p_values is not None:
        values.pop("p", None)
        values.pop("p_list", None)
        if len(p_values) == 1:
            values["p"] = p_values[0]
        else:
            values["p_list"] = tuple(p_values)
    if delta is not None:
        values.pop("lambda_b", None)
        values["delta"] = delta
    return values


def _scenario_summary(config, scenario) -> dict:
    """Resolved generative description for the manifest."""
    arm2 = scenario.arm2
    summary = {
        "lambda_a": config.lambda_a,
        "censoring_rate": scenario.censoring_rate,
        "mu1": scenario.mu1,
    }
    if hasattr(arm2, "t_cut"):
        summary["form"] = "delayed-effect"
        summary["t_cut"] = arm2.t_cut
        summary["lambda_b"] = arm2.rate_late
    else:
        summary["form"] = "proportional"
        summary["lambda_b"] = arm2.rate
    return summary


# ---------------------------------------------------------------------------
# tuning resolution

def _density_tuning(args):
    """The tuning that --method's flag fixes and its manifest entry, or
    (None, entry) for 'auto', the default, which each command resolves.

    test and simulate call this before any other check, so a flag error
    comes first: the other method's flag, then a value that is neither a
    number nor 'auto', then the config's own check of the number.
    """
    from .density import KdeConfig, LsConfig

    if args.method == "ls":
        flag, key, spec = "--sigma-eps", "sigma_eps", args.sigma_eps
        if args.bandwidth is not None:
            raise ValidationError("--bandwidth applies to --method kde only")
    else:
        flag, key, spec = "--bandwidth", "bandwidth", args.bandwidth
        if args.sigma_eps is not None:
            raise ValidationError("--sigma-eps applies to --method ls only")
    if spec is None or spec == "auto":
        return None, {"method": args.method, f"{key}_mode": "auto"}
    try:
        value = float(spec)
    except ValueError:
        raise ValidationError(f"{flag} must be a number or 'auto', got {spec!r}") from None
    tuning = LsConfig(value, seed=args.seed) if args.method == "ls" else KdeConfig(value)
    return tuning, {"method": args.method, key: value, f"{key}_mode": "fixed"}


def _auto_sigma(assembly, probabilities, seed):
    """test's LS tuning under 'auto' and the per-selection values: the
    largest plateau-stable sigma over arm x probability (symmetric in the
    arms, errs toward smoothing), tuned on the assembly's KM fits with as
    many draws as the final estimate takes."""
    from .density import LsConfig, _select_sigma

    chosen = [selection.sigma_eps for arm in assembly.arms
              for selection in _select_sigma(arm.fit, probabilities, arm.times,
                                             _SIGMA_AUTO_GRID, LsConfig.n_draws, seed)]
    return LsConfig(max(chosen), seed=seed), chosen


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_test(args) -> int:
    from .quantile_tests import (_Assembly, _bonferroni_from_pieces, _multivariate_from_pieces,
                                 _univariate_from_pieces)

    tuning, manifest_tuning = _density_tuning(args)
    data, dataset_info = read_dataset(args.data)
    if dataset_info["ignored_columns"]:
        print(
            "warning: ignoring extra column(s): "
            + ", ".join(dataset_info["ignored_columns"]),
            file=sys.stderr,
        )
    probabilities = _probabilities(args.p)
    _whole_count("--seed", args.seed, 0)
    _check_open_unit("alpha", args.alpha)
    if args.bonferroni and len(probabilities) < 2:
        raise ValidationError("Bonferroni follow-up needs at least 2 probabilities")
    # one Psi_hat (KM fits, quantiles, densities) for every result
    assembly = _Assembly(data, probabilities)
    if args.method == "ls" and tuning is None:
        tuning, chosen = _auto_sigma(assembly, probabilities, args.seed)
        manifest_tuning.update(sigma_eps=tuning.sigma_eps, sigma_eps_selections=chosen)
    assembly.estimate(args.method, tuning)

    config = {
        "p": list(probabilities),
        "method": args.method,
        "alpha": args.alpha,
        "bonferroni": bool(args.bonferroni),
    }
    seeds = {"seed": args.seed} if args.method == "ls" else {}
    if args.method == "kde":
        for k, arm in enumerate(assembly.arms, start=1):
            manifest_tuning[f"bandwidth_arm{k}"] = arm.densities[0].tuning
    manifest = _manifest("test", config, seeds, manifest_tuning, dataset_info)

    if len(probabilities) == 1:
        result = _univariate_from_pieces(assembly, 0)
        header = ["p", "delta_hat", "statistic", "p_value", "flags"]
        rows = [[result.p, result.delta_hat, result.statistic, result.p_value,
                 ";".join(result.flags)]]
        payload = {"manifest": manifest, "results": [asdict(result)]}
        _emit(args.json, payload, [("", header, rows)], _emit_table)
        return 0

    followup = _bonferroni_from_pieces(assembly, args.alpha) if args.bonferroni else []
    joint = _multivariate_from_pieces(assembly)
    tables = [("", ["statistic", "dof", "p_value", "flags"],
               [[joint.statistic, joint.dof, joint.p_value, ";".join(joint.flags)]])]
    if followup:
        tables.append((
            "\nBonferroni follow-up:\n",
            ["p", "delta_hat", "statistic", "p_value", "adjusted_p", "reject"],
            [[r.p, r.delta_hat, r.statistic, r.p_value, r.adjusted_p_value, r.reject_adjusted]
             for r in followup],
        ))
    payload = {
        "manifest": manifest,
        "results": [asdict(joint)],
        "bonferroni": [asdict(r) for r in followup],
    }
    _emit(args.json, payload, tables, _emit_table)
    return 0


def _joined(values) -> str:
    """Several probabilities or deltas in one cell, as simulate prints them."""
    return ";".join(_cell(v) for v in values)


def cmd_power(args) -> int:
    from .scenarios import ScenarioConfig, _plan_design, _planned_power, resolve_scenario

    config = ScenarioConfig(**_scenario_values(args.scenario, args.p, args.delta[0]))
    ps = config.probabilities
    rows = []
    for delta in args.delta:
        scenario = resolve_scenario(replace(config, delta=delta))
        deltas = _plan_design(scenario, ps, delta)["deltas"]
        shown = [ps[0], delta] if len(ps) == 1 else [_joined(ps), _joined(deltas)]
        rows += [[*shown, n, _planned_power(scenario, ps, delta, n, args.alpha)] for n in args.n]
    scenario_manifest = _scenario_summary(config, scenario)
    scenario_manifest.pop("lambda_b", None)  # varies with delta
    config_out = {
        "scenario": scenario_manifest,
        "p": ps[0] if len(ps) == 1 else list(ps),
        "deltas": list(args.delta),
        "n_per_group": list(args.n),
        "alpha": args.alpha,
    }
    manifest = _manifest("power", config_out, {}, {"method": "closed-form"})
    header = ["p", "delta", "n_per_group", "power"]
    _emit_results(args.json, manifest, header, rows, _emit_csv)
    return 0


def cmd_samplesize(args) -> int:
    from .power import min_sample_size
    from .scenarios import ScenarioConfig, _plan_design, resolve_scenario

    config = ScenarioConfig(**_scenario_values(args.scenario, args.p, args.delta))
    ps = config.probabilities
    scenario = resolve_scenario(config)
    design = _plan_design(scenario, ps, args.delta)
    rows = []
    for target in args.power:
        result = min_sample_size(target, alpha=args.alpha, **design)
        rows.append([
            target, result.per_group_n, result.total_n, result.achieved_power,
        ])
    config_out = {
        "scenario": _scenario_summary(config, scenario),
        "p": ps[0] if len(ps) == 1 else list(ps),
        "delta": design["deltas"],
        "targets": list(args.power),
        "alpha": args.alpha,
    }
    manifest = _manifest("samplesize", config_out, {}, {"method": "closed-form"})
    header = ["target_power", "per_group_n", "total_n", "achieved_power"]
    _emit_results(args.json, manifest, header, rows, _emit_table)
    return 0


def cmd_simulate(args) -> int:
    from .scenarios import ScenarioConfig, resolve_scenario
    from .simulate import SimulationPlan, empirical_rejection

    tuning, manifest_tuning = _density_tuning(args)
    config = ScenarioConfig(**_scenario_values(args.scenario, args.p, args.delta))
    scenario = resolve_scenario(config)
    probabilities = config.probabilities

    if args.seed is None:
        if os.environ.get("CI"):
            raise ValidationError("--seed is required when the CI env var is set")
        seed = 0
    else:
        seed = args.seed

    plan = SimulationPlan(
        scenario=scenario,
        n_per_group=args.n,
        probabilities=probabilities,
        replications=args.reps,
        alpha=args.alpha,
        density_method=args.method,
        tuning=tuning,
        master_seed=seed,
        threads=args.threads,
    )
    if args.method == "ls":  # the scale the plan runs with, 'auto' or not
        manifest_tuning = {"method": "ls", "sigma_eps": plan.tuning.sigma_eps}
    report = empirical_rejection(plan)

    deltas = [scenario.quantile_difference(p) for p in probabilities]
    config_out = {
        "scenario": _scenario_summary(config, scenario),
        "p": list(probabilities),
        "n_per_group": args.n,
        "replications": args.reps,
        "alpha": args.alpha,
    }
    manifest = _manifest(
        "simulate", config_out, {"master_seed": seed}, manifest_tuning
    )
    header = [
        "p", "delta", "empirical", "mc_se", "formula", "failures", "used",
        "replications", "flags",
    ]
    row = [
        _joined(probabilities), _joined(deltas),
        report.rate, report.mc_se, report.formula_power, report.n_failures,
        report.n_used, report.replications, ";".join(report.flags),
    ]
    if args.timing:
        header += ["rep_time_mean_s", "rep_time_sd_s"]
        row += [report.rep_time_mean_s, report.rep_time_sd_s]
    _emit_results(args.json, manifest, header, [row], _emit_csv)
    return 0


# ---------------------------------------------------------------------------
# parser

def _list_of(kind, noun: str):
    """argparse type for a comma list of at least one kind(token)."""
    def parse(text: str):
        try:
            values = [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}s, got {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one {noun}")
        return values
    return parse


_float_list = _list_of(float, "number")
_int_list = _list_of(int, "integer")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes an argument starting with a minus and a
    digit, or a minus, a point and a digit, for a value, such as "-0.2,0.1"
    or "-1e-1" after --delta. Python 3.11's argparse takes only plain
    numbers such as "-2" and "-0.2" so, and any other such argument for an
    unknown option. No option here starts so. Subparsers are of this class
    too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a private attribute; TestParser checks that it still takes effect
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="survquant",
        description="Two-sample tests and design for survival quantiles under right censoring.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # flags that several subcommands share, each declared once
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--alpha", type=float, default=0.05,
                        help="significance level (default 0.05)")
    output.add_argument("--json", metavar="PATH",
                        help="write canonical JSON to PATH ('-' for stdout) "
                             "instead of the table or CSV")
    planning = argparse.ArgumentParser(add_help=False)
    planning.add_argument("--scenario", required=True, help="key=value scenario config file")
    planning.add_argument("--p", type=_float_list, default=None,
                          help="quantile probability, or comma list for the joint plan "
                               "(overrides the file's p or p_list)")
    density = argparse.ArgumentParser(add_help=False)
    density.add_argument("--method", choices=("ls", "kde"), default="ls")
    density.add_argument("--sigma-eps", default=None,
                         help="LS perturbation scale, or 'auto' (the default): test "
                              "selects it from the data, simulate takes "
                              f"{DEFAULT_SIM_SIGMA_EPS}")
    density.add_argument("--bandwidth", default=None,
                         help="KDE bandwidth, or 'auto' (the default) for CV selection")

    test = sub.add_parser("test", parents=[output, density],
                          help="test quantile equality on a dataset")
    test.add_argument("data", help="CSV file with header time,status,group")
    test.add_argument("--p", type=_float_list, required=True,
                      help="quantile probability, or comma list for the joint test")
    test.add_argument("--bonferroni", action="store_true",
                      help="per-quantile follow-up with Bonferroni adjustment")
    test.add_argument("--seed", type=int, default=0,
                      help="seed for the LS perturbation draws (default 0)")
    test.set_defaults(handler=cmd_test)

    power = sub.add_parser("power", parents=[planning, output],
                           help="closed-form power over a (delta, n) grid")
    power.add_argument("--delta", type=_float_list, required=True,
                       help="comma list of quantile differences")
    power.add_argument("--n", type=_int_list, required=True,
                       help="comma list of per-group sample sizes")
    power.set_defaults(handler=cmd_power)

    size = sub.add_parser("samplesize", parents=[planning, output],
                          help="minimum per-group n for target powers")
    size.add_argument("--delta", type=float, default=None,
                      help="quantile difference (falls back to the scenario's)")
    size.add_argument("--power", type=_float_list, required=True,
                      help="comma list of target powers")
    size.set_defaults(handler=cmd_samplesize)

    sim = sub.add_parser("simulate", parents=[planning, output, density],
                         help="empirical rejection rate by Monte Carlo")
    sim.add_argument("--n", type=int, required=True, help="per-group sample size")
    sim.add_argument("--reps", type=int, required=True, help="number of replicates")
    sim.add_argument("--delta", type=float, default=None,
                     help="override the scenario's quantile difference")
    sim.add_argument("--seed", type=int, default=None,
                     help="master seed (default 0; required when CI is set)")
    sim.add_argument("--threads", type=int, default=1,
                     help="most processes to run replicates on (default 1), "
                          "capped by the usable CPUs; only --timing columns "
                          "depend on it")
    sim.add_argument("--timing", action="store_true",
                     help="append per-replicate timing columns")
    sim.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed by its reader", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
