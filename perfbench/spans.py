"""Spans recorded from outside the program, and the per-layer metrics.

``Tracer.install`` replaces layer entry points at the sites where other
survquant modules (and the package namespace the benchmark calls) look them
up, with wrappers that record a span: name, start, end, parent span, trace
id and the benchmark cell. Nothing under ``src/`` is edited. A site missing
from the program is skipped and listed in ``Tracer.missing``.

Spans stay in memory; ``Tracer.dump`` writes them out when a run ends.
``layer_metrics`` derives self time (a span's duration minus the part of
it covered by its child spans) and the exact work counts.
"""
from __future__ import annotations

import importlib
import itertools
import json
import math
import threading
from collections import defaultdict
from time import perf_counter


def _km_steps(args, kwargs, out):
    return {"steps": int(out.event_times.size)}


def _ls_probes(args, kwargs, out):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"probes": int(cfg.n_draws), "flags": list(out.flags)}


def _kde_cv_work(args, kwargs, out):
    """Pair evaluations of one CV selection, computed as the code does them:
    grid x m^2 on the exact path, grid x bins on the binned path."""
    from survquant import density

    sample, grid = args[0], args[1]
    grid = [float(g) for g in grid]
    times = sample.times[sample.events]
    m = int(times.size)
    threshold = getattr(density, "_BINNING_THRESHOLD", 500)
    if m <= threshold:
        return {"exact": 1, "pair_evals": len(grid) * m * m}
    span = float(times.max() - times.min())
    bins = int(min(2 ** 21, max(1024, math.ceil(span / (grid[0] * 1e-3)))))
    bins = 1 << (bins - 1).bit_length()
    return {"exact": 0, "pair_evals": len(grid) * bins}


def _flags(args, kwargs, out):
    return {"flags": list(out.flags)}


def _solve_kind(args, kwargs, out):
    return {"joint": int(kwargs.get("psi") is not None)}


def _reps(args, kwargs, out):
    return {"reps": int(args[0].replications)}


# (span name, sites "module:attr", inspector of (args, kwargs, result))
SITES = (
    ("simulate.engine", ("survquant:empirical_rejection",
                         "survquant.cli:empirical_rejection"), _reps),
    ("simulate.replicate", ("survquant.simulate:_run_replicate",), None),
    ("simulate.sample_trial", ("survquant.simulate:sample_trial",), None),
    ("survival.fit_kaplan_meier", ("survquant.quantile_tests:fit_kaplan_meier",
                                   "survquant.density:fit_kaplan_meier"), _km_steps),
    ("survival.quantile_at", ("survquant.quantile_tests:quantile_at",
                              "survquant.density:quantile_at"), None),
    ("survival.phi_hat", ("survquant.quantile_tests:phi_hat",), None),
    ("survival.fit_censoring_km", ("survquant.density:fit_censoring_km",), None),
    ("density.ls", ("survquant.quantile_tests:_ls_density_from_fit",), _ls_probes),
    ("density.select_sigma_ls", ("survquant.cli:select_sigma_ls",), None),
    ("density.kde_cv", ("survquant.density:select_bandwidth_cv",), _kde_cv_work),
    ("density.kde_at", ("survquant.density:_KdeMachine.at",), _flags),
    ("quantile_tests.univariate_test", ("survquant.simulate:univariate_test",
                                        "survquant.cli:univariate_test",
                                        "survquant.quantile_tests:univariate_test"), _flags),
    ("quantile_tests.multivariate_test", ("survquant.simulate:multivariate_test",
                                          "survquant.cli:multivariate_test"), _flags),
    ("quantile_tests.bonferroni_followup", ("survquant.cli:bonferroni_followup",), None),
    ("power.noncentral_chi2_cdf", ("survquant.power:noncentral_chi2_cdf",), None),
    ("power.min_sample_size", ("survquant:min_sample_size",
                               "survquant.cli:min_sample_size"), _solve_kind),
    ("scenarios.scenario_psi", ("survquant:scenario_psi",
                                "survquant.simulate:scenario_psi"), None),
    ("scenarios.scenario_sigma2", ("survquant:scenario_sigma2",
                                   "survquant.simulate:scenario_sigma2",
                                   "survquant.cli:scenario_sigma2"), None),
    ("scenarios.resolve_scenario", ("survquant.cli:resolve_scenario",), None),
    ("cli.read_dataset", ("survquant.cli:read_dataset",), None),
)


class Tracer:
    """Span recorder. Span tuple: (id, parent, name, t0, t1, trace, cell, attrs)."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.cell = ""
        self.trace = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._engine = None  # open engine span: parent of worker-thread spans
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, inspect=None):
        tracer = self
        is_engine = name == "simulate.engine"
        is_replicate = name == "simulate.replicate"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._engine
            sid = next(tracer._ids)
            stack.append(sid)
            saved_trace = getattr(tracer._local, "trace", None)
            if is_engine:
                tracer._engine = sid
            if is_replicate:
                tracer._local.trace = f"{tracer.trace}/rep{args[1]}"
            trace = getattr(tracer._local, "trace", None) or tracer.trace
            attrs = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                attrs = {"error": type(exc).__name__}
                raise
            else:
                if inspect is not None:
                    attrs = inspect(args, kwargs, out)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                if is_engine:
                    tracer._engine = None
                if is_replicate:
                    tracer._local.trace = saved_trace
                tracer.spans.append((sid, parent, name, t0, t1, trace, tracer.cell, attrs))

        traced.__wrapped__ = fn
        return traced

    def adopt(self, child_spans) -> None:
        """Add the spans a child process recorded, under this tracer's
        current cell and trace id, with fresh span ids."""
        ids = {s[0]: next(self._ids) for s in child_spans}
        for sid, parent, name, t0, t1, trace, _, attrs in child_spans:
            self.spans.append((ids[sid], ids.get(parent), name, t0, t1,
                               self.trace + trace, self.cell, attrs))

    def install(self):
        for name, sites, inspect in SITES:
            for site in sites:
                module_name, attr_path = site.split(":")
                owner = importlib.import_module(module_name)
                *owner_path, attr = attr_path.split(".")
                try:
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except AttributeError:
                    self.missing.append(site)
                    continue
                setattr(owner, attr, self.wrap(name, original, inspect))
                self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "t0", "t1", "trace",
                                  "cell", "attrs"], "spans": self.spans}, fh)


# name -> unit of the per-call self time (the total is always in ms)
SPAN_METRICS = (
    ("simulate.sample_trial", "us"),
    ("survival.fit_kaplan_meier", "us"),
    ("survival.quantile_at", "us"),
    ("survival.phi_hat", "us"),
    ("survival.fit_censoring_km", "us"),
    ("density.ls", "us"),
    ("density.select_sigma_ls", "ms"),
    ("density.kde_cv", "ms"),
    ("quantile_tests.univariate_test", "us"),
    ("quantile_tests.multivariate_test", "us"),
    ("quantile_tests.bonferroni_followup", "us"),
    ("power.noncentral_chi2_cdf", "us"),
    ("power.min_sample_size", "us"),
    ("scenarios.scenario_psi", "us"),
    ("scenarios.scenario_sigma2", "us"),
    ("scenarios.resolve_scenario", "us"),
    ("cli.read_dataset", "ms"),
)

EXTRA_METRICS = (
    ("simulate.engine.calls", "count"),
    ("simulate.engine.self_us", "us"),
    ("simulate.engine.self_total_ms", "ms"),
    ("simulate.replicate.calls", "count"),
    ("simulate.rep_inflation_nproc", "ratio"),
    ("survival.fit_kaplan_meier.steps", "count"),
    ("density.ls.probes", "count"),
    ("density.kde_cv.pair_evals", "count"),
    ("density.kde_cv.exact_frac", "ratio"),
    ("quantile_tests.km_fit_useful_ratio", "ratio"),
    ("quantile_tests.kde_cv_useful_ratio", "ratio"),
    ("quantile_tests.fail.unreachable", "count"),
    ("quantile_tests.fail.degenerate_tail", "count"),
    ("quantile_tests.fail.singular", "count"),
    ("quantile_tests.flag.clamped_density", "count"),
    ("quantile_tests.flag.zero_slope", "count"),
    ("quantile_tests.flag.truncated_weights", "count"),
    ("power.ncx2_per_solve", "count"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, unit in SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_{unit}"] = unit
        units[f"{name}.self_total_ms"] = "ms"
    units.update(EXTRA_METRICS)
    return units


def _self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    Children of one span may overlap when they run on worker threads."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    out = {}
    for s in spans:
        t0, t1 = s[3], s[4]
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(s[0], ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[s[0]] = (t1 - t0) - covered
    return out


_FAIL_KINDS = {
    "UnreachableQuantileError": "unreachable",
    "DegenerateTailError": "degenerate_tail",
    "SingularCovarianceError": "singular",
}


def layer_metrics(spans, nproc_cells=("J1_nproc", "J1")) -> dict:
    """Per-layer metrics (name -> value) from a list of span tuples."""
    by_id = {s[0]: s for s in spans}
    self_time = _self_times(spans)

    def ancestors(s):
        parent = s[1]
        while parent is not None and parent in by_id:
            yield by_id[parent]
            parent = by_id[parent][1]

    def under(s, prefix):
        return any(a[2].startswith(prefix) for a in ancestors(s))

    named = defaultdict(list)
    for s in spans:
        named[s[2]].append(s)

    metrics = {}
    for name, unit in SPAN_METRICS:
        group = named.get(name, [])
        total = sum(self_time[s[0]] for s in group)
        scale = 1e6 if unit == "us" else 1e3
        metrics[f"{name}.calls"] = len(group)
        metrics[f"{name}.self_{unit}"] = total * scale / len(group) if group else 0.0
        metrics[f"{name}.self_total_ms"] = total * 1e3

    engines = named.get("simulate.engine", [])
    engine_self = sum(self_time[s[0]] for s in engines)
    reps = sum(s[7]["reps"] for s in engines if s[7])
    metrics["simulate.engine.calls"] = len(engines)
    metrics["simulate.engine.self_us"] = engine_self * 1e6 / reps if reps else 0.0
    metrics["simulate.engine.self_total_ms"] = engine_self * 1e3
    replicates = named.get("simulate.replicate", [])
    metrics["simulate.replicate.calls"] = len(replicates)
    wide, narrow = nproc_cells
    mean = {}
    for cell in nproc_cells:
        durations = [s[4] - s[3] for s in replicates if s[6] == cell]
        mean[cell] = sum(durations) / len(durations) if durations else 0.0
    metrics["simulate.rep_inflation_nproc"] = (
        mean[wide] / mean[narrow] if mean[wide] and mean[narrow] else 0.0)

    def attr_sum(name, key):
        return sum(s[7][key] for s in named.get(name, []) if s[7] and key in s[7])

    metrics["survival.fit_kaplan_meier.steps"] = attr_sum("survival.fit_kaplan_meier", "steps")
    metrics["density.ls.probes"] = attr_sum("density.ls", "probes")
    cv = named.get("density.kde_cv", [])
    metrics["density.kde_cv.pair_evals"] = attr_sum("density.kde_cv", "pair_evals")
    metrics["density.kde_cv.exact_frac"] = (
        attr_sum("density.kde_cv", "exact") / len(cv) if cv else 0.0)

    # useful ratio of the test calls made outside the simulation engine
    # (library or CLI ``test``): one trace needs one KM fit, and one CV
    # selection, per arm
    for metric, fit_name in (("km_fit_useful_ratio", "survival.fit_kaplan_meier"),
                             ("kde_cv_useful_ratio", "density.kde_cv")):
        done = defaultdict(int)
        for s in named.get(fit_name, []):
            if under(s, "quantile_tests.") and not under(s, "simulate.engine"):
                done[s[5]] += 1
        fits = sum(done.values())
        metrics[f"quantile_tests.{metric}"] = 2 * len(done) / fits if fits else 0.0

    tests = (named.get("quantile_tests.univariate_test", [])
             + named.get("quantile_tests.multivariate_test", []))
    for kind in _FAIL_KINDS.values():
        metrics[f"quantile_tests.fail.{kind}"] = 0
    for s in tests:
        error = (s[7] or {}).get("error")
        if error in _FAIL_KINDS and not under(s, "quantile_tests."):
            metrics[f"quantile_tests.fail.{_FAIL_KINDS[error]}"] += 1

    def flagged(group, flag):
        return sum(1 for s in group if s[7] and any(
            f.endswith(flag) for f in s[7].get("flags", ())))

    metrics["quantile_tests.flag.clamped_density"] = flagged(tests, "clamped-density")
    metrics["quantile_tests.flag.zero_slope"] = flagged(named.get("density.ls", []), "zero-slope")
    metrics["quantile_tests.flag.truncated_weights"] = flagged(
        named.get("density.kde_at", []), "truncated-weights")

    joint = [s for s in named.get("power.min_sample_size", []) if s[7] and s[7].get("joint")]
    joint_ids = {s[0] for s in joint}
    ncx2 = sum(1 for s in named.get("power.noncentral_chi2_cdf", [])
               if any(a[0] in joint_ids for a in ancestors(s)))
    metrics["power.ncx2_per_solve"] = ncx2 / len(joint) if joint else 0.0
    return metrics
