"""Monte Carlo harness: empirical rejection rates under a TrialScenario.

Determinism contract: replicate k draws everything it needs from
SeedSequence(master_seed, spawn_key=(k,)), so results depend only on the
master seed and the replicate index. Replicates run in blocks: a block
draws each replicate's data in turn, then fits, probes and tests its rows
together as arrays, through the serial test's kernels (the product-limit
fit, tied times included, survival._quantiles, density._ls_slopes or
density._KdeMachine) and its arithmetic in its order, so every p-value
equals the one univariate_test or multivariate_test gives on
sample_trial's data for that replicate. SimulationPlan.threads caps the
processes a run may use: the calling process and, where os.fork is safe
to use, up to threads - 1 forked workers, each running a contiguous span
of replicates in blocks of its own. Neither the span nor the block a
replicate falls in changes a bit of its p-value, so the report, timing
aside, is the same for any thread count. A plan without a formula power
fails before any replicate runs.
"""
from __future__ import annotations

import atexit
import functools
import io
import math
import operator
import os
import pickle
import signal
import sys
import threading
import time
import types
from dataclasses import dataclass

import numpy as np

from .density import LsConfig, _check_tuning, _KdeMachine, _ls_draws, _ls_slopes
from .errors import (DEFAULT_SIM_SIGMA_EPS, SingularCovarianceError, TooFewEventsError,
                     ValidationError, _check_open_unit, _probabilities, _whole_count)
from .power import PowerSpec, power_multivariate, power_univariate
from .quantile_tests import (
    _default_tuning,
    _joint_statistic,
    _psi_hat,
    _univariate_statistic,
)
from .scenarios import TrialScenario, scenario_psi
from .survival import (
    SurvivalSample,
    TwoArmData,
    _censoring_before,
    _product_limit,
    _quantiles,
    _sorted_observations,
    _step_sizes,
)

_MAX_FAILURE_FRACTION = 0.05
# Draws per block of replicates (observed times of both arms plus LS
# perturbations), so a block's arrays stay near 128 KB each whatever n and
# the replication count. Larger blocks saved little more time on sim_ls and
# raised its peak memory.
_BLOCK_VALUES = 1 << 14


@dataclass(frozen=True)
class SimulationPlan:
    """Everything one empirical-rejection run depends on.

    tuning=None takes the plan's default, set once here:
    LsConfig(DEFAULT_SIM_SIGMA_EPS) for LS and the library's CV default
    for KDE. An LS config's seed is not used: each replicate seeds its
    perturbations from its own child seed, the same for both arms, so the
    draws act as common random numbers and the result is symmetric in the
    arms.
    """

    scenario: TrialScenario
    n_per_group: int
    probabilities: tuple
    replications: int
    alpha: float = 0.05
    density_method: str = "ls"
    tuning: object = None
    master_seed: int = 0
    # the most processes the run may use, the caller included; the run takes
    # fewer when the CPUs it may use or its blocks are fewer, or when a
    # worker would cost more to start than it saves
    threads: int = 1

    def __post_init__(self):
        for name, least in (("n_per_group", 2), ("replications", 1), ("master_seed", 0),
                            ("threads", 1)):
            object.__setattr__(self, name, _whole_count(name, getattr(self, name), least))
        # a replicate's uniforms: an event and a censoring draw per subject and arm
        if 4 * self.n_per_group * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            raise ValidationError(f"n_per_group={self.n_per_group} is too large: one "
                                  "replicate's draws would not fit in a numpy array")
        if self.scenario.mu1 != 0.5:
            raise ValidationError("simulation draws n_per_group subjects per arm and tests "
                                  "at equal allocation, so it needs mu1 = 0.5, got "
                                  f"{self.scenario.mu1:g}")
        _check_open_unit("alpha", self.alpha)
        _check_tuning(self.density_method, self.tuning)
        if self.tuning is None:
            object.__setattr__(self, "tuning", LsConfig(DEFAULT_SIM_SIGMA_EPS)
                               if self.density_method == "ls" else _default_tuning("kde"))
        object.__setattr__(self, "probabilities", _probabilities(self.probabilities))


@dataclass(frozen=True)
class RejectionReport:
    """Empirical rejection rate with its Monte Carlo uncertainty.

    n_failures counts replicates where the test could not be run at all
    (unreachable quantile, degenerate variance, singular covariance, too
    few events for a cross-validated bandwidth); they are excluded from the
    denominator n_used. p_values holds one entry per replicate, NaN for
    failed ones. Replicates run in blocks, so each is charged its block's
    wall time divided by the block's size: rep_time_mean_s is the mean of
    those shares and rep_time_sd_s their standard deviation (ddof=1), 0
    when all replicates share one block. When blocks run on several
    processes at once, wall_time_s falls below the sum of the shares.
    """

    rate: float
    mc_se: float
    formula_power: float
    n_failures: int
    n_used: int
    replications: int
    alpha: float
    p_values: np.ndarray
    wall_time_s: float
    rep_time_mean_s: float
    rep_time_sd_s: float
    flags: tuple = ()


def sample_trial(scenario: TrialScenario, n1: int, n2: int, replicate_seed) -> TwoArmData:
    """Draw one two-arm dataset by inverse-CDF sampling.

    replicate_seed is anything numpy's default_rng accepts (int,
    SeedSequence, Generator). Draw order is fixed: arm-1 events, arm-1
    censoring, arm-2 events, arm-2 censoring.
    """
    n1, n2 = _whole_count("n1", n1, 1), _whole_count("n2", n2, 1)
    rng = np.random.default_rng(replicate_seed)

    def one_arm(arm, size):
        event_u = rng.random(size)
        censor_u = rng.random(size) if scenario.censoring_rate > 0 else None
        return SurvivalSample(*_observe(scenario, arm, event_u, censor_u))

    return TwoArmData(one_arm(scenario.arm1, n1), one_arm(scenario.arm2, n2))


def _observe(scenario: TrialScenario, arm, event_u, censor_u):
    """Observed times and event flags of one arm from its uniform draws, of
    any shape; censor_u is None when the scenario has no censoring."""
    # standard-exponential draws mapped through the arm's inverse CDF
    events = arm.inverse_cdf(-np.log1p(-event_u))
    if censor_u is None:
        censor = np.inf
    else:
        censor = -np.log1p(-censor_u) / scenario.censoring_rate
    return np.minimum(events, censor), events <= censor


def _formula_power(plan: SimulationPlan) -> float:
    """The power the planning formula gives the plan's design at its alpha:
    univariate at one probability, joint at several. It depends only on
    (scenario, probabilities, 2n, alpha), not on the seed, so studies that
    rerun a design under new seeds compute it once: the 8 latest designs
    are kept. Errors are not kept, so a design without a formula power
    raises on every call."""
    return _design_power(plan.scenario, plan.probabilities, 2 * plan.n_per_group, plan.alpha)


@functools.lru_cache(maxsize=8, typed=True)
def _design_power(scenario: TrialScenario, ps: tuple, total: int, alpha) -> float:
    deltas = [scenario.quantile_difference(p) for p in ps]
    psi = scenario_psi(scenario, ps)
    if len(ps) == 1:
        return power_univariate(PowerSpec(alpha=alpha, deltas=deltas[0],
                                          sigma=math.sqrt(psi[0, 0]), total_n=total))
    return power_multivariate(PowerSpec(alpha=alpha, deltas=deltas, psi=psi, total_n=total))


def _block_rows(plan: SimulationPlan) -> int:
    """Replicates per block: about _BLOCK_VALUES draws, at least one."""
    per_rep = 2 * plan.n_per_group
    if plan.density_method == "ls":
        per_rep += plan.tuning.n_draws
    return max(1, _BLOCK_VALUES // per_rep)


def _draw_block(plan: SimulationPlan, first: int, count: int):
    """Draws of replicates first .. first+count-1, as the serial test makes
    them.

    Returns observed times and event flags, each (count, 2, n) with arm 1
    first along axis 1, and the LS perturbation draws (count, n_draws),
    each row sorted as _ls_draws sorts it, or None for KDE. Replicate k
    takes its uniforms from SeedSequence(master_seed, spawn_key=(k,)) in
    sample_trial's order, so its rows equal sample_trial's arrays. Its
    perturbations come from that seed's first child, spawn_key=(k, 0), what
    seed.spawn(1) gives: the serial test re-seeds every (arm, p) from it,
    so one draw serves them all.
    """
    scenario, n = plan.scenario, plan.n_per_group
    censored = scenario.censoring_rate > 0
    uniforms = np.empty((count, 4 if censored else 2, n))
    ls = plan.tuning if plan.density_method == "ls" else None
    eps = np.empty((count, ls.n_draws)) if ls else None
    for r in range(count):
        rep = first + r
        seed = np.random.SeedSequence(plan.master_seed, spawn_key=(rep,))
        np.random.default_rng(seed).random(out=uniforms[r])
        if ls:
            child = np.random.SeedSequence(plan.master_seed, spawn_key=(rep, 0))
            eps[r] = _ls_draws(ls, child)
    # (replicate, arm, event or censoring draw, subject)
    uniforms = uniforms.reshape(count, 2, -1, n)
    arms = [
        _observe(scenario, arm, uniforms[:, a, 0], uniforms[:, a, 1] if censored else None)
        for a, arm in enumerate((scenario.arm1, scenario.arm2))
    ]
    times = np.stack([observed for observed, _ in arms], axis=1)
    events = np.stack([flags for _, flags in arms], axis=1)
    return times, events, eps


def _block_p_values(plan: SimulationPlan, times, events, eps):
    """p-values of the replicates of one block, in order; NaN marks a
    failure.

    The fits' product-limit kernel runs over the whole block, tied times
    included, so each step of a row equals fit_kaplan_meier's bit for bit;
    for KDE it runs on the censoring side as well, for the censoring
    weights of every row. Quantiles and Greenwood factors follow from the
    full rows, LS slopes from one call for the block on its sorted draws,
    KDE estimates from each arm's sorted row, and Psi_hat and the p-value
    from the tests' own arithmetic, every sum over the same sorted terms as
    in the serial test. A sample that SurvivalSample rejects raises once
    the rows before it have run, as in a serial loop.
    """
    count, _, n = times.shape
    valid = np.isfinite(times).all(axis=(1, 2)) & (times >= 0).all(axis=(1, 2))
    if not valid.all():
        stop = int(np.argmin(valid))
        if stop:
            _block_p_values(plan, times[:stop], events[:stop],
                            None if eps is None else eps[:stop])
        for a in (0, 1):  # raises the sample's ValidationError
            SurvivalSample(times[stop, a], events[stop, a])

    steps, flags = _sorted_observations(times, events)
    d, y = _step_sizes(steps, flags)
    survival, greenwood = _product_limit(d, y)

    ps = plan.probabilities
    quantiles, sums, reached = _quantiles(steps, d, survival, greenwood, ps)
    phis = n * sums
    estimable = (reached & np.isfinite(sums)).all(axis=(1, 2))

    if plan.density_method == "ls":
        rows = np.flatnonzero(estimable)
        slopes = np.empty(quantiles.shape)
        slopes[rows], _ = _ls_slopes(steps[rows], survival[rows], n, ps, quantiles[rows],
                                     eps[rows][:, None, None, :])
    else:
        before = _censoring_before(steps, flags)

    out = np.full(count, np.nan)
    for r in np.flatnonzero(estimable):
        arm_times = quantiles[r].tolist()
        try:
            if plan.density_method == "ls":
                values = slopes[r].tolist()
            else:
                machines = [_KdeMachine(steps[r, a], flags[r, a], before[r, a], plan.tuning)
                            for a in (0, 1)]
                values = [m.values(ts) for m, ts in zip(machines, arm_times)]
            # equal arms: each allocation fraction is n / 2n = 0.5
            _, psi, deltas = _psi_hat(ps, arm_times, phis[r].tolist(), values, (0.5, 0.5))
            if len(ps) == 1:
                out[r] = _univariate_statistic(2 * n, float(deltas[0]), psi[0, 0])[2]
            else:
                out[r] = _joint_statistic(2 * n, deltas, psi, ps)[1]
        except (TooFewEventsError, SingularCovarianceError):
            pass
    return out


def _span(plan: SimulationPlan, first: int, count: int):
    """p-values and time shares of replicates first .. first+count-1, run
    in blocks from first on: each replicate is charged its block's wall
    time divided by the block's size."""
    p_values, shares = np.empty(count), np.empty(count)
    rows = _block_rows(plan)
    for start in range(0, count, rows):
        block_started = time.perf_counter()
        size = min(rows, count - start)
        block = _draw_block(plan, first + start, size)
        p_values[start:start + size] = _block_p_values(plan, *block)
        shares[start:start + size] = (time.perf_counter() - block_started) / size
    return p_values, shares


def _usable_cpus() -> int:
    """The CPUs a run may spread over: those this process may use, or 1
    where it cannot fork workers (no os.fork) or where a fork after numpy
    has loaded is not safe with the system BLAS (no os.sched_getaffinity,
    as on macOS)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _run(plan: SimulationPlan, alone: bool):
    """p-values and time shares of all the plan's replicates.

    One process runs them all when the plan allows only one, has one
    block or does not pickle, or when the run did not start alone: the
    workers serve one run at a time. Otherwise the replicates are split
    into contiguous spans, the first for the caller and a later one for
    each worker. When enough workers are running, the split starts at
    replicate 0. If not, the caller first runs and times the first block,
    and the rest goes to as many workers as _ready_workers expects to pay.
    A span that raises in a worker, whose worker dies, or whose worker was
    forked before the code the plan runs on changed, runs again here, so a
    run raises what the serial loop raises, at the first failing replicate
    in replicate order.
    """
    global _code
    reps, rows = plan.replications, _block_rows(plan)
    processes = min(plan.threads, _usable_cpus(), -(-reps // rows))
    task, modules = _pickled(plan) if processes > 1 and alone else (None, None)
    if task is None:
        return _span(plan, 0, reps)
    forked_before = bool(_workers)
    p_values, shares = np.empty(reps), np.empty(reps)
    if len(_workers) >= processes - 1:
        head, workers = 0, _workers[:processes - 1]
    else:
        head = rows
        p_values[:rows], shares[:rows] = _span(plan, 0, rows)
        workers = _ready_workers(min(processes - 1, reps - rows - 1),
                                 rows * shares[0], (reps - rows) / rows)
    parts = len(workers) + 1
    edges = [head + (reps - head) * i // parts for i in range(parts + 1)]
    pending = []
    try:
        for worker, first, stop in zip(workers, edges[1:], edges[2:]):
            pending.append((worker, first, stop))
            worker.send(task, first, stop - first)
        p_values[head:edges[1]], shares[head:edges[1]] = _span(plan, head, edges[1] - head)
        # checked while the workers run: workers forked before the code
        # changed ran the plan on code it no longer has, so their spans
        # run again here
        code = _code_state(modules)
        if forked_before and not (len(code) == len(_code)
                                  and all(map(operator.is_, code, _code))):
            _stop_workers()
        _code = code
        while pending:
            worker, first, stop = pending[0]
            reply = worker.reply()
            del pending[0]
            if reply is None:
                reply = _span(plan, first, stop - first)
            p_values[first:stop], shares[first:stop] = reply
    finally:
        # the caller raised or was interrupted: a worker whose reply is
        # still unread is busy with a span nobody will read
        for worker, _, _ in pending:
            worker.stop()
    return p_values, shares


# The workers of this process, forked on the first run that gains from
# them and kept for later runs, and the code they were forked with, as
# _code_state lists it.
_workers = []
_code = ()
_start_s = None  # the caller's time to fork one worker, as last measured
# Runs of empirical_rejection under way in this process, and the lock that
# guards the count and every fork: only a run that starts alone uses the
# workers, a worker is forked only while no other run is under way, and a
# run that starts during a fork waits for its end, so no thread of this
# package is inside numpy when a process is copied.
_runs = 0
_runs_lock = threading.Lock()
_PACKAGE = __name__.rpartition(".")[0] + "."  # this package's modules start so
# Py_TPFLAGS_HEAPTYPE: set on classes made at run time, as by a class
# statement; the others, such as numpy's scalar types, cannot change
_HEAP_TYPE = 1 << 9


class _Pickler(pickle.Pickler):
    """Records the module of each class and function the pickle stores by
    name, for the worker to look up."""

    def reducer_override(self, obj):
        if isinstance(obj, (type, types.FunctionType, types.BuiltinFunctionType)):
            module = getattr(obj, "__module__", None)
            if isinstance(module, str):  # some compiled functions have None
                self.modules.add(module)
        return NotImplemented


def _pickled(plan: SimulationPlan):
    """The plan's pickle and the modules a worker looks its names up in:
    the package's and those of the classes and functions the pickle names.
    (None, None) when the plan does not pickle."""
    buffer = io.BytesIO()
    pickler = _Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.modules = {name for name in sys.modules if name.startswith(_PACKAGE)}
    try:
        pickler.dump(plan)
    except Exception:  # for instance a class defined inside a function
        return None, None
    return buffer.getvalue(), pickler.modules


def _code_state(modules) -> list:
    """What a worker finds under the names the plan and this package use,
    in a fixed order: each module's callables and upper-case constants,
    the attributes of the classes it defines and of their bases, and the
    code of every function among them. A worker copies these at its fork,
    and pickle sends classes and functions by name, so workers forked
    with another list than a run's (a class redefined, a module reloaded,
    a function patched since) ran it on other code."""
    state = []
    for name in sorted(modules):
        namespace = getattr(sys.modules.get(name), "__dict__", None)
        if namespace is None:
            continue
        for key, value in list(namespace.items()):
            if not (callable(value) or key.isupper()):
                continue
            state.append(value)
            if isinstance(value, types.FunctionType):
                state.append(value.__code__)
            elif isinstance(value, type) and value.__module__ == name:
                for owner in value.__mro__:
                    if owner.__flags__ & _HEAP_TYPE:
                        for attr in list(vars(owner).values()):
                            state.append(attr)
                            if isinstance(attr, types.FunctionType):
                                state.append(attr.__code__)
    return state


def _ready_workers(most: int, block_s: float, blocks_left: float) -> list:
    """Workers for the rest of a run, forking more as needed: as many, up
    to most, as give the rest the shortest estimated time. On one process
    the rest takes blocks_left times block_s, the time of the first block,
    and on 1 + k processes that over 1 + k. Each worker not yet running
    adds its fork and, at exit, its reaping, which took about as long as
    the fork: twice the fork time last measured, or until then twice
    block_s. No worker is forked while another run is under way."""
    global _start_s
    serial_s = block_s * blocks_left
    start_s = 2 * (block_s if _start_s is None else _start_s)
    wanted = min(range(most + 1),
                 key=lambda k: serial_s / (1 + k) + start_s * max(0, k - len(_workers)))
    with _runs_lock:
        while len(_workers) < wanted and _runs <= 1:
            started = time.perf_counter()
            try:
                worker = _Worker()
            except OSError:  # no process to be had: run with those there are
                break
            _start_s = time.perf_counter() - started
            _workers.append(worker)
    return _workers[:wanted]


class _Worker:
    """A forked process that runs the spans sent to it, one at a time, until
    its task pipe closes."""

    def __init__(self):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            _serve(task_r, task_w, result_r, result_w)
        os.close(task_r)
        os.close(result_w)
        self.pid = pid
        self.tasks = os.fdopen(task_w, "wb")
        self.results = os.fdopen(result_r, "rb")

    def send(self, task: bytes, first: int, count: int):
        """Start the span first .. first+count-1 of the pickled plan task."""
        try:
            pickle.dump((task, first, count), self.tasks, pickle.HIGHEST_PROTOCOL)
            self.tasks.flush()
        except Exception:  # a dead worker: reply() gives None and the
            self.stop()    # caller runs the span

    def reply(self):
        """The (p-values, shares) of the span sent last, or None when the
        span raised or the worker is gone."""
        try:
            return pickle.load(self.results)
        except Exception:  # the pipe closed, or broke off mid-reply
            self.stop()
            return None

    def close(self):
        """Drop this process's ends of the worker's pipes. The raw files
        close, so no buffer is flushed or locked: in a forked copy, another
        thread of the parent may have held a buffer's lock at the fork."""
        self.tasks.raw.close()
        self.results.raw.close()

    def stop(self):
        """End the worker, whatever it is doing, and reap it."""
        if self in _workers:
            _workers.remove(self)
        self.close()
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self.pid = None


def _serve(task_r, task_w, result_r, result_w):
    """A worker's whole life; it never returns. Ctrl-C is the caller's to
    report, and the worker leaves once the caller closes its task pipe or
    exits. A span that raises, or whose plan does not unpickle here, sends
    None, and the caller runs it again, so no exception crosses the pipe."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(task_w)
        os.close(result_r)
        with os.fdopen(task_r, "rb") as tasks, os.fdopen(result_w, "wb") as results:
            while True:
                try:
                    task, first, count = pickle.load(tasks)
                except EOFError:
                    break
                try:
                    reply = _span(pickle.loads(task), first, count)
                except BaseException:
                    reply = None
                pickle.dump(reply, results, pickle.HIGHEST_PROTOCOL)
                results.flush()
    finally:
        os._exit(0)


@atexit.register
def _stop_workers():
    for worker in list(_workers):
        worker.stop()


def _forget_workers():
    """In a process forked from this one, a worker included: the workers
    and runs are the parent's, and a thread that held _runs_lock at the
    fork is not copied. So the copy closes its ends of the workers' pipes,
    and each worker sees its own close when its caller leaves."""
    global _runs, _runs_lock
    for worker in _workers:
        worker.close()
    _workers.clear()
    _runs, _runs_lock = 0, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_forget_workers)


def empirical_rejection(plan: SimulationPlan) -> RejectionReport:
    """Run the plan's replicates and summarize the rejection frequency."""
    global _runs
    started = time.perf_counter()
    with _runs_lock:
        _runs += 1
        alone = _runs == 1
    try:
        # before any replicate: a plan without a formula power fails at once
        formula_power = _formula_power(plan)
        p_values, shares = _run(plan, alone)
    finally:
        with _runs_lock:
            _runs -= 1
    reps = plan.replications

    failures = int(np.count_nonzero(np.isnan(p_values)))
    used = reps - failures
    flags = ()
    if failures > _MAX_FAILURE_FRACTION * reps:
        flags = ("invalid: failure fraction above 5%",)
    if used == 0:
        rate, se = math.nan, math.nan
        flags += ("no usable replicates",)
    else:
        rate = float(np.count_nonzero(p_values < plan.alpha)) / used
        se = math.sqrt(rate * (1.0 - rate) / used)
    return RejectionReport(
        rate=rate,
        mc_se=se,
        formula_power=formula_power,
        n_failures=failures,
        n_used=used,
        replications=reps,
        alpha=plan.alpha,
        p_values=p_values,
        wall_time_s=time.perf_counter() - started,
        rep_time_mean_s=float(shares.mean()),
        rep_time_sd_s=float(shares.std(ddof=1)) if reps > _block_rows(plan) else 0.0,
        flags=flags,
    )
