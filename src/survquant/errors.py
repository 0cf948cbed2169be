"""Exception hierarchy and the input rules that every module shares.

Two broad families matter to callers: validation errors (bad inputs,
infeasible parameters) and numerical errors (quantities that cannot be
estimated from the data at hand). The CLI maps them to exit codes 2 and 3.
Every command loads this module, so it holds no statistics.
"""
import math

import numpy as np

# Default LS perturbation scale for simulations. Wide on purpose: at small n
# the probe window then exceeds the data support, the slope underestimates the
# density, and the test turns conservative, which is the small-sample
# behavior the rejection-rate tables are calibrated against. Override through
# SimulationPlan.tuning for anything else. It lives here, not in simulate.py,
# so that the CLI's help can name it without loading the simulation engine.
DEFAULT_SIM_SIGMA_EPS = 5.0


class SurvQuantError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SurvQuantError):
    """Invalid input: shapes, domains, config files, datasets."""


def _invalid(name, rule, value) -> ValidationError:
    return ValidationError(f"{name} must {rule}, got {float(value)!r}")


def _check_open_unit(name, value):
    """Raise ValidationError unless 0 < value < 1 (nan fails)."""
    if not 0.0 < value < 1.0:
        raise _invalid(name, "lie strictly between 0 and 1", value)


def _check_positive(name, value, finite=False):
    """Raise ValidationError unless value > 0; nan fails, inf fails if finite."""
    if not (0 < value < math.inf if finite else value > 0):
        raise _invalid(name, "be positive and finite" if finite else "be positive", value)


def _check_non_negative(name, value, finite=False):
    """Raise ValidationError unless value >= 0; nan fails, inf fails if finite."""
    if not (0 <= value < math.inf if finite else value >= 0):
        raise _invalid(name, "be finite and non-negative" if finite else "be non-negative", value)


def _check_finite(name, value):
    """Raise ValidationError unless value is neither nan nor infinite."""
    if not math.isfinite(value):
        raise _invalid(name, "be finite", value)


def _whole_count(name, value, least) -> int:
    """value as an int of at least least, or ValidationError naming name:
    100.0 passes; 100.7, nan, inf and values below least fail."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise ValidationError(f"{name} must be a whole number, got {value}")
    if count < least:
        raise ValidationError(f"{name} must be at least {least}, got {count}")
    return count


def _check_probabilities(probabilities):
    for p in probabilities:
        _check_open_unit("p", p)


def _probabilities(values) -> tuple:
    """values as a tuple of floats: the one check of a probability list, a
    1-d sequence of at least one entry, each in (0, 1), all distinct."""
    try:
        ps = np.asarray(list(values), dtype=float)  # list() also takes a generator
    except (TypeError, ValueError):
        ps = None
    if ps is None or ps.ndim != 1 or ps.size == 0:
        raise ValidationError("probabilities must be a 1-d sequence with at least one entry")
    ps = tuple(ps.tolist())
    _check_probabilities(ps)
    if len(set(ps)) != len(ps):
        raise ValidationError("probabilities must be distinct")
    return ps


class NumericalError(SurvQuantError):
    """A quantity is not estimable or a computation degenerates."""


class UnreachableQuantileError(NumericalError):
    """The requested probability exceeds the estimable range of an arm."""

    def __init__(self, p, max_probability, arm=None):
        self.p = p
        self.max_probability = max_probability
        self.arm = arm
        where = f" in arm {arm}" if arm is not None else ""
        super().__init__(
            f"quantile not estimable{where}: requested p={p:g} but the "
            f"estimated event probability only reaches {max_probability:g}"
        )


class DegenerateTailError(NumericalError):
    """Greenwood variance accumulator is infinite at an included step."""


class TooFewEventsError(NumericalError):
    """An arm has too few events for bandwidth selection by cross-validation."""

    def __init__(self, arm=None):
        self.arm = arm
        where = f" in arm {arm}" if arm is not None else ""
        super().__init__(f"bandwidth selection needs at least 2 events{where}")


class SingularCovarianceError(NumericalError):
    """Quantile-difference covariance matrix is not positive definite."""

    def __init__(self, pair=None, message=None):
        self.pair = pair
        if message is None:
            message = "quantile variance is not positive" if pair is None else (
                "covariance matrix of the quantile differences is "
                f"singular; probabilities {pair[0]:g} and {pair[1]:g} "
                "map to nearly collinear estimates"
            )
        super().__init__(message)


class InfeasibleDeltaError(ValidationError):
    """The requested quantile difference violates a scenario constraint."""


class UnattainablePowerError(ValidationError):
    """No sample size can reach the requested power (for example delta=0)."""


class DatasetFormatError(ValidationError):
    """A dataset file does not conform to the expected CSV schema."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
