"""Exception hierarchy.

Two broad families matter to callers: validation errors (bad inputs,
infeasible parameters) and numerical errors (quantities that cannot be
estimated from the data at hand). The CLI maps them to exit codes 2 and 3.
"""


class SurvQuantError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SurvQuantError):
    """Invalid input: shapes, domains, config files, datasets."""


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
            if pair is not None:
                message = (
                    "covariance matrix of the quantile differences is "
                    f"singular; probabilities {pair[0]:g} and {pair[1]:g} "
                    "map to nearly collinear estimates"
                )
            else:
                message = "covariance matrix is not positive definite"
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
