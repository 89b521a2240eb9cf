"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical failures (blow-up, non-convergence) with 3, and statistical
power failures with 4.
"""


class OmlatError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(OmlatError):
    """Invalid problem configuration: bad parameters, mismatched shapes,
    unknown config keys, off-grid times."""


class DegenerateNoiseError(ConfigurationError):
    """A noise coefficient is (numerically) zero where invertibility is
    required."""


class IntegrationError(OmlatError):
    """Trajectory blow-up or other failure inside a time stepper, or a path
    action that overflows."""

    def __init__(self, message, step=None, time=None, trajectory=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.trajectory = trajectory


class StatisticalPowerError(OmlatError):
    """A Monte Carlo experiment has too few hits to say anything."""
