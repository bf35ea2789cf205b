"""Exception types shared across the library.

The CLI maps these onto exit codes, so anything a subcommand can hit
should be one of the classes below rather than a bare builtin.
"""


class QmdpError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(QmdpError, ValueError):
    """A wealth space, generator config, or query is inconsistently set up."""


class ValidationError(QmdpError, ValueError):
    """An MDP or problem file violates a structural invariant."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ResourceLimitError(QmdpError, RuntimeError):
    """An exact computation exceeded its configured size cap."""


class ConvergenceError(QmdpError, RuntimeError):
    """Functional value iteration failed to reach the requested residual."""

    def __init__(self, message, residual=None, sweeps=None):
        super().__init__(message)
        self.residual = residual
        self.sweeps = sweeps
