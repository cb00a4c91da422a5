"""Exception types shared across the package."""


class NoisyccError(Exception):
    """Base class for all package-specific errors."""


class InvalidPairError(NoisyccError, ValueError):
    """A pair index or (u, v) pair is outside the instance's pair set."""


class InvalidSpecError(NoisyccError, ValueError):
    """A generator spec has out-of-range or inconsistent parameters."""


class InvalidClusteringError(NoisyccError, ValueError):
    """A clustering does not have one label per element."""


class NoSamplesError(NoisyccError, ValueError):
    """A statistic was requested for a pair that has never been pulled."""


class BudgetExhaustedError(NoisyccError, RuntimeError):
    """A pull would exceed the oracle's hard query budget."""


class InsufficientBudgetError(NoisyccError, ValueError):
    """A fixed-budget run was given fewer queries than pairs."""


class InstanceTooLargeError(NoisyccError, ValueError):
    """Exact optimization was requested above its size cutoff (n <= 13)."""


class ParameterError(NoisyccError, ValueError):
    """An algorithm parameter (epsilon, delta, ...) is out of range."""
