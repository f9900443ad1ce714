"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration / usage
problems exit 1, data problems exit 2, numerical failures exit 3.  A
command whose standard output is closed before it ends, as by
`polytraj ... | head -1`, stops quietly with exit code 141 (128 + SIGPIPE).
"""


class PolytrajError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(PolytrajError):
    """Bad configuration, unknown keys, or incompatible settings."""

    exit_code = 1


class DataError(PolytrajError):
    """Malformed or missing input data."""

    exit_code = 2


class NumericalError(PolytrajError):
    """Non-finite values where finite ones are required."""

    exit_code = 3


class GraphError(PolytrajError):
    """backward() through an autodiff graph that an earlier backward() consumed."""

    exit_code = 1


class ShapeError(PolytrajError, ValueError):
    """Operand shapes incompatible with the requested operation."""

    exit_code = 3
