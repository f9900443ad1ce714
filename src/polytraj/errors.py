"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration / usage
problems exit 1, data problems exit 2, numerical failures exit 3.  A
command that runs out of memory, as when a size key asks for more than
the host holds, prints one `error: out of memory ...` line and exits 4.
A command whose standard output is closed before it ends, as by
`polytraj ... | head -1`, stops quietly with exit code 141 (128 + SIGPIPE).
Any other `OSError`, as from a full disk while an output is written, prints
one `error: PATH: REASON` line and exits 2, as a data problem does.  A
command stopped by Ctrl-C prints `error: interrupted` and exits 130
(128 + SIGINT).  Either way no output is left half written:
`files.write_text` keeps a file's old content until its new one is whole.
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
