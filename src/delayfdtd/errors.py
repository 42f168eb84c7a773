"""Exception taxonomy shared across the package.

Each class maps to exactly one CLI exit code, and each of those codes to
one class: configuration errors (2), violated modelling assumptions (3),
numerical failures (4), and certificate failures under --assert (5).  The
handlers of `cli.main` are the table that maps them; any other exception
is a fault of the program and also exits 4, marked "unexpected".
"""

from pathlib import Path


class ConfigError(ValueError):
    """Bad user input: malformed config, invalid parameter ranges."""


class AssumptionError(RuntimeError):
    """A modelling hypothesis does not hold for the given data."""


class NumericalError(RuntimeError):
    """Iteration failure, NaN/Inf fields, non-convergence."""


class CertificateError(RuntimeError):
    """An asserted inequality check failed."""


def read_input(path, what: str) -> str:
    """The text of an input file; one that cannot be read is a ConfigError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
