"""Exception taxonomy shared across the package.

Each class maps to one CLI exit code so that every termination path is
classifiable: configuration errors (2), violated modelling assumptions (3),
numerical failures and contract errors (4), and certificate failures under
--assert (5).  The handlers of `cli.main` are the table that maps them.
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


class ContractError(ValueError):
    """A caller violated an operation precondition (programming error)."""


def read_input(path, what: str) -> str:
    """The text of an input file; one that cannot be read is a ConfigError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
