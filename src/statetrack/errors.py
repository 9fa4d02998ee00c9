"""Exception types shared across the package.

Each type carries the exit code the CLI returns for it: 2 for a
``ConfigError``, 3 for an ``InputFileError``, 4 for a ``SchemaError``.
Loaders and validators should raise the most specific type that applies.
"""


class StateTrackError(Exception):
    """Base class for all package errors; each subclass sets ``exit_code``."""


class ConfigError(StateTrackError):
    """Invalid run configuration (bad flag combination, unknown option value)."""

    exit_code = 2


class InputFileError(StateTrackError):
    """A referenced input file is missing or unreadable, or an output file
    cannot be written."""

    exit_code = 3


class SchemaError(StateTrackError):
    """An input file parsed but violates its declared schema or an invariant."""

    exit_code = 4
