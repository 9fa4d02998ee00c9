"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so loaders and validators
should raise the most specific type that applies.
"""


class StateTrackError(Exception):
    """Base class for all package errors."""


class ConfigError(StateTrackError):
    """Invalid run configuration (bad flag combination, unknown option value)."""


class InputFileError(StateTrackError):
    """A referenced input file is missing or unreadable, or an output file
    cannot be written."""


class SchemaError(StateTrackError):
    """An input file parsed but violates its declared schema or an invariant."""
