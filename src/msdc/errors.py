"""Exception types shared across the package."""


class MsdcError(Exception):
    """Base class for all domain errors raised by this package."""


class GeometryError(MsdcError, ValueError):
    """Model geometry, a model parameter or argument, or a shape constraint is invalid."""


class PatternError(MsdcError, ValueError):
    """An input pattern is malformed or does not fit the geometry."""


class ScheduleError(MsdcError, ValueError):
    """A corpus overlap schedule is infeasible for the geometry."""


class ConfigError(MsdcError, ValueError):
    """A config or scenario file is not the documented JSON shape."""


class LedgerUnavailableError(MsdcError, RuntimeError):
    """Belief readout was requested but the stored-item ledger is off or empty."""


class LabelError(MsdcError, ValueError):
    """A ledger label cannot be recorded in a model snapshot."""


class SnapshotError(MsdcError):
    """Base class for model snapshot load failures."""


class SnapshotFormatError(SnapshotError):
    """The bytes are not a model snapshot (bad magic or malformed layout)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot format version is not supported."""


class SnapshotTruncatedError(SnapshotError):
    """The snapshot ends before its declared content does."""


class SnapshotIntegrityError(SnapshotError):
    """The snapshot checksum does not match its content."""
