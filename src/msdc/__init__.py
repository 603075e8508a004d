"""Fixed-time associative memory over modular sparse distributed codes.

The coding field is Q winner-take-all modules of K binary units; a code is
one winner per module.  Storage is single-trial: the code for an input is
drawn from per-module win distributions whose sharpness tracks how familiar
the input is, then bound to the input by raising binary weights.  Novel
inputs get near-random codes; familiar ones reactivate the codes of their
look-alikes, so code intersection tracks input similarity.  Storage,
best-match retrieval, and whole-ledger likelihood readout all run in a
fixed number of steps regardless of how many items are stored.
"""

from .core import (
    CsaParams,
    InputPattern,
    ModelGeometry,
    OpCounter,
    WeightMatrix,
    random_pattern,
)
from .errors import (
    ConfigError,
    GeometryError,
    LabelError,
    LedgerUnavailableError,
    MsdcError,
    PatternError,
    ScheduleError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotTruncatedError,
    SnapshotVersionError,
)
from .memory import BeliefEntry, BeliefReport, CsaTrace, LedgerEntry, MemoryModel
from .snapshot import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "BeliefEntry",
    "BeliefReport",
    "ConfigError",
    "CsaParams",
    "CsaTrace",
    "GeometryError",
    "InputPattern",
    "LabelError",
    "LedgerEntry",
    "LedgerUnavailableError",
    "MemoryModel",
    "ModelGeometry",
    "MsdcError",
    "OpCounter",
    "PatternError",
    "ScheduleError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "SnapshotTruncatedError",
    "SnapshotVersionError",
    "WeightMatrix",
    "load_model",
    "random_pattern",
    "save_model",
]
