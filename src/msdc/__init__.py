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
    CsaTrace,
    InputPattern,
    ModelGeometry,
    OpCounter,
    W_MAX_DEFAULT,
    WeightMatrix,
    apply_learning,
    code_intersection,
    compute_u,
    draw_winners,
    eta_for_familiarity,
    familiarity,
    hard_max_winners,
    mu_from_u,
    normalize_u,
    random_pattern,
    rho_from_mu,
    validate_code,
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
from .memory import BeliefEntry, BeliefReport, LedgerEntry, MemoryModel
from .oracle import (
    OracleReport,
    oracle_expected_uniform_intersection,
    oracle_nearest,
    oracle_report,
    oracle_similarity,
)
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
    "OracleReport",
    "PatternError",
    "ScheduleError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "SnapshotTruncatedError",
    "SnapshotVersionError",
    "W_MAX_DEFAULT",
    "WeightMatrix",
    "apply_learning",
    "code_intersection",
    "compute_u",
    "draw_winners",
    "eta_for_familiarity",
    "familiarity",
    "hard_max_winners",
    "load_model",
    "mu_from_u",
    "normalize_u",
    "oracle_expected_uniform_intersection",
    "oracle_nearest",
    "oracle_report",
    "oracle_similarity",
    "random_pattern",
    "rho_from_mu",
    "save_model",
    "validate_code",
]
