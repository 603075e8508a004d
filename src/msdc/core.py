"""Domain types and the fixed-time code selection pipeline.

A coding field is ``Q`` winner-take-all competitive modules (CMs) of ``K``
binary units each, fully connected to a binary pixel grid through a binary
weight matrix.  The weight quantum is the constant ``W_MAX`` = 127: a set
weight reads as 127 and an unset one as 0.  ``U = u / (S * W_MAX)`` cancels
the quantum exactly, so its value cannot change a code; it is fixed so that
traces and files keep reading 127, and ``_check_w_max`` is the one rule by
which an input file's ``w_max`` field is accepted.

A code names exactly one winning unit per CM.  Unit ``k`` of CM ``q``
occupies flat column ``q * K + k`` of the weight matrix.

Code selection runs a fixed sequence of array steps:

``u``     raw input summation per unit (total weight from active pixels)
``U``     ``u`` normalized into [0, 1] by ``S * W_MAX``
``G``     familiarity: the mean over CMs of the per-CM max of ``U``
``eta``   noise control: the ceiling of the win-weight transform; 0 for a
          totally novel input, rising toward ``eta_max`` with familiarity
``mu``    per-unit relative win weight, a sigmoid of ``U`` with floor 1 and
          ceiling ``1 + eta`` (flat when ``eta`` is 0)
``rho``   per-CM win probabilities (``mu`` normalized within each CM)
draw      one winner per CM: a categorical draw from ``rho`` (soft) or the
          argmax of ``U`` with uniform random tie-break (hard)

Low familiarity therefore flattens the win distributions (novel inputs get
nearly random codes) and high familiarity sharpens them (familiar inputs
reactivate the units that already hold them), which is what makes more
similar inputs land on more highly intersecting codes.

Each step works along the trailing (Q, K) axes (or Q, for a code), so one
call serves one model or a leading block of B models; ``memory`` composes
them into the one selection kernel.  The steps trust their inputs: patterns,
geometry and parameters are validated once, where they are built.

No step iterates over previously stored items, so the work per trial is a
pure function of the geometry; a model tallies it on its
:class:`OpCounter`.  Randomness is consumed in a fixed, documented order:
exactly one uniform draw per CM, CM 0 first.  Identical (weights, input, RNG
state) reproduces the code and trace bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, GeometryError, MsdcError, PatternError

# The weight quantum: a set weight reads as this, an unset one as 0.
W_MAX = 127

# np.exp overflows float64 just above 709; clipping the argument keeps the
# sigmoid exact in float64 wherever it is distinguishable from its limits.
_EXP_CLIP = 700.0

# A snapshot holds each geometry field and ledger pixel index as a u32 and
# each ledger winner as a u16, so K may be at most 65536.
_MAX_FIELD = 0xFFFF_FFFF
_MAX_UNITS_PER_CM = 0x1_0000


def _as_int(value, name: str, error: type[MsdcError]) -> int:
    """``value`` as an int; ``error`` if it is not an integer.

    Python and numpy integers pass.  A float (even 3.0), a bool or a string
    raises, so no value is ever silently truncated.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def _check_w_max(value, name: str, error: type[MsdcError]) -> None:
    """Accept a ``w_max`` field read from a file only if it is ``W_MAX``.

    Every file this program writes holds 127.  Any other value, a float such
    as 127.0 or a bool included, raises ``error`` rather than being ignored,
    which would silently rescale the raw summations a trace reports.
    """
    if _as_int(value, name, error) != W_MAX:
        raise error(f"{name} must be {W_MAX}, the fixed weight quantum, got {value!r}")


def _read_text(path, error: type[MsdcError]) -> str:
    """The UTF-8 text of the file at ``path``; ``error`` if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def _parse_json(text: str, where: str, error: type[MsdcError]):
    """The JSON value ``text`` holds; ``error`` if it holds none.

    Besides malformed text, ``json`` rejects arrays nested deeper than the
    recursion limit and integers of more than 4300 digits.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"invalid JSON {where}: {exc}") from None


def _config_object(
    data, where: str, keys: Iterable[str], required: Iterable[str] = ()
) -> dict:
    """``data``, if it is a JSON object holding only ``keys`` and every one of
    ``required``; ``ConfigError`` otherwise.  Values are left to the types
    they build, which check them."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"{where} has unknown key(s): {', '.join(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigError(f"{where} lacks required key(s): {', '.join(missing)}")
    return data


@dataclass(frozen=True)
class ModelGeometry:
    """Fixed shape of one model instance.

    ``num_active`` (S) is the number of active pixels every input pattern
    must carry; ``num_cms`` (Q) and ``units_per_cm`` (K) shape the coding
    field.
    """

    input_width: int
    input_height: int
    num_active: int
    num_cms: int
    units_per_cm: int

    def __post_init__(self):
        for f in fields(self):
            v = _as_int(getattr(self, f.name), f.name, GeometryError)
            if not 1 <= v <= _MAX_FIELD:
                raise GeometryError(f"{f.name} must be an integer in [1, {_MAX_FIELD}], got {v}")
            object.__setattr__(self, f.name, v)
        if self.units_per_cm > _MAX_UNITS_PER_CM:
            raise GeometryError(f"units_per_cm must be at most {_MAX_UNITS_PER_CM}, got "
                                f"{self.units_per_cm}: a snapshot holds each winner as a u16")
        if self.num_pixels > _MAX_FIELD + 1:
            raise GeometryError(f"a {self.num_pixels}-pixel grid has pixel indices "
                                "too large for a snapshot's u32 fields")
        if self.num_active > self.num_pixels:
            raise GeometryError(
                f"num_active={self.num_active} exceeds the "
                f"{self.num_pixels}-pixel input grid"
            )

    @property
    def num_pixels(self) -> int:
        return self.input_width * self.input_height

    @property
    def num_units(self) -> int:
        return self.num_cms * self.units_per_cm

    def validate_pattern(self, pattern: "InputPattern") -> None:
        """Reject patterns whose active count or indices do not fit."""
        if len(pattern.active) != self.num_active:
            raise PatternError(
                f"pattern has {len(pattern.active)} active pixels, "
                f"expected exactly {self.num_active}"
            )
        if pattern.active and pattern.active[-1] >= self.num_pixels:
            raise PatternError(
                f"pixel index {pattern.active[-1]} outside "
                f"{self.input_width}x{self.input_height} grid"
            )


# The paper's geometry: a 12x12 grid, S=12, Q=24, K=8.
PAPER_GEOMETRY = ModelGeometry(12, 12, 12, 24, 8)


@dataclass(frozen=True)
class InputPattern:
    """A binary input: the set of active pixel indices, row-major."""

    active: tuple[int, ...]

    def __post_init__(self):
        try:
            active = tuple(self.active)  # a tuple passes through uncopied
            cells = tuple(sorted(map(operator.index, active)))
        except TypeError as exc:
            raise PatternError(f"pixel indices must be integers: {exc}") from None
        if len(set(cells)) != len(cells):
            raise PatternError("duplicate pixel indices in pattern")
        if cells and cells[0] < 0:
            raise PatternError("negative pixel index in pattern")
        # operator.index turns a bool into 0 or 1, so only then can one hide.
        if cells and cells[0] <= 1 and bool in map(type, active):
            raise PatternError("pixel indices must be integers, not bools")
        object.__setattr__(self, "active", cells)

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "InputPattern":
        return cls(tuple(indices))

    @classmethod
    def from_grid(cls, text: str) -> "InputPattern":
        """Parse a grid of '0'/'1' characters, one row per line."""
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        if not rows:
            raise PatternError("empty pattern grid")
        width = len(rows[0])
        active = []
        for r, row in enumerate(rows):
            if len(row) != width:
                raise PatternError(f"row {r} has length {len(row)}, expected {width}")
            for c, ch in enumerate(row):
                if ch == "1":
                    active.append(r * width + c)
                elif ch != "0":
                    raise PatternError(f"invalid character {ch!r} in pattern grid")
        return cls(tuple(active))

    def to_grid(self, width: int, height: int) -> str:
        on = set(self.active)
        return "\n".join(
            "".join("1" if r * width + c in on else "0" for c in range(width))
            for r in range(height)
        )

    def overlap(self, other: "InputPattern") -> int:
        """Number of active pixels shared with ``other``."""
        return len(set(self.active) & set(other.active))


class WeightMatrix:
    """Binary weights from input pixels to coding units.

    Stored as a 0/1 bit plane of shape (num_pixels, num_units); a set bit
    reads as ``W_MAX``.  Bits only ever go 0 -> 1 (learning never clears a
    weight), so the matrix is monotone over a model's lifetime.
    """

    __slots__ = ("bits",)

    def __init__(self, num_pixels: int, num_units: int, bits: np.ndarray | None = None):
        if bits is None:
            try:
                bits = np.zeros((num_pixels, num_units), dtype=np.uint8)
            except (MemoryError, ValueError) as exc:  # too large for memory or for numpy
                raise GeometryError(
                    f"cannot allocate {num_pixels} x {num_units} weight bits: {exc}"
                ) from None
        else:
            bits = np.ascontiguousarray(bits, dtype=np.uint8)
            if bits.shape != (num_pixels, num_units):
                raise GeometryError(
                    f"weight bits shape {bits.shape} != ({num_pixels}, {num_units})"
                )
            if bits.max(initial=0) > 1:
                raise GeometryError("weight bits must be 0 or 1")
        self.bits = bits

    @property
    def num_pixels(self) -> int:
        return self.bits.shape[0]

    @property
    def num_units(self) -> int:
        return self.bits.shape[1]

    def set_count(self) -> int:
        return int(self.bits.sum())

    def copy(self) -> "WeightMatrix":
        return WeightMatrix(self.num_pixels, self.num_units, bits=self.bits.copy())


@dataclass(frozen=True)
class CsaParams:
    """Parameters of the familiarity-controlled win-weight transform.

    ``eta_max``     ceiling of the noise-control value at familiarity 1; the
                    win-weight range is then [1, 1 + eta_max]
    ``steepness``   slope of the sigmoid from normalized summation to win
                    weight
    ``midpoint``    normalized summation at the sigmoid's half rise
    ``g_floor``     familiarity at or below which the transform stays flat
                    (noise control pinned to 0)
    ``g_exponent``  curvature of the noise-control ramp between ``g_floor``
                    and 1
    """

    eta_max: float = 299.0
    steepness: float = 28.0
    midpoint: float = 0.5
    g_floor: float = 0.0
    g_exponent: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise GeometryError(f"{f.name} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the float64 range
                finite = False
            if not finite:
                raise GeometryError(f"{f.name} must be finite, got {value}")
        if not self.eta_max > 0:
            raise GeometryError(f"eta_max must be positive, got {self.eta_max}")
        # A CM's win weights lie in [1, 1 + eta_max] and must sum finitely.
        if not math.isfinite(_MAX_UNITS_PER_CM * (1.0 + self.eta_max)):
            raise GeometryError(
                f"eta_max must keep the win weights of a {_MAX_UNITS_PER_CM}-unit CM "
                f"summable in float64, got {self.eta_max}"
            )
        if not self.steepness > 0:
            raise GeometryError(f"steepness must be positive, got {self.steepness}")
        if not 0.0 <= self.midpoint <= 1.0:
            raise GeometryError(f"midpoint must lie in [0, 1], got {self.midpoint}")
        if not 0.0 <= self.g_floor < 1.0:
            raise GeometryError(f"g_floor must lie in [0, 1), got {self.g_floor}")
        if not self.g_exponent > 0:
            raise GeometryError(f"g_exponent must be positive, got {self.g_exponent}")


@dataclass
class OpCounter:
    """Tally of the elementary work done by a model's selection pipeline.

    Per call, each field gains the size of the arrays its steps touch: the
    S x Q x K weights read, 4 x Q x K + Q + 1 element operations, Q x K
    sigmoids, Q uniforms and, on a store, S x Q weights written.  These
    follow from the geometry alone, so for a fixed geometry the totals are
    identical for every trial regardless of how many items the model
    already stores; the scaling benchmark asserts exactly that.
    """

    weight_reads: int = 0
    element_ops: int = 0
    sigmoid_evals: int = 0
    rng_draws: int = 0
    weight_writes: int = 0

    def total(self) -> int:
        return (
            self.weight_reads
            + self.element_ops
            + self.sigmoid_evals
            + self.rng_draws
            + self.weight_writes
        )

    def as_dict(self) -> dict[str, int]:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["total"] = self.total()
        return d

    def copy(self) -> "OpCounter":
        return OpCounter(**{f.name: getattr(self, f.name) for f in fields(self)})


@dataclass(frozen=True)
class CsaTrace:
    """Per-trial diagnostics: the (Q, K) charts of one selection pass."""

    u: np.ndarray
    u_norm: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    familiarity: float
    eta: float

    def to_json_dict(self) -> dict:
        return {
            "familiarity": self.familiarity,
            "eta": self.eta,
            "u": self.u.tolist(),
            "u_norm": self.u_norm.tolist(),
            "mu": self.mu.tolist(),
            "rho": self.rho.tolist(),
        }


def code_intersection(a: np.ndarray, b: np.ndarray) -> int:
    """Number of CMs in which two codes picked the same winner."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise GeometryError(f"code shapes differ: {a.shape} vs {b.shape}")
    return int((a == b).sum())


def compute_u(bits: np.ndarray, active: np.ndarray, geometry: ModelGeometry) -> np.ndarray:
    """Raw input summation: per unit, the total weight from active pixels.

    ``bits`` is (..., P, Q*K) and ``active`` the S pixel indices.  Returns an
    int64 array of shape (..., Q, K); entries lie in [0, S * W_MAX].
    """
    # Counts of at most S fit the narrow dtype, which sums much faster.
    count = bits[..., active, :].sum(axis=-2, dtype=np.min_scalar_type(geometry.num_active))
    u = count.astype(np.int64) * W_MAX
    return u.reshape(*u.shape[:-1], geometry.num_cms, geometry.units_per_cm)


def normalize_u(u: np.ndarray, num_active: int) -> np.ndarray:
    """Scale raw summations into [0, 1] by the maximum possible S * W_MAX."""
    return u / float(num_active * W_MAX)


def familiarity(u_norm: np.ndarray) -> np.ndarray:
    """Mean over CMs of the per-CM max normalized summation, in [0, 1].

    Reduces the last two axes (Q, K).  Invariant under permutation of units
    within a CM and of whole CMs.
    """
    return u_norm.max(axis=-1).mean(axis=-1)


def eta_for_familiarity(g: float, params: CsaParams) -> float:
    """Noise-control value: 0 at or below ``g_floor``, ``eta_max`` at g=1.

    Monotone non-decreasing in g; exactly 0 for a fully novel input, which
    makes every unit equally likely to win.
    """
    lifted = max(0.0, (g - params.g_floor) / (1.0 - params.g_floor))
    return params.eta_max * lifted**params.g_exponent


def mu_from_u(u_norm: np.ndarray, eta, params: CsaParams) -> np.ndarray:
    """Sigmoidal win weights: floor 1, ceiling 1 + eta, rising in U.

    ``eta`` holds one value per leading index of ``u_norm`` (..., Q, K).
    With eta 0 every unit receives the same weight, so the subsequent
    normalization yields uniform win probabilities.
    """
    eta = np.asarray(eta, dtype=np.float64)[..., None, None]
    z = params.steepness * (u_norm - params.midpoint)
    return 1.0 + eta / (1.0 + np.exp(np.clip(-z, None, _EXP_CLIP)))


def rho_from_mu(mu: np.ndarray) -> np.ndarray:
    """Normalize win weights into one probability distribution per CM.

    A CM whose weights are all zero (impossible via ``mu_from_u``, which
    floors at 1, but allowed for direct callers) falls back to uniform.
    """
    sums = mu.sum(axis=-1, keepdims=True)
    zero = sums == 0.0
    if zero.any():
        return np.where(zero, 1.0 / mu.shape[-1], mu / np.where(zero, 1.0, sums))
    return mu / sums


def draw_winners(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One categorical draw per CM, independent across CMs.

    ``r`` (..., Q) holds one uniform per CM, CM 0 first; drawing them as
    ``rng.random(Q)`` makes a fixed RNG state reproduce the same code.
    """
    cum = np.cumsum(rho, axis=-1)
    if not np.all(np.abs(cum[..., -1] - 1.0) <= 1e-9):
        raise ValueError("each CM's win probabilities must sum to 1")
    winners = (cum <= r[..., None]).sum(axis=-1)
    return np.minimum(winners, rho.shape[-1] - 1)


def hard_max_winners(u_norm: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per CM, the unit with the largest normalized summation.

    Ties are broken uniformly at random by the CM's uniform in ``r``
    (..., Q), which is used whether or not that CM is tied, keeping the work
    and the RNG stream a pure function of geometry.
    """
    tied = u_norm == u_norm.max(axis=-1, keepdims=True)
    n = tied.sum(axis=-1)
    if not n.all():  # a NaN in a CM makes its max NaN, equal to no unit
        raise ValueError("normalized summations must not be NaN")
    # The winner is tied unit number floor(r * n) of the n tied units, found
    # as the first unit whose running count of tied units exceeds it.
    pick = np.minimum((r * n).astype(np.int64), n - 1)
    return (np.cumsum(tied, axis=-1) > pick[..., None]).argmax(axis=-1)


def apply_learning(
    bits: np.ndarray, active: np.ndarray, code: np.ndarray, geometry: ModelGeometry
) -> None:
    """Set the weight from every active pixel to every winner (in place).

    ``bits`` is (B, P, Q*K) and ``code`` (B, Q): row b learns code b.
    Idempotent: re-applying the same (pattern, code) changes nothing.
    Weights are only ever raised, never cleared.
    """
    cols = np.arange(geometry.num_cms) * geometry.units_per_cm + code
    bits[np.arange(len(bits))[:, None, None], active[None, :, None], cols[:, None, :]] = 1


def random_pattern(geometry: ModelGeometry, rng: np.random.Generator) -> InputPattern:
    """A pattern with exactly S active pixels drawn without replacement."""
    idx = rng.choice(geometry.num_pixels, size=geometry.num_active, replace=False)
    return InputPattern.from_indices(int(i) for i in idx)
