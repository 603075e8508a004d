"""Domain types and the fixed-time code selection pipeline.

A coding field is ``Q`` winner-take-all competitive modules (CMs) of ``K``
binary units each, fully connected to a binary pixel grid through a binary
weight matrix.  A unit's evidence is its count c of set weights from the S
active pixels, normalized as ``U = c / S``.  The weight quantum ``W_MAX`` =
127 cannot change a code, so no step reads it; it is fixed so that traces,
which report the raw summation ``u = 127 * c``, and files keep reading 127,
and ``_check_w_max`` is the one rule by which a file's ``w_max`` is accepted.

A code names exactly one winning unit per CM.  Unit ``k`` of CM ``q``
occupies flat column ``q * K + k`` of the weight matrix.

Code selection runs a fixed sequence of array steps:

``c``     per-unit count of set weights from active pixels, in [0, S]
``U``     ``c`` normalized into [0, 1] by S
``G``     familiarity: the mean over CMs of the per-CM max of ``U``
``eta``   noise control: the ceiling of the win-weight transform; 0 for a
          totally novel input, rising toward ``eta_max`` with familiarity
``mu``    per-unit relative win weight, a sigmoid of ``U`` with floor 1 and
          ceiling ``1 + eta`` (flat when ``eta`` is 0)
``rho``   per-CM win probabilities (``mu`` normalized within each CM)
draw      one winner per CM: a categorical draw from ``rho`` (soft), by
          cumulative sums for one model's uniforms and by a running count
          for many models', or the argmax of ``c`` with uniform random
          tie-break (hard)

Low familiarity therefore flattens the win distributions (novel inputs get
nearly random codes) and high familiarity sharpens them (familiar inputs
reactivate the units that already hold them), which is what makes more
similar inputs land on more highly intersecting codes.

Each step works along the trailing (Q, K) axes (or Q, for a code or the
per-CM maxima), so one call serves one model or a leading block of B
models; ``memory`` composes them into the one selection kernel and reports
each call's charts as a ``CsaTrace``.  The kernel reads each CM's max
count once, at its argmax: ``familiarity`` takes those Q maxima as U, and
``hard_max_winners`` ties units against the same maxima, so no step needs
the (Q, K) chart of U.  ``mu_from_u`` reads the sigmoid by count from a
read-only table of the S + 1 values it can take, one per (S, midpoint,
steepness).  With one model's one eta, mu too takes only S + 1 values, so
it is formed over the table and read by count; a block's per-model eta
forms it per unit.  ``apply_learning`` writes each code's Q ones into a
zero mask by flat index.  The steps trust their inputs: patterns, geometry
and parameters are validated once, where they are built, and rho needs no
check, since mu lies in [1, 1 + eta] and ``CsaParams`` keeps each CM's sum
finite.  Only ``hard_max_winners`` checks for a NaN, and only in a float U;
the kernel passes it counts, which cannot hold one, so it scans nothing
there.

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
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, GeometryError, MsdcError, PatternError

# The weight quantum: a set weight reads as this, an unset one as 0.
W_MAX = 127

# np.exp overflows float64 just above 709; clipping the argument keeps the
# sigmoid exact in float64 wherever it is distinguishable from its limits.
# 0-d float64 operands: numpy resolves a Python float's dtype on every call.
_EXP_CLIP = np.array(700.0)
_ONE = np.array(1.0)

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
        """Reject anything but an ``InputPattern`` whose active count and
        indices fit."""
        if not isinstance(pattern, InputPattern):
            raise PatternError(f"pattern must be an InputPattern, got {pattern!r}")
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
        # operator.index turns a bool into 0 or 1, so only then can one hide;
        # checked first, so that True beside a 1 is not called a duplicate.
        if cells and cells[0] <= 1 and bool in map(type, active):
            raise PatternError("pixel indices must be integers, not bools")
        if len(set(cells)) != len(cells):
            raise PatternError("duplicate pixel indices in pattern")
        if cells and cells[0] < 0:
            raise PatternError("negative pixel index in pattern")
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


def _zeros(shape, dtype, what: str) -> np.ndarray:
    """``np.zeros(shape, dtype)``; ``GeometryError``, naming ``what``, if it
    is too large for memory or for numpy."""
    try:
        return np.zeros(shape, dtype)
    except (MemoryError, ValueError) as exc:
        raise GeometryError(f"cannot allocate {what}: {exc}") from None


class WeightMatrix:
    """Binary weights from input pixels to coding units.

    Only a 0/1 bit plane ``bits`` of shape (num_pixels, num_units), which the
    steps read and learn into directly; a set bit adds 1 to a count.  Bits
    only ever go 0 -> 1 (learning never clears a weight), so the matrix is
    monotone over a model's lifetime.
    """

    __slots__ = ("bits",)

    def __init__(self, num_pixels: int, num_units: int):
        self.bits = _zeros(
            (num_pixels, num_units), np.uint8, f"{num_pixels} x {num_units} weight bits"
        )


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
        # Each field becomes a Python int or float: a numpy scalar could narrow
        # the float64 arithmetic or break a JSON writer.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise GeometryError(f"{f.name} must be a number, got {value!r}")
            if isinstance(value, numbers.Integral):
                value = int(value)
            try:
                number = float(value)
            except OverflowError:  # an int beyond the float64 range
                number = math.inf
            if not math.isfinite(number):
                raise GeometryError(f"{f.name} must be finite, got {value}")
            if number != value:
                raise GeometryError(f"{f.name} must be exactly a float64 value, got {value!r}")
            object.__setattr__(self, f.name, value if isinstance(value, int) else number)
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


# The field names, as config and scenario files key them.
_GEOMETRY_KEYS = tuple(f.name for f in fields(ModelGeometry))
_PARAM_KEYS = tuple(f.name for f in fields(CsaParams))


def _model_record(geometry: ModelGeometry, params: CsaParams) -> dict:
    """The model configuration that every output echoes for provenance."""
    return {"geometry": asdict(geometry), "params": asdict(params), "w_max": W_MAX}


@dataclass
class OpCounter:
    """Tally of the elementary work done by a model's selection pipeline.

    A tally is the nominal work of one call for the geometry, not a count
    of the array operations that ran.  Per call, each field gains the size
    of the arrays the pipeline's steps touch: the S x Q x K weights read,
    4 x Q x K + Q + 1 element operations, Q x K sigmoids, Q uniforms and, on
    a store, S x Q weights written.  Every call counts the Q x K sigmoids
    of one mu: a soft draw forms it, and a hard pick's trace forms it only
    if read; either way mu reads them from a table of S + 1 values.
    These follow from the geometry alone, so for a fixed geometry the totals
    are identical for every trial regardless of how many items the model
    already stores; the scaling benchmark asserts exactly that.
    """

    weight_reads: int = 0
    element_ops: int = 0
    sigmoid_evals: int = 0
    rng_draws: int = 0
    weight_writes: int = 0

    def total(self) -> int:
        return sum(astuple(self))

    def as_dict(self) -> dict[str, int]:
        return {**asdict(self), "total": self.total()}

    def copy(self) -> "OpCounter":
        return replace(self)


# The narrowest dtype that holds counts up to its argument, made once per value.
_count_dtype = lru_cache(np.min_scalar_type)


@lru_cache
def _cm_starts(shape: tuple[int, ...], units_per_cm: int) -> np.ndarray:
    """Read-only flat indices of each CM's unit 0 in a (*shape, K) chart."""
    starts = np.arange(0, math.prod(shape) * units_per_cm, units_per_cm).reshape(shape)
    starts.flags.writeable = False
    return starts


def compute_u(rows: np.ndarray, geometry: ModelGeometry) -> np.ndarray:
    """Input summation: per unit, the count of set weights from active pixels.

    ``rows`` (..., S, Q*K) holds the weight rows of the S active pixels, as
    gathered once per trial by the selection kernel.  Returns the (..., Q, K)
    counts, each in [0, S], in ``_count_dtype(S)``, which sums much faster
    than int64.
    """
    count = np.add.reduce(rows, axis=-2, dtype=_count_dtype(geometry.num_active))
    return count.reshape(*count.shape[:-1], geometry.num_cms, geometry.units_per_cm)


def normalize_u(count: np.ndarray, num_active: int) -> np.ndarray:
    """U: counts scaled into [0, 1] by their maximum S.

    Bit for bit ``u / (S * W_MAX)`` for a trace's ``u = W_MAX * c``: both
    are c / S, correctly rounded from exact float64 operands.
    """
    return count / float(num_active)


def familiarity(top: np.ndarray) -> np.ndarray:
    """Mean over CMs of the per-CM max normalized summation, in [0, 1].

    ``top`` (..., Q) holds each CM's max of U, as the kernel reads it at
    the CM's argmax: the first NaN if the CM holds one, so a NaN still
    reaches G.  Invariant under permutation of whole CMs up to the rounding
    of the sum.
    """
    # The sum over Q divided by Q is exactly what ``mean`` forms, without
    # its Python-level wrapper.
    return np.add.reduce(top, axis=-1) / top.shape[-1]


def eta_for_familiarity(g: float, params: CsaParams) -> float:
    """Noise-control value: 0 at or below ``g_floor``, ``eta_max`` at g=1.

    Monotone non-decreasing in g; exactly 0 for a fully novel input, which
    makes every unit equally likely to win.
    """
    lifted = max(0.0, (g - params.g_floor) / (1.0 - params.g_floor))
    return params.eta_max * lifted**params.g_exponent


@lru_cache(maxsize=16)
def _z_table(num_active: int, midpoint: float, steepness: float) -> np.ndarray:
    """Read-only ``1 + exp(min(steepness * (midpoint - U), 700))`` for each
    count c in [0, S], with U = ``normalize_u(c, S)``: the S + 1 values the
    sigmoid of ``mu_from_u`` can take, made once per (S, midpoint,
    steepness).  ``GeometryError`` if memory cannot hold it.
    """
    try:
        z = midpoint - normalize_u(np.arange(num_active + 1), num_active)
    except MemoryError as exc:
        raise GeometryError(
            f"cannot allocate a {num_active + 1}-entry sigmoid table: {exc}"
        ) from None
    z *= steepness
    np.minimum(z, _EXP_CLIP, out=z)
    np.exp(z, out=z)
    z += _ONE
    z.flags.writeable = False
    return z


def mu_from_u(count: np.ndarray, eta, params: CsaParams, num_active: int) -> np.ndarray:
    """Sigmoidal win weights: floor 1, ceiling 1 + eta, rising in U.

    ``count`` (..., Q, K) holds each unit's count of set weights from the S
    active pixels, which fixes its U, and ``eta`` one value per leading
    index of ``count``.  Each unit's ``z = 1 + exp(min(s * (m - U), 700))``
    is read from ``_z_table`` by its count.  One model's ``eta``, a
    ``float`` as the kernel and ``CsaTrace`` pass it, makes mu one of S + 1
    values, so ``1 + eta / z`` is formed over the table's S + 1 entries and
    read by count; a block's ``eta`` (a sequence or array) forms it per
    unit.  Both give each unit the same ``eta / z + 1``, bit for bit.  With
    eta 0 every unit receives the same weight, so the subsequent
    normalization yields uniform win probabilities.
    """
    z = _z_table(num_active, params.midpoint, params.steepness)
    if isinstance(eta, float):
        # One eta: 1 + eta / z over the S + 1 counts, then read by count.
        mu = eta / z
        mu += _ONE
        return mu.take(count)
    eta = np.asarray(eta, dtype=np.float64)[..., None, None]
    # 1 + eta / z per unit, formed in place.
    z = z.take(count)
    np.divide(eta, z, out=z)
    z += _ONE
    return z


def rho_from_mu(mu: np.ndarray) -> np.ndarray:
    """Normalize win weights into one probability distribution per CM.

    Every CM's weights must have a positive sum, as ``mu_from_u``'s always
    do: it floors each weight at 1.
    """
    return mu / np.add.reduce(mu, axis=-1, keepdims=True)


def draw_winners(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One categorical draw per CM, independent across CMs.

    ``r`` (..., Q) holds one uniform per CM, CM 0 first; drawing them as
    ``rng.random(Q)`` makes a fixed RNG state reproduce the same code.  The
    winner is the number of the CM's cumulative probabilities at or below
    its uniform, capped at K - 1 for a total that rounds below it.  ``rho`` is
    trusted: the kernel's always sums to 1 per CM, so it is not checked.

    Two paths give that count, chosen by the shape of ``r``.  One model's
    uniforms (Q,), as every verb draws them, take ``cumsum`` and the
    ``argmax`` of the first total above ``r``, the fastest form for one
    (Q, K) chart.  Many models' uniforms, a scenario block's (B, Q) against
    its (B, Q, K) charts or (N, Q) rows against one (Q, K) chart, take a
    running total over units 0 .. K - 2 and count the totals at or below
    ``r``, one vector add and one compare per unit over all rows, with no
    (..., K) array of them.  ``cumsum`` forms the same totals by the same
    sequential adds, so both paths give the same winners, bit for bit.
    """
    if r.ndim == 1:
        cum = rho.cumsum(axis=-1)
        # cum is non-decreasing, so the first entry above r is at the count of
        # those at or below it; an infinite last entry caps that count at K - 1.
        cum[..., -1] = np.inf
        return (cum > r[..., None]).argmax(axis=-1)
    count = np.zeros(np.broadcast_shapes(rho.shape[:-1], r.shape), np.intp)
    total = np.zeros(rho.shape[:-1])
    for k in range(rho.shape[-1] - 1):
        total += rho[..., k]
        count += total <= r
    return count


def hard_max_winners(u: np.ndarray, top: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per CM, the unit with the largest summation.

    ``u`` (..., Q, K) holds the counts or U, and ``top`` (..., Q) each
    CM's max of them, read at its argmax as the kernel reads it for G.
    Ties are broken uniformly at random by the CM's uniform in ``r``
    (..., Q), which is used whether or not that CM is tied, keeping the work
    and the RNG stream a pure function of geometry.  The running count of
    each CM's units that equal its max gives both the tie count and the pick.
    A NaN in a float ``u`` raises ``ValueError``.  Counts cannot hold one,
    so an integer ``u``, which the kernel passes, skips that scan.
    """
    count = (u == top[..., None]).cumsum(axis=-1)
    n = count[..., -1]
    # A NaN in a CM makes its max NaN, equal to no unit.
    if u.dtype.kind == "f" and not np.logical_and.reduce(n, axis=None):
        raise ValueError("normalized summations must not be NaN")
    # The winner is tied unit number floor(r * n) of the n tied units, found
    # as the first unit whose running count of tied units exceeds it.
    pick = np.minimum((r * n).astype(np.int64), n - 1)
    return (count > pick[..., None]).argmax(axis=-1)


def apply_learning(
    bits: np.ndarray,
    active: np.ndarray,
    rows: np.ndarray,
    code: np.ndarray,
    geometry: ModelGeometry,
) -> None:
    """Set the weight from every active pixel to every winner (in place).

    ``bits`` is a model's (P, Q*K) plane with ``code`` (Q,), as the verbs
    pass it, or a scenario's block (B, P, Q*K) with ``code`` (B, Q), where
    model b learns code b.  ``active`` holds the S row indices and ``rows``
    (..., S, Q*K) those rows as gathered for the trial.  Each code becomes
    a one-hot mask over the Q*K units, written by index as a 1 at each
    winner's flat unit ``q * K + code[q]`` of a zero (..., 1, Q*K) row.
    The mask is ORed into ``rows`` in place, and the rows are then written
    back to ``bits``; no other weight is written.  An index that repeats
    in ``active`` is written with the same bits from each of its copies.
    Idempotent: re-applying the same (pattern, code) changes nothing.
    Weights are only ever raised.
    """
    mask = np.zeros((*code.shape[:-1], 1, geometry.num_units), np.uint8)
    mask.put(code + _cm_starts(code.shape, geometry.units_per_cm), 1)
    rows |= mask
    bits[..., active, :] = rows


def random_pattern(geometry: ModelGeometry, rng: np.random.Generator) -> InputPattern:
    """A pattern with exactly S active pixels drawn without replacement."""
    idx = rng.choice(geometry.num_pixels, size=geometry.num_active, replace=False)
    return InputPattern.from_indices(int(i) for i in idx)
