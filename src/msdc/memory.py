"""Single-trial associative memory over a modular sparse distributed code.

``_select_codes``, the one selection kernel, runs the ``core`` steps, by
the names this module binds them to, for one model's weight plane or for a
block of B models that see one input.  :class:`MemoryModel` validates its
input, then runs the kernel on its own (P, Q*K) plane and tallies the work
on ``op_counter``, in three verbs; only the scenario passes blocks:

``store``          select a code for the input (soft draw), embed the
                   mapping at full strength in one trial, optionally record
                   the (label, input, code) triple in the ledger
``retrieve``       same pipeline, no weight update; ``soft`` draws from the
                   win distributions, ``hard`` takes the per-CM argmax for a
                   deterministic best-match readout
``belief_update``  retrieve a code for the input, then report, for every
                   ledger item, the fraction of its code that is active —
                   a simultaneous likelihood readout over all stored items

The kernel works on each unit's count of set weights from active pixels.
It reads each CM's max count once, for G and a hard pick; a soft draw reads
mu's sigmoid from a table of its S + 1 values, made with the model.  Each
verb also reports the call's :class:`CsaTrace`: its counts, G, eta,
parameters and S.  The trace forms ``u`` (``W_MAX`` times the counts) and
``u_norm`` each on first read, and ``mu`` and ``rho`` together on the first
read of either, by this module's ``normalize_u``, ``mu_from_u`` and
``rho_from_mu``.  A hard pick forms none of them unless its trace is read; a
soft draw forms mu and rho for itself, and its trace forms them again if read.

The ledger is evaluation plumbing only: the selection pipeline never reads
it, so storage and retrieval cost is independent of how many items are
held.  The ledger is append-only and private to the model: only ``store``
and snapshot loading write it, each through ``_append_ledger``.  Besides
the entries, it keeps every item's winners and pixels as one column of
module-major arrays, codes (Q, N) and pixels (S, N), whose capacity doubles
as they fill.  Callers pass those winners and pixels as arrays, which are
copied straight into the new columns: ``store`` the code it drew and the
pixel array it read, snapshot loading one array of each for all entries.
``model.ledger`` is a read-only tuple of the stored :class:`LedgerEntry`
objects.  The belief readout is one vectorised O(N) pass over those arrays;
each item's figures come back as one :class:`BeliefEntry` named tuple,
whose similarity and likelihood are shared floats read from per-geometry
tables of c / S and c / Q.  The readout pauses the cyclic collector,
process-wide, while it builds the entries, and then restores it.

Concurrency contract: a model is single-writer.  ``store`` mutates weights,
the ledger, the model RNG and the op counter, and must be externally
serialized; ``retrieve`` and ``belief_update`` with a caller-supplied RNG
write nothing on the model and may run concurrently with other readers.
Readers pause the collector one at a time, under a module lock.  A caller
that turns the collector off on another thread while a readout's pause is
open may find it back on when the pause ends.  A fork waits for an open
pause to end, so the child starts with the lock free and the collector as
it was before the pause.
"""

from __future__ import annotations

import copy
import gc
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .core import (
    CsaParams,
    InputPattern,
    ModelGeometry,
    OpCounter,
    W_MAX,
    WeightMatrix,
    _as_int,
    _cm_starts,
    _count_dtype,
    _z_table,
    apply_learning,
    compute_u,
    draw_winners,
    eta_for_familiarity,
    familiarity,
    hard_max_winners,
    mu_from_u,
    normalize_u,
    rho_from_mu,
)
from .errors import GeometryError, LabelError, LedgerUnavailableError

RETRIEVAL_MODES = ("soft", "hard")

# A snapshot stores each ledger label's UTF-8 length as a u16.
MAX_LABEL_BYTES = 0xFFFF


@dataclass(frozen=True, eq=False)
class CsaTrace:
    """Per-trial diagnostics: the (Q, K) charts of one selection pass.

    A trace keeps the call's per-unit ``count``, G, ``eta``, ``params`` and S
    (``num_active``).  From those alone it forms, on first read, ``u`` (the
    raw summations ``W_MAX * count`` as int64, which only traces report),
    ``u_norm``, and ``mu`` and ``rho`` together, and then keeps them.  Callers
    cannot assign to a trace.  Traces compare and hash by identity, since
    their charts are arrays.
    """

    count: np.ndarray
    familiarity: float
    eta: float
    params: CsaParams = field(repr=False)
    num_active: int = field(repr=False)

    @cached_property
    def u(self) -> np.ndarray:
        return np.multiply(self.count, W_MAX, dtype=np.int64)

    # Through this module's bindings, so that tracers see every step.
    @cached_property
    def u_norm(self) -> np.ndarray:
        return normalize_u(self.count, self.num_active)

    @cached_property
    def _mu_rho(self) -> tuple[np.ndarray, np.ndarray]:
        mu = mu_from_u(self.count, self.eta, self.params, self.num_active)
        return mu, rho_from_mu(mu)

    @property
    def mu(self) -> np.ndarray:
        return self._mu_rho[0]

    @property
    def rho(self) -> np.ndarray:
        return self._mu_rho[1]

    def to_json_dict(self) -> dict:
        return {
            "familiarity": self.familiarity,
            "eta": self.eta,
            "u": self.u.tolist(),
            "u_norm": self.u_norm.tolist(),
            "mu": self.mu.tolist(),
            "rho": self.rho.tolist(),
        }


@dataclass(frozen=True)
class LedgerEntry:
    label: str
    pattern: InputPattern
    code: tuple[int, ...]


class BeliefEntry(NamedTuple):
    """Readout for one stored item against the current input."""

    label: str
    input_similarity: float
    code_intersection: int
    likelihood: float


@dataclass(frozen=True)
class BeliefReport:
    """Likelihoods of all stored items, read out from code intersections."""

    entries: tuple[BeliefEntry, ...]
    code: np.ndarray
    familiarity: float
    mode: str
    trace: CsaTrace = field(repr=False)

    def best(self) -> BeliefEntry:
        """The most likely item; of items that tie, the one stored first."""
        return max(self.entries, key=attrgetter("likelihood"))


@lru_cache(maxsize=32)
def _fraction_table(n: int) -> np.ndarray:
    """Read-only object array of the n + 1 floats c / n for c in [0, n],
    the values a belief entry's ``input_similarity`` (n = S) or
    ``likelihood`` (n = Q) can take.  Read by count, every entry shares
    these floats rather than making its own.  ``GeometryError`` if memory
    cannot hold it.
    """
    try:
        table = (np.arange(n + 1) / n).astype(object)
    except MemoryError as exc:
        raise GeometryError(f"cannot allocate a {n + 1}-entry readout table: {exc}") from None
    table.flags.writeable = False
    return table


# Held while a belief readout pauses the cyclic collector.  A fork waits for
# an open pause, so that no child starts inside one.
_COLLECTOR_PAUSE = threading.RLock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_COLLECTOR_PAUSE.acquire,
        after_in_parent=_COLLECTOR_PAUSE.release,
        after_in_child=_COLLECTOR_PAUSE.release,
    )


def _check_label(label: str) -> None:
    if not isinstance(label, str):
        raise LabelError(f"ledger label must be a string, got {label!r}")
    try:
        size = len(label.encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise LabelError(f"ledger label is not valid UTF-8 text: {exc}") from exc
    if size > MAX_LABEL_BYTES:
        raise LabelError(
            f"ledger label is {size} UTF-8 bytes; a snapshot holds at most "
            f"{MAX_LABEL_BYTES}"
        )


def _check_mode(mode: str, error: type[Exception] = GeometryError) -> None:
    """``error`` unless ``mode`` is a ``str`` in ``RETRIEVAL_MODES``."""
    if not (isinstance(mode, str) and mode in RETRIEVAL_MODES):
        raise error(f"unknown retrieval mode {mode!r}")


def _seeded_rng(seed: int) -> np.random.Generator:
    """A model RNG for ``seed``, which must be a non-negative integer.

    ``_pcg64_states`` gives the PCG64 state that this sets for many seeds at
    once: arrays hash the seeds of at most 128 bits, numpy a wider one."""
    seed = _as_int(seed, "seed", GeometryError)
    if seed < 0:
        raise GeometryError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


# numpy's SeedSequence (numpy/random/bit_generator.pyx), pool size 4: the
# start and step of the constant that its hashmix (A) and generate_state (B)
# hashes use, and the multipliers of its mix.  Then PCG64's 128-bit LCG
# multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT, _MASK_128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``calls`` successive SeedSequence hashes, the constant it
    xors in, ``init * mult**i``, and the one it multiplies by,
    ``init * mult**(i + 1)``, modulo 2**32, as (calls, 1) uint32 columns."""
    k = np.full(calls + 1, mult, dtype=np.uint32)
    k[0] = init
    k = np.multiply.accumulate(k, dtype=np.uint32)[:, None]
    return k[:-1], k[1:]


# The constants of mix_entropy's first 16 hashes, and of generate_state's 8.
_HASH_A, _HASH_B = _hash_constants(_INIT_A, _MULT_A, 16), _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ values >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ mixed >> np.uint32(16)


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(seed)`` sets,
    as Python ints, for each of ``seeds``: non-negative ints, already checked.

    numpy's ``SeedSequence(seed).generate_state(4, np.uint64)`` is pure
    uint32 arithmetic, so its hashes run as arrays over every seed of at most
    128 bits, and no generator is built.  A wider seed takes its mixed pool
    from numpy's ``SeedSequence(seed).pool``.  PCG64's seeding step (O'Neill
    2014, PCG, HMC-CS-2014-0905) then runs per seed on Python ints."""
    xor, mul = _HASH_A
    # mix_entropy: hash each seed's low four 32-bit words, a missing word as
    # 0, then mix each pool word's hash into the three others.
    data = b"".join((seed & _MASK_128).to_bytes(16, "little") for seed in seeds)
    words = np.frombuffer(data, "<u4").reshape(len(seeds), 4).T.astype(np.uint32)
    pool = _hash(words, xor[:4], mul[:4])
    for src in range(4):
        at = slice(4 + 3 * src, 7 + 3 * src)
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hash(pool[src], xor[at], mul[at]))
    # A seed of more than four words: numpy mixes its further words in.
    for i, seed in enumerate(seeds):
        if seed >> 128:
            pool[:, i] = np.random.SeedSequence(seed).pool
    # generate_state: eight hashes cycling over the pool, read as four
    # little-endian uint64 words: initstate's high and low, initseq's.
    xor, mul = _HASH_B
    out = np.ascontiguousarray(_hash(np.concatenate([pool, pool]), xor, mul).T, "<u4")
    states = []
    for init_hi, init_lo, seq_hi, seq_lo in out.view("<u8").tolist():
        # pcg_setseq_128_srandom_r
        init, seq = init_hi << 64 | init_lo, seq_hi << 64 | seq_lo
        inc = (seq << 1 | 1) & _MASK_128
        states.append((((init + inc) * _PCG_MULT + inc) & _MASK_128, inc))
    return states


def _select_codes(
    bits: np.ndarray,
    active: np.ndarray,
    geometry: ModelGeometry,
    params: CsaParams,
    mode: str,
    r: np.ndarray,
    learn: bool = False,
) -> tuple:
    """One selection step for one model, or a block of B models, that sees
    one input.

    ``bits`` is a model's (R, Q*K) weight rows, as the verbs pass their
    plane, or a block (B, R, Q*K), as only the scenario passes.  ``active``
    (S,) holds the row each input pixel reads: a model's own P pixel rows by
    pixel index, or any rows that hold the same bits, such as a scenario's
    one row per stored item, where several pixels read one row and indices
    repeat.  ``mode`` is "soft" or "hard", and ``r`` (..., Q) each model's Q
    uniforms, CM 0 first.  Row b of a block gets the code that model b alone
    would get from its uniforms, and with ``learn`` each model learns its
    code in place.  Returns the code (..., Q), the (..., Q, K) counts, and
    G and eta as Python floats, in a list per row for a block.

    The S active rows are gathered once: ``compute_u`` counts them, and with
    ``learn`` ``apply_learning`` ORs the code into that same gather and
    writes it back.  Each CM's max count is read once, at its argmax, and
    serves both G and a hard pick.  U is formed only for those Q maxima: a
    soft draw reads mu's sigmoid from ``_z_table`` by each unit's count,
    and a plane's one float eta lets it form mu over the table's S + 1
    entries before that read.

    Without ``learn``, a plane or a one-row block takes any number N of
    uniform rows (N, Q): its one count chart broadcasts against them, and
    row n gets the code that model would get from uniforms n.  The codes are
    then (N, Q); the counts, G and eta stay the model's one.
    """
    rows = bits.take(active, axis=-2)
    count = compute_u(rows, geometry)
    at = count.argmax(axis=-1)
    at += _cm_starts(at.shape, geometry.units_per_cm)
    top = count.take(at)
    g = familiarity(normalize_u(top, geometry.num_active)).tolist()
    # A map enters the same frames whether or not comprehensions are inlined.
    eta = (eta_for_familiarity(g, params) if bits.ndim == 2
           else list(map(eta_for_familiarity, g, repeat(params))))
    if mode == "soft":
        code = draw_winners(rho_from_mu(mu_from_u(count, eta, params, geometry.num_active)), r)
    else:
        code = hard_max_winners(count, top, r)
    if learn:
        apply_learning(bits, active, rows, code, geometry)
    return code, count, g, eta


class MemoryModel:
    """A coding field plus its weights, parameters, and seeded RNG."""

    def __init__(
        self,
        geometry: ModelGeometry,
        params: CsaParams | None = None,
        seed: int = 0,
        enable_ledger: bool = False,
    ):
        if not isinstance(geometry, ModelGeometry):
            raise GeometryError(f"geometry must be a ModelGeometry, got {geometry!r}")
        if params is not None and not isinstance(params, CsaParams):
            raise GeometryError(f"params must be a CsaParams or None, got {params!r}")
        if not isinstance(enable_ledger, (bool, np.bool_)):
            raise GeometryError(f"enable_ledger must be True or False, got {enable_ledger!r}")
        self.geometry = geometry
        self.params = params if params is not None else CsaParams()
        self.weights = WeightMatrix(geometry.num_pixels, geometry.num_units)
        self.rng = _seeded_rng(seed)
        # The ledger: a list of entries, a list of their labels, and their
        # winners (Q, capacity) and pixels (S, capacity) as array columns.
        # All four are None with the ledger off.
        self._entries = self._labels = self._codes = self._pixels = None
        if enable_ledger:
            g = geometry
            self._entries, self._labels = [], []
            self._codes = np.empty((g.num_cms, 0), np.min_scalar_type(g.units_per_cm - 1))
            self._pixels = np.empty((g.num_active, 0), np.min_scalar_type(g.num_pixels - 1))
            # The readout's tables, made now so that no verb's call builds them.
            _fraction_table(g.num_active)
            _fraction_table(g.num_cms)
        self.op_counter = OpCounter()
        # Made now, so that no verb's call builds them.
        _z_table(geometry.num_active, self.params.midpoint, self.params.steepness)
        _count_dtype(geometry.num_cms)
        self.num_stored = 0

    @property
    def ledger(self) -> tuple[LedgerEntry, ...] | None:
        """The stored items in store order, or None with the ledger off."""
        return None if self._entries is None else tuple(self._entries)

    @property
    def w_max(self) -> int:
        """The weight quantum, always ``W_MAX``."""
        return W_MAX

    def _run(
        self, active: np.ndarray, mode: str, rng: np.random.Generator | None, learn: bool
    ) -> tuple[np.ndarray, CsaTrace]:
        """The kernel on this model's weight plane for the input whose
        pixels are ``active`` (S,), learning if ``learn``.

        Draws Q uniforms from ``rng``, or from the model RNG when it is None,
        in which case the call's work is added to ``op_counter``.
        """
        g = self.geometry
        r = (self.rng if rng is None else rng).random(g.num_cms)
        code, c, fam, eta = _select_codes(self.weights.bits, active, g, self.params, mode, r, learn)
        if rng is None:
            counter = self.op_counter
            counter.weight_reads += g.num_active * g.num_units
            counter.element_ops += 4 * g.num_units + g.num_cms + 1
            counter.sigmoid_evals += g.num_units
            counter.rng_draws += g.num_cms
            if learn:
                counter.weight_writes += g.num_active * g.num_cms
        return code, CsaTrace(c, fam, eta, self.params, g.num_active)

    def store(
        self, pattern: InputPattern, label: str | None = None
    ) -> tuple[np.ndarray, CsaTrace]:
        """Select a code for the input and learn the mapping in one trial.

        Rejects anything but an ``InputPattern`` that fits the geometry, and
        a label a snapshot cannot hold, before touching any state, so a
        failed store leaves the model unchanged.  With the ledger off a
        valid label is dropped.
        """
        self.geometry.validate_pattern(pattern)
        if label is None and self._entries is not None:
            label = f"item-{self.num_stored + 1}"
        if label is not None:
            _check_label(label)
        active = np.fromiter(pattern.active, np.intp, len(pattern.active))
        code, trace = self._run(active, "soft", None, learn=True)
        self.num_stored += 1
        if self._entries is not None:
            entry = LedgerEntry(label, pattern, tuple(code.tolist()))
            self._append_ledger([entry], code[None], active[None])
        return code, trace

    def _append_ledger(
        self, entries: list[LedgerEntry], codes: np.ndarray, pixels: np.ndarray
    ) -> None:
        """Add ``entries``, which fit the geometry, to the end of the ledger.

        ``codes`` (m, Q) and ``pixels`` (m, S) hold the entries' winners and
        pixels as integer arrays, row i for entry i.
        """
        n, m = len(self._entries), len(entries)
        capacity = self._codes.shape[1]
        if n + m > capacity:  # at least double, so appends cost O(1) amortized
            grow = max(capacity, n + m - capacity)
            self._codes, self._pixels = (
                np.pad(a, ((0, 0), (0, grow))) for a in (self._codes, self._pixels)
            )
        self._codes[:, n:n + m] = codes.T
        self._pixels[:, n:n + m] = pixels.T
        self._entries.extend(entries)
        self._labels.extend(e.label for e in entries)

    def retrieve(
        self,
        pattern: InputPattern,
        mode: str = "soft",
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, CsaTrace]:
        """Run the selection pipeline without learning.

        Weights and ledger are untouched.  Pass ``rng``, a numpy
        ``Generator``, to leave the model's own RNG state and op counter
        untouched as well (required for concurrent readers); without it the
        call draws from the model RNG and counts its operations on
        ``op_counter``.  The trace forms ``mu`` and ``rho`` when first read,
        from this call's counts, eta and ``params``.
        """
        self.geometry.validate_pattern(pattern)
        _check_mode(mode)
        if rng is not None and not isinstance(rng, np.random.Generator):
            raise GeometryError(f"rng must be a numpy Generator or None, got {rng!r}")
        active = np.fromiter(pattern.active, np.intp, len(pattern.active))
        return self._run(active, mode, rng, learn=False)

    def belief_update(
        self,
        pattern: InputPattern,
        mode: str = "soft",
        rng: np.random.Generator | None = None,
    ) -> BeliefReport:
        """Retrieve a code, then read out every stored item's likelihood.

        Likelihood of item Y is |code(X) ∩ code(Y)| / Q; input similarity is
        reported alongside as |X ∩ Y| / S.  Requires the ledger (the readout
        is the only part of the system whose cost grows with stored items).
        """
        if self._entries is None:
            raise LedgerUnavailableError(
                "belief_update requires a model built with enable_ledger=True"
            )
        n = len(self._entries)
        if not n:
            raise LedgerUnavailableError("belief_update requires at least one stored item")
        code, trace = self.retrieve(pattern, mode=mode, rng=rng)
        g = self.geometry
        # In the ledger's narrow dtype, which every winner fits, so the
        # (Q, N) block is compared without an upcast copy.
        codes = self._codes[:, :n]
        inter = (codes == code.astype(codes.dtype)[:, None]).sum(
            axis=0, dtype=_count_dtype(g.num_cms)
        )
        probe = np.zeros(g.num_pixels, dtype=bool)
        probe[list(pattern.active)] = True
        overlap = probe.take(self._pixels[:, :n]).sum(
            axis=0, dtype=_count_dtype(g.num_active)
        )
        # tuple.__new__ builds each entry in C; BeliefEntry._make would add a
        # Python call per item only to check a length the zip already fixes.
        # A tuple grown from the map is re-tracked by the collector on each
        # resize; one made from a full list is not.
        # The collector tracks every entry, a tuple subclass, and never
        # untracks one.  Over 5000 paper-geometry items on Python 3.11, a
        # soft and a hard readout ran about 13 young collections between
        # them, whose survivors fed older ones, and took 3.3-3.9 ms; with the
        # build paused, about 2, and 2.3-2.7 ms (2-vCPU VM).  Paused, the
        # collector runs once a call, at the report's own allocation.
        # Python 3.12 collects only between bytecodes, never inside this C
        # build.  The lock keeps readers on other threads from interleaving
        # their pauses and leaving the collector off.
        with _COLLECTOR_PAUSE:
            collecting = gc.isenabled()
            gc.disable()
            try:
                entries = tuple([
                    *map(
                        tuple.__new__,
                        repeat(BeliefEntry),
                        zip(
                            self._labels,
                            _fraction_table(g.num_active).take(overlap).tolist(),
                            inter.tolist(),
                            _fraction_table(g.num_cms).take(inter).tolist(),
                        ),
                    )
                ])
            finally:
                if collecting:
                    gc.enable()
        return BeliefReport(
            entries=entries,
            code=code,
            familiarity=trace.familiarity,
            mode=mode,
            trace=trace,
        )

    def clone(self) -> "MemoryModel":
        """Deep copy of the mutable state: weights, RNG, ledger and counters;
        the immutable geometry, params and ledger entries are shared."""
        other = copy.copy(self)
        other.weights = copy.copy(self.weights)
        other.weights.bits = self.weights.bits.copy()
        other.rng = copy.deepcopy(self.rng)
        other.op_counter = self.op_counter.copy()
        if self._entries is not None:
            other._entries, other._labels = list(self._entries), list(self._labels)
            other._codes, other._pixels = self._codes.copy(), self._pixels.copy()
        return other
