"""Single-trial associative memory over a modular sparse distributed code.

``_select_codes``, the one selection kernel, runs the ``core`` steps, by
the names this module binds them to, for a block of B models that see one
input.  :class:`MemoryModel` validates its input, then runs the kernel at
B=1 on its own weights and tallies the work on ``op_counter``, in three
verbs:

``store``          select a code for the input (soft draw), embed the
                   mapping at full strength in one trial, optionally record
                   the (label, input, code) triple in the ledger
``retrieve``       same pipeline, no weight update; ``soft`` draws from the
                   win distributions, ``hard`` takes the per-CM argmax for a
                   deterministic best-match readout
``belief_update``  retrieve a code for the input, then report, for every
                   ledger item, the fraction of its code that is active —
                   a simultaneous likelihood readout over all stored items

The ledger is evaluation plumbing only: the selection pipeline never reads
it, so storage and retrieval cost is independent of how many items are
held.  The ledger is append-only and private to the model: only ``store``
and snapshot loading write it, each through ``_append_ledger``, which also
adds every item's winners and pixels as one column of module-major arrays,
codes (Q, N) and pixels (S, N), whose capacity doubles as they fill.
``model.ledger`` is a read-only tuple of the stored :class:`LedgerEntry`
objects.  The belief readout is one vectorised O(N) pass over those arrays;
each item's figures come back as one :class:`BeliefEntry` named tuple.

Concurrency contract: a model is single-writer.  ``store`` mutates weights,
the ledger, the model RNG and the op counter, and must be externally
serialized; ``retrieve`` and ``belief_update`` with a caller-supplied RNG
write nothing on the model and may run concurrently with other readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    CsaParams,
    CsaTrace,
    InputPattern,
    ModelGeometry,
    OpCounter,
    W_MAX,
    WeightMatrix,
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
from .errors import LabelError, LedgerUnavailableError

RETRIEVAL_MODES = ("soft", "hard")

# A snapshot stores each ledger label's UTF-8 length as a u16.
MAX_LABEL_BYTES = 0xFFFF


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
        return max(self.entries, key=lambda e: e.likelihood)


def _check_label(label: str) -> None:
    try:
        size = len(label.encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise LabelError(f"ledger label is not valid UTF-8 text: {exc}") from exc
    if size > MAX_LABEL_BYTES:
        raise LabelError(
            f"ledger label is {size} UTF-8 bytes; a snapshot holds at most "
            f"{MAX_LABEL_BYTES}"
        )


def _select_codes(
    bits: np.ndarray,
    active: np.ndarray,
    geometry: ModelGeometry,
    params: CsaParams,
    mode: str,
    r: np.ndarray,
    learn: bool = False,
) -> tuple:
    """One selection step for a block of B models that all see one input.

    ``bits`` (B, P, Q*K) holds each model's weight bits, ``active`` (S,) the
    input's pixels, ``mode`` is "soft" or "hard", and ``r`` (B, Q) each
    model's Q uniforms, CM 0 first.  Row b gets the code that model b alone
    would get from its uniforms, and with ``learn`` each row learns its code
    in place.  Returns the codes (B, Q), the (B, Q, K) charts u, U, mu and
    rho, and G and eta per row as Python floats.  mu and rho are formed in
    hard mode too, for the trace, though the hard pick reads only U.
    """
    u = compute_u(bits, active, geometry)
    u_norm = normalize_u(u, geometry.num_active)
    g = familiarity(u_norm).tolist()
    eta = [eta_for_familiarity(x, params) for x in g]
    mu = mu_from_u(u_norm, eta, params)
    rho = rho_from_mu(mu)
    code = draw_winners(rho, r) if mode == "soft" else hard_max_winners(u_norm, r)
    if learn:
        apply_learning(bits, active, code, geometry)
    return code, u, u_norm, mu, rho, g, eta


class MemoryModel:
    """A coding field plus its weights, parameters, and seeded RNG."""

    def __init__(
        self,
        geometry: ModelGeometry,
        params: CsaParams | None = None,
        seed: int = 0,
        enable_ledger: bool = False,
    ):
        self.geometry = geometry
        self.params = params if params is not None else CsaParams()
        self.weights = WeightMatrix(geometry.num_pixels, geometry.num_units)
        self.rng = np.random.default_rng(seed)
        # The ledger: a list of entries, a list of their labels, and their
        # winners (Q, capacity) and pixels (S, capacity) as array columns.
        # All four are None with the ledger off.
        self._entries = self._labels = self._codes = self._pixels = None
        if enable_ledger:
            g = geometry
            self._entries, self._labels = [], []
            self._codes = np.empty((g.num_cms, 0), np.min_scalar_type(g.units_per_cm - 1))
            self._pixels = np.empty((g.num_active, 0), np.min_scalar_type(g.num_pixels - 1))
        self.op_counter = OpCounter()
        self.num_stored = 0

    @property
    def ledger(self) -> tuple[LedgerEntry, ...] | None:
        """The stored items in store order, or None with the ledger off."""
        return None if self._entries is None else tuple(self._entries)

    @property
    def w_max(self) -> int:
        """The weight quantum, always ``W_MAX``."""
        return W_MAX

    def reseed(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def _run(
        self, pattern: InputPattern, mode: str, rng: np.random.Generator | None, learn: bool
    ) -> tuple[np.ndarray, CsaTrace]:
        """The kernel at B=1 on this model's weights, learning if ``learn``.

        Draws Q uniforms from ``rng``, or from the model RNG when it is None,
        in which case the call's work is added to ``op_counter``.
        """
        g = self.geometry
        bits = self.weights.bits[None]
        active = np.asarray(pattern.active, dtype=np.intp)
        r = (self.rng if rng is None else rng).random(g.num_cms)
        code, u, u_norm, mu, rho, fam, eta = _select_codes(
            bits, active, g, self.params, mode, r[None], learn
        )
        if rng is None:
            counter = self.op_counter
            counter.weight_reads += g.num_active * g.num_units
            counter.element_ops += 4 * g.num_units + g.num_cms + 1
            counter.sigmoid_evals += g.num_units
            counter.rng_draws += g.num_cms
            if learn:
                counter.weight_writes += g.num_active * g.num_cms
        return code[0], CsaTrace(u[0], u_norm[0], mu[0], rho[0], fam[0], eta[0])

    def store(
        self, pattern: InputPattern, label: str | None = None
    ) -> tuple[np.ndarray, CsaTrace]:
        """Select a code for the input and learn the mapping in one trial.

        Rejects a pattern with the wrong active count, and with the ledger
        on a label a snapshot cannot hold, before touching any state, so a
        failed store leaves the model unchanged.
        """
        self.geometry.validate_pattern(pattern)
        if self._entries is not None:
            name = label if label is not None else f"item-{self.num_stored + 1}"
            _check_label(name)
        code, trace = self._run(pattern, "soft", None, learn=True)
        self.num_stored += 1
        if self._entries is not None:
            self._append_ledger([LedgerEntry(name, pattern, tuple(code.tolist()))])
        return code, trace

    def _append_ledger(self, entries: list[LedgerEntry]) -> None:
        """Add ``entries``, which fit the geometry, to the end of the ledger."""
        n, m = len(self._entries), len(entries)
        capacity = self._codes.shape[1]
        if n + m > capacity:  # at least double, so appends cost O(1) amortized
            grow = max(capacity, n + m - capacity)
            self._codes, self._pixels = (
                np.pad(a, ((0, 0), (0, grow))) for a in (self._codes, self._pixels)
            )
        self._codes[:, n:n + m] = np.array([e.code for e in entries], self._codes.dtype).T
        self._pixels[:, n:n + m] = np.array(
            [e.pattern.active for e in entries], self._pixels.dtype
        ).T
        self._entries.extend(entries)
        self._labels.extend(e.label for e in entries)

    def retrieve(
        self,
        pattern: InputPattern,
        mode: str = "soft",
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, CsaTrace]:
        """Run the selection pipeline without learning.

        Weights and ledger are untouched.  Pass ``rng`` to leave the model's
        own RNG state and op counter untouched as well (required for
        concurrent readers); without it the call draws from the model RNG
        and counts its operations on ``op_counter``.
        """
        self.geometry.validate_pattern(pattern)
        if mode not in RETRIEVAL_MODES:
            raise ValueError(f"unknown retrieval mode {mode!r}")
        return self._run(pattern, mode, rng, learn=False)

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
        inter = (self._codes[:, :n] == code[:, None]).sum(
            axis=0, dtype=np.min_scalar_type(g.num_cms)
        )
        probe = np.zeros(g.num_pixels, dtype=bool)
        probe[list(pattern.active)] = True
        overlap = probe.take(self._pixels[:, :n]).sum(
            axis=0, dtype=np.min_scalar_type(g.num_active)
        )
        entries = tuple(
            map(
                BeliefEntry._make,
                zip(
                    self._labels,
                    (overlap / g.num_active).tolist(),
                    inter.tolist(),
                    (inter / g.num_cms).tolist(),
                ),
            )
        )
        return BeliefReport(
            entries=entries,
            code=code,
            familiarity=trace.familiarity,
            mode=mode,
            trace=trace,
        )

    def clone(self) -> "MemoryModel":
        """Deep copy: weights, RNG state, ledger, and counters."""
        other = MemoryModel.__new__(MemoryModel)
        other.geometry = self.geometry
        other.params = self.params
        other.weights = self.weights.copy()
        other.rng = np.random.default_rng()
        other.rng.bit_generator.state = self.rng.bit_generator.state
        other._entries = other._labels = other._codes = other._pixels = None
        if self._entries is not None:
            other._entries = list(self._entries)
            other._labels = list(self._labels)
            other._codes = self._codes.copy()
            other._pixels = self._pixels.copy()
        other.op_counter = self.op_counter.copy()
        other.num_stored = self.num_stored
        return other
