"""Single-trial associative memory over a modular sparse distributed code.

:class:`MemoryModel` composes the selection pipeline into three verbs:

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
held.  The ledger is append-only.  The belief readout is one vectorised
O(N) pass over module-major array copies of the ledger's codes (Q, N) and
pixels (S, N), which the first belief call builds and later calls extend by
the items stored since; each item's figures come back as one
:class:`BeliefEntry` named tuple.

Concurrency contract: a model is single-writer.  ``store`` mutates weights,
the model RNG and the op counter, and must be externally serialized;
``retrieve`` and ``belief_update`` with a caller-supplied RNG are read-only
on model state and may run concurrently with other readers.  A belief call
may replace the model's cached array copy of the ledger, but never changes
it in place, so concurrent readers at worst build it twice.
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


@dataclass(frozen=True)
class _LedgerArrays:
    """Array copy of the first ``len(labels)`` items of one ledger list.

    Column ``i`` of ``codes`` (Q, N) and ``pixels`` (S, N) holds ledger item
    ``i``'s winners and active pixels, so each readout reduction runs over
    the short leading axis.  ``tail`` is the last item copied.
    """

    source: list[LedgerEntry]
    tail: LedgerEntry
    labels: tuple[str, ...]
    codes: np.ndarray
    pixels: np.ndarray


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


class MemoryModel:
    """A coding field plus its weights, parameters, and seeded RNG."""

    # Built by the first belief call, so store, clone and snapshot loading
    # never pay for it and a model that is never read holds none.
    _ledger_arrays: _LedgerArrays | None = None

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
        self.ledger: list[LedgerEntry] | None = [] if enable_ledger else None
        self.op_counter = OpCounter()
        self.num_stored = 0

    @property
    def w_max(self) -> int:
        """The weight quantum, always ``W_MAX``."""
        return W_MAX

    def reseed(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def _select(
        self,
        pattern: InputPattern,
        mode: str,
        rng: np.random.Generator,
        counter: OpCounter | None,
    ) -> tuple[np.ndarray, CsaTrace]:
        u = compute_u(pattern, self.weights, self.geometry, counter)
        u_norm = normalize_u(u, self.geometry.num_active, counter)
        g = familiarity(u_norm, counter)
        eta = eta_for_familiarity(g, self.params, counter)
        mu = mu_from_u(u_norm, eta, self.params, counter)
        rho = rho_from_mu(mu, counter)
        if mode == "soft":
            code = draw_winners(rho, rng, counter)
        elif mode == "hard":
            code = hard_max_winners(u_norm, rng, counter)
        else:
            raise ValueError(f"unknown retrieval mode {mode!r}")
        trace = CsaTrace(u=u, u_norm=u_norm, mu=mu, rho=rho, familiarity=g, eta=eta)
        return code, trace

    def store(
        self, pattern: InputPattern, label: str | None = None
    ) -> tuple[np.ndarray, CsaTrace]:
        """Select a code for the input and learn the mapping in one trial.

        Rejects a pattern with the wrong active count, and with the ledger
        on a label a snapshot cannot hold, before touching any state, so a
        failed store leaves the model unchanged.
        """
        self.geometry.validate_pattern(pattern)
        if self.ledger is not None:
            name = label if label is not None else f"item-{self.num_stored + 1}"
            _check_label(name)
        code, trace = self._select(pattern, "soft", self.rng, self.op_counter)
        apply_learning(pattern, code, self.weights, self.geometry, self.op_counter)
        self.num_stored += 1
        if self.ledger is not None:
            self.ledger.append(LedgerEntry(name, pattern, tuple(int(c) for c in code)))
        return code, trace

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
        if rng is None:
            return self._select(pattern, mode, self.rng, self.op_counter)
        return self._select(pattern, mode, rng, None)

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
        if self.ledger is None:
            raise LedgerUnavailableError(
                "belief_update requires a model built with enable_ledger=True"
            )
        if not self.ledger:
            raise LedgerUnavailableError("belief_update requires at least one stored item")
        code, trace = self.retrieve(pattern, mode=mode, rng=rng)
        items = self._ledger_view()
        g = self.geometry
        inter = (items.codes == code[:, None]).sum(
            axis=0, dtype=np.min_scalar_type(g.num_cms)
        )
        probe = np.zeros(g.num_pixels, dtype=bool)
        probe[list(pattern.active)] = True
        overlap = probe.take(items.pixels).sum(
            axis=0, dtype=np.min_scalar_type(g.num_active)
        )
        entries = tuple(
            map(
                BeliefEntry._make,
                zip(
                    items.labels,
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

    def _ledger_view(self) -> _LedgerArrays:
        """The ledger as arrays, brought up to date with ``self.ledger``.

        Extends the cached copy by the items appended since it was made, or
        rebuilds it when the ledger is another list, has shrunk, or no longer
        holds the last copied item where it was.  A new copy replaces the old
        one whole; neither is written in place.  Requires a non-empty ledger.
        """
        ledger = self.ledger
        view = self._ledger_arrays
        done = 0 if view is None else len(view.labels)
        if view is not None and not (
            view.source is ledger and done <= len(ledger) and ledger[done - 1] is view.tail
        ):
            view, done = None, 0
        if view is not None and done == len(ledger):
            return view
        new = ledger[done:]
        g = self.geometry
        labels = tuple(e.label for e in new)
        code_dtype = np.min_scalar_type(g.units_per_cm - 1)
        pixel_dtype = np.min_scalar_type(g.num_pixels - 1)
        codes = np.ascontiguousarray(
            np.array([e.code for e in new], dtype=code_dtype).reshape(len(new), g.num_cms).T
        )
        pixels = np.ascontiguousarray(
            np.array([e.pattern.active for e in new], dtype=pixel_dtype)
            .reshape(len(new), g.num_active).T
        )
        if view is not None:
            labels = view.labels + labels
            codes = np.concatenate([view.codes, codes], axis=1)
            pixels = np.concatenate([view.pixels, pixels], axis=1)
        view = _LedgerArrays(ledger, new[-1], labels, codes, pixels)
        self._ledger_arrays = view
        return view

    def clone(self) -> "MemoryModel":
        """Deep copy: weights, RNG state, ledger, and counters."""
        other = MemoryModel.__new__(MemoryModel)
        other.geometry = self.geometry
        other.params = self.params
        other.weights = self.weights.copy()
        other.rng = np.random.default_rng()
        other.rng.bit_generator.state = self.rng.bit_generator.state
        other.ledger = list(self.ledger) if self.ledger is not None else None
        other.op_counter = self.op_counter.copy()
        other.num_stored = self.num_stored
        return other
