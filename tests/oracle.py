"""Brute-force reference checks, independent of the model's weights.

These operate only on raw patterns and codes, never on a weight matrix, so
they can arbitrate what the memory *should* report.  ``pixel_overlap``
counts the active pixels two patterns share; ``oracle_similarity`` is the
ground-truth pixel overlap fraction; ``oracle_nearest`` the exhaustive
best-match; ``oracle_expected_uniform_intersection`` the Monte-Carlo chance
level for code intersections (Q/K for Q CMs of K units);
``code_intersection`` the number of CMs two codes share.

The ``reference_*`` functions are the selection steps' per-CM picks as
reductions over the K axis: the per-CM max by ``np.maximum.reduce`` and the
counts by ``np.add.reduce``.  The steps pick by ``argmax`` instead and must
agree with these bit for bit.  ``kernel_cm_max`` reads each CM's max as the
selection kernel does, for the steps that take it.  ``reference_mu_from_u``
is the win-weight sigmoid formed per unit from U, which ``mu_from_u`` reads
from a per-count table instead.  ``extreme_params`` draws valid
``CsaParams`` at and between their bounds, for the property tests.

A helper module for the tests, not a test file: pytest puts ``tests/`` on
``sys.path``, so test files import it as ``from oracle import ...``.
"""

from __future__ import annotations

import sys
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from msdc import CsaParams, GeometryError, InputPattern, PatternError
from msdc.core import _cm_starts

# The largest eta_max that keeps a 65536-unit CM's win weights summable.
LARGEST_ETA_MAX = sys.float_info.max / 65536


def edged(lo: float, hi: float) -> st.SearchStrategy[float]:
    """Floats in [lo, hi], often exactly at either end."""
    return st.sampled_from((lo, hi)) | st.floats(lo, hi)


@st.composite
def extreme_params(draw) -> CsaParams:
    """Valid ``CsaParams`` at and between their extremes: ``eta_max`` up to
    the largest summable value, ``steepness`` across the float64 range,
    ``g_floor`` up to just below 1 and ``g_exponent`` from 1e-300 to 1e300."""
    return CsaParams(
        eta_max=draw(edged(5e-324, LARGEST_ETA_MAX)),
        steepness=draw(edged(1e-300, sys.float_info.max)),
        midpoint=draw(edged(0.0, 1.0)),
        g_floor=draw(edged(0.0, float(np.nextafter(1.0, 0.0)))),
        g_exponent=draw(edged(1e-300, 1e300)),
    )


def code_intersection(a: np.ndarray, b: np.ndarray) -> int:
    """Number of CMs in which two codes picked the same winner."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise GeometryError(f"code shapes differ: {a.shape} vs {b.shape}")
    return int((a == b).sum())


def pixel_overlap(a: InputPattern, b: InputPattern) -> int:
    """Number of active pixels ``a`` and ``b`` share."""
    return len(set(a.active) & set(b.active))


def oracle_similarity(a: InputPattern, b: InputPattern) -> float:
    """Pixel overlap fraction |a ∩ b| / S for two same-weight patterns."""
    if len(a.active) != len(b.active):
        raise PatternError(
            f"patterns have different active counts: {len(a.active)} vs {len(b.active)}"
        )
    if not a.active:
        raise PatternError("patterns must have at least one active pixel")
    return pixel_overlap(a, b) / len(a.active)


def oracle_nearest(
    query: InputPattern, corpus: Sequence[tuple[str, InputPattern]]
) -> list[str]:
    """Labels of the most similar corpus items; all of them when tied.

    Ties are decided on exact overlap counts, so equal similarities are
    recognized without floating-point comparisons.
    """
    if not corpus:
        raise PatternError("oracle_nearest requires a non-empty corpus")
    overlaps = []
    for label, pattern in corpus:
        if len(pattern.active) != len(query.active):
            raise PatternError(f"corpus item {label!r} has a different active count")
        overlaps.append((label, pixel_overlap(query, pattern)))
    best = max(count for _, count in overlaps)
    return [label for label, count in overlaps if count == best]


def oracle_expected_uniform_intersection(
    num_cms: int, units_per_cm: int, trials: int, seed: int = 0
) -> float:
    """Monte-Carlo mean intersection of two independent uniform codes.

    Converges on num_cms / units_per_cm.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    total = 0
    remaining = trials
    chunk = 50_000
    while remaining:
        n = min(chunk, remaining)
        a = rng.integers(0, units_per_cm, size=(n, num_cms))
        b = rng.integers(0, units_per_cm, size=(n, num_cms))
        total += int((a == b).sum())
        remaining -= n
    return total / trials


def reference_familiarity(u_norm: np.ndarray) -> np.ndarray:
    """The mean over CMs of each CM's ``np.maximum.reduce`` over K."""
    return np.add.reduce(np.maximum.reduce(u_norm, axis=-1), axis=-1) / u_norm.shape[-2]


def reference_draw_winners(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per CM, the number of cumulative probabilities at or below its
    uniform, capped at K - 1."""
    cum = rho.cumsum(axis=-1)
    if not np.logical_and.reduce(np.abs(cum[..., -1] - 1.0) <= 1e-9, axis=None):
        raise ValueError("each CM's win probabilities must sum to 1")
    winners = np.add.reduce(cum <= r[..., None], axis=-1)
    return np.minimum(winners, rho.shape[-1] - 1)


def reference_hard_max_winners(u_norm: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per CM, tied unit number floor(r * n) of the n units at its
    ``np.maximum.reduce``, with n counted by ``np.add.reduce``."""
    tied = u_norm == np.maximum.reduce(u_norm, axis=-1, keepdims=True)
    n = np.add.reduce(tied, axis=-1)
    if not np.logical_and.reduce(n, axis=None):
        raise ValueError("normalized summations must not be NaN")
    pick = np.minimum((r * n).astype(np.int64), n - 1)
    return (tied.cumsum(axis=-1) > pick[..., None]).argmax(axis=-1)


def kernel_cm_max(u: np.ndarray) -> np.ndarray:
    """Each CM's max of ``u`` (..., Q, K), read as the selection kernel
    reads it: at the CM's first argmax, by one flat take."""
    at = u.argmax(axis=-1)
    at += _cm_starts(at.shape, u.shape[-1])
    return u.take(at)


def reference_mu_from_u(u_norm: np.ndarray, eta, params: CsaParams) -> np.ndarray:
    """``1 + eta / (1 + exp(min(s * (m - U), 700)))`` formed per unit of
    ``u_norm`` (..., Q, K), in place, with one ``eta`` per leading index."""
    eta = np.asarray(eta, dtype=np.float64)[..., None, None]
    z = params.midpoint - u_norm
    z *= params.steepness
    np.minimum(z, 700.0, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(eta, z, out=z)
    z += 1.0
    return z
