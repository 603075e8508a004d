"""Brute-force reference checks, independent of the model's weights.

These operate only on raw patterns and codes, never on a weight matrix, so
they can arbitrate what the memory *should* report.  ``oracle_similarity``
is the ground-truth pixel overlap; ``oracle_nearest`` the exhaustive
best-match; ``oracle_expected_uniform_intersection`` the Monte-Carlo chance
level for code intersections (Q/K for Q CMs of K units);
``code_intersection`` the number of CMs two codes share.

A helper module for the tests, not a test file: pytest puts ``tests/`` on
``sys.path``, so test files import it as ``from oracle import ...``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from msdc import GeometryError, InputPattern, PatternError


def code_intersection(a: np.ndarray, b: np.ndarray) -> int:
    """Number of CMs in which two codes picked the same winner."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise GeometryError(f"code shapes differ: {a.shape} vs {b.shape}")
    return int((a == b).sum())


def oracle_similarity(a: InputPattern, b: InputPattern) -> float:
    """Pixel overlap fraction |a ∩ b| / S for two same-weight patterns."""
    if len(a.active) != len(b.active):
        raise PatternError(
            f"patterns have different active counts: {len(a.active)} vs {len(b.active)}"
        )
    if not a.active:
        raise PatternError("patterns must have at least one active pixel")
    return a.overlap(b) / len(a.active)


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
        overlaps.append((label, query.overlap(pattern)))
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
