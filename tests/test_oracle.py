"""The brute-force reference in ``oracle.py`` and its internal consistency."""

import numpy as np
import pytest

from msdc import GeometryError, InputPattern, PatternError

from oracle import (
    code_intersection,
    oracle_expected_uniform_intersection,
    oracle_nearest,
    oracle_similarity,
)


def pat(*pixels):
    return InputPattern.from_indices(pixels)


def test_similarity_identity_and_disjoint():
    a = pat(0, 1, 2, 3)
    assert oracle_similarity(a, a) == 1.0
    assert oracle_similarity(a, pat(4, 5, 6, 7)) == 0.0
    assert oracle_similarity(a, pat(0, 1, 8, 9)) == pytest.approx(0.5)


def test_similarity_rejects_mismatched_weight():
    with pytest.raises(PatternError):
        oracle_similarity(pat(0, 1), pat(0, 1, 2))


def test_nearest_single_item_and_ties():
    a = pat(0, 1, 2, 3)
    assert oracle_nearest(a, [("A", a)]) == ["A"]
    corpus = [
        ("X", pat(0, 1, 8, 9)),   # overlap 2
        ("Y", pat(0, 2, 10, 11)), # overlap 2
        ("Z", pat(8, 9, 10, 11)), # overlap 0
    ]
    assert oracle_nearest(a, corpus) == ["X", "Y"]


def test_nearest_rejects_empty_corpus():
    with pytest.raises(PatternError):
        oracle_nearest(pat(0), [])


def test_nearest_agrees_with_similarity_ranking():
    rng = np.random.default_rng(17)
    for _ in range(50):
        patterns = []
        for i in range(6):
            idx = rng.choice(40, size=6, replace=False)
            patterns.append((f"P{i}", InputPattern.from_indices(int(x) for x in idx)))
        query_idx = rng.choice(40, size=6, replace=False)
        query = InputPattern.from_indices(int(x) for x in query_idx)
        winners = set(oracle_nearest(query, patterns))
        sims = {label: oracle_similarity(query, p) for label, p in patterns}
        best = max(sims.values())
        assert winners == {label for label, s in sims.items() if s == best}


def test_uniform_intersection_reference_geometry():
    # Chance level Q/K = 24/8 = 3; 100k Monte-Carlo pairs, +/- 0.05.
    mean = oracle_expected_uniform_intersection(24, 8, trials=100_000, seed=3)
    assert mean == pytest.approx(3.0, abs=0.05)


def test_uniform_intersection_degenerate_k1():
    # K=1 forces identical codes, so the intersection is always Q.
    assert oracle_expected_uniform_intersection(5, 1, trials=1_000, seed=0) == 5.0


def test_uniform_intersection_coin_flip():
    mean = oracle_expected_uniform_intersection(1, 2, trials=100_000, seed=4)
    assert mean == pytest.approx(0.5, abs=0.01)


def test_uniform_intersection_rejects_no_trials():
    with pytest.raises(ValueError):
        oracle_expected_uniform_intersection(2, 2, trials=0)


def test_code_intersection_counts_matching_cms():
    assert code_intersection(np.array([1, 2, 3]), np.array([1, 0, 3])) == 2
    with pytest.raises(GeometryError):
        code_intersection(np.array([1]), np.array([1, 2]))
