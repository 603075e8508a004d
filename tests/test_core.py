"""Unit tests for the code selection pipeline, step by step."""

import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import msdc
from msdc import (
    ConfigError,
    CsaParams,
    GeometryError,
    InputPattern,
    MemoryModel,
    ModelGeometry,
    OpCounter,
    PatternError,
    WeightMatrix,
    code_intersection,
    random_pattern,
)
from msdc.core import (
    W_MAX,
    _check_w_max,
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


def pattern_of(*pixels):
    return InputPattern.from_indices(pixels)


def u_of(pattern, weights, geometry):
    return compute_u(weights.bits, np.asarray(pattern.active), geometry)


def learn(pattern, code, weights, geometry):
    """``apply_learning`` on one model: a block of B=1."""
    active = np.asarray(pattern.active)
    apply_learning(weights.bits[None], active, np.asarray(code)[None], geometry)


# ---------------------------------------------------------------- compute_u


def test_compute_u_zero_weights_gives_zero(geometry, rng):
    weights = WeightMatrix(geometry.num_pixels, geometry.num_units)
    u = u_of(random_pattern(geometry, rng), weights, geometry)
    assert u.shape == (24, 8)
    assert not u.any()


def test_compute_u_restored_pattern_reaches_full_sum(geometry, rng):
    # After learning pattern A, re-presenting A drives each of A's winners
    # to exactly S * W_MAX = 12 * 127 = 1524 while all other units stay 0.
    weights = WeightMatrix(geometry.num_pixels, geometry.num_units)
    a = random_pattern(geometry, rng)
    code = rng.integers(0, 8, size=24)
    learn(a, code, weights, geometry)
    u = u_of(a, weights, geometry)
    for q in range(24):
        assert u[q, code[q]] == 12 * 127 == 1524
    assert u.sum() == 24 * 1524


def test_compute_u_partial_overlap_counts_shared_pixels(small_geometry):
    # Weights trained on A only; B shares 4 of A's 5 pixels, so each of A's
    # winners sums to exactly 4 set weights of 127.
    weights = WeightMatrix(9, 15)
    a = pattern_of(0, 1, 2, 3, 4)
    b = pattern_of(0, 1, 2, 3, 5)
    code = np.array([0, 1, 2, 0, 1])
    learn(a, code, weights, small_geometry)
    u = u_of(b, weights, small_geometry)
    for q in range(5):
        assert u[q, code[q]] == 4 * 127
    assert u.sum() == 5 * 4 * 127


# -------------------------------------------------------------- normalize_u


def test_normalize_u_zero_and_extremes():
    u = np.array([[0, 1524], [4, 0]])
    out = normalize_u(u, num_active=12)
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0


def test_normalize_u_partial_overlap_fraction():
    out = normalize_u(np.array([[4 * 127]]), num_active=5)
    assert out[0, 0] == pytest.approx(0.8)


# -------------------------------------------------------------- familiarity


def test_familiarity_all_zero_is_zero():
    assert familiarity(np.zeros((24, 8))) == 0.0


def test_familiarity_full_recall_is_one():
    u_norm = np.zeros((24, 8))
    u_norm[:, 3] = 1.0
    assert familiarity(u_norm) == 1.0


def test_familiarity_averages_per_cm_maxima():
    u_norm = np.array([[0.2, 0.8], [0.5, 0.1]])
    assert familiarity(u_norm) == pytest.approx((0.8 + 0.5) / 2)


# ------------------------------------------------------ eta_for_familiarity


def test_eta_zero_familiarity_is_exactly_zero(params):
    assert eta_for_familiarity(0.0, params) == 0.0


def test_eta_full_familiarity_hits_ceiling(params):
    # eta_max 299 makes the win-weight range [1, 300].
    assert eta_for_familiarity(1.0, params) == 299.0


def test_eta_midpoint_linear_default():
    params = CsaParams(eta_max=299.0, g_floor=0.0, g_exponent=1.0)
    assert eta_for_familiarity(0.5, params) == pytest.approx(149.5)


def test_eta_floor_suppresses_low_familiarity():
    params = CsaParams(g_floor=0.2)
    assert eta_for_familiarity(0.1, params) == 0.0
    assert eta_for_familiarity(0.2, params) == 0.0
    assert eta_for_familiarity(1.0, params) == pytest.approx(299.0)


# ----------------------------------------------------------------- mu_from_u


def test_mu_eta_zero_is_flat(params, rng):
    u_norm = rng.random((24, 8))
    mu = mu_from_u(u_norm, 0.0, params)
    assert np.all(mu == 1.0)


def test_mu_extremes_span_full_range(params):
    # At full noise ceiling the transform separates U=1 from U=0 by the
    # whole [1, 300] range.
    mu = mu_from_u(np.array([[1.0, 0.0]]), 299.0, params)
    assert mu[0, 0] == pytest.approx(300.0, abs=1e-2)
    assert mu[0, 1] == pytest.approx(1.0, abs=1e-2)


def test_mu_operating_point_at_moderate_familiarity(params):
    # At the familiarity level of the peaked-probe scenario (G ~ 0.65), a
    # clear evidence leader (U = 0.74) gets a win weight hundreds of times
    # its weak competitors (U = 0.19), which stay pinned at the floor.
    eta = eta_for_familiarity(0.65, params)
    mu = mu_from_u(np.array([[0.74, 0.19]]), eta, params)
    assert mu[0, 0] > 150.0
    assert mu[0, 1] < 1.1
    assert mu[0, 0] / mu[0, 1] > 100.0


def test_mu_monotone_in_u(params):
    for eta in (0.0, 10.0, 299.0):
        grid = np.linspace(0, 1, 101).reshape(1, -1)
        mu = mu_from_u(grid, eta, params)
        assert np.all(np.diff(mu[0]) >= 0)


def test_mu_floor_is_one(params, rng):
    mu = mu_from_u(rng.random((6, 6)), 299.0, params)
    assert mu.min() >= 1.0


# --------------------------------------------------------------- rho_from_mu


def test_rho_uniform_from_uniform_mu():
    rho = rho_from_mu(np.ones((4, 3)))
    assert np.allclose(rho, 1 / 3)


def test_rho_peaked_cm_frozen_values():
    # Direct normalization oracle: 250 / 257 and 1 / 257.
    mu = np.array([[250.0, 1, 1, 1, 1, 1, 1, 1]])
    rho = rho_from_mu(mu)
    assert rho[0, 0] == pytest.approx(float(Fraction(250, 257)), abs=1e-12)
    assert np.allclose(rho[0, 1:], float(Fraction(1, 257)), atol=1e-12)
    assert rho[0, 0] == pytest.approx(0.9728, abs=1e-4)
    assert rho[0, 1] == pytest.approx(0.0039, abs=1e-4)


def test_rho_rows_sum_to_one(rng):
    mu = rng.random((24, 8)) * 300 + 1
    rho = rho_from_mu(mu)
    assert np.all(np.abs(rho.sum(axis=1) - 1.0) <= 1e-9)


def test_rho_zero_row_falls_back_to_uniform():
    rho = rho_from_mu(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 2.0]]))
    assert np.allclose(rho[0], 1 / 3)
    assert np.allclose(rho[1], [0.25, 0.25, 0.5])


# -------------------------------------------------------------- draw_winners


def test_draw_degenerate_distribution_always_wins(rng):
    rho = np.zeros((5, 4))
    rho[:, 2] = 1.0
    for _ in range(20):
        assert np.all(draw_winners(rho, rng.random(len(rho))) == 2)


def test_draw_deterministic_for_fixed_seed():
    rho = rho_from_mu(np.arange(1.0, 25.0).reshape(4, 6))
    a = draw_winners(rho, np.random.default_rng(77).random(4))
    b = draw_winners(rho, np.random.default_rng(77).random(4))
    assert np.array_equal(a, b)


def test_draw_uniform_chance_intersection_is_q_over_k():
    # Two independently drawn uniform codes intersect in Q/K CMs on
    # average: 24/8 = 3.  10,000 pairs, +/- 5%.
    rho = np.full((24, 8), 1 / 8)
    rng = np.random.default_rng(2024)
    total = 0
    pairs = 10_000
    for _ in range(pairs):
        total += code_intersection(
            draw_winners(rho, rng.random(24)), draw_winners(rho, rng.random(24))
        )
    mean = total / pairs
    assert mean == pytest.approx(3.0, rel=0.05)


def test_draw_uniform_per_unit_frequencies():
    # eta 0 must leave every unit equally likely: 20,000 draws, 5 sigma.
    rho = np.full((6, 8), 1 / 8)
    rng = np.random.default_rng(99)
    n = 20_000
    counts = np.zeros((6, 8))
    for _ in range(n):
        winners = draw_winners(rho, rng.random(len(rho)))
        counts[np.arange(6), winners] += 1
    freq = counts / n
    sigma = np.sqrt((1 / 8) * (7 / 8) / n)
    assert np.all(np.abs(freq - 1 / 8) < 5 * sigma)


def test_draw_validates_distributions(rng):
    with pytest.raises(ValueError):
        draw_winners(np.array([[0.5, 0.4]]), rng.random(1))


def test_draw_rejects_nan_distributions(rng):
    # NaN fails every comparison, so a check that only looks for sums far
    # from 1 would let a NaN row through as winner 0.
    with pytest.raises(ValueError):
        draw_winners(np.array([[0.5, 0.5], [np.nan, np.nan]]), rng.random(2))


# --------------------------------------------------------- hard_max_winners


def test_hard_max_unique_maxima(rng):
    u_norm = np.array([[0.1, 0.9, 0.3], [0.8, 0.2, 0.1]])
    assert np.array_equal(hard_max_winners(u_norm, rng.random(len(u_norm))), [1, 0])


def test_hard_max_tie_break_is_uniform():
    u_norm = np.array([[0.5, 0.5, 0.1]])
    rng = np.random.default_rng(5)
    n = 10_000
    wins0 = sum(hard_max_winners(u_norm, rng.random(len(u_norm)))[0] == 0 for _ in range(n))
    assert wins0 / n == pytest.approx(0.5, abs=0.05)
    # Unit 2 never wins.
    rng = np.random.default_rng(6)
    assert all(hard_max_winners(u_norm, rng.random(len(u_norm)))[0] != 2 for _ in range(200))


def test_hard_max_rejects_nan():
    # A NaN equals no unit, so its CM has no maximum to pick from.
    u_norm = np.array([[0.2, 0.4], [np.nan, 0.1]])
    with pytest.raises(ValueError):
        hard_max_winners(u_norm, np.random.default_rng(0).random(2))


def test_hard_max_all_zero_is_uniform():
    u_norm = np.zeros((1, 4))
    rng = np.random.default_rng(7)
    counts = np.zeros(4)
    n = 8_000
    for _ in range(n):
        counts[hard_max_winners(u_norm, rng.random(len(u_norm)))[0]] += 1
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert np.all(np.abs(counts / n - 0.25) < 5 * sigma)


# ------------------------------------------------------------ apply_learning


def test_apply_learning_sets_exactly_s_times_q_weights(small_geometry):
    # 5 active pixels x 5 winners = 25 weights raised from 0 to full.
    weights = WeightMatrix(9, 15)
    learn(pattern_of(0, 2, 4, 6, 8), np.array([0, 1, 2, 0, 1]), weights, small_geometry)
    assert weights.set_count() == 25


def test_apply_learning_desk_scale_cap(geometry, rng):
    weights = WeightMatrix(geometry.num_pixels, geometry.num_units)
    learn(random_pattern(geometry, rng), rng.integers(0, 8, 24), weights, geometry)
    assert weights.set_count() == 12 * 24 == 288
    # A second, overlapping pattern can only add fewer than 288 new weights.
    pat = random_pattern(geometry, rng)
    code = rng.integers(0, 8, 24)
    learn(pat, code, weights, geometry)
    assert weights.set_count() <= 2 * 288


def test_apply_learning_idempotent(geometry, rng):
    weights = WeightMatrix(geometry.num_pixels, geometry.num_units)
    pat = random_pattern(geometry, rng)
    code = rng.integers(0, 8, 24)
    learn(pat, code, weights, geometry)
    before = weights.bits.copy()
    learn(pat, code, weights, geometry)
    assert np.array_equal(weights.bits, before)


# ------------------------------------------------------- fixed step counting


def test_step_count_independent_of_stored_items(geometry):
    # The pipeline's elementary operation count must be identical whether
    # the model holds 1 item or 100.
    def delta_for_model_with(n_stored):
        model = MemoryModel(geometry, seed=3)
        gen = np.random.default_rng(42)
        for _ in range(n_stored):
            model.store(random_pattern(geometry, gen))
        before = model.op_counter.as_dict()
        model.store(random_pattern(geometry, gen))
        after = model.op_counter.as_dict()
        return {k: after[k] - before[k] for k in after}

    assert delta_for_model_with(1) == delta_for_model_with(100)


def test_op_counter_fields_cover_pipeline(geometry, rng):
    counter = OpCounter()
    model = MemoryModel(geometry, seed=0)
    model.op_counter = counter
    model.store(random_pattern(geometry, rng))
    d = counter.as_dict()
    # One store reads S x Q x K weights, sigmoids every unit, draws one
    # uniform per CM, and writes S x Q weights.
    assert d["weight_reads"] == 12 * 24 * 8
    assert d["sigmoid_evals"] == 24 * 8
    assert d["rng_draws"] == 24
    assert d["weight_writes"] == 12 * 24
    assert d["total"] == sum(v for k, v in d.items() if k != "total")


# ------------------------------------------------------------ miscellaneous


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CsaParams)])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400, -10**400])
def test_params_reject_non_finite_values(name, value):
    # eta_max=inf or steepness=inf would make rho NaN at G=1.  An int beyond
    # the float64 range, which a JSON config can hold, is not finite either.
    with pytest.raises(GeometryError, match="finite"):
        CsaParams(**{name: value})


def test_geometry_validation():
    with pytest.raises(GeometryError):
        ModelGeometry(2, 2, 5, 3, 2)  # S exceeds pixel count
    with pytest.raises(GeometryError):
        ModelGeometry(0, 4, 1, 1, 1)


def test_geometry_fields_fit_the_snapshot():
    # A snapshot holds each field as a u32 and each ledger winner as a u16.
    assert ModelGeometry(1, 1, 1, 1, 65536).units_per_cm == 65536
    for k in (65537, 2**32):
        with pytest.raises(GeometryError, match="units_per_cm"):
            ModelGeometry(1, 1, 1, 1, k)
    big = 2**32 - 1
    assert ModelGeometry(big, 1, 1, big, 1).num_pixels == big
    assert ModelGeometry(2**16, 2**16, 1, 1, 1).num_pixels == 2**32
    with pytest.raises(GeometryError, match="pixel indices"):
        ModelGeometry(2**16, 2**16 + 1, 1, 1, 1)
    for i in range(5):
        fields = [1, 1, 1, 1, 1]
        fields[i] = 2**32
        with pytest.raises(GeometryError, match=r"\[1, 4294967295\]"):
            ModelGeometry(*fields)


def test_public_names_are_pinned():
    assert sorted(msdc.__all__) == [
        "BeliefEntry", "BeliefReport", "ConfigError", "CsaParams", "CsaTrace",
        "GeometryError", "InputPattern", "LabelError", "LedgerEntry",
        "LedgerUnavailableError", "MemoryModel", "ModelGeometry", "MsdcError",
        "OpCounter", "OracleReport", "PatternError", "ScheduleError", "SnapshotError",
        "SnapshotFormatError", "SnapshotIntegrityError", "SnapshotTruncatedError",
        "SnapshotVersionError", "WeightMatrix", "code_intersection", "load_model",
        "oracle_expected_uniform_intersection", "oracle_nearest", "oracle_report",
        "oracle_similarity", "random_pattern", "save_model",
    ]
    assert len(msdc.__all__) == 31
    assert all(hasattr(msdc, name) for name in msdc.__all__)


def test_pattern_grid_round_trip():
    text = "1010\n0101\n0000\n1001"
    pat = InputPattern.from_grid(text)
    assert pat.active == (0, 2, 5, 7, 12, 15)
    assert pat.to_grid(4, 4) == text


def test_pattern_grid_rejects_garbage():
    with pytest.raises(PatternError):
        InputPattern.from_grid("10\n1")
    with pytest.raises(PatternError):
        InputPattern.from_grid("1x\n00")
    with pytest.raises(PatternError):
        InputPattern.from_grid("")


def test_code_intersection_counts_matching_cms():
    assert code_intersection(np.array([1, 2, 3]), np.array([1, 0, 3])) == 2
    with pytest.raises(GeometryError):
        code_intersection(np.array([1]), np.array([1, 2]))


@pytest.mark.parametrize("bad", [12.9, 12.0, "12", True, None])
def test_geometry_rejects_non_integer_fields(bad):
    with pytest.raises(GeometryError, match="must be an integer"):
        ModelGeometry(bad, 12, 12, 24, 8)
    with pytest.raises(GeometryError, match="must be an integer"):
        ModelGeometry(12, 12, 12, 24, bad)


def test_geometry_accepts_numpy_integers():
    g = ModelGeometry(np.int64(12), np.uint8(12), np.int32(12), 24, np.int16(8))
    assert g == ModelGeometry(12, 12, 12, 24, 8)
    assert all(type(getattr(g, f.name)) is int for f in dataclasses.fields(g))


@pytest.mark.parametrize("bad", [3.7, 3.0, "3", None])
def test_pattern_rejects_non_integer_indices(bad):
    with pytest.raises(PatternError, match="must be integers"):
        InputPattern((bad, 1, 2))


def test_pattern_accepts_numpy_integers():
    pat = InputPattern.from_indices(np.array([3, 1, 2], dtype=np.int64))
    assert pat.active == (1, 2, 3)
    assert all(type(p) is int for p in pat.active)
    assert InputPattern((np.uint16(4), 0)).active == (0, 4)


@pytest.mark.parametrize("bad", ["big", None, True, [1.0]])
def test_params_reject_non_numbers(bad):
    with pytest.raises(GeometryError, match="must be a number"):
        CsaParams(eta_max=bad)


@pytest.mark.parametrize("indices", [(True, 2), (False, 5), (3, 4, True), [True]])
def test_pattern_rejects_bool_indices(indices):
    with pytest.raises(PatternError, match="not bools"):
        InputPattern(indices)
    with pytest.raises(PatternError, match="not bools"):
        InputPattern(i for i in indices)


def test_pattern_accepts_low_integer_indices():
    assert InputPattern((1, 0, 2)).active == (0, 1, 2)
    assert InputPattern((np.int64(0), 1)).active == (0, 1)


def test_weight_allocation_failure_is_geometry_error(geometry, monkeypatch):
    def refuse(shape, dtype):
        raise MemoryError(f"Unable to allocate an array with shape {shape}")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(GeometryError, match="cannot allocate 144 x 192 weight bits"):
        WeightMatrix(geometry.num_pixels, geometry.num_units)
    with pytest.raises(GeometryError, match="cannot allocate"):
        MemoryModel(geometry)


def test_weight_quantum_is_fixed_at_127(geometry):
    assert W_MAX == 127
    assert "w_max" not in inspect.signature(WeightMatrix).parameters
    assert MemoryModel(geometry).w_max == 127
    _check_w_max(127, "w_max", ConfigError)
    _check_w_max(np.int32(127), "w_max", ConfigError)


@pytest.mark.parametrize("bad", [0, 1, 126, 128, 2**32, 2**62, 127.0, 127.5, "127", True, None])
def test_check_w_max_rejects_anything_but_127(bad):
    with pytest.raises(ConfigError, match="w_max must be"):
        _check_w_max(bad, "w_max", ConfigError)
