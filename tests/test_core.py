"""Unit tests for the code selection pipeline, step by step."""

import dataclasses
import importlib.util
import inspect
import math
import warnings
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
    random_pattern,
)
from msdc.core import (
    W_MAX,
    _check_w_max,
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

from oracle import code_intersection, kernel_cm_max


def pattern_of(*pixels):
    return InputPattern.from_indices(pixels)


def count_of(pattern, weights, geometry):
    """``compute_u``'s counts for ``pattern``, after checking their dtype."""
    count = compute_u(weights.bits.take(np.asarray(pattern.active), axis=-2), geometry)
    assert count.dtype == np.uint8
    return count


def learn(pattern, code, weights, geometry):
    """``apply_learning`` on one model's plane, as the model verbs call it."""
    active = np.asarray(pattern.active)
    bits = weights.bits
    apply_learning(bits, active, bits[active], np.asarray(code), geometry)


# ---------------------------------------------------------------- compute_u


def test_compute_u_zero_weights_gives_zero(geometry, rng):
    weights = WeightMatrix(geometry.num_pixels, geometry.num_units)
    count = count_of(random_pattern(geometry, rng), weights, geometry)
    assert count.shape == (24, 8)
    assert not count.any()


def test_compute_u_restored_pattern_reaches_full_sum(geometry, rng):
    # After learning pattern A, re-presenting A drives each of A's winners
    # to exactly S = 12 set weights while all other units stay 0.
    weights = WeightMatrix(geometry.num_pixels, geometry.num_units)
    a = random_pattern(geometry, rng)
    code = rng.integers(0, 8, size=24)
    learn(a, code, weights, geometry)
    count = count_of(a, weights, geometry)
    for q in range(24):
        assert count[q, code[q]] == 12
    assert count.sum() == 24 * 12


def test_compute_u_partial_overlap_counts_shared_pixels(small_geometry):
    # Weights trained on A only; B shares 4 of A's 5 pixels, so each of A's
    # winners counts exactly 4 set weights.
    weights = WeightMatrix(9, 15)
    a = pattern_of(0, 1, 2, 3, 4)
    b = pattern_of(0, 1, 2, 3, 5)
    code = np.array([0, 1, 2, 0, 1])
    learn(a, code, weights, small_geometry)
    count = count_of(b, weights, small_geometry)
    for q in range(5):
        assert count[q, code[q]] == 4
    assert count.sum() == 5 * 4


# -------------------------------------------------------------- normalize_u


def test_normalize_u_zero_and_extremes():
    count = np.array([[0, 12], [4, 0]], dtype=np.uint8)
    out = normalize_u(count, num_active=12)
    assert out.dtype == np.float64
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0


def test_normalize_u_partial_overlap_fraction():
    out = normalize_u(np.array([[4]]), num_active=5)
    assert out[0, 0] == pytest.approx(0.8)


def old_z_table(s, midpoint, steepness):
    """The sigmoid table as it was built from raw summations u = W_MAX * c."""
    u = np.arange(0, (s + 1) * W_MAX, W_MAX, dtype=np.int64)
    return 1.0 + np.exp(np.minimum(steepness * (midpoint - u / float(s * W_MAX)), 700.0))


def test_u_from_counts_is_u_from_raw_summations_bit_for_bit():
    # c / S and W_MAX * c / (W_MAX * S) are one real number, each correctly
    # rounded from exact float64 operands: the weight quantum cannot move U,
    # so neither can it move the sigmoid table read by count.
    for s in range(1, 4097):
        count = np.arange(s + 1, dtype=_count_dtype(s))
        want = (count.astype(np.int64) * W_MAX) / float(s * W_MAX)
        assert normalize_u(count, s).tobytes() == want.tobytes(), s
        for midpoint, steepness in ((0.5, 28.0), (1.0, 1e6)):
            table = _z_table.__wrapped__(s, midpoint, steepness)
            assert table.tobytes() == old_z_table(s, midpoint, steepness).tobytes(), s


# -------------------------------------------------------------- familiarity


def test_familiarity_all_zero_is_zero():
    assert familiarity(kernel_cm_max(np.zeros((24, 8)))) == 0.0


def test_familiarity_full_recall_is_one():
    u_norm = np.zeros((24, 8))
    u_norm[:, 3] = 1.0
    assert familiarity(kernel_cm_max(u_norm)) == 1.0


def test_familiarity_averages_per_cm_maxima():
    u_norm = np.array([[0.2, 0.8], [0.5, 0.1]])
    assert familiarity(kernel_cm_max(u_norm)) == pytest.approx((0.8 + 0.5) / 2)


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
    count = rng.integers(0, 13, size=(24, 8))
    mu = mu_from_u(count, 0.0, params, 12)
    assert np.all(mu == 1.0)


def test_mu_extremes_span_full_range(params):
    # At full noise ceiling the transform separates U=1 from U=0 by the
    # whole [1, 300] range.
    mu = mu_from_u(np.array([[12, 0]]), 299.0, params, 12)
    assert mu[0, 0] == pytest.approx(300.0, abs=1e-2)
    assert mu[0, 1] == pytest.approx(1.0, abs=1e-2)


def test_mu_operating_point_at_moderate_familiarity(params):
    # At the familiarity level of the peaked-probe scenario (G ~ 0.65), a
    # clear evidence leader (U = 0.74) gets a win weight hundreds of times
    # its weak competitors (U = 0.19), which stay pinned at the floor.
    eta = eta_for_familiarity(0.65, params)
    mu = mu_from_u(np.array([[74, 19]]), eta, params, 100)
    assert mu[0, 0] > 150.0
    assert mu[0, 1] < 1.1
    assert mu[0, 0] / mu[0, 1] > 100.0


def test_mu_monotone_in_u(params):
    for eta in (0.0, 10.0, 299.0):
        grid = np.arange(101).reshape(1, -1)  # U = 0, 0.01, ..., 1
        mu = mu_from_u(grid, eta, params, 100)
        assert np.all(np.diff(mu[0]) >= 0)


def test_mu_floor_is_one(params, rng):
    mu = mu_from_u(rng.integers(0, 1001, size=(6, 6)), 299.0, params, 1000)
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


# --------------------------------------------------------- hard_max_winners


def test_hard_max_unique_maxima(rng):
    u_norm = np.array([[0.1, 0.9, 0.3], [0.8, 0.2, 0.1]])
    top = kernel_cm_max(u_norm)
    assert np.array_equal(hard_max_winners(u_norm, top, rng.random(len(u_norm))), [1, 0])


def test_hard_max_tie_break_is_uniform():
    u_norm = np.array([[0.5, 0.5, 0.1]])
    top = kernel_cm_max(u_norm)
    rng = np.random.default_rng(5)
    n = 10_000
    wins0 = sum(hard_max_winners(u_norm, top, rng.random(len(u_norm)))[0] == 0 for _ in range(n))
    assert wins0 / n == pytest.approx(0.5, abs=0.05)
    # Unit 2 never wins.
    rng = np.random.default_rng(6)
    assert all(hard_max_winners(u_norm, top, rng.random(len(u_norm)))[0] != 2 for _ in range(200))


def test_hard_max_rejects_nan():
    # A NaN equals no unit, so its CM has no maximum to pick from.
    u_norm = np.array([[0.2, 0.4], [np.nan, 0.1]])
    with pytest.raises(ValueError):
        hard_max_winners(u_norm, kernel_cm_max(u_norm), np.random.default_rng(0).random(2))


def test_hard_max_all_zero_is_uniform():
    u_norm = np.zeros((1, 4))
    rng = np.random.default_rng(7)
    counts = np.zeros(4)
    n = 8_000
    for _ in range(n):
        counts[hard_max_winners(u_norm, kernel_cm_max(u_norm), rng.random(len(u_norm)))[0]] += 1
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert np.all(np.abs(counts / n - 0.25) < 5 * sigma)


# ------------------------------------------------------------ apply_learning


def test_apply_learning_sets_exactly_s_times_q_weights(small_geometry):
    # 5 active pixels x 5 winners = 25 weights raised from 0 to full.
    weights = WeightMatrix(9, 15)
    learn(pattern_of(0, 2, 4, 6, 8), np.array([0, 1, 2, 0, 1]), weights, small_geometry)
    assert int(weights.bits.sum()) == 25


def test_apply_learning_desk_scale_cap(geometry, rng):
    weights = WeightMatrix(geometry.num_pixels, geometry.num_units)
    learn(random_pattern(geometry, rng), rng.integers(0, 8, 24), weights, geometry)
    assert int(weights.bits.sum()) == 12 * 24 == 288
    # A second, overlapping pattern can only add fewer than 288 new weights.
    pat = random_pattern(geometry, rng)
    code = rng.integers(0, 8, 24)
    learn(pat, code, weights, geometry)
    assert int(weights.bits.sum()) <= 2 * 288


def test_apply_learning_idempotent(geometry, rng):
    weights = WeightMatrix(geometry.num_pixels, geometry.num_units)
    pat = random_pattern(geometry, rng)
    code = rng.integers(0, 8, 24)
    learn(pat, code, weights, geometry)
    before = weights.bits.copy()
    learn(pat, code, weights, geometry)
    assert np.array_equal(weights.bits, before)


def _fancy_index_learning(bits, active, code, geometry):
    """The oracle: ``apply_learning`` as one 3-D fancy-index scatter of 1s."""
    cols = np.arange(geometry.num_cms) * geometry.units_per_cm + code
    bits[np.arange(len(bits))[:, None, None], active[None, :, None], cols[:, None, :]] = 1


# The golden trace's three geometries, and CMs of one unit, where every
# unit wins.
@pytest.mark.parametrize(
    "geometry",
    (
        ModelGeometry(12, 12, 12, 24, 8),
        ModelGeometry(20, 20, 30, 40, 5),
        ModelGeometry(64, 64, 64, 128, 16),
        ModelGeometry(4, 4, 3, 5, 1),
    ),
    ids=str,
)
@pytest.mark.parametrize("b", (1, 4))
def test_apply_learning_matches_the_fancy_index_scatter(geometry, b):
    gen = np.random.default_rng([geometry.num_units, b])
    shape = b, geometry.num_pixels, geometry.num_units
    # Each row's weights are pre-set at its own random density.
    density = gen.integers(0, 128, (b, 1, 1), dtype=np.uint8)
    before = (gen.integers(0, 256, shape, dtype=np.uint8) < density).view(np.uint8)
    active = gen.choice(geometry.num_pixels, geometry.num_active, replace=False)
    code = gen.integers(0, geometry.units_per_cm, (b, geometry.num_cms))
    want = before.copy()
    _fancy_index_learning(want, active, code, geometry)
    got = before.copy()
    apply_learning(got, active, got[:, active], code, geometry)
    assert np.array_equal(got, want)
    del want
    # One model's (P, Q*K) plane, as the verbs pass it, learns as its row does.
    plane = before[0].copy()
    apply_learning(plane, active, plane[active], code[0], geometry)
    assert np.array_equal(plane, got[0])
    # Only row b's active pixel rows, in row b's winner columns, change, and
    # all of those weights end up set.
    cols = np.arange(geometry.num_cms) * geometry.units_per_cm + code
    rows, pixels, units = np.nonzero(got != before)
    assert np.isin(pixels, active).all()
    assert (cols[rows, units // geometry.units_per_cm] == units).all()
    for row in range(b):
        assert got[row][np.ix_(active, cols[row])].all()


@pytest.mark.parametrize("b", (1, 3))
def test_apply_learning_with_repeated_rows_matches_the_fancy_index_scatter(geometry, b):
    # A scenario's pixels read one row per stored item, so row indices
    # repeat: each copy of a gathered row learns the same bits, and writing
    # the copies back leaves what the scatter leaves.
    gen = np.random.default_rng(b)
    num_rows = 4
    before = (gen.random((b, num_rows, geometry.num_units)) < 0.3).view(np.uint8)
    active = gen.integers(0, 2, geometry.num_active)
    code = gen.integers(0, geometry.units_per_cm, (b, geometry.num_cms))
    want = before.copy()
    _fancy_index_learning(want, active, code, geometry)
    got = before.copy()
    apply_learning(got, active, got[:, active], code, geometry)
    assert np.array_equal(got, want)
    assert not np.array_equal(got, before) and np.array_equal(got[:, 2:], before[:, 2:])


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


@pytest.mark.parametrize("field, value, message", [
    ("eta_max", 0, "positive"), ("eta_max", -1, "positive"),
    ("steepness", 0, "positive"), ("g_exponent", 0, "positive"),
    ("midpoint", -0.1, "lie in"), ("midpoint", 1.1, "lie in"),
    ("g_floor", 1.0, "lie in"), ("g_floor", -0.1, "lie in"),
])
def test_params_reject_values_outside_their_bounds(field, value, message):
    with pytest.raises(GeometryError, match=message):
        CsaParams(**{field: value})


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
        "OpCounter", "PatternError", "ScheduleError", "SnapshotError",
        "SnapshotFormatError", "SnapshotIntegrityError", "SnapshotTruncatedError",
        "SnapshotVersionError", "WeightMatrix", "load_model", "random_pattern", "save_model",
    ]
    assert len(msdc.__all__) == 25
    assert all(hasattr(msdc, name) for name in msdc.__all__)


def test_the_package_ships_no_brute_force_reference():
    # The oracle, code_intersection and pixel_overlap live in tests/oracle.py; the package
    # keeps only the model, with one name for the paper's geometry.
    import msdc.experiments

    assert importlib.util.find_spec("msdc.oracle") is None
    assert not hasattr(msdc.core, "code_intersection")
    assert not hasattr(msdc.experiments, "APPENDIX_GEOMETRY")
    assert not hasattr(InputPattern, "overlap")


def test_pattern_from_grid_reads_row_major_indices():
    pat = InputPattern.from_grid("1010\n0101\n0000\n1001")
    assert pat.active == (0, 2, 5, 7, 12, 15)


def test_pattern_grid_rejects_garbage():
    with pytest.raises(PatternError):
        InputPattern.from_grid("10\n1")
    with pytest.raises(PatternError):
        InputPattern.from_grid("1x\n00")
    with pytest.raises(PatternError):
        InputPattern.from_grid("")


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


def test_params_hold_numpy_scalars_as_python_numbers():
    # A float16 eta_max once made the summability check overflow in float16,
    # and an int64 one reached the JSON writers; each field is now a Python
    # int or float, with no warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = CsaParams(eta_max=np.float16(300), steepness=np.float32(28.1),
                           midpoint=np.int8(1), g_floor=np.float64(0.25), g_exponent=np.int64(2))
    assert dataclasses.astuple(params) == (300.0, float(np.float32(28.1)), 1, 0.25, 2)
    assert [type(v) for v in dataclasses.astuple(params)] == [float, float, int, float, int]
    assert type(CsaParams(eta_max=np.int64(299)).eta_max) is int


@pytest.mark.parametrize("bad", [2**53 + 1, np.uint64(2**64 - 1), Fraction(1, 3)])
def test_params_reject_values_float64_cannot_hold(bad):
    # Rounding would make a snapshot-loaded copy compute with another value.
    with pytest.raises(GeometryError, match="exactly a float64"):
        CsaParams(eta_max=bad)


@pytest.mark.parametrize("bad", ["big", None, True, [1.0]])
def test_params_reject_non_numbers(bad):
    with pytest.raises(GeometryError, match="must be a number"):
        CsaParams(eta_max=bad)


@pytest.mark.parametrize("indices", [(True, 2), (False, 5), (3, 4, True), [True], (True, 1, 2)])
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


def test_sigmoid_table_allocation_failure_is_geometry_error(monkeypatch):
    # A model makes its table when it is built, so a table memory cannot
    # hold fails the construction with a typed error.
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate the table")

    geometry = ModelGeometry(100, 100, 9973, 1, 2)  # an S no other test uses
    monkeypatch.setattr(np, "arange", refuse)
    with pytest.raises(GeometryError, match="cannot allocate a 9974-entry sigmoid table"):
        MemoryModel(geometry)


def test_weights_are_only_their_bit_plane(geometry):
    weights = MemoryModel(geometry).weights
    assert [name for name in dir(weights) if not name.startswith("_")] == ["bits"]
    assert weights.bits.shape == (144, 192) and weights.bits.dtype == np.uint8
    assert not hasattr(msdc.core, "CsaTrace")
    assert msdc.CsaTrace is msdc.memory.CsaTrace


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
