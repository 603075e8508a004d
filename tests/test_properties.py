"""Property tests for the pipeline's structural invariants."""

import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from msdc import (
    BeliefEntry,
    CsaParams,
    MemoryModel,
    ModelGeometry,
    code_intersection,
    load_model,
    random_pattern,
    save_model,
)
from msdc.core import (
    draw_winners,
    eta_for_familiarity,
    familiarity,
    hard_max_winners,
    mu_from_u,
    rho_from_mu,
)

shapes = st.tuples(st.integers(1, 6), st.integers(1, 8))


@st.composite
def mu_arrays(draw):
    q, k = draw(shapes)
    values = draw(
        st.lists(
            st.floats(0.0, 1e6, allow_nan=False),
            min_size=q * k,
            max_size=q * k,
        )
    )
    return np.array(values).reshape(q, k)


@st.composite
def u_norm_arrays(draw):
    q, k = draw(shapes)
    values = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=q * k, max_size=q * k)
    )
    return np.array(values).reshape(q, k)


@given(mu_arrays())
def test_rho_always_normalizes_per_cm(mu):
    rho = rho_from_mu(mu)
    assert rho.shape == mu.shape
    assert np.all(np.abs(rho.sum(axis=1) - 1.0) <= 1e-9)
    assert rho.min() >= 0.0


@given(u_norm_arrays(), st.floats(0.0, 1e4), st.integers(0, 2**32 - 1))
def test_codes_are_always_well_formed(u_norm, eta, seed):
    q, k = u_norm.shape
    rho = rho_from_mu(mu_from_u(u_norm, eta, CsaParams()))
    code = draw_winners(rho, np.random.default_rng(seed).random(q))
    assert code.shape == (q,)
    assert code.min() >= 0 and code.max() < k


@given(u_norm_arrays(), st.integers(0, 2**32 - 1))
def test_familiarity_permutation_invariant(u_norm, seed):
    rng = np.random.default_rng(seed)
    g = familiarity(u_norm)
    within = u_norm.copy()
    for row in within:  # permute units within each CM: the max is exact
        rng.shuffle(row)
    assert familiarity(within) == g
    across = u_norm.copy()
    rng.shuffle(across)  # permuting CMs only reorders the mean's summation
    assert abs(familiarity(across) - g) < 1e-12
    assert 0.0 <= g <= 1.0


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.001, 1e4),
    st.floats(0.0, 0.99),
    st.floats(0.1, 4.0),
)
def test_eta_monotone_with_exact_zero(g1, g2, eta_max, g_floor, g_exponent):
    params = CsaParams(eta_max=eta_max, g_floor=g_floor, g_exponent=g_exponent)
    lo, hi = sorted((g1, g2))
    assert eta_for_familiarity(lo, params) <= eta_for_familiarity(hi, params)
    assert eta_for_familiarity(0.0, params) == 0.0
    assert eta_for_familiarity(1.0, params) == eta_max


@given(u_norm_arrays(), st.floats(0.0, 1e4))
def test_mu_monotone_and_floored(u_norm, eta):
    params = CsaParams()
    mu = mu_from_u(u_norm, eta, params)
    assert mu.min() >= 1.0
    order = np.argsort(u_norm, axis=1)
    sorted_mu = np.take_along_axis(mu, order, axis=1)
    assert np.all(np.diff(sorted_mu, axis=1) >= 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 12))
def test_weights_never_decrease_and_stores_replay(seed, n_stores):
    geometry = ModelGeometry(6, 6, 4, 5, 3)
    model = MemoryModel(geometry, seed=seed)
    twin = MemoryModel(geometry, seed=seed)
    pattern_rng = np.random.default_rng(seed ^ 0x5EED)
    previous = model.weights.bits.copy()
    for _ in range(n_stores):
        pattern = random_pattern(geometry, pattern_rng)
        code, trace = model.store(pattern)
        twin_code, twin_trace = twin.store(pattern)
        # Determinism: identical seed and inputs, bit-exact outputs.
        assert np.array_equal(code, twin_code)
        assert np.array_equal(trace.rho, twin_trace.rho)
        assert trace.familiarity == twin_trace.familiarity
        # Storage monotonicity: no weight ever drops.
        assert np.all(model.weights.bits >= previous)
        previous = model.weights.bits.copy()


def hard_max_reference(u_norm, r):
    """Per-CM tie-break loop: the reference for ``hard_max_winners``."""
    q, _ = u_norm.shape
    tied = u_norm == u_norm.max(axis=1, keepdims=True)
    winners = np.empty(q, dtype=np.int64)
    for i in range(q):
        idx = np.flatnonzero(tied[i])
        winners[i] = idx[min(int(r[i] * idx.size), idx.size - 1)]
    return winners


@st.composite
def tied_u_norm_arrays(draw):
    """(Q, K) arrays over at most three distinct values, so most CMs tie."""
    q, k = draw(st.tuples(st.integers(1, 8), st.integers(1, 12)))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(levels), min_size=q * k, max_size=q * k))
    return np.array(picks).reshape(q, k)


@given(tied_u_norm_arrays(), st.integers(0, 2**32 - 1))
def test_hard_max_matches_per_cm_loop(u_norm, seed):
    r = np.random.default_rng(seed).random(len(u_norm))
    winners = hard_max_winners(u_norm, r)
    assert winners.dtype == np.int64
    assert np.array_equal(winners, hard_max_reference(u_norm, r))


@given(tied_u_norm_arrays().flatmap(
    lambda u: st.tuples(
        st.just(u),
        st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0 - 2**-53, 1.0]),
                 min_size=u.shape[0], max_size=u.shape[0]),
    )
))
def test_hard_max_matches_per_cm_loop_at_any_uniform(case):
    # Includes the closed end r = 1, where both clamp to the last tied unit.
    u_norm, r = case
    r = np.array(r)
    assert np.array_equal(hard_max_winners(u_norm, r), hard_max_reference(u_norm, r))


def belief_reference(model, pattern, code):
    """Per-item readout over the ledger, the reference for ``belief_update``."""
    q, s = model.geometry.num_cms, model.geometry.num_active
    entries = []
    for entry in model.ledger:
        inter = code_intersection(code, np.asarray(entry.code))
        entries.append(BeliefEntry(entry.label, pattern.overlap(entry.pattern) / s,
                                   inter, inter / q))
    return tuple(entries)


LEDGER_STEPS = ("store", "clone", "save_load")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.lists(st.tuples(st.sampled_from(LEDGER_STEPS), st.integers(1, 4)), max_size=8),
)
def test_belief_update_matches_per_item_loop(seed, steps):
    # The readout reads the ledger's array columns, which store, clone and
    # loading each maintain; every way the ledger can grow must show in them.
    geometry = ModelGeometry(5, 4, 4, 6, 3)
    gen = np.random.default_rng(seed)
    model = MemoryModel(geometry, seed=seed, enable_ledger=True)
    for _ in range(3):
        model.store(random_pattern(geometry, gen))

    def check():
        for mode in ("soft", "hard"):
            pattern = random_pattern(geometry, gen)
            report = model.belief_update(pattern, mode, np.random.default_rng(seed))
            # repr also tells Python floats and ints from numpy scalars.
            assert repr(report.entries) == repr(belief_reference(model, pattern, report.code))

    check()
    with tempfile.TemporaryDirectory() as tmp:
        for step, n in steps:
            if step == "store":
                for i in range(n):
                    model.store(random_pattern(geometry, gen), f"s{len(model.ledger)}-{i}")
            elif step == "clone":
                model = model.clone()
            else:
                path = Path(tmp) / "model.msdc"
                save_model(model, path)
                model = load_model(path)
            check()


def test_belief_update_counts_past_255():
    # With Q and S above 255, intersections and overlaps must be summed in a
    # dtype wide enough to hold them.
    geometry = ModelGeometry(20, 20, 300, 300, 2)
    gen = np.random.default_rng(0)
    model = MemoryModel(geometry, seed=0, enable_ledger=True)
    patterns = [random_pattern(geometry, gen) for _ in range(4)]
    for pattern in patterns:
        model.store(pattern)
    entries = []
    for probe in (patterns[1], random_pattern(geometry, gen)):
        for mode in ("soft", "hard"):
            report = model.belief_update(probe, mode, np.random.default_rng(1))
            assert repr(report.entries) == repr(belief_reference(model, probe, report.code))
            entries += report.entries
    assert max(e.code_intersection for e in entries) > 255
    assert max(e.input_similarity for e in entries) * geometry.num_active > 255


def test_a_failing_hypothesis_test_leaves_the_rest_of_the_run(tmp_path):
    # Hypothesis writes a failure patch through libcst, whose import warns;
    # under this project's filterwarnings = error, that warning used to end
    # the whole session with INTERNALERROR before the next test ran.
    test_file = tmp_path / "test_two.py"
    test_file.write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
    """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
