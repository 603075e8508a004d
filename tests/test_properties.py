"""Property tests for the pipeline's structural invariants."""

import json
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msdc import (
    BeliefEntry,
    CsaParams,
    MemoryModel,
    ModelGeometry,
    load_model,
    random_pattern,
    save_model,
)
from msdc.cli import read_pattern_file
from msdc.core import (
    _z_table,
    draw_winners,
    eta_for_familiarity,
    familiarity,
    hard_max_winners,
    mu_from_u,
    normalize_u,
    rho_from_mu,
)
from msdc.errors import ConfigError, PatternError, ScheduleError
from msdc.experiments import scenario_from_dict, scenario_to_dict
from msdc.snapshot import decode_model, encode_model

from oracle import (
    LARGEST_ETA_MAX,
    code_intersection,
    edged,
    extreme_params,
    kernel_cm_max,
    reference_draw_winners,
    reference_familiarity,
    reference_hard_max_winners,
    reference_mu_from_u,
)

shapes = st.tuples(st.integers(1, 6), st.integers(1, 8))


@st.composite
def mu_arrays(draw):
    # Win weights as mu_from_u forms them: each at least 1.
    q, k = draw(shapes)
    values = draw(
        st.lists(
            st.floats(1.0, 1e6, allow_nan=False),
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


@st.composite
def count_arrays(draw):
    """A (Q, K) chart of counts in [0, S], and S."""
    q, k = draw(shapes)
    s = draw(st.integers(1, 300))
    values = draw(st.lists(st.integers(0, s), min_size=q * k, max_size=q * k))
    return np.array(values).reshape(q, k), s


@given(mu_arrays())
def test_rho_always_normalizes_per_cm(mu):
    rho = rho_from_mu(mu)
    assert rho.shape == mu.shape
    assert np.all(np.abs(rho.sum(axis=1) - 1.0) <= 1e-9)
    assert rho.min() >= 0.0


@given(count_arrays(), st.just(CsaParams()) | extreme_params(), edged(0.0, 1.0),
       st.integers(0, 2**32 - 1))
@example(  # every unit of a 65536-unit CM at the ceiling 1 + eta_max
    (np.full((1, 65536), 4096), 4096),
    CsaParams(LARGEST_ETA_MAX, sys.float_info.max, 0.0, float(np.nextafter(1.0, 0.0)), 1e-300),
    1.0, 0,
)
def test_codes_are_always_well_formed(chart, params, g, seed):
    # The soft draw trusts rho: whatever valid params and familiarity the
    # kernel forms it from, each CM's rho must be a finite distribution.
    count, s = chart
    q, k = count.shape
    rho = rho_from_mu(mu_from_u(count, eta_for_familiarity(g, params), params, s))
    assert np.isfinite(rho).all() and rho.min() >= 0.0
    assert np.abs(np.add.reduce(rho, axis=-1) - 1.0).max() <= 1e-9
    code = draw_winners(rho, np.random.default_rng(seed).random(q))
    assert code.shape == (q,)
    assert code.min() >= 0 and code.max() < k


@given(u_norm_arrays(), st.integers(0, 2**32 - 1))
def test_familiarity_permutation_invariant(u_norm, seed):
    rng = np.random.default_rng(seed)
    g = familiarity(kernel_cm_max(u_norm))
    within = u_norm.copy()
    for row in within:  # permute units within each CM: the max is exact
        rng.shuffle(row)
    assert familiarity(kernel_cm_max(within)) == g
    across = u_norm.copy()
    rng.shuffle(across)  # permuting CMs only reorders the mean's summation
    assert abs(familiarity(kernel_cm_max(across)) - g) < 1e-12
    assert 0.0 <= g <= 1.0


@st.composite
def normalized_summations(draw):
    """U as the kernel forms it, count * 127 / (S * 127), with counts in
    [0, S], over no or one leading block axis and Q and K up to 256."""
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=1)))
    q, k, s = draw(st.integers(1, 256)), draw(st.integers(1, 256)), draw(st.integers(1, 4096))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = gen.integers(0, s + 1, size=lead + (q, k))
    return np.multiply(count, 127, dtype=np.int64) / float(s * 127)


@settings(deadline=None)
@given(normalized_summations())
def test_familiarity_is_the_mean_of_cm_maxima_byte_for_byte(u_norm):
    got = np.asarray(familiarity(kernel_cm_max(u_norm)))
    want = np.asarray(u_norm.max(-1).mean(-1))
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


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


@given(count_arrays(), st.floats(0.0, 1e4))
def test_mu_monotone_and_floored(chart, eta):
    count, s = chart
    params = CsaParams()
    mu = mu_from_u(count, eta, params, s)
    assert mu.min() >= 1.0
    order = np.argsort(count, axis=1)
    sorted_mu = np.take_along_axis(mu, order, axis=1)
    assert np.all(np.diff(sorted_mu, axis=1) >= 0)


@st.composite
def blocked_counts_and_eta(draw):
    """S, a (B, Q, K) block of counts in [0, S], and one eta per row."""
    b, s = draw(st.integers(1, 4)), draw(st.integers(1, 300))
    q, k = draw(shapes)
    values = draw(st.lists(st.integers(0, s), min_size=b * q * k, max_size=b * q * k))
    # An eta far above the default eta_max keeps the exp cap's value visible.
    eta = draw(st.lists(st.floats(0.0, 1e300), min_size=b, max_size=b))
    return s, np.array(values).reshape(b, q, k), eta


@given(blocked_counts_and_eta(), st.floats(0.0, 1e6, exclude_min=True), st.floats(0.0, 1.0))
@example((1, np.array([[[0, 1]]]), [1e300]), 1e6, 1.0)  # the exp cap binds at U=0
def test_mu_from_u_is_the_clipped_sigmoid_bit_for_bit(block, steepness, midpoint):
    # mu_from_u reads each unit's sigmoid from the table by its count; it
    # must equal the sigmoid formed per unit from U as the kernel forms U.
    s, count, eta = block
    u_norm = normalize_u(count, s)
    params = CsaParams(steepness=steepness, midpoint=midpoint)
    z = steepness * (u_norm - midpoint)
    want = 1.0 + np.array(eta)[:, None, None] / (1.0 + np.exp(np.clip(-z, None, 700.0)))
    for dtype in (np.uint8, np.uint16, np.int64):  # the count dtypes S can take
        if s <= np.iinfo(dtype).max:
            got = mu_from_u(count.astype(dtype), eta, params, s)
            assert np.array_equal(got, want)
            assert np.array_equal(got, reference_mu_from_u(u_norm, eta, params))
            # One model's (Q, K) chart with one float eta, as a model and a
            # trace pass it, reads mu from the table of its S + 1 values.
            for b, one in enumerate(eta):
                for value in (one, np.float64(one)):
                    got = mu_from_u(count[b].astype(dtype), value, params, s)
                    assert np.array_equal(got, want[b])
                    assert np.array_equal(got, reference_mu_from_u(u_norm[b], value, params))


@given(st.integers(1, 300), st.floats(0.0, 1.0), st.floats(0.0, 1e6, exclude_min=True))
@example(1, 1.0, 1e6)  # the exp cap binds at U=0
def test_sigmoid_table_is_the_closed_form_per_count(s, midpoint, steepness):
    table = _z_table(s, midpoint, steepness)
    # S + 1 entries, one per count: never one per value of u, 127 * S + 1.
    assert table.shape == (s + 1,) and table.dtype == np.float64
    assert not table.flags.writeable
    u_norm = np.arange(s + 1) / float(s)  # as normalize_u forms U
    want = 1.0 + np.exp(np.minimum(steepness * (midpoint - u_norm), 700.0))
    assert table.tobytes() == want.tobytes()
    assert _z_table(s, midpoint, steepness) is table


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
    winners = hard_max_winners(u_norm, kernel_cm_max(u_norm), r)
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
    top = kernel_cm_max(u_norm)
    assert np.array_equal(hard_max_winners(u_norm, top, r), hard_max_reference(u_norm, r))


def outcome(step, *args):
    """What ``step(*args)`` gives: its result's dtype, shape and bytes, or
    the message of the ValueError it raises."""
    try:
        out = np.asarray(step(*args))
    except ValueError as exc:
        return str(exc)
    return out.dtype, out.shape, out.tobytes()


@st.composite
def pick_cases(draw):
    """A (B, Q, K) block of U over at most three levels (so CMs tie, and
    may be all equal or hold a NaN), a soft chart drawn from it, and one
    uniform per CM: free, 0, just below 1, or one of the CM's own
    cumulative probabilities.  A CM may have its chart scaled so that its
    cumulative total rounds below a uniform just under 1."""
    b, q, k = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 10))
    levels = draw(st.lists(
        st.floats(0.0, 1.0) | st.just(float("nan")), min_size=1, max_size=3
    ))
    u_norm = np.array(draw(st.lists(
        st.sampled_from(levels), min_size=b * q * k, max_size=b * q * k
    ))).reshape(b, q, k)
    mu = np.array(draw(st.lists(
        st.floats(1.0, 1e6), min_size=b * q * k, max_size=b * q * k
    ))).reshape(b, q, k)
    rho = rho_from_mu(mu)
    cum = rho.cumsum(axis=-1)
    r = np.empty((b, q))
    for i in np.ndindex(b, q):
        pick = draw(st.floats(0.0, 1.0) | st.sampled_from((0.0, 1.0 - 2**-53, "cum", "short")))
        if pick == "short":
            rho[i] *= 1.0 - 1e-12
            r[i] = 1.0 - 2**-53
        elif pick == "cum":
            r[i] = cum[i][draw(st.integers(0, k - 1))]
        else:
            r[i] = pick
    return u_norm, rho, r


@settings(deadline=None)
@given(pick_cases())
@example((np.array([[[0.5, 0.5]]]), np.array([[[0.5, 0.5]]]) * (1.0 - 1e-12),
          np.array([[1.0 - 2**-53]])))  # the total rounds below r: unit K - 1
@example((np.full((2, 3, 1), 0.25), np.ones((2, 3, 1)), np.full((2, 3), 0.5)))  # K = 1
def test_argmax_picks_equal_the_reduction_references(case):
    u_norm, rho, r = case
    top = kernel_cm_max(u_norm)  # each CM's max as the kernel reads it
    assert outcome(familiarity, top) == outcome(reference_familiarity, u_norm)
    want = outcome(reference_hard_max_winners, u_norm, r)
    assert outcome(hard_max_winners, u_norm, top, r) == want
    assert outcome(draw_winners, rho, r) == outcome(reference_draw_winners, rho, r)


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


def _param(lo, hi):
    """A float in [lo, hi], sometimes as a numpy float32 scalar."""
    return st.floats(lo, hi) | st.floats(lo, hi).map(np.float32)


@st.composite
def replay_cases(draw):
    """A small geometry, params with some fields as numpy float32 scalars, a
    seed, a store count, the ledger flag and the model's bit generator."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    geometry = ModelGeometry(width, height, draw(st.integers(1, width * height)),
                             draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    params = CsaParams(draw(_param(1e-3, 1e3)), draw(_param(1e-3, 100.0)), draw(_param(0.0, 1.0)),
                       draw(_param(0.0, 0.99)), draw(_param(0.1, 5.0)))
    return (geometry, params, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 6)),
            draw(st.booleans()), draw(st.sampled_from(["PCG64", "MT19937"])))


def _replay(model, pattern, mode, seed):
    """Everything a retrieve with a caller RNG seeded ``seed`` reports, as
    bytes and reprs, so equal results are equal bit for bit and type."""
    code, trace = model.retrieve(pattern, mode, np.random.default_rng(seed))
    arrays = (code, trace.u, trace.u_norm, trace.mu, trace.rho)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], repr(trace.familiarity), repr(trace.eta)


@settings(max_examples=50, deadline=None)
@given(replay_cases())
def test_copies_replay_exactly(case):
    # A clone, and a snapshot-loaded copy where the generator allows one,
    # report what the original does for the same caller RNG, and keep its
    # RNG stream: a next store draws the same code.
    geometry, params, seed, n, ledger, bit_generator = case
    gen = np.random.default_rng(seed)
    model = MemoryModel(geometry, params, seed=seed, enable_ledger=ledger)
    model.rng = np.random.Generator(getattr(np.random, bit_generator)(seed))
    for _ in range(n):
        model.store(random_pattern(geometry, gen))
    copies = [model.clone()]
    if bit_generator == "PCG64":
        copies.append(decode_model(encode_model(model)))
    for mode in ("soft", "hard"):
        pattern = random_pattern(geometry, gen)
        want = _replay(model, pattern, mode, seed)
        assert all(_replay(twin, pattern, mode, seed) == want for twin in copies)
    pattern = random_pattern(geometry, gen)
    code = model.store(pattern)[0]
    for twin in copies:
        assert np.array_equal(twin.store(pattern)[0], code)
    draws = [m.rng.random(4).tolist() for m in (model, *copies)]
    assert all(d == draws[0] for d in draws)


@st.composite
def scenario_dicts(draw):
    """A feasible scenario as a reader takes it, and as ``scenario_to_dict``
    writes it back: the same but for its documented normalisations, each
    omitted default filled in and a ``{"start", "count"}`` seeds object
    written as a list.  Sequence fields come as JSON lists or as tuples."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    s = draw(st.integers(1, width * height))
    n = draw(st.integers(1, width * height // s))
    free = width * height - n * s
    geometry = {"input_width": width, "input_height": height, "num_active": s,
                "num_cms": draw(st.integers(1, 6)), "units_per_cm": draw(st.integers(1, 6))}
    probes = []
    for label in draw(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True)):
        left = draw(st.integers(max(0, s - free), s))
        overlaps = []
        for _ in range(n - 1):
            overlaps.append(draw(st.integers(0, left)))
            left -= overlaps[-1]
        probes.append({"label": label, "overlaps": draw(st.permutations(overlaps + [left]))})
    params = asdict(draw(st.just(CsaParams()) | extreme_params()))
    chosen = {k: params[k] for k in draw(st.lists(st.sampled_from(sorted(params)), unique=True))}
    want = {"name": "scenario", "geometry": geometry, "params": {**asdict(CsaParams()), **chosen},
            "w_max": 127, "num_stored": n, "probes": probes, "mode": "soft"}
    data = {"geometry": geometry, "num_stored": n, "probes": probes}
    if chosen or draw(st.booleans()):
        data["params"] = chosen
    if draw(st.booleans()):
        data["w_max"] = 127
    for key, values in [("name", st.text(max_size=6)), ("mode", st.sampled_from(["soft", "hard"])),
                        ("store_order", st.permutations([f"I{i + 1}" for i in range(n)]))]:
        if draw(st.booleans()):
            data[key] = want[key] = draw(values)
    if draw(st.booleans()):
        start, count = draw(st.integers(0, 2**70)), draw(st.integers(1, 5))
        data["seeds"] = {"start": start, "count": count}
        want["seeds"] = list(range(start, start + count))
    else:
        seeds = draw(st.lists(st.integers(0, 2**70), min_size=1, max_size=5))
        data["seeds"] = want["seeds"] = seeds
    if draw(st.booleans()):
        data = {**data, "probes": [{**p, "overlaps": tuple(p["overlaps"])} for p in probes]}
        for key in ("seeds", "store_order"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
    return data, want


# Every key a scenario, probe or pattern object names.
_NAMED_KEYS = {"name", "geometry", "params", "w_max", "num_stored", "probes", "seeds", "mode",
               "store_order", "label", "overlaps", "active_pixels"}


@settings(max_examples=200, deadline=None)
@given(
    scenario_dicts(),
    st.sampled_from([None, "seeds", "store_order", "overlaps", "scenario key", "probe key"]),
    st.lists(st.integers(0, 10**6), unique=True, max_size=8),
    st.sampled_from(["list", "object", "object with another key"]),
    st.text(min_size=1).filter(lambda key: key not in _NAMED_KEYS),
)
def test_accepted_input_reads_back_and_other_input_is_refused(
    case, fault, indices, pattern_form, other_key
):
    # A field given as a set, which has no order of its own, is refused by
    # its type, and an object key that no reader names by the reader.
    data, want = case
    probes = data["probes"]
    if fault == "overlaps":
        data = {**data, "probes": [{**p, "overlaps": set(p["overlaps"])} for p in probes]}
    elif fault in ("seeds", "store_order") and isinstance(data.get(fault), (list, tuple)):
        data = {**data, fault: set(data[fault])}
    elif fault == "scenario key":
        data = {**data, other_key: 1}
    elif fault == "probe key":
        data = {**data, "probes": [{**probes[0], other_key: 1}, *probes[1:]]}
    else:
        fault = None
    if fault is None:
        assert scenario_to_dict(scenario_from_dict(data)) == want
        assert scenario_to_dict(scenario_from_dict(want)) == want
    else:
        with pytest.raises(ConfigError if fault.endswith("key") else ScheduleError):
            scenario_from_dict(data)

    value = {"list": indices, "object": {"active_pixels": indices},
             "object with another key": {"active_pixels": indices, other_key: indices}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps(value[pattern_form]))
        if pattern_form == "object with another key":
            with pytest.raises(PatternError):
                read_pattern_file(path)
        else:
            assert read_pattern_file(path).active == tuple(sorted(indices))


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
