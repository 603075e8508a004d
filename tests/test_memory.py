"""Tests for the store / retrieve / belief-update API and its contracts."""

import dataclasses
import functools
import hashlib
import math
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import msdc.memory
from msdc import (
    BeliefEntry,
    CsaParams,
    GeometryError,
    InputPattern,
    LabelError,
    LedgerUnavailableError,
    MemoryModel,
    ModelGeometry,
    MsdcError,
    PatternError,
    ScheduleError,
    random_pattern,
)
from msdc.core import PAPER_GEOMETRY, W_MAX, mu_from_u, normalize_u, rho_from_mu
from msdc.experiments import (
    ProbeSpec, ScenarioSpec, default_appendix_scenario, emit_results, run_scenario,
    scenario_from_dict,
)
from msdc.snapshot import decode_model, encode_model

from oracle import code_intersection, pixel_overlap


def make_model(geometry, seed=0, ledger=True):
    return MemoryModel(geometry, seed=seed, enable_ledger=ledger)


def test_first_store_is_fully_novel(geometry, rng):
    model = make_model(geometry)
    code, trace = model.store(random_pattern(geometry, rng), "A")
    assert trace.familiarity == 0.0
    assert trace.eta == 0.0
    assert np.allclose(trace.rho, 1 / 8)
    assert code.shape == (24,)
    assert model.num_stored == 1
    assert [e.label for e in model.ledger] == ["A"]


def test_store_twice_soft_mostly_reuses_code(geometry, rng):
    # Re-storing the same input sees G=1, so the soft draw is sharply
    # peaked on the original winners: expect agreement in most CMs.
    model = make_model(geometry, seed=11)
    pattern = random_pattern(geometry, rng)
    first, _ = model.store(pattern)
    second, trace = model.store(pattern)
    assert trace.familiarity == 1.0
    assert int((first == second).sum()) >= 20


def test_hard_retrieve_reproduces_stored_code(geometry, rng):
    model = make_model(geometry)
    pattern = random_pattern(geometry, rng)
    code, _ = model.store(pattern)
    for _ in range(5):
        retrieved, trace = model.retrieve(pattern, mode="hard")
        assert np.array_equal(retrieved, code)
        assert trace.familiarity == 1.0


def test_retrieve_leaves_model_state_alone(geometry, rng):
    model = make_model(geometry)
    model.store(random_pattern(geometry, rng))
    bits_before = model.weights.bits.copy()
    ledger_before = model.ledger
    stored_before = model.num_stored
    reader_rng = np.random.default_rng(5)
    rng_state_before = model.rng.bit_generator.state
    for mode in ("soft", "hard"):
        model.retrieve(random_pattern(geometry, rng), mode=mode, rng=reader_rng)
    assert np.array_equal(model.weights.bits, bits_before)
    assert model.ledger == ledger_before
    assert model.num_stored == stored_before
    # With a caller-supplied rng, the model's own stream is untouched too.
    assert model.rng.bit_generator.state == rng_state_before


def test_caller_rng_readers_leave_op_counter_alone(geometry, rng):
    model = make_model(geometry)
    model.store(random_pattern(geometry, rng))
    counts_before = model.op_counter.as_dict()
    reader_rng = np.random.default_rng(5)
    for mode in ("soft", "hard"):
        model.retrieve(random_pattern(geometry, rng), mode=mode, rng=reader_rng)
        model.belief_update(random_pattern(geometry, rng), mode=mode, rng=reader_rng)
    assert model.op_counter.as_dict() == counts_before
    # A retrieve on the model's own RNG is a use of the model and counts.
    model.retrieve(random_pattern(geometry, rng))
    assert model.op_counter.total() > counts_before["total"]


def test_caller_rng_belief_update_writes_no_model_attribute(geometry, rng):
    # A reader writes nothing on the model, not even a copy of the ledger.
    model = make_model(geometry)
    for _ in range(3):
        model.store(random_pattern(geometry, rng))
    before = dict(vars(model))
    for mode in ("soft", "hard"):
        model.belief_update(random_pattern(geometry, rng), mode, np.random.default_rng(5))
    after = vars(model)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())


def test_caller_rng_readers_run_concurrently_as_they_run_serially(small_geometry, rng):
    # The module's concurrency contract: readers with their own RNG write
    # nothing on the model, so four threads of them give what one thread gives.
    model = MemoryModel(small_geometry, seed=3, enable_ledger=True)
    for i in range(4):
        model.store(random_pattern(small_geometry, rng), f"item{i}")
    calls = [
        (verb, mode, random_pattern(small_geometry, rng), seed)
        for seed in range(50) for verb in ("retrieve", "belief_update") for mode in ("soft", "hard")
    ]

    def read(call):
        verb, mode, pattern, seed = call
        rng = np.random.default_rng(seed)
        if verb == "retrieve":
            code, trace = model.retrieve(pattern, mode, rng)
            entries = None
        else:
            report = model.belief_update(pattern, mode, rng)
            code, trace, entries = report.code, report.trace, report.entries
        charts = (trace.count.tobytes(), trace.rho.tobytes())
        return code.tolist(), charts, trace.familiarity, trace.eta, entries

    bits, state = model.weights.bits.tobytes(), model.rng.bit_generator.state
    ops, attrs = model.op_counter.copy(), dict(vars(model))
    serial = [read(call) for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(read, calls, timeout=60)) == serial
    finally:
        sys.setswitchinterval(interval)
    assert model.weights.bits.tobytes() == bits
    assert model.rng.bit_generator.state == state
    assert model.op_counter == ops
    assert vars(model).keys() == attrs.keys()
    assert all(vars(model)[name] is value for name, value in attrs.items())


def test_ledger_is_a_read_only_tuple(geometry, rng):
    model = make_model(geometry)
    model.store(random_pattern(geometry, rng), "A")
    with pytest.raises(AttributeError):
        model.ledger = ()
    ledger = model.ledger
    assert isinstance(ledger, tuple)
    # Every call hands out the same entry objects.
    assert [a is b for a, b in zip(model.ledger, ledger)] == [True]
    assert make_model(geometry, ledger=False).ledger is None


def test_store_rejects_bad_pattern_and_leaves_model_unchanged(geometry, rng):
    model = make_model(geometry, seed=9)
    model.store(random_pattern(geometry, rng))
    bits = model.weights.bits.copy()
    state = model.rng.bit_generator.state
    with pytest.raises(PatternError):
        model.store(InputPattern.from_indices(range(5)))
    with pytest.raises(PatternError):
        model.store(InputPattern.from_indices(list(range(11)) + [999]))
    assert np.array_equal(model.weights.bits, bits)
    assert model.rng.bit_generator.state == state
    assert model.num_stored == 1


@pytest.mark.parametrize("ledger", [True, False], ids=["ledger-on", "ledger-off"])
@pytest.mark.parametrize("label", ["a" * 65536, "\u00e9" * 32768, "\udcff", 5, b"A"])
def test_store_rejects_unsnapshottable_label_and_leaves_model_unchanged(
    geometry, rng, label, ledger
):
    # A snapshot holds a label as at most 65535 UTF-8 bytes; a lone
    # surrogate, which a non-UTF-8 command-line byte decodes to, has none,
    # and a label that is not a str is not text at all.  A model without a
    # ledger drops a valid label but rejects these by the same rule.
    model = make_model(geometry, seed=9, ledger=ledger)
    model.store(random_pattern(geometry, rng), "A")
    bits = model.weights.bits.copy()
    state = model.rng.bit_generator.state
    counter = model.op_counter.copy()
    entries = model.ledger
    with pytest.raises(LabelError):
        model.store(random_pattern(geometry, rng), label)
    assert np.array_equal(model.weights.bits, bits)
    assert model.rng.bit_generator.state == state
    assert model.op_counter == counter
    assert model.ledger == entries
    assert model.num_stored == 1
    longest = "a" * 65535
    model.store(random_pattern(geometry, rng), longest)
    if ledger:
        assert decode_model(encode_model(model)).ledger[-1].label == longest


def test_readers_reject_bad_pattern_and_leave_model_unchanged(geometry, rng):
    model = make_model(geometry, seed=9)
    model.store(random_pattern(geometry, rng))
    bits = model.weights.bits.copy()
    state = model.rng.bit_generator.state
    counts = model.op_counter.as_dict()
    for bad in (InputPattern.from_indices((0, 1, 2)),
                InputPattern.from_indices(list(range(11)) + [999])):
        for mode in ("soft", "hard"):
            for reader_rng in (None, np.random.default_rng(5)):
                with pytest.raises(PatternError):
                    model.retrieve(bad, mode, reader_rng)
                with pytest.raises(PatternError):
                    model.belief_update(bad, mode, reader_rng)
    assert np.array_equal(model.weights.bits, bits)
    assert model.rng.bit_generator.state == state
    assert model.op_counter.as_dict() == counts


def test_model_rng_calls_draw_exactly_q_uniforms(geometry, rng):
    # One uniform per CM per call, whatever the mode and however many units
    # tie (on the empty weights of the first store, all of them).
    model = make_model(geometry, seed=4)
    twin = np.random.default_rng(4)
    pattern = random_pattern(geometry, rng)
    for call in (model.store, model.retrieve,
                 lambda p: model.retrieve(p, "hard"), model.belief_update):
        call(pattern)
        twin.random(geometry.num_cms)
        assert model.rng.bit_generator.state == twin.bit_generator.state


STAGES = ("compute_u", "normalize_u", "familiarity", "eta_for_familiarity", "mu_from_u",
          "rho_from_mu", "draw_winners", "hard_max_winners", "apply_learning")


def test_every_stage_runs_through_its_memory_binding(geometry, rng, monkeypatch):
    # Tracers wrap the steps where ``msdc.memory`` binds them; a verb that
    # bypassed a binding would hide that step's time.
    calls = dict.fromkeys(STAGES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in STAGES:
        monkeypatch.setattr(msdc.memory, name, counting(name, getattr(msdc.memory, name)))
    model = make_model(geometry)
    pattern = random_pattern(geometry, rng)
    six = dict.fromkeys(STAGES[:6], 1)
    expected = {
        "store": {**six, "draw_winners": 1, "apply_learning": 1},
        "soft": {**six, "draw_winners": 1},
        "hard": {**dict.fromkeys(STAGES[:4], 1), "hard_max_winners": 1},
    }
    charts = {**dict.fromkeys(STAGES, 0), "mu_from_u": 1, "rho_from_mu": 1}
    for verb, want in expected.items():
        calls.update(dict.fromkeys(STAGES, 0))
        if verb == "store":
            _, trace = model.store(pattern)
        else:
            _, trace = model.retrieve(pattern, verb)
        assert calls == {**dict.fromkeys(STAGES, 0), **want}, verb
        # Every trace forms mu and rho on its first read, and only then.
        calls.update(dict.fromkeys(STAGES, 0))
        trace.mu
        assert calls == charts, verb
        trace.mu, trace.rho
        assert calls == charts, verb
    # The seed-blocked scenario runs the same kernel, so the same bindings.
    spec = dataclasses.replace(default_appendix_scenario(1), seeds=(0, 1))
    calls.update(dict.fromkeys(STAGES, 0))
    run_scenario(spec)
    assert [name for name, n in calls.items() if not n] == ["hard_max_winners"]
    # One block: the six stores are one soft chart-and-draw step over an
    # empty plane (one G, so one eta), then six learning calls; a hard probe
    # step forms no mu or rho and draws nothing: 3 probe steps of 2 seeds.
    calls.update(dict.fromkeys(STAGES, 0))
    run_scenario(dataclasses.replace(spec, mode="hard"))
    assert calls == {
        **dict.fromkeys(STAGES[:3], 4), "eta_for_familiarity": 7,
        **dict.fromkeys(("mu_from_u", "rho_from_mu", "draw_winners"), 1),
        "apply_learning": 6, "hard_max_winners": 3,
    }


def test_a_trace_forms_u_only_when_read(geometry, rng, monkeypatch):
    # A call normalizes only its Q per-CM maxima, for G; the trace forms the
    # (Q, K) chart of U on its first read of u_norm, and only then.  The raw
    # summations u = W_MAX * count are formed only when read, as int64.
    shapes = []

    def spy(count, num_active):
        shapes.append(count.shape)
        return normalize_u(count, num_active)

    monkeypatch.setattr(msdc.memory, "normalize_u", spy)
    model = make_model(geometry)
    pattern = random_pattern(geometry, rng)
    model.store(pattern)
    q, s = geometry.num_cms, geometry.num_active
    for mode in ("hard", "soft"):
        shapes.clear()
        _, trace = model.retrieve(pattern, mode, np.random.default_rng(2))
        assert shapes == [(q,)], mode
        trace.mu, trace.rho  # mu reads counts, not U
        assert shapes == [(q,)], mode
        u_norm = trace.u_norm
        assert shapes == [(q,), (q, geometry.units_per_cm)], mode
        assert "u" not in vars(trace), mode
        u = trace.u
        want = trace.count.astype(np.int64) * W_MAX
        assert (u.dtype, u.shape, u.tobytes()) == (np.int64, want.shape, want.tobytes())
        assert trace.u is u
        # U from the counts is U from the raw summations, bit for bit.
        want = u / float(s * W_MAX)
        assert (u_norm.dtype, u_norm.tobytes()) == (want.dtype, want.tobytes())
        assert trace.u_norm is u_norm
        assert len(shapes) == 2, mode


def test_traces_compare_and_hash_by_identity(geometry, rng):
    model = make_model(geometry)
    pattern = random_pattern(geometry, rng)
    model.store(pattern)
    _, a = model.retrieve(pattern, rng=np.random.default_rng(5))
    _, b = model.retrieve(pattern, rng=np.random.default_rng(5))
    assert np.array_equal(a.rho, b.rho) and a.eta == b.eta
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


# The golden trace's three geometries: paper geometry, one whose S, Q and K
# differ from it, and the benchmark's large geometry.
GOLDEN_GEOMETRIES = (
    ModelGeometry(12, 12, 12, 24, 8),
    ModelGeometry(20, 20, 30, 40, 5),
    ModelGeometry(64, 64, 64, 128, 16),
)


@pytest.mark.parametrize(
    "geometry", GOLDEN_GEOMETRIES, ids=lambda g: f"S{g.num_active}-Q{g.num_cms}-K{g.units_per_cm}"
)
def test_trace_forms_mu_and_rho_on_read_as_eager_steps_would(geometry):
    gen = np.random.default_rng(geometry.num_cms)
    model = make_model(geometry, seed=3)
    stored = [random_pattern(geometry, gen) for _ in range(30)]
    for pattern in stored:
        model.store(pattern)
    # A noisy copy of a stored item, so that G and eta lie strictly inside
    # their ranges, through the model RNG and through a caller's.
    source, half = stored[0].active, geometry.num_active // 2
    outside = [p for p in range(geometry.num_pixels) if p not in source]
    probe = InputPattern.from_indices(source[:half] + tuple(outside[: geometry.num_active - half]))
    readers = [(mode, reader) for mode in ("soft", "hard")
               for reader in (None, np.random.default_rng(1))]
    for mode, reader in readers:
        params = model.params
        _, trace = model.retrieve(probe, mode, reader)
        assert 0 < trace.familiarity < 1 and 0 < trace.eta < params.eta_max
        bits = model.weights.bits.copy()
        state = model.rng.bit_generator.state
        counter = model.op_counter.copy()
        # Replacing the model's parameters leaves the call's own in force.
        model.params = dataclasses.replace(params, steepness=3.0, midpoint=0.2)
        for name in ("count", "u", "u_norm", "mu", "rho", "familiarity", "eta"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trace, name, None)
        count, s = trace.count, geometry.num_active
        assert np.array_equal(count, trace.u // W_MAX)
        mu = mu_from_u(count, trace.eta, params, s)
        assert np.array_equal(trace.mu, mu)
        assert np.array_equal(trace.rho, rho_from_mu(mu))
        assert trace.rho is trace.rho and trace.mu is trace.mu
        assert not np.array_equal(trace.mu, mu_from_u(count, trace.eta, model.params, s))
        for name in ("mu", "rho"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trace, name, None)
        assert np.array_equal(model.weights.bits, bits)
        assert model.rng.bit_generator.state == state
        assert model.op_counter == counter
        model.params = params


def test_retrieve_rejects_unknown_mode(geometry, rng):
    model = make_model(geometry)
    with pytest.raises(ValueError):
        model.retrieve(random_pattern(geometry, rng), mode="warm")


def test_unknown_mode_is_a_geometry_error_on_every_reader(geometry, rng):
    model = make_model(geometry)
    model.store(random_pattern(geometry, rng), "A")
    with pytest.raises(GeometryError, match="unknown retrieval mode 'warm'"):
        model.retrieve(random_pattern(geometry, rng), mode="warm")
    with pytest.raises(GeometryError, match="unknown retrieval mode 'warm'"):
        model.belief_update(random_pattern(geometry, rng), mode="warm")


@pytest.mark.parametrize(
    "mode", [np.array(["soft", "hard"]), np.array("hard"), np.array(["soft"])], ids=repr
)
def test_a_mode_is_only_a_retrieval_mode_string(geometry, rng, mode):
    # Not compared elementwise, nor unwrapped from a 0-d array.
    model = make_model(geometry)
    pattern = random_pattern(geometry, rng)
    model.store(pattern, "A")
    message = f"unknown retrieval mode {mode!r}"
    for call, error in [
        (lambda: model.retrieve(pattern, mode=mode), GeometryError),
        (lambda: model.belief_update(pattern, mode=mode), GeometryError),
        (lambda: dataclasses.replace(default_appendix_scenario(1), mode=mode), ScheduleError),
    ]:
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message


@pytest.mark.parametrize("seed", [True, -1, 1.5, "3", None])
def test_model_seed_must_be_a_non_negative_integer(geometry, seed):
    # No seed is coerced: True is not seed 1, and None is not fresh entropy.
    with pytest.raises(GeometryError, match="seed must be"):
        MemoryModel(geometry, seed=seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint8(7), np.array(7)])
def test_model_seed_accepts_numpy_integers(geometry, seed):
    # A 0-d integer array is an integer index too; the RNG is seeded with
    # its int value.
    a, b = MemoryModel(geometry, seed=seed), MemoryModel(geometry, seed=7)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_model_rejects_params_that_are_not_csa_params(geometry):
    # A dict would be accepted and then fail inside the first store, after
    # that store had already drawn from the model RNG.
    with pytest.raises(GeometryError, match="params must be a CsaParams"):
        MemoryModel(geometry, params={"eta_max": 3})


def test_model_rejects_a_geometry_that_is_not_a_model_geometry(geometry):
    with pytest.raises(GeometryError, match="geometry must be a ModelGeometry"):
        MemoryModel(dataclasses.astuple(geometry))


@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_model_rejects_a_ledger_flag_that_is_not_a_bool(geometry, flag):
    with pytest.raises(GeometryError, match="enable_ledger must be True or False"):
        MemoryModel(geometry, enable_ledger=flag)
    assert MemoryModel(geometry, enable_ledger=np.bool_(True)).ledger == ()


@pytest.mark.parametrize("bad", [(0, 1, 2), None, "0 1 2"])
def test_verbs_reject_a_pattern_that_is_not_an_input_pattern(geometry, rng, bad):
    model = make_model(geometry, seed=9)
    model.store(random_pattern(geometry, rng))
    bits = model.weights.bits.copy()
    state = model.rng.bit_generator.state
    counter = model.op_counter.copy()
    for call in (model.store, model.retrieve, model.belief_update):
        with pytest.raises(PatternError, match="pattern must be an InputPattern"):
            call(bad)
    assert np.array_equal(model.weights.bits, bits)
    assert model.rng.bit_generator.state == state
    assert model.op_counter == counter
    assert model.num_stored == 1


@pytest.mark.parametrize(
    "bad", [5, np.random.RandomState(5), np.random, np.random.PCG64(5)],
    ids=["int", "RandomState", "np.random", "PCG64"],
)
def test_readers_reject_an_rng_that_is_not_a_generator(geometry, rng, bad):
    model = make_model(geometry, seed=9)
    model.store(random_pattern(geometry, rng))
    state = model.rng.bit_generator.state
    counter = model.op_counter.copy()
    pattern = random_pattern(geometry, rng)
    for mode in ("soft", "hard"):
        for call in (model.retrieve, model.belief_update):
            with pytest.raises(GeometryError, match="rng must be a numpy Generator"):
                call(pattern, mode, bad)
    assert model.rng.bit_generator.state == state
    assert model.op_counter == counter


def test_belief_update_exact_match_has_likelihood_one(geometry, rng):
    model = make_model(geometry)
    pattern = random_pattern(geometry, rng)
    model.store(pattern, "A")
    report = model.belief_update(pattern, mode="hard")
    (entry,) = report.entries
    assert entry.label == "A"
    assert entry.likelihood == 1.0
    assert entry.code_intersection == 24
    assert entry.input_similarity == 1.0
    assert report.best().label == "A"


def test_belief_entry_is_an_immutable_named_tuple(geometry, rng):
    assert BeliefEntry._fields == (
        "label", "input_similarity", "code_intersection", "likelihood"
    )
    entry = BeliefEntry("A", 0.5, 12, 0.5)
    with pytest.raises(AttributeError):
        entry.likelihood = 1.0
    assert repr(entry) == (
        "BeliefEntry(label='A', input_similarity=0.5, code_intersection=12, "
        "likelihood=0.5)"
    )
    model = make_model(geometry)
    patterns = [random_pattern(geometry, rng) for _ in range(5)]
    for i, pattern in enumerate(patterns):
        model.store(pattern, f"P{i}")
    report = model.belief_update(patterns[3], mode="hard")
    best = report.best()
    assert best.label == "P3"
    assert best.likelihood == max(e.likelihood for e in report.entries) == 1.0


def test_best_breaks_a_tie_by_store_order(geometry):
    # Stored twice under seed 0, one input gets the same code both times, so
    # a hard readout of it ties the two items at likelihood 1.
    gen = np.random.default_rng(0)
    model = make_model(geometry, seed=0)
    other, pattern = random_pattern(geometry, gen), random_pattern(geometry, gen)
    model.store(other, "X")
    first, _ = model.store(pattern, "A")
    second, _ = model.store(pattern, "B")
    assert np.array_equal(first, second)
    report = model.belief_update(pattern, "hard", np.random.default_rng(0))
    assert [e.likelihood for e in report.entries][1:] == [1.0, 1.0]
    assert report.best() is report.entries[1]


# sha256 of repr(report.entries) for test_belief_entries_are_pinned's six
# reports, in probe order, soft before hard.
BELIEF_SHA256 = "d44a35fc80278ad90529bee5d728c8a61fc1eeadc4a41170b8ad8b6ba5f73f1c"


def test_belief_entries_are_pinned(geometry):
    # 2000 items at paper geometry, read out for a stored item, a noisy copy
    # of another and a novel probe: any change to an entry's type, a field,
    # a value or its repr shows here.
    gen = np.random.default_rng(2000)
    model = make_model(geometry, seed=7)
    stored = [random_pattern(geometry, gen) for _ in range(2000)]
    for i, pattern in enumerate(stored):
        model.store(pattern, f"item-{i}")
    source = stored[1234].active
    outside = np.setdiff1d(np.arange(geometry.num_pixels), source)
    noisy = InputPattern.from_indices(
        list(source[:8]) + gen.choice(outside, 4, replace=False).tolist()
    )
    h = hashlib.sha256()
    for step, probe in enumerate((stored[567], noisy, random_pattern(geometry, gen))):
        for mode in ("soft", "hard"):
            report = model.belief_update(probe, mode, np.random.default_rng([step, len(mode)]))
            assert len(report.entries) == 2000
            assert all(type(e) is BeliefEntry for e in report.entries)
            h.update(repr(report.entries).encode())
    assert h.hexdigest() == BELIEF_SHA256


def test_belief_likelihoods_are_q_quantized(geometry, rng):
    model = make_model(geometry)
    for i in range(4):
        model.store(random_pattern(geometry, rng), f"P{i}")
    report = model.belief_update(random_pattern(geometry, rng))
    for entry in report.entries:
        assert entry.likelihood * 24 == entry.code_intersection
        assert 0 <= entry.code_intersection <= 24


def test_belief_update_zero_overlap_sits_at_chance(geometry):
    # A probe disjoint from the only stored item sees G=0, so each CM's
    # winner matches the stored one with probability exactly 1/K.
    model = make_model(geometry, seed=21)
    stored = InputPattern.from_indices(range(12))
    probe = InputPattern.from_indices(range(12, 24))
    model.store(stored, "A")
    n = 600
    mean = np.mean(
        [model.belief_update(probe).entries[0].likelihood for _ in range(n)]
    )
    sigma = np.sqrt((1 / 8) * (7 / 8) / (24 * n))
    assert abs(mean - 1 / 8) < 4 * sigma


def test_belief_update_requires_ledger(geometry, rng):
    model = make_model(geometry, ledger=False)
    model.store(random_pattern(geometry, rng))
    with pytest.raises(LedgerUnavailableError):
        model.belief_update(random_pattern(geometry, rng))
    empty = make_model(geometry, ledger=True)
    with pytest.raises(LedgerUnavailableError):
        empty.belief_update(random_pattern(geometry, rng))


def test_store_then_hard_retrieve_after_other_items(geometry):
    # Hard retrieval returns the code just stored as long as no other item
    # shares all S pixels (argmax at the trained winners is then unique).
    pattern_rng = np.random.default_rng(31)
    model = make_model(geometry, seed=31)
    for _ in range(10):
        model.store(random_pattern(geometry, pattern_rng))
    target = random_pattern(geometry, pattern_rng)
    code, _ = model.store(target, "T")
    retrieved, _ = model.retrieve(target, mode="hard")
    assert np.array_equal(retrieved, code)


def test_clone_is_independent_and_replays(geometry, rng):
    model = make_model(geometry, seed=4)
    # Three items leave the ledger's columns room for a fourth, which the
    # clone and the original each store on their own.
    for label in "AXY":
        model.store(random_pattern(geometry, rng), label)
    twin = model.clone()
    probe = random_pattern(geometry, rng)
    code_a, trace_a = model.retrieve(probe)
    code_b, trace_b = twin.retrieve(probe)
    assert np.array_equal(code_a, code_b)
    assert np.array_equal(trace_a.rho, trace_b.rho)
    # Mutating the clone leaves the original alone, and the reverse.
    b, c = random_pattern(geometry, rng), random_pattern(geometry, rng)
    twin.store(b, "B")
    assert model.num_stored == 3
    assert len(model.ledger) == 3
    model.store(c, "C")
    for owner, pattern in ((twin, b), (model, c)):
        report = owner.belief_update(pattern, mode="hard", rng=np.random.default_rng(0))
        assert report.entries[-1].code_intersection == 24


def test_clone_copies_any_bit_generator(geometry, rng):
    # The model RNG is copied whole, not re-seated on a new PCG64.
    model = make_model(geometry)
    model.rng = np.random.Generator(np.random.MT19937(1))
    model.store(random_pattern(geometry, rng))
    twin = model.clone()
    assert type(twin.rng.bit_generator) is np.random.MT19937
    assert twin.rng is not model.rng
    pattern = random_pattern(geometry, rng)
    (code_a, trace_a), (code_b, trace_b) = model.store(pattern), twin.store(pattern)
    assert np.array_equal(code_a, code_b)
    assert np.array_equal(trace_a.rho, trace_b.rho)
    assert model.rng.random() == twin.rng.random()


@pytest.mark.parametrize(
    "geometry, winner_dtype, pixel_dtype",
    (
        (ModelGeometry(16, 16, 6, 5, 256), np.uint8, np.uint8),
        (ModelGeometry(16, 16, 6, 5, 257), np.uint16, np.uint8),
        (ModelGeometry(20, 20, 6, 5, 4), np.uint8, np.uint16),
    ),
    ids=str,
)
def test_ledger_columns_hold_every_entry_across_a_snapshot(geometry, winner_dtype, pixel_dtype):
    # Stores and snapshot loading fill the columns through one append path;
    # store, round-trip, then store again past the loaded capacity.
    gen = np.random.default_rng(geometry.num_pixels + geometry.units_per_cm)
    model = make_model(geometry, seed=5)
    for _ in range(5):
        model.store(random_pattern(geometry, gen))
    model = decode_model(encode_model(model))
    for _ in range(4):
        model.store(random_pattern(geometry, gen))
    ledger = model.ledger
    n = len(ledger)
    assert n == 9
    assert model._codes.dtype == winner_dtype and model._pixels.dtype == pixel_dtype
    assert np.array_equal(model._codes[:, :n], np.array([e.code for e in ledger]).T)
    assert np.array_equal(model._pixels[:, :n], np.array([e.pattern.active for e in ledger]).T)
    probe = ledger[6].pattern
    report = model.belief_update(probe, "hard", np.random.default_rng(0))
    assert [e.label for e in report.entries] == [e.label for e in ledger]
    for got, entry in zip(report.entries, ledger):
        assert got.code_intersection == code_intersection(report.code, np.array(entry.code))
        assert got.input_similarity == pixel_overlap(probe, entry.pattern) / geometry.num_active


def test_auto_labels_count_up(geometry, rng):
    model = make_model(geometry)
    model.store(random_pattern(geometry, rng))
    model.store(random_pattern(geometry, rng))
    assert [e.label for e in model.ledger] == ["item-1", "item-2"]


def test_verbs_run_a_fixed_number_of_python_frames(geometry, python_calls):
    # Fixed time at the interpreter's level: no verb runs a Python frame per
    # stored item.  Only the belief readout's array pass is O(N).  The
    # store lands inside the ledger's capacity at both sizes (16 and 512),
    # so neither grows the ledger's arrays.
    counts = []
    for n in (10, 300):
        gen = np.random.default_rng(n)
        model = make_model(geometry, seed=n)
        for _ in range(n):
            model.store(random_pattern(geometry, gen))
        probe, new = random_pattern(geometry, gen), random_pattern(geometry, gen)
        reader = np.random.default_rng(n)
        count = {}
        for mode in ("soft", "hard"):
            count[mode] = python_calls(model.retrieve, probe, mode, reader)
            count[f"belief {mode}"] = python_calls(
                lambda: model.belief_update(probe, mode, reader).best()
            )
        count["store"] = python_calls(model.store, new)
        counts.append(count)
    assert counts[0] == counts[1], counts


def test_caller_rng_retrieve_runs_a_pinned_number_of_python_frames(python_calls):
    # The kernel reduces through the ufuncs' own C methods rather than
    # numpy's Python-level function and ndarray-method wrappers, takes its
    # count dtype from a cache rather than from ``np.min_scalar_type``, and a hard
    # pick forms no mu or rho until its trace is read; a step that brought
    # back any of these would raise the counts.
    gen = np.random.default_rng(5)
    model = make_model(PAPER_GEOMETRY, seed=5)
    for _ in range(50):
        model.store(random_pattern(PAPER_GEOMETRY, gen))
    probe, reader = random_pattern(PAPER_GEOMETRY, gen), np.random.default_rng(5)
    counts = {mode: python_calls(model.retrieve, probe, mode, reader) for mode in ("soft", "hard")}
    assert counts == {"soft": 14, "hard": 12}


def _touch(stand_in, count: int) -> None:
    touched = getattr(stand_in, "touched", None)
    if touched is not None:  # a view of a stand-in records nothing itself
        touched.append(count)


def _scan(name: str):
    """The list method ``name``, recording that it reads every item."""
    def method(self, *args):
        _touch(self, len(self))
        return getattr(list, name)(self, *args)
    return method


class _TouchedList(list):
    """A ledger list that records the items each iteration, copy, slice,
    search, comparison or sort of it reads."""

    def __init__(self, items, touched: list):
        super().__init__(items)
        self.touched = touched

    __iter__, __reversed__, __contains__, __eq__, __add__, __mul__ = map(
        _scan, ("__iter__", "__reversed__", "__contains__", "__eq__", "__add__", "__mul__"))
    copy, index, count, sort = map(_scan, ("copy", "index", "count", "sort"))

    def __getitem__(self, index):
        item = super().__getitem__(index)
        _touch(self, len(item) if isinstance(index, slice) else 1)
        return item


class _TouchedArray(np.ndarray):
    """A ledger column array that records the element count of each view or
    copy it hands out, of each ufunc operand it is, and of each region
    written into it."""

    def __array_finalize__(self, source):
        _touch(source, self.size)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(x):
            if isinstance(x, _TouchedArray):
                _touch(x, x.size)
                return x.view(np.ndarray)
            return x
        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)

    def __setitem__(self, index, value):
        plain = self.view(np.ndarray)
        _touch(self, plain[index].size)
        plain[index] = value


def _ledger_touches(model, call) -> int:
    """The ledger elements ``call()`` reads or writes, counted by stand-ins
    for the model's four ledger parts that hold the same items."""
    touched = []
    model._entries = _TouchedList(model._entries, touched)
    model._labels = _TouchedList(model._labels, touched)
    for name in ("_codes", "_pixels"):
        column = getattr(model, name).view(_TouchedArray)
        column.touched = touched
        setattr(model, name, column)
    call()
    return sum(touched)


def test_verbs_touch_a_fixed_number_of_ledger_elements(geometry):
    # Fixed time over the ledger's data, which the frame pins cannot see: a
    # C call that reads every stored item enters no Python frame.  A
    # retrieve reads no ledger element, and a store writes its item's one
    # column of winners and of pixels, whether the model holds 10 items or
    # 3000.  The belief readout is documented as O(N): per item, at most its
    # Q winners, S pixels and label.
    q, s = geometry.num_cms, geometry.num_active
    for n in (10, 3000):
        gen = np.random.default_rng(n)
        model = make_model(geometry, seed=n)
        for _ in range(n):
            model.store(random_pattern(geometry, gen))
        # Capacities 16 and 4096: no store here grows the columns, which
        # would replace the stand-ins with plain arrays.
        assert model._codes.shape[1] > n + 1
        probe = random_pattern(geometry, gen)
        for mode in ("soft", "hard"):
            for rng in (np.random.default_rng(n), None):
                assert _ledger_touches(model, lambda: model.retrieve(probe, mode, rng)) == 0
            reader = np.random.default_rng(n)
            touches = _ledger_touches(model, lambda: model.belief_update(probe, mode, reader))
            assert 0 < touches <= (q + s + 1) * n
        new = random_pattern(geometry, gen)
        assert _ledger_touches(model, lambda: model.store(new, "new")) == q + s


# Tiny, so that each example costs little: a 3x3 grid, S=2, Q=3, K=2.
TINY = ModelGeometry(3, 3, 2, 3, 2)


def _any_form(*values):
    """Each value as given, as a numpy scalar, and in 0-d and 1-d arrays."""
    value = st.sampled_from(values)
    return st.one_of(
        value,
        value.map(lambda v: np.array(v)[()]),
        value.map(np.array),
        value.map(lambda v: np.array([v])),
    )


_RNGS = st.builds(np.random.default_rng, st.integers(0, 3)) | st.sampled_from(
    [None, 0, "rng", np.random.PCG64(0)]
)
_ARGS = {
    "geometry": _any_form(TINY, None, (3, 3, 2, 3, 2), "TINY"),
    "params": _any_form(None, CsaParams(), {}, 1.0),
    "seed": _any_form(0, 7, -1, 2.5, "3", True),
    "enable_ledger": _any_form(True, False, 0, 1, None, "yes"),
    "pattern": _any_form(
        InputPattern((0, 4)), InputPattern((8,)), InputPattern((0, 9)), (0, 4), None, "04", 3
    ),
    "label": _any_form(None, "a", "", "\udcff", "x" * 65536, 3, 2.5, b"a", True),
    "mode": _any_form("soft", "hard", "SOFT", "", None, 0, b"soft", ("soft", "hard")),
    "rng": st.one_of(_RNGS, _RNGS.map(lambda v: np.array([v]))),
}
_VERBS = {
    "store": ("pattern", "label"),
    "retrieve": ("pattern", "mode", "rng"),
    "belief_update": ("pattern", "mode", "rng"),
}


def _state(model):
    """Every attribute, the bytes behind each array, the RNG state, the op
    counts and the ledger."""
    columns = () if model._codes is None else (model._codes.tobytes(), model._pixels.tobytes())
    return dict(vars(model)), (
        model.weights.bits.tobytes(), model.rng.bit_generator.state,
        model.op_counter.as_dict(), model.ledger, columns,
    )


@settings(max_examples=150, deadline=None)
@given(
    st.fixed_dictionaries({name: _ARGS[name] for name in ("geometry", "params", "seed",
                                                          "enable_ledger")}),
    st.lists(st.sampled_from(list(_VERBS)).flatmap(lambda verb: st.tuples(
        st.just(verb), st.fixed_dictionaries({name: _ARGS[name] for name in _VERBS[verb]})
    )), max_size=4),
)
def test_verbs_return_or_raise_a_typed_error_and_a_failed_call_changes_nothing(
    construct, calls
):
    # Every argument is drawn from valid values, wrong Python types, numpy
    # scalars, and 0-d and 1-d arrays.  A call either returns or raises an
    # MsdcError, and one that raises leaves the model as it was.
    try:
        model = MemoryModel(**construct)
    except MsdcError:
        model = MemoryModel(TINY, enable_ledger=True)
    model.store(InputPattern((1, 2)))
    for verb, kwargs in calls:
        attrs, contents = _state(model)
        try:
            getattr(model, verb)(**kwargs)
        except MsdcError:
            assert vars(model).keys() == attrs.keys()
            assert all(vars(model)[name] is value for name, value in attrs.items())
            assert _state(model)[1] == contents


_PROBES = (ProbeSpec("p", (1, 0)),)


@functools.cache
def _tiny_run():
    spec = ScenarioSpec("tiny", TINY, CsaParams(), 2, _PROBES, (0,))
    return run_scenario(spec), spec


def _emit(formats):
    with tempfile.TemporaryDirectory() as out:
        emit_results(*_tiny_run(), out, formats=formats)


def _often(valid, *wrong):
    """``valid`` three times in four, so that a call of many arguments
    sometimes gets all of them right; else any form of any value."""
    return st.sampled_from([True] * 3 + [False]).flatmap(
        lambda keep: st.just(valid) if keep else _any_form(valid, *wrong)
    )


_GEOMETRY_DICT = dataclasses.asdict(TINY)
_SCENARIO_DICT = st.fixed_dictionaries(
    {"geometry": _often(_GEOMETRY_DICT, [3, 3, 2, 3, 2], {"input_width": 3}, None),
     "num_stored": _often(2, 0, 2.5, "2", None),
     "probes": _often([{"label": "p", "overlaps": [1, 0]}], [{"label": "p"}],
                      [{"label": 3, "overlaps": [1, 0]}], ["p"], [], None),
     "seeds": _often([0], [0, 3], [], {"start": 0, "count": 2}, {"count": 2},
                     {"start": -1, "count": 1}, {"start": 0, "count": 2**70}, "0")},
    optional={
        "name": _often("tiny", None, 3),
        "params": _often({}, {"eta_max": 2.0}, {"eta_max": "2"}, {"speed": 1}, []),
        "w_max": _often(127, 126, 127.0, "127", None, True),
        "mode": _often("soft", "hard", "warm", None),
        "store_order": _often(None, ["I2", "I1"], ["I1"], "I1", [1, 2]),
        "extra": _any_form(0),
    },
)
# Each constructor's keyword arguments.
_CONSTRUCTORS = {
    ModelGeometry: {
        name: _often(value, 1, 0, -1, 2.5, "3", True, None, 2**40)
        for name, value in _GEOMETRY_DICT.items()
    },
    CsaParams: {
        f.name: _often(f.default, 1, 0.5, 0, -1.0, math.nan, math.inf, 2**1100, 1j, "1", True, None)
        for f in dataclasses.fields(CsaParams)
    },
    InputPattern: {
        "active": _any_form((0, 4), (), (4, 4), (-1,), (1.5,), (True, 2), [[0, 4]], "04", None, 3)
    },
    ProbeSpec: {
        "label": _any_form("p", "", None, 3, b"p", True),
        "overlaps": _any_form((1, 0), (), (-1, 0), (1.5, 0), (True, 0), "10", None, 1, 2**70),
    },
    ScenarioSpec: {
        "name": _often("tiny", "", None, 3),
        "geometry": _often(TINY, None, (3, 3, 2, 3, 2)),
        "params": _often(CsaParams(), None, {}),
        "num_stored": _often(2, 1, 0, -1, 5, 2.5, "2", True, None),
        "probes": _often(_PROBES, (ProbeSpec("p", (1,)),), _PROBES * 2, (), None, "p"),
        "seeds": _often((0,), (0, 3), (), (-1,), (2.5,), ("0",), None, 0, range(2)),
        "mode": _often("soft", "hard", "SOFT", None, 0, ("soft",)),
        "store_order": _often(None, ("I2", "I1"), ("I1",), ("I1", "I1"), "I1I2", (1, 2)),
    },
    scenario_from_dict: {"data": _SCENARIO_DICT | _any_form(None, [], "x", 3)},
    _emit: {
        "formats": _any_form(("csv", "json"), ("csv",), "json", {"json"}, (), ("xml",),
                             5, None, [["csv"]], object()),
    },
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_CONSTRUCTORS)).flatmap(lambda f: st.tuples(
    st.just(f), st.fixed_dictionaries(_CONSTRUCTORS[f])
)))
def test_constructors_return_or_raise_a_typed_error(call):
    # ModelGeometry, CsaParams, InputPattern, ProbeSpec, ScenarioSpec,
    # scenario_from_dict and emit_results's formats, each argument drawn from
    # valid values, wrong Python types, numpy scalars, and 0-d and 1-d arrays.
    # A call either returns or raises an MsdcError.
    constructor, kwargs = call
    try:
        constructor(**kwargs)
    except MsdcError:
        pass
