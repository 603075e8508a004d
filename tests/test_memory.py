"""Tests for the store / retrieve / belief-update API and its contracts."""

import dataclasses

import numpy as np
import pytest

import msdc.memory
from msdc import (
    BeliefEntry,
    InputPattern,
    LabelError,
    LedgerUnavailableError,
    MemoryModel,
    PatternError,
    random_pattern,
)
from msdc.experiments import default_appendix_scenario, run_scenario
from msdc.snapshot import decode_model, encode_model


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


@pytest.mark.parametrize("label", ["a" * 65536, "\u00e9" * 32768, "\udcff"])
def test_store_rejects_unsnapshottable_label_and_leaves_model_unchanged(
    geometry, rng, label
):
    # A snapshot holds a label as at most 65535 UTF-8 bytes; a lone
    # surrogate, which a non-UTF-8 command-line byte decodes to, has none.
    model = make_model(geometry, seed=9)
    model.store(random_pattern(geometry, rng), "A")
    bits = model.weights.bits.copy()
    state = model.rng.bit_generator.state
    counter = model.op_counter.copy()
    ledger = model.ledger
    with pytest.raises(LabelError):
        model.store(random_pattern(geometry, rng), label)
    assert np.array_equal(model.weights.bits, bits)
    assert model.rng.bit_generator.state == state
    assert model.op_counter == counter
    assert model.ledger == ledger
    assert model.num_stored == 1
    longest = "a" * 65535
    model.store(random_pattern(geometry, rng), longest)
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
        "hard": {**six, "hard_max_winners": 1},
    }
    for verb, want in expected.items():
        calls.update(dict.fromkeys(STAGES, 0))
        if verb == "store":
            model.store(pattern)
        else:
            model.retrieve(pattern, verb)
        assert calls == {**dict.fromkeys(STAGES, 0), **want}, verb
    # The seed-blocked scenario runs the same kernel, so the same bindings.
    calls.update(dict.fromkeys(STAGES, 0))
    run_scenario(dataclasses.replace(default_appendix_scenario(1), seeds=(0, 1)))
    assert [name for name, n in calls.items() if not n] == ["hard_max_winners"]


def test_retrieve_rejects_unknown_mode(geometry, rng):
    model = make_model(geometry)
    with pytest.raises(ValueError):
        model.retrieve(random_pattern(geometry, rng), mode="warm")


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


def test_auto_labels_count_up(geometry, rng):
    model = make_model(geometry)
    model.store(random_pattern(geometry, rng))
    model.store(random_pattern(geometry, rng))
    assert [e.label for e in model.ledger] == ["item-1", "item-2"]
