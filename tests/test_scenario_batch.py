"""The seed-blocked scenario run: pinned output and a per-seed reference."""

import collections.abc
import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import msdc.experiments
import msdc.memory
from msdc import CsaParams, MemoryModel, ModelGeometry, cli, random_pattern
from msdc.core import PAPER_GEOMETRY, W_MAX, _count_dtype, mu_from_u, normalize_u, rho_from_mu
from msdc.experiments import (
    ProbeSpec,
    ScenarioSpec,
    TrialRecord,
    _item_rows,
    _seed_block_size,
    build_appendix_corpus,
    default_appendix_scenario,
    emit_results,
    run_scenario,
)
from msdc.memory import _pcg64_states, _seeded_rng, _select_codes

from oracle import extreme_params

# sha256 of the files `msdc experiment appendix OUT` writes (seeds 0-199),
# as the seed-by-seed loop wrote them before seeds ran in blocks.
APPENDIX_SHA256 = {
    "aggregate.csv": "61b05c787cd32f93ff462dfaa594ef5f7dcba60660c407cef557d637ec31a573",
    "results.json": "6af445bf3dfa28fe4927a03fab01fb0ec1cbcb01261a54908662b62f4019119b",
    "scenario.json": "567f5922dbba9519d9f8d2d962b18c4109b34ab6cd5f8097ecb95a2667697e61",
    "trials.csv": "8f5de386a186b89b498634bf87e9f900950e36992aef90ff724e3aeacf982d05",
}

# The same for two more 200-seed blocks of the appendix scenario, as
# emit_results wrote them through json.dumps and one csv row at a time.
EMIT_SHA256 = {
    ("hard", 0): {
        "aggregate.csv": "9f29ed629ac8965e10a046923ed47b8ff512c7a581ea5b3bda5bf0add413bbcc",
        "results.json": "35c1b52af0c90bca7f42077a9de02d1b59dd5cd2ab67283444af6b7d561ea0b1",
        "scenario.json": "577eb7ec03c735dd6f0ae756479e59e3b2881498cd7a22926934e47e0192d122",
        "trials.csv": "15524e80318fd1fec864945e46aa0c71bf9c349b77dcd10a74b6fb329e2c9e40",
    },
    ("soft", 5000): {
        "aggregate.csv": "4096d73edb632278ff55248bc8921c3351855092d3a7b7098f142f6f7c21b5dc",
        "results.json": "c5b780f6c8e0daa392e3d108ec9a531a7dbcd9d0a99008cd9d1d3b747a9c30e3",
        "scenario.json": "68e94a3ba73cb2e2f27a9d02bac41fee29e6f4d22bd8c070659b03117c4a66b2",
        "trials.csv": "6f558eb50b30dc4b378050f05d9a1d4f41bdef974b2e735faa6aa90c73e2143a",
    },
}

BLOCK = _seed_block_size(PAPER_GEOMETRY)


def reference_run_scenario(spec):
    """The seed-by-seed loop: one model per seed, through its public verbs."""
    stored, probes = build_appendix_corpus(spec)
    if spec.store_order is not None:
        by_label = dict(stored)
        stored = [(label, by_label[label]) for label in spec.store_order]
    records = []
    for seed in spec.seeds:
        model = MemoryModel(spec.geometry, spec.params, seed=seed, enable_ledger=True)
        for label, pattern in stored:
            model.store(pattern, label)
        for label, pattern in probes:
            report = model.belief_update(pattern, mode=spec.mode)
            records.append(
                TrialRecord(
                    seed=seed,
                    probe=label,
                    familiarity=report.familiarity,
                    eta=report.trace.eta,
                    code=tuple(int(c) for c in report.code),
                    similarities={e.label: e.input_similarity for e in report.entries},
                    intersections={e.label: e.code_intersection for e in report.entries},
                    likelihoods={e.label: e.likelihood for e in report.entries},
                )
            )
    return records


def appendix(seeds, **changes):
    return dataclasses.replace(default_appendix_scenario(1), seeds=tuple(seeds), **changes)


def assert_matches_reference(spec):
    got = run_scenario(spec)
    want = reference_run_scenario(spec)
    assert len(got) == len(want) == len(spec.seeds) * len(spec.probes)
    assert got == want
    # Same Python types as the reference, so emitted text cannot differ.
    for a, b in zip(got, want):
        assert [type(x) for x in a.code] == [type(x) for x in b.code]
        assert type(a.familiarity) is type(b.familiarity) is float
        assert type(a.eta) is type(b.eta) is float
        assert list(a.intersections) == list(b.intersections)
        for item in a.intersections:
            assert type(a.intersections[item]) is type(b.intersections[item])
            assert type(a.likelihoods[item]) is type(b.likelihoods[item])
            assert type(a.similarities[item]) is type(b.similarities[item])


@st.composite
def small_specs(draw):
    """A feasible ScenarioSpec on a grid of at most 8x8 with S, Q, K and the
    stored count each at most 6, and a seed-block size of 1 to 4 for it."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pixels = width * height
    s = draw(st.integers(1, min(6, pixels)))
    geometry = ModelGeometry(width, height, s, draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    n = draw(st.integers(1, min(6, pixels // s)))
    free = pixels - n * s
    probes = []
    for p in range(draw(st.integers(1, 3))):
        # Up to min(S, free) of a probe's pixels come from the free zone.
        left = draw(st.integers(max(0, s - free), s))
        overlaps = []
        for _ in range(n - 1):
            overlaps.append(draw(st.integers(0, left)))
            left -= overlaps[-1]
        probes.append(ProbeSpec(f"P{p}", tuple(draw(st.permutations(overlaps + [left])))))
    labels = [f"I{i + 1}" for i in range(n)]
    block = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 3) | st.integers(0, 2**32 - 1),
                          min_size=1, max_size=2 * block + 1))
    spec = ScenarioSpec(
        name="drawn", geometry=geometry,
        params=draw(st.just(CsaParams()) | extreme_params()),
        num_stored=n, probes=tuple(probes), seeds=tuple(seeds),
        mode=draw(st.sampled_from(("soft", "hard"))),
        store_order=draw(st.none() | st.permutations(labels).map(tuple)),
    )
    return spec, block


@settings(max_examples=300, deadline=None)
@given(small_specs())
def test_matches_reference_on_drawn_specs(case):
    # The reference reads each similarity as belief_update's pixel overlap
    # with the stored pattern, so this also checks that the corpus holds
    # disjoint items and the scheduled overlaps.  The block budget is cut so
    # that a few seeds fill a block, and the drawn counts cross it.
    spec, block = case
    g = spec.geometry
    budget = block * g.num_pixels * g.num_units
    with mock.patch.object(msdc.experiments, "_BLOCK_BYTES", budget):
        assert _seed_block_size(g) == block
        assert_matches_reference(spec)


def test_appendix_output_is_pinned(tmp_path, capsys):
    assert cli.main(["experiment", "appendix", str(tmp_path)]) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in APPENDIX_SHA256
    }
    assert got == APPENDIX_SHA256


@pytest.mark.parametrize("mode, first", list(EMIT_SHA256))
def test_emitted_files_are_pinned(tmp_path, mode, first):
    spec = appendix(range(first, first + 200), mode=mode)
    emit_results(run_scenario(spec), spec, tmp_path)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in EMIT_SHA256[mode, first]
    }
    assert got == EMIT_SHA256[mode, first]


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_matches_reference_on_seeds_5000_to_5199(mode):
    assert_matches_reference(appendix(range(5000, 5200), mode=mode))


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_matches_reference_with_store_order_and_duplicate_seeds(mode):
    spec = appendix(
        [7, 7, 8, 9], mode=mode, store_order=("I4", "I1", "I6", "I2", "I5", "I3")
    )
    records = run_scenario(spec)
    assert records[:3] == records[3:6]
    assert_matches_reference(spec)


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_matches_reference_with_non_default_params(mode):
    params = CsaParams(
        eta_max=50.0, steepness=9.0, midpoint=0.3, g_floor=0.25, g_exponent=2.7
    )
    assert_matches_reference(appendix(range(300, 340), mode=mode, params=params))


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_matches_reference_with_probes_that_read_free_pixels(mode):
    # The bundled probes take all S pixels from stored items; these take 12,
    # 9, 4 and 0 of them from the pixels no item holds.
    probes = (
        ProbeSpec("none", (0,) * 6),
        ProbeSpec("one", (3, 0, 0, 0, 0, 0)),
        ProbeSpec("ramp", (4, 2, 1, 1, 0, 0)),
        ProbeSpec("even", (2,) * 6),
    )
    assert_matches_reference(appendix(range(BLOCK + 3), mode=mode, probes=probes))


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_matches_reference_on_a_wide_geometry(mode):
    # 20x20, S=30, Q=300, K=2: a few seeds per block, sums over 255 units,
    # and pairwise float sums over more than 128 CMs.
    geometry = ModelGeometry(20, 20, 30, 300, 2)
    assert _seed_block_size(geometry) == 4
    spec = ScenarioSpec(
        name="wide",
        geometry=geometry,
        params=CsaParams(),
        num_stored=6,
        probes=(
            ProbeSpec("A", (12, 9, 5, 3, 1, 0)),
            ProbeSpec("B", (0, 20, 6, 4, 0, 0)),
            ProbeSpec("C", (0, 0, 15, 0, 0, 15)),
        ),
        seeds=tuple(range(11)),
        mode=mode,
    )
    assert_matches_reference(spec)


def leaf_types(record):
    """Each field's type, and for a tuple or mapping its keys and leaf types."""
    return {
        name: [(key, type(v)) for key, v in value.items()] if isinstance(value, dict)
        else [type(v) for v in value] if isinstance(value, tuple) else type(value)
        for name, value in vars(record).items()
    }


def wide_spec(mode):
    """20x20, S=30, Q=300, K=2 over eleven seeds, a few to a block."""
    return ScenarioSpec(
        name="wide",
        geometry=ModelGeometry(20, 20, 30, 300, 2),
        params=CsaParams(),
        num_stored=6,
        probes=(
            ProbeSpec("A", (12, 9, 5, 3, 1, 0)),
            ProbeSpec("B", (0, 20, 6, 4, 0, 0)),
            ProbeSpec("C", (0, 0, 15, 0, 0, 15)),
        ),
        seeds=tuple(range(11)),
        mode=mode,
    )


@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("case", ["store_order", "wide"])
def test_the_result_reads_as_the_reference_record_list(mode, case):
    if case == "wide":
        spec = wide_spec(mode)
    else:
        spec = appendix([7, 7, 8, 9], mode=mode, store_order=("I4", "I1", "I6", "I2", "I5", "I3"))
    result = run_scenario(spec)
    want = reference_run_scenario(spec)
    got = list(result)
    assert got == want
    assert [leaf_types(r) for r in got] == [leaf_types(r) for r in want]
    assert len(result) == len(want) == len(spec.seeds) * len(spec.probes)
    for index in (0, 4, -1, -2, -len(want)):
        assert result[index] == want[index]
    for part in (slice(None), slice(2, 7), slice(-5, None), slice(None, None, -2), slice(5, 1)):
        assert result[part] == want[part]
    for index in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            result[index]
    # Sequence equality against records, in either order, and against results.
    assert result == want and want == result and result == run_scenario(spec)
    assert result != want[:-1] and result != tuple(want)


def test_the_result_reads_by_index_with_no_sequence_base():
    # Iteration, `in` and `reversed` run on __len__ and __getitem__ alone.
    spec = appendix([7, 8, 9])
    result, want = run_scenario(spec), reference_run_scenario(spec)
    assert not isinstance(result, collections.abc.Sequence)
    assert not hasattr(result, "index") and not hasattr(result, "count")
    assert list(reversed(result)) == want[::-1]
    assert want[0] in result and want[-1] in result


INVARIANT_CASES = {
    "appendix": lambda: appendix(range(BLOCK + 3)),
    "store_order": lambda: appendix([7, 7, 8, 9], store_order=("I4", "I1", "I6", "I2", "I5", "I3")),
    "wide": lambda: wide_spec("soft"),
    "hard": lambda: appendix(range(2000, 2000 + BLOCK + 3), mode="hard"),
}


@pytest.mark.parametrize("case", list(INVARIANT_CASES))
def test_every_store_is_wholly_novel_and_draws_the_loop_code(case, monkeypatch):
    # run_scenario draws all of a block's store codes from one empty plane,
    # which holds only because the corpus's stored items are disjoint: a
    # seed-by-seed loop must see G = 0 at every store and draw the same code.
    spec = INVARIANT_CASES[case]()
    stored, _ = build_appendix_corpus(spec)
    by_label = dict(stored)
    patterns = [by_label[label] for label in spec.store_order or by_label]
    want = []
    for seed in spec.seeds:
        model = MemoryModel(spec.geometry, spec.params, seed=seed)
        codes = []
        for pattern in patterns:
            code, trace = model.store(pattern)
            assert trace.familiarity == 0.0
            codes.append(code)
        want.append(codes)
    learned = []
    original = msdc.memory.apply_learning

    def recording(bits, active, rows, code, geometry):
        learned.append(code.copy())
        return original(bits, active, rows, code, geometry)

    monkeypatch.setattr(msdc.memory, "apply_learning", recording)
    run_scenario(spec)
    # One learning call per store and block, each with its block's codes.
    n = len(patterns)
    assert len(learned) == n * -(-len(spec.seeds) // _seed_block_size(spec.geometry))
    got = np.concatenate([np.stack(learned[i : i + n], axis=1) for i in range(0, len(learned), n)])
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("case", list(INVARIANT_CASES))
def test_each_seed_planes_gathered_by_pixel_are_its_loop_weights(case, monkeypatch):
    # run_scenario keeps one weight row per stored item and one shared zero
    # row, which holds only because the stored items are disjoint: gathered
    # by each pixel's row, a seed's planes must be the full weight bits that
    # a seed-by-seed loop over MemoryModel.store leaves.
    spec = INVARIANT_CASES[case]()
    stored, _ = build_appendix_corpus(spec)
    by_label = dict(stored)
    want = []
    for seed in spec.seeds:
        model = MemoryModel(spec.geometry, spec.params, seed=seed)
        for label in spec.store_order or by_label:
            model.store(by_label[label])
        want.append(model.weights.bits)
    planes = []
    original = msdc.memory.apply_learning

    def recording(bits, active, rows, code, geometry):
        original(bits, active, rows, code, geometry)
        planes.append(bits.copy())

    monkeypatch.setattr(msdc.memory, "apply_learning", recording)
    run_scenario(spec)
    # The last learning call of each block leaves that block's planes.
    n = len(stored)
    got = np.concatenate(planes[n - 1 :: n])
    assert got.shape == (len(spec.seeds), n + 1, spec.geometry.num_units)
    row_of = _item_rows(stored, spec.geometry.num_pixels)
    assert np.array_equal(got[:, row_of], np.array(want))
    assert (row_of == n).any(), "each case leaves some pixel to the zero row"


def test_a_200_seed_run_peaks_under_2_mib():
    spec = default_appendix_scenario(200)
    run_scenario(spec)
    tracemalloc.start()
    try:
        run_scenario(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_a_200_seed_emit_peaks_under_1_5_mib(tmp_path):
    # After one warm call, which forms the result's statistics, emit_results
    # holds about 6.4 KiB a seed at its peak, for 3.5 KiB of text written.
    spec = default_appendix_scenario(200)
    result = run_scenario(spec)
    emit_results(result, spec, tmp_path)
    tracemalloc.start()
    try:
        emit_results(result, spec, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def drawn_uniform_rows(spec):
    """``run_scenario(spec)``'s uniforms as the kernel reads them: per seed,
    one row of Q per step, stores in store order, then probes."""
    calls = []
    original = msdc.experiments._select_codes

    def recording(bits, active, geometry, params, mode, r, *rest):
        calls.append(r.copy())
        return original(bits, active, geometry, params, mode, r, *rest)

    with mock.patch.object(msdc.experiments, "_select_codes", recording):
        run_scenario(spec)
    q, probes = spec.geometry.num_cms, len(spec.probes)
    rows = []
    # Per block, one store call over (stores * B, Q), then one per probe.
    for at in range(0, len(calls), 1 + probes):
        stores, *probe_steps = calls[at : at + 1 + probes]
        steps = np.concatenate([stores.reshape(spec.num_stored, -1, q), np.stack(probe_steps)])
        rows.extend(steps.transpose(1, 0, 2).reshape(steps.shape[1], -1))
    return rows


def assert_own_streams(seeds):
    """Each seed's PCG64 state from ``_pcg64_states``, and its row of the
    scenario's uniforms, are those of ``_seeded_rng(seed)``, bit for bit."""
    states = _pcg64_states(seeds)
    assert len(states) == len(seeds)
    for (state, inc), seed in zip(states, seeds):
        want = _seeded_rng(seed).bit_generator.state["state"]
        assert {"state": state, "inc": inc} == want
    rows = drawn_uniform_rows(appendix(seeds))
    assert len(rows) == len(seeds)
    for row, seed in zip(rows, seeds):
        assert row.tobytes() == _seeded_rng(seed).random(row.size).tobytes()


# Seeds of any width in 32-bit words, from 1 to 10, so that one block holds
# seeds of one word and of several.  Each seed has exactly its drawn bit
# length: Hypothesis favours small integers, and a draw below 2**bits would
# seldom reach the seeds wider than 128 bits.
any_width_seeds = st.integers(0, 300).flatmap(
    lambda bits: st.integers(1 << bits >> 1, (1 << bits) - 1)
)


@settings(max_examples=150, deadline=None)
@given(st.lists(any_width_seeds, min_size=1, max_size=8))
def test_each_seed_draws_its_own_model_stream(seeds):
    assert_own_streams(seeds)


def test_edge_seeds_draw_their_own_model_streams():
    # The word-count edges of SeedSequence's entropy, 1 to 5 words, a
    # 10-word seed, and the widest seed that json reads from a scenario file
    # (4300 digits), all in one block.
    seeds = [0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**300, 10**4299, 5]
    assert len(seeds) < BLOCK
    assert_own_streams(seeds)
    assert_matches_reference(appendix(seeds))


def test_model_rng_states_are_built_once_per_call(monkeypatch):
    # One vectorised pass gives every seed's state, for all of a 200-seed
    # run's six blocks.
    calls = []
    kernel_calls = 0

    def counting(seeds):
        calls.append(tuple(seeds))
        return _pcg64_states(seeds)

    def kernel_counting(*args):
        nonlocal kernel_calls
        kernel_calls += 1
        return _select_codes(*args)

    monkeypatch.setattr(msdc.experiments, "_pcg64_states", counting)
    monkeypatch.setattr(msdc.experiments, "_select_codes", kernel_counting)
    spec = default_appendix_scenario(200)
    run_scenario(spec)
    assert calls == [spec.seeds]
    # One store call and one call per probe, in each block.
    assert kernel_calls == 6 * (1 + len(spec.probes)) and -(-200 // BLOCK) == 6


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
def test_matches_reference_at_block_boundaries(count):
    assert_matches_reference(appendix(range(1000, 1000 + count)))


def test_block_budget():
    # As many full (P, Q*K) weight planes as fit in about 1 MiB, and never
    # less than one seed; a block stores only its far smaller per-item rows.
    assert BLOCK == 37
    assert _seed_block_size(ModelGeometry(64, 64, 64, 128, 16)) == 1
    assert _seed_block_size(ModelGeometry(2, 2, 1, 1, 2)) == 2**20 // 8


KERNEL_GEOMETRIES = [
    ModelGeometry(12, 12, 12, 24, 8),
    ModelGeometry(20, 20, 30, 300, 2),
    ModelGeometry(7, 9, 50, 37, 5),
]


@pytest.mark.parametrize("geometry", KERNEL_GEOMETRIES)
@pytest.mark.parametrize("mode", ["soft", "hard", "store"])
def test_kernel_matches_single_models_on_random_weights(geometry, mode):
    # Random weight densities give varied per-CM maxima, so G's float sum
    # order and the tie-break both show; each row must match its own model.
    check_kernel_rows(geometry, mode, lambda gen, b: gen.random((b, 1, 1)))


@pytest.mark.parametrize("geometry", KERNEL_GEOMETRIES)
@pytest.mark.parametrize("mode", ["soft", "hard", "store"])
def test_kernel_matches_single_models_on_tie_heavy_weights(geometry, mode):
    # Densities at or near 0 and 1 make most units of a CM tie.
    check_kernel_rows(
        geometry, mode, lambda gen, b: gen.choice([0.0, 0.03, 0.97, 1.0], size=(b, 1, 1))
    )


def check_kernel_rows(geometry, mode, densities):
    """The kernel over B=6 weight planes against six single models."""
    gen = np.random.default_rng([geometry.num_cms, len(mode)])
    b, params = 6, CsaParams(eta_max=80.0, steepness=12.0, g_floor=0.1)
    density = densities(gen, b)
    bits = (gen.random((b, geometry.num_pixels, geometry.num_units)) < density).astype(np.uint8)
    pattern = random_pattern(geometry, gen)
    active = np.asarray(pattern.active, dtype=np.intp)
    stored = gen.integers(0, geometry.units_per_cm, size=(b, 5, geometry.num_cms))
    seeds = gen.integers(0, 2**32, size=b)
    r = np.stack([np.random.default_rng(s).random(geometry.num_cms) for s in seeds])
    models = []
    for row, seed in zip(bits, seeds):
        model = MemoryModel(geometry, params, seed=int(seed))
        model.weights.bits = row.copy()
        models.append(model)
    if mode == "store":
        codes, count, g, eta = _select_codes(bits, active, geometry, params, "soft", r, learn=True)
        results = [model.store(pattern) for model in models]
        for row, model in zip(bits, models):
            assert np.array_equal(row, model.weights.bits)
    else:
        before = bits.copy()
        codes, count, g, eta = _select_codes(bits, active, geometry, params, mode, r)
        assert np.array_equal(bits, before)
        results = [
            model.retrieve(pattern, mode, rng=np.random.default_rng(s))
            for model, s in zip(models, seeds)
        ]
        readout = (stored == codes[:, None, :]).sum(axis=2)
        want = [[int((c == np.asarray(code)).sum()) for c in items]
                for items, (code, _) in zip(stored, results)]
        assert readout.tolist() == want
    assert codes.tolist() == [code.tolist() for code, _ in results]
    assert g == [trace.familiarity for _, trace in results]
    assert eta == [trace.eta for _, trace in results]
    # The kernel returns only the counts in either mode; each trace forms u,
    # U, mu and rho from its own counts, so they must equal the charts formed
    # from the block's.
    u = np.multiply(count, W_MAX, dtype=np.int64)
    u_norm = normalize_u(count, geometry.num_active)
    mu = mu_from_u(count, eta, params, geometry.num_active)
    rho = rho_from_mu(mu)
    charts = {"count": count, "u": u, "u_norm": u_norm, "mu": mu, "rho": rho}
    for row, (_, trace) in enumerate(results):
        for name, chart in charts.items():
            assert np.array_equal(chart[row], getattr(trace, name))


@pytest.mark.parametrize("geometry", KERNEL_GEOMETRIES)
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_one_plane_broadcasts_over_many_uniform_rows(geometry, mode):
    # One model's weights against N = 7 rows of uniforms: row n is the code
    # that model draws from uniforms n alone, and the charts stay its one.
    gen = np.random.default_rng([geometry.num_units, len(mode)])
    params = CsaParams(eta_max=80.0, steepness=12.0, g_floor=0.1)
    bits = (gen.random((1, geometry.num_pixels, geometry.num_units)) < 0.3).astype(np.uint8)
    active = np.asarray(random_pattern(geometry, gen).active, dtype=np.intp)
    r = gen.random((7, geometry.num_cms))
    codes, count, g, eta = _select_codes(bits, active, geometry, params, mode, r)
    assert codes.shape == (7, geometry.num_cms) and count.shape[0] == len(g) == len(eta) == 1
    for row, uniforms in zip(codes, r):
        alone = _select_codes(bits, active, geometry, params, mode, uniforms[None])
        assert np.array_equal(row, alone[0][0])
        assert np.array_equal(count, alone[1]) and (g, eta) == (alone[2], alone[3])


# The kernel geometries, and two at the count dtype's boundary: S = 255
# counts fit a uint8, S = 256 needs a uint16.
PLANE_GEOMETRIES = KERNEL_GEOMETRIES + [
    ModelGeometry(16, 16, 255, 6, 4),
    ModelGeometry(16, 16, 256, 6, 4),
]


@pytest.mark.parametrize(
    "geometry", PLANE_GEOMETRIES, ids=lambda g: f"S{g.num_active}-Q{g.num_cms}-K{g.units_per_cm}"
)
@pytest.mark.parametrize("mode", ["soft", "hard", "store"])
def test_a_plane_and_a_one_row_block_agree(geometry, mode):
    # The model verbs pass their (P, Q*K) plane and (Q,) uniforms; the
    # scenario passes blocks.  Row 0 of a one-row block is the plane's call.
    gen = np.random.default_rng([geometry.num_active, len(mode)])
    params = CsaParams(eta_max=80.0, steepness=12.0, g_floor=0.1)
    plane = (gen.random((geometry.num_pixels, geometry.num_units)) < 0.4).astype(np.uint8)
    plane[:, 0] = 1  # unit 0 counts every active pixel: a count of S
    block = plane[None].copy()
    active = np.asarray(random_pattern(geometry, gen).active, dtype=np.intp)
    r = gen.random(geometry.num_cms)
    learn, kind = mode == "store", "soft" if mode == "store" else mode
    rows = plane[active].astype(np.int64)
    code, count, g, eta = _select_codes(plane, active, geometry, params, kind, r, learn)
    codes, counts, gs, etas = _select_codes(block, active, geometry, params, kind, r[None], learn)
    assert code.shape == (geometry.num_cms,) and np.array_equal(code, codes[0])
    s = geometry.num_active
    assert np.array_equal(count, counts[0])
    assert np.array_equal(normalize_u(count, s), normalize_u(counts, s)[0])
    assert type(g) is type(eta) is float and [g] == gs and [eta] == etas
    assert np.array_equal(plane, block[0])
    assert np.array_equal(count.reshape(-1), rows.sum(axis=0))
    assert count.flat[0] == geometry.num_active
    narrow = np.uint8 if geometry.num_active < 256 else np.uint16
    assert _count_dtype(geometry.num_active) == narrow
    assert count.dtype == counts.dtype == narrow
