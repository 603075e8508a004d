"""The seed-blocked scenario run: pinned output and a per-seed reference."""

import dataclasses
import hashlib

import numpy as np
import pytest

from msdc import CsaParams, MemoryModel, ModelGeometry, WeightMatrix, cli, random_pattern
from msdc.core import _select_batch
from msdc.experiments import (
    APPENDIX_GEOMETRY,
    ProbeSpec,
    ScenarioSpec,
    TrialRecord,
    _seed_block_size,
    build_appendix_corpus,
    default_appendix_scenario,
    emit_results,
    run_scenario,
)

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

BLOCK = _seed_block_size(APPENDIX_GEOMETRY)


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


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
def test_matches_reference_at_block_boundaries(count):
    assert_matches_reference(appendix(range(1000, 1000 + count)))


def test_block_budget():
    # About 1 MiB of stacked weight bits, and never less than one seed.
    assert BLOCK == 37
    assert _seed_block_size(ModelGeometry(64, 64, 64, 128, 16)) == 1
    assert _seed_block_size(ModelGeometry(2, 2, 1, 1, 2)) == 2**20 // 8


@pytest.mark.parametrize("geometry", [
    ModelGeometry(12, 12, 12, 24, 8),
    ModelGeometry(20, 20, 30, 300, 2),
    ModelGeometry(7, 9, 50, 37, 5),
])
@pytest.mark.parametrize("mode", ["soft", "hard", "store"])
def test_kernel_matches_single_models_on_random_weights(geometry, mode):
    # Random weight densities give varied per-CM maxima, so G's float sum
    # order and the tie-break both show; each row must match its own model.
    gen = np.random.default_rng([geometry.num_cms, len(mode)])
    b, params = 6, CsaParams(eta_max=80.0, steepness=12.0, g_floor=0.1)
    density = gen.random((b, 1, 1))
    bits = (gen.random((b, geometry.num_pixels, geometry.num_units)) < density).astype(np.uint8)
    pattern = random_pattern(geometry, gen)
    active = np.asarray(pattern.active, dtype=np.intp)
    stored = gen.integers(0, geometry.units_per_cm, size=(b, 5, geometry.num_cms))
    seeds = gen.integers(0, 2**32, size=b)
    r = np.stack([np.random.default_rng(s).random(geometry.num_cms) for s in seeds])
    models = []
    for row, seed in zip(bits, seeds):
        model = MemoryModel(geometry, params, seed=int(seed))
        model.weights = WeightMatrix(geometry.num_pixels, geometry.num_units, bits=row.copy())
        models.append(model)
    if mode == "store":
        codes, g, eta, readout = _select_batch(bits, active, geometry, params, "soft", r)
        assert readout is None
        results = [model.store(pattern) for model in models]
        for row, model in zip(bits, models):
            assert np.array_equal(row, model.weights.bits)
    else:
        before = bits.copy()
        codes, g, eta, readout = _select_batch(
            bits, active, geometry, params, mode, r, stored
        )
        assert np.array_equal(bits, before)
        results = [
            model.retrieve(pattern, mode, rng=np.random.default_rng(s))
            for model, s in zip(models, seeds)
        ]
        want = [[int((c == np.asarray(code)).sum()) for c in items]
                for items, (code, _) in zip(stored, results)]
        assert readout.tolist() == want
    assert codes.tolist() == [code.tolist() for code, _ in results]
    assert g == [trace.familiarity for _, trace in results]
    assert eta == [trace.eta for _, trace in results]
