"""Scaling benchmark: exact op-count equality and report schema."""

import json

import numpy as np
import pytest

import msdc.bench
from msdc import GeometryError, MemoryModel, ModelGeometry
from msdc.bench import (
    BENCH_SCHEMA,
    _distinct_patterns,
    run_scaling_bench,
    save_report,
)


@pytest.fixture(scope="module")
def small_report():
    return run_scaling_bench(
        checkpoints=(1, 10, 50), trials_per_checkpoint=10, seed=0
    )


def test_op_counts_exactly_equal_across_checkpoints(small_report):
    first = small_report["checkpoints"][0]["csa_ops"]
    for cp in small_report["checkpoints"]:
        assert cp["csa_ops"] == first
    assert small_report["csa_ops_equal"]
    # The counts are the geometry's arithmetic: one store touches
    # S*Q*K weight reads, Q*K sigmoids, Q draws, S*Q writes.
    assert first["weight_reads"] == 12 * 24 * 8
    assert first["sigmoid_evals"] == 24 * 8
    assert first["rng_draws"] == 24
    assert first["weight_writes"] == 12 * 24


def test_report_schema(small_report, tmp_path):
    data = small_report
    assert data["schema"] == BENCH_SCHEMA
    assert data["csa_ops_equal"] is True
    assert [cp["stored_items"] for cp in data["checkpoints"]] == [1, 10, 50]
    for cp in data["checkpoints"]:
        for section in ("store_ns", "retrieve_ns"):
            assert set(cp[section]) == {"median_ns", "p95_ns", "trials"}
            assert cp[section]["median_ns"] > 0
        assert cp["csa_ops"]["total"] > 0
    assert data["config"]["geometry"]["num_cms"] == 24
    assert json.loads(json.dumps(data)) == data
    out = tmp_path / "bench.json"
    save_report(small_report, out)
    assert out.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_default_report_keeps_its_config_keys(small_report):
    assert list(small_report["config"]) == [
        "geometry", "params", "w_max", "seed", "trials_per_checkpoint"
    ]


@pytest.mark.parametrize("enable_ledger", [False, True])
def test_bench_model_records_a_ledger_only_when_asked(monkeypatch, enable_ledger):
    # The grown model keeps one entry per store with the ledger on, and
    # none with it off; only a ledger-on report names the ledger.
    models = []

    class Recorded(MemoryModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    monkeypatch.setattr(msdc.bench, "MemoryModel", Recorded)
    report = run_scaling_bench(
        checkpoints=(1, 4), trials_per_checkpoint=2, enable_ledger=enable_ledger
    )
    assert len(models) == 1
    assert (models[0].ledger is not None) is enable_ledger
    if enable_ledger:
        assert len(models[0].ledger) == 4
    assert report["config"].get("ledger", False) is enable_ledger
    assert report["csa_ops_equal"]


def test_checkpoints_must_ascend():
    with pytest.raises(GeometryError):
        run_scaling_bench(checkpoints=(10, 5), trials_per_checkpoint=2)
    with pytest.raises(GeometryError):
        run_scaling_bench(checkpoints=(0,), trials_per_checkpoint=2)
    # A float checkpoint raises rather than running checkpoint 1.
    with pytest.raises(GeometryError, match="checkpoint must be an integer, got 1.9"):
        run_scaling_bench(checkpoints=(1.9, 5), trials_per_checkpoint=2)


def test_each_checkpoint_times_exactly_the_trials_asked_for():
    # Each summary's trial count is its number of timing samples.
    report = run_scaling_bench(checkpoints=(1, 5), trials_per_checkpoint=7)
    assert report["config"]["trials_per_checkpoint"] == 7
    for cp in report["checkpoints"]:
        assert cp["store_ns"]["trials"] == cp["retrieve_ns"]["trials"] == 7


def test_each_checkpoint_clones_once_to_snapshot_and_once_per_store(monkeypatch):
    # One snapshot per checkpoint, one warm-up store clone, whose op-count
    # delta is the checkpoint's tally, and one clone per timed store.
    clones = 0
    original = MemoryModel.clone

    def counting_clone(self):
        nonlocal clones
        clones += 1
        return original(self)

    monkeypatch.setattr(MemoryModel, "clone", counting_clone)
    run_scaling_bench(checkpoints=(1, 5, 9), trials_per_checkpoint=4)
    assert clones == 3 * (1 + 1 + 4)


def test_tiny_input_space_is_rejected():
    # 4 pixels choose 3 = 4 distinct patterns: nowhere near enough.
    with pytest.raises(GeometryError, match="too small"):
        run_scaling_bench(
            geometry=ModelGeometry(2, 2, 3, 4, 2),
            checkpoints=(1, 5),
            trials_per_checkpoint=5,
        )


def test_pattern_stream_raises_once_no_fresh_pattern_is_drawn():
    # 3 pixels choose 2 = 3 patterns: each once, then 1000 draws of seen ones.
    patterns = _distinct_patterns(ModelGeometry(3, 1, 2, 1, 1), np.random.default_rng(0))
    assert sorted(next(patterns).active for _ in range(3)) == [(0, 1), (0, 2), (1, 2)]
    with pytest.raises(GeometryError, match="could not draw a fresh distinct pattern"):
        next(patterns)
