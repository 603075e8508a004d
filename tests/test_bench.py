"""Scaling benchmark: exact op-count equality and report schema."""

import json

import pytest

from msdc import GeometryError, ModelGeometry
from msdc.bench import (
    BENCH_SCHEMA,
    report_to_dict,
    run_scaling_bench,
    save_report,
)


@pytest.fixture(scope="module")
def small_report():
    return run_scaling_bench(
        checkpoints=(1, 10, 50), trials_per_checkpoint=10, seed=0
    )


def test_op_counts_exactly_equal_across_checkpoints(small_report):
    first = small_report.checkpoints[0].csa_ops
    for cp in small_report.checkpoints:
        assert cp.csa_ops == first
    assert small_report.csa_ops_equal
    # The counts are the geometry's arithmetic: one store touches
    # S*Q*K weight reads, Q*K sigmoids, Q draws, S*Q writes.
    assert first["weight_reads"] == 12 * 24 * 8
    assert first["sigmoid_evals"] == 24 * 8
    assert first["rng_draws"] == 24
    assert first["weight_writes"] == 12 * 24


def test_report_schema(small_report, tmp_path):
    data = report_to_dict(small_report)
    assert data["schema"] == BENCH_SCHEMA
    assert data["csa_ops_equal"] is True
    assert [cp["stored_items"] for cp in data["checkpoints"]] == [1, 10, 50]
    for cp in data["checkpoints"]:
        for section in ("store_ns", "retrieve_ns"):
            assert set(cp[section]) == {"median_ns", "p95_ns", "trials"}
            assert cp[section]["median_ns"] > 0
        assert cp["csa_ops"]["total"] > 0
    assert data["config"]["geometry"]["num_cms"] == 24
    out = tmp_path / "bench.json"
    save_report(small_report, out)
    assert json.loads(out.read_text()) == data


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
    assert report.trials_per_checkpoint == 7
    for cp in report.checkpoints:
        assert cp.store_latency.trials == cp.retrieve_latency.trials == 7


def test_tiny_input_space_is_rejected():
    # 4 pixels choose 3 = 4 distinct patterns: nowhere near enough.
    with pytest.raises(GeometryError, match="too small"):
        run_scaling_bench(
            geometry=ModelGeometry(2, 2, 3, 4, 2),
            checkpoints=(1, 5),
            trials_per_checkpoint=5,
        )
