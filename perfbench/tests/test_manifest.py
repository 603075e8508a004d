"""The per-layer metrics the traced run reports are the ones BENCHMARK.json names."""

import json
from pathlib import Path

import run
from workloads import LAYER_SEGMENTS, WORKLOADS

MANIFEST = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_per_layer_names_and_units_match_manifest():
    listed = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert listed == {name: unit for name, (_, _, unit) in run.PER_LAYER.items()}


def test_workloads_match_manifest():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.NAMES) == list(WORKLOADS)


def test_every_per_layer_metric_has_an_owner_the_traced_run_times():
    assert {owner for owner, _, _ in run.PER_LAYER.values()} <= set(LAYER_SEGMENTS)
