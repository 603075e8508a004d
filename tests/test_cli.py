"""End-to-end CLI tests: subcommands, exit codes, atomicity."""

import argparse
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import msdc
from msdc import CsaParams, MemoryModel, ModelGeometry, load_model, random_pattern
from msdc.cli import build_parser, main
from msdc.core import PAPER_GEOMETRY
from msdc.snapshot import encode_model

# sha256 of the file `msdc init` writes with no flags, and of the --trace
# payload of test_store_trace_payload_is_pinned, as the program wrote them
# when the weight quantum was still a flag.
INIT_SHA256 = "4078c08bbc2d6cb342b7c75c92979f443a15b4db9a4e34593153b742a628d38e"
STORE_TRACE_SHA256 = "637f245e36ab82346ae334bf0cbca5b278d0e87ced1c1bace8c4d38f560946e3"


@pytest.fixture
def grid_pattern(tmp_path):
    path = tmp_path / "a.txt"
    rng = np.random.default_rng(0)
    on = set(int(i) for i in rng.choice(144, size=12, replace=False))
    path.write_text(
        "\n".join(
            "".join("1" if r * 12 + c in on else "0" for c in range(12))
            for r in range(12)
        )
    )
    return path


@pytest.fixture
def disjoint_pattern(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"active_pixels": list(range(12))}))
    return path


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.msdc"
    assert main(["init", str(path)]) == 0
    return path


def test_init_creates_empty_model(model_path, capsys):
    model = load_model(model_path)
    assert model.weights.set_count() == 0
    assert model.geometry.num_cms == 24
    assert model.ledger == ()


def test_init_file_is_pinned(model_path):
    assert hashlib.sha256(model_path.read_bytes()).hexdigest() == INIT_SHA256


def test_store_trace_payload_is_pinned(model_path, tmp_path, capsys):
    for name, pixels, seed in (("p", range(12), "4"), ("q", range(6, 18), "5")):
        pattern = tmp_path / f"{name}.json"
        pattern.write_text(json.dumps(list(pixels)))
        trace = tmp_path / f"{name}.trace.json"
        assert main(["store", str(model_path), str(pattern), "--seed", seed,
                     "--trace", str(trace)]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == STORE_TRACE_SHA256
    assert json.loads(trace.read_text())["model"]["w_max"] == 127


def test_init_rejects_impossible_geometry(tmp_path, capsys):
    rc = main(["init", str(tmp_path / "m.msdc"), "--width", "2", "--height", "2",
               "--active", "5"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_geometry_too_large_for_numpy_is_data_error(tmp_path, capsys):
    # 2**32 pixels by 2**48 - 2**16 units: numpy refuses before allocating.
    path = tmp_path / "m.msdc"
    assert main(["init", str(path), "--width", "65536", "--height", "65536",
                 "--cms", "4294967295", "--units", "65536"]) == 3
    err = capsys.readouterr().err
    assert "cannot allocate 4294967296 x 281474976645120 weight bits" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_largest_eta_max_stores_twice_and_the_next_float_up_is_data_error(tmp_path, capsys):
    # With a flat sigmoid every unit of a 65536-unit CM weighs about
    # 1 + eta_max / 2 at G=1, so their sum nears the float64 maximum.
    largest = sys.float_info.max / 65536
    pattern = tmp_path / "p.json"
    pattern.write_text("[0]")
    for eta_max, rc in ((largest, 0), (math.nextafter(largest, math.inf), 3)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "geometry": {"input_width": 1, "input_height": 1, "num_active": 1,
                         "num_cms": 4, "units_per_cm": 65536},
            "params": {"eta_max": eta_max, "steepness": 1e-9}}))
        path = tmp_path / f"{rc}.msdc"
        assert main(["init", str(path), "--config", str(cfg)]) == rc
        if rc:
            assert "eta_max must keep the win weights" in capsys.readouterr().err
            assert not path.exists()
            continue
        for g in (0.0, 1.0):
            assert main(["store", str(path), str(pattern)]) == 0
            assert f"G={g}" in capsys.readouterr().out
        assert load_model(path).params.eta_max == largest


def test_init_honors_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "geometry": {"input_width": 8, "input_height": 8, "num_active": 5,
                     "num_cms": 7, "units_per_cm": 7},
        "params": {"eta_max": 100.0},
        "w_max": 127,
        "seed": 42,
    }))
    path = tmp_path / "m.msdc"
    assert main(["init", str(path), "--config", str(cfg), "--units", "6"]) == 0
    model = load_model(path)
    assert model.geometry.units_per_cm == 6  # flag beats config file
    assert model.geometry.num_cms == 7
    assert model.params.eta_max == 100.0
    assert model.w_max == 127


def test_store_prints_novel_then_familiar_g(model_path, grid_pattern, capsys):
    assert main(["store", str(model_path), str(grid_pattern)]) == 0
    assert "G=0.0" in capsys.readouterr().out
    assert main(["store", str(model_path), str(grid_pattern)]) == 0
    assert "G=1.0" in capsys.readouterr().out


def test_store_malformed_pattern_leaves_snapshot_untouched(model_path, tmp_path, capsys):
    before = model_path.read_bytes()
    bad = tmp_path / "bad.txt"
    bad.write_text("10\n1")
    assert main(["store", str(model_path), str(bad)]) == 3
    wrong_count = tmp_path / "short.json"
    wrong_count.write_text("[1, 2, 3]")
    assert main(["store", str(model_path), str(wrong_count)]) == 3
    assert model_path.read_bytes() == before


def test_store_overlong_label_is_data_error(model_path, grid_pattern, capsys):
    before = model_path.read_bytes()
    argv = ["store", str(model_path), str(grid_pattern), "--label", "a" * 65536]
    assert main(argv) == 3
    assert "65536 UTF-8 bytes" in capsys.readouterr().err
    assert model_path.read_bytes() == before


def test_init_and_store_keep_the_model_file_mode(model_path, grid_pattern):
    # Each write replaces the file with a new one, which takes the old
    # file's permission bits rather than those the umask would give it.
    model_path.chmod(0o644)
    assert main(["init", str(model_path)]) == 0
    assert model_path.stat().st_mode & 0o777 == 0o644
    assert main(["store", str(model_path), str(grid_pattern)]) == 0
    assert model_path.stat().st_mode & 0o777 == 0o644


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_init_gives_a_new_file_the_mode_the_umask_allows(tmp_path, umask, mode):
    path = tmp_path / "n.msdc"
    old = os.umask(umask)
    try:
        assert main(["init", str(path)]) == 0
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == mode


def test_store_with_an_unwritable_trace_path_leaves_the_model_unchanged(
    model_path, grid_pattern, tmp_path, capsys
):
    # The command fails, so the model must not hold the item: a retry
    # would otherwise store it twice.
    before = model_path.read_bytes()
    argv = ["store", str(model_path), str(grid_pattern),
            "--trace", str(tmp_path / "missing" / "t.json")]
    assert main(argv) == 4
    assert "no such file" in capsys.readouterr().err
    assert model_path.read_bytes() == before
    assert load_model(model_path).ledger == ()


def test_store_missing_pattern_file_is_io_error(model_path, tmp_path, capsys):
    assert main(["store", str(model_path), str(tmp_path / "nope.txt")]) == 4


def test_query_stored_pattern_hard_mode(model_path, grid_pattern, capsys):
    main(["store", str(model_path), str(grid_pattern), "--label", "A"])
    capsys.readouterr()
    assert main(["query", str(model_path), str(grid_pattern), "--mode", "hard"]) == 0
    out = capsys.readouterr().out
    assert "A: similarity=1.0000 intersection=24/24 likelihood=1.0000" in out
    assert out.startswith("code:")


def test_query_novel_disjoint_pattern_sits_near_chance(
    model_path, grid_pattern, disjoint_pattern, capsys
):
    # One stored item, fully disjoint probe: likelihood should be near
    # chance 1/K = 0.125 (seeded for determinism).
    pattern = json.loads(disjoint_pattern.read_text())["active_pixels"]
    stored = json.loads("[" + ",".join(str(p + 20) for p in pattern) + "]")
    stored_path = disjoint_pattern.parent / "stored.json"
    stored_path.write_text(json.dumps(stored))
    main(["store", str(model_path), str(stored_path), "--label", "S"])
    capsys.readouterr()
    assert main(["query", str(model_path), str(disjoint_pattern), "--seed", "5"]) == 0
    out = capsys.readouterr().out
    likelihood = float(out.split("likelihood=")[1].strip())
    assert likelihood <= 0.375


def test_query_without_ledger_is_data_error(tmp_path, grid_pattern, capsys):
    path = tmp_path / "nl.msdc"
    main(["init", str(path), "--no-ledger"])
    main(["store", str(path), str(grid_pattern)])
    assert main(["query", str(path), str(grid_pattern)]) == 3


def test_query_invalid_mode_is_usage_error(model_path, grid_pattern, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query", str(model_path), str(grid_pattern), "--mode", "warm"])
    assert exc.value.code == 2


def test_missing_subcommand_arguments_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment"])
    assert exc.value.code == 2


def test_store_trace_dump(model_path, grid_pattern, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(["store", str(model_path), str(grid_pattern),
                 "--trace", str(trace_path)]) == 0
    payload = json.loads(trace_path.read_text())
    assert payload["command"] == "store"
    assert len(payload["trace"]["rho"]) == 24
    assert payload["trace"]["familiarity"] == 0.0
    # The resolved model config rides along for provenance.
    assert payload["model"]["geometry"]["num_cms"] == 24
    assert payload["model"]["w_max"] == 127


def test_query_seeded_is_reproducible(model_path, grid_pattern, capsys):
    main(["store", str(model_path), str(grid_pattern)])
    capsys.readouterr()
    main(["query", str(model_path), str(grid_pattern), "--seed", "9"])
    first = capsys.readouterr().out
    main(["query", str(model_path), str(grid_pattern), "--seed", "9"])
    assert capsys.readouterr().out == first


def test_experiment_bundled_spec_and_determinism(tmp_path, capsys):
    spec = {
        "name": "tiny",
        "geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                     "num_cms": 24, "units_per_cm": 8},
        "num_stored": 6,
        "probes": [{"label": "I7", "overlaps": [5, 4, 2, 1, 0, 0]}],
        "seeds": {"start": 0, "count": 5},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["experiment", str(spec_path), str(out_a)]) == 0
    assert main(["experiment", str(spec_path), str(out_b)]) == 0
    for name in ("trials.csv", "aggregate.csv", "results.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_experiment_seed_offsets_deterministically(tmp_path, capsys):
    spec = {
        "name": "tiny",
        "geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                     "num_cms": 24, "units_per_cm": 8},
        "num_stored": 6,
        "probes": [{"label": "I7", "overlaps": [5, 4, 2, 1, 0, 0]}],
        "seeds": [0, 1, 2],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outs = [tmp_path / n for n in ("s0a", "s0b", "s7")]
    assert main(["experiment", str(spec_path), str(outs[0]), "--seed", "0"]) == 0
    assert main(["experiment", str(spec_path), str(outs[1]), "--seed", "0"]) == 0
    assert main(["experiment", str(spec_path), str(outs[2]), "--seed", "7"]) == 0
    same = (outs[0] / "trials.csv").read_bytes()
    assert (outs[1] / "trials.csv").read_bytes() == same
    assert (outs[2] / "trials.csv").read_bytes() != same


def test_experiment_negative_seed_offset_keeps_seeds_non_negative(tmp_path, capsys):
    spec = {
        "name": "tiny",
        "geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                     "num_cms": 24, "units_per_cm": 8},
        "num_stored": 6,
        "probes": [{"label": "I7", "overlaps": [5, 4, 2, 1, 0, 0]}],
        "seeds": [5, 6, 7],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["experiment", str(spec_path), str(out), "--seed", "-5"]) == 0
    assert json.loads((out / "scenario.json").read_text())["seeds"] == [0, 1, 2]
    assert main(["experiment", str(spec_path), str(tmp_path / "o2"), "--seed", "-6"]) == 3
    assert "non-negative" in capsys.readouterr().err


def test_experiment_missing_spec_file_is_io_error(tmp_path, capsys):
    assert main(["experiment", str(tmp_path / "nope.json"), str(tmp_path / "o")]) == 4


def test_experiment_infeasible_spec_is_data_error(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({
        "name": "bad",
        "geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                     "num_cms": 24, "units_per_cm": 8},
        "num_stored": 6,
        "probes": [{"label": "P", "overlaps": [5, 4, 3, 2, 1, 0]}],
        "seeds": [0],
    }))
    assert main(["experiment", str(spec_path), str(tmp_path / "o")]) == 3


def test_bench_writes_schema_valid_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", str(out), "--checkpoints", "1,5,20", "--trials", "5"]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "msdc-scaling-bench-v1"
    assert data["csa_ops_equal"] is True
    assert [cp["stored_items"] for cp in data["checkpoints"]] == [1, 5, 20]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_bench_with_fewer_than_one_trial_is_data_error(tmp_path, capsys, trials):
    out = tmp_path / "bench.json"
    assert main(["bench", str(out), "--checkpoints", "1,5", f"--trials={trials}"]) == 3
    assert f"trials_per_checkpoint must be at least 1, got {trials}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_scipy_unloaded():
    # No module imports scipy; this keeps `msdc.cli` numpy-only.
    src = str(Path(msdc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, msdc.cli; sys.exit('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path}, timeout=120
    )
    assert result.returncode == 0


@pytest.mark.parametrize(
    "config, message",
    [
        ({"params": {"eta_maxx": 3}}, "unknown key"),
        ({"params": {"eta_max": "big"}}, "must be a number"),
        ({"params": {"eta_max": True}}, "must be a number"),
        ({"geometry": {"num_cms": 24.5}}, "must be an integer"),
        ({"geometry": [12]}, "must be a JSON object"),
        ({"geometry": {"depth": 3}}, "unknown key"),
        ({"wmax": 127}, "unknown key"),
        ({"w_max": 127.5}, "must be an integer"),
        ({"seed": "7"}, "must be an integer"),
        ({"seed": -1}, "non-negative"),
        ({"ledger": "yes"}, "true or false"),
        ([1, 2], "must be a JSON object"),
        ({"geometry": {"units_per_cm": 65537}}, "units_per_cm must be at most 65536"),
        ({"geometry": {"units_per_cm": 2**32}}, "units_per_cm must be an integer in"),
        ({"geometry": {"input_width": 2**32}}, "input_width must be an integer in"),
    ],
)
@pytest.mark.parametrize("command", ["init", "bench"])
def test_malformed_config_is_data_error(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, str(out), "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["init", "store", "query", "bench"])
def test_negative_seed_flag_is_data_error(model_path, grid_pattern, tmp_path, capsys, command):
    out = tmp_path / "out"
    operands = [model_path, grid_pattern] if command in ("store", "query") else [out]
    before = model_path.read_bytes()
    assert main([command, *map(str, operands), "--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert "--seed must be non-negative, got -1" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert model_path.read_bytes() == before


def test_json_pattern_with_non_integer_index_is_data_error(model_path, tmp_path, capsys):
    before = model_path.read_bytes()
    for bad in ([1.5] + list(range(11)), [True] + list(range(1, 12)), ["3"] + list(range(11))):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["store", str(model_path), str(path)]) == 3
        assert "must be an integer" in capsys.readouterr().err
    assert model_path.read_bytes() == before


@pytest.mark.parametrize(
    "change, message",
    [
        ({"geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                       "num_cms": 24, "units_per_cm": 8, "depth": 1}}, "unknown key"),
        ({"seeds": None}, "must be a list or an object"),
        ({"seeds": [0.5, 1.7]}, "seed must be an integer"),
        ({"seeds": [-1, 0]}, "non-negative"),
        ({"seeds": {"start": 0}}, "lacks required key"),
        ({"probes": [{"label": "I7", "overlaps": [5.9, 4, 2, 1, 0, 0]}]}, "must be an integer"),
        ({"probes": [{"label": "I7"}]}, "lacks required key"),
        ({"params": {"eta_max": "big"}}, "must be a number"),
        ({"num_stored": "6"}, "must be an integer"),
        ({"store_order": [1, 2, 3, 4, 5, 6]}, "list of labels"),
        ({"shuffle": True}, "unknown key"),
    ],
)
def test_malformed_scenario_is_data_error(tmp_path, capsys, change, message):
    spec = {
        "geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                     "num_cms": 24, "units_per_cm": 8},
        "num_stored": 6,
        "probes": [{"label": "I7", "overlaps": [5, 4, 2, 1, 0, 0]}],
        "seeds": [0, 1],
        **change,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", str(spec_path), str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_scenario_without_seeds_is_data_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                     "num_cms": 24, "units_per_cm": 8},
        "num_stored": 6,
        "probes": [],
    }))
    assert main(["experiment", str(spec_path), str(tmp_path / "o")]) == 3
    assert "lacks required key(s): seeds" in capsys.readouterr().err


def test_query_on_snapshot_with_off_geometry_ledger_entry_is_data_error(
    model_path, grid_pattern, capsys
):
    # A CRC-valid snapshot whose ledger holds a 2-winner code at Q=24: the
    # empty ledger's count, just before the CRC, becomes 1, and the raw entry
    # follows it.
    blob = bytearray(model_path.read_bytes()[:-4])
    struct.pack_into("<I", blob, len(blob) - 4, 1)
    blob += struct.pack("<H3sI12IIHH", 3, b"bad", 12, *range(12), 2, 0, 1)
    model_path.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))
    assert main(["query", str(model_path), str(grid_pattern)]) == 3
    err = capsys.readouterr().err
    assert "ledger entry 0 has 2 winners, expected 24" in err
    assert "Traceback" not in err


def experiment_scenario():
    """A small valid scenario file's object."""
    return {
        "geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                     "num_cms": 24, "units_per_cm": 8},
        "num_stored": 6,
        "probes": [{"label": "I7", "overlaps": [5, 4, 2, 1, 0, 0]}],
        "seeds": [0, 1],
    }


@pytest.mark.parametrize("w_max", [0, 1, 127.5, 2**32])
@pytest.mark.parametrize("command", ["init", "bench", "experiment"])
def test_w_max_other_than_127_is_data_error(tmp_path, capsys, command, w_max):
    path = tmp_path / "in.json"
    if command == "experiment":
        data = {**experiment_scenario(), "w_max": w_max}
        argv = ["experiment", str(path)]
    else:
        data = {"w_max": w_max}
        argv = [command, "--config", str(path)]
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main([*argv, str(out)]) == 3
    err = capsys.readouterr().err
    assert "w_max must be" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("init", "--w-max"), ("bench", "--w-max"),
    ("store", "--config"), ("query", "--config"), ("experiment", "--config"),
    ("init", "--trace"), ("experiment", "--trace"), ("bench", "--trace"),
])
def test_flag_the_command_does_not_read_is_usage_error(
    model_path, grid_pattern, tmp_path, capsys, command, flag
):
    out = tmp_path / "out"
    operands = {
        "store": [model_path, grid_pattern],
        "query": [model_path, grid_pattern],
        "experiment": ["appendix", out],
    }.get(command, [out])
    # The flag's value names a file that exists (a valid config) for
    # --config and one that a trace dump would create for --trace.
    value = tmp_path / "flag-value.json"
    if flag == "--config":
        value.write_text("{}")
    before = model_path.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main([command, *map(str, operands), flag, "127" if flag == "--w-max" else str(value)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()
    assert value.exists() == (flag == "--config")
    assert model_path.read_bytes() == before


def test_each_command_takes_only_the_flags_it_reads():
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {f for a in p._actions for f in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    configured = {"--seed", "--config", "--width", "--height", "--active", "--cms", "--units"}
    assert flags == {
        "init": configured | {"--eta-max", "--steepness", "--midpoint", "--g-floor",
                              "--g-exponent", "--ledger", "--no-ledger"},
        "store": {"--seed", "--trace", "--label"},
        "query": {"--seed", "--trace", "--mode"},
        "experiment": {"--seed", "--format"},
        "bench": configured | {"--checkpoints", "--trials"},
    }


def test_scenario_with_duplicate_probe_labels_is_data_error(tmp_path, capsys):
    spec = experiment_scenario()
    spec["probes"] = [spec["probes"][0], {"label": "I7", "overlaps": [0] * 6}]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", str(spec_path), str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "two probes are labelled 'I7'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_65536_units_per_cm_stores_into_a_ledger(tmp_path, capsys):
    # Every winner of a 65536-unit CM fits the snapshot's u16 ledger field;
    # this seed draws one in the upper half of it, which must round-trip.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": {
        "input_width": 1, "input_height": 1, "num_active": 1, "num_cms": 4,
        "units_per_cm": 65536}}))
    path = tmp_path / "m.msdc"
    assert main(["init", str(path), "--config", str(cfg)]) == 0
    pattern = tmp_path / "p.json"
    pattern.write_text("[0]")
    assert main(["store", str(path), str(pattern), "--seed", "3"]) == 0
    (entry,) = load_model(path).ledger
    assert max(entry.code) > 65535 // 2


@pytest.mark.parametrize("command", ["store", "init", "experiment"])
def test_non_utf8_input_file_is_data_error(model_path, tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[1, 2]")
    out = tmp_path / "out"
    before = model_path.read_bytes()
    argv = {
        "store": ["store", str(model_path), str(bad)],
        "init": ["init", str(out), "--config", str(bad)],
        "experiment": ["experiment", str(bad), str(out)],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "is not UTF-8 text" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert model_path.read_bytes() == before


# Never an integer, so no geometry field drawn from these is accepted.
_NOT_INT = st.none() | st.booleans() | st.floats() | st.text(max_size=6)
# Object keys of at most 6 characters never name a geometry or params field.
_JSON = st.recursive(
    _NOT_INT | st.integers(),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)
# An accepted config's integer geometry fields stay at most 24, so its model
# holds at most 576 x 576 weight bits.
_CONFIGS = st.fixed_dictionaries({}, optional={
    "geometry": _JSON | st.fixed_dictionaries({}, optional={
        f.name: st.integers(-1, 24) | _NOT_INT for f in fields(ModelGeometry)}),
    "params": _JSON | st.fixed_dictionaries({}, optional={
        f.name: st.floats() | st.integers() | _NOT_INT for f in fields(CsaParams)}),
    "w_max": st.just(127) | _JSON,
    "seed": _JSON,
    "ledger": _JSON,
}) | _JSON
_PATTERN_BYTES = st.one_of(
    st.binary(max_size=64),
    st.text("01 2\n\r\t", max_size=200).map(str.encode),
    st.lists(st.integers(-2, 150), max_size=14).map(lambda v: json.dumps(v).encode()),
    _JSON.map(lambda v: json.dumps(v).encode()),
    st.sampled_from([b"[" * 5000, b"[" + b"1" * 5000 + b"]", b"\xff\xfe[1, 2]"]),
)
_LABELS = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["a" * 65535, "a" * 65536, "\u00e9" * 32768, "\udcff"])
_SNAPSHOT_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
)


def _label_fits(label: str) -> bool:
    try:
        return len(label.encode("utf-8")) <= 65535
    except UnicodeEncodeError:
        return False


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(["store", "query"]), _PATTERN_BYTES),
    st.tuples(st.just("init"), _CONFIGS),
    st.tuples(st.just("label"), _LABELS),
    st.tuples(st.just("snapshot"), _SNAPSHOT_EDITS),
))
def test_cli_maps_malformed_input_to_a_documented_exit_code(case):
    # Every call returns 0, or 3 for bad data, and raises nothing; a failed
    # command leaves the model file as it was.
    kind, value = case
    model = MemoryModel(PAPER_GEOMETRY, enable_ledger=True)
    gen = np.random.default_rng(0)
    for i in range(3):
        model.store(random_pattern(PAPER_GEOMETRY, gen), f"item{i}")
    blob = encode_model(model)
    with tempfile.TemporaryDirectory() as tmp:
        path, pattern = Path(tmp) / "m.msdc", Path(tmp) / "p.json"
        path.write_bytes(blob)
        pattern.write_text(json.dumps(list(range(12))))
        if kind in ("store", "query"):
            pattern.write_bytes(value)
            rc = main([kind, str(path), str(pattern)])
            assert rc in (0, 3)
        elif kind == "label":
            rc = main(["store", str(path), str(pattern), f"--label={value}"])
            assert rc == (0 if _label_fits(value) else 3)
            if rc == 0:
                assert load_model(path).ledger[-1].label == value
        elif kind == "snapshot":
            if value[0] == "flip":
                edited = bytearray(blob)
                edited[value[1] % len(blob)] ^= value[2]
            elif value[0] == "truncate":
                edited = blob[:value[1] % len(blob)]
            else:
                edited = blob + value[1]
            path.write_bytes(bytes(edited))
            rc = main(["query", str(path), str(pattern)])
            assert rc == 3
        else:
            config, out = Path(tmp) / "cfg.json", Path(tmp) / "new.msdc"
            config.write_text(json.dumps(value))
            rc = main(["init", str(out), "--config", str(config)])
            assert rc in (0, 3)
            if rc == 3:
                assert not out.exists()
            else:
                # An accepted config yields a model that stores and answers.
                new = load_model(out)
                pattern.write_text(json.dumps(list(range(new.geometry.num_active))))
                for _ in range(2):
                    assert main(["store", str(out), str(pattern)]) == 0
                assert main(["query", str(out), str(pattern)]) == (
                    0 if new.ledger is not None else 3)
        if rc == 3 and kind != "snapshot":
            assert path.read_bytes() == blob
