"""End-to-end CLI tests: subcommands, exit codes, atomicity."""

import argparse
import errno
import hashlib
import json
import math
import os
import select
import signal
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import msdc
from msdc import CsaParams, MemoryModel, ModelGeometry, cli, load_model, random_pattern
from msdc.cli import build_parser, main, read_pattern_file
from msdc.core import PAPER_GEOMETRY
from msdc.experiments import (
    default_appendix_scenario, emit_results, load_scenario, run_scenario, scenario_to_dict,
)
from msdc.snapshot import encode_model, save_model

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
    assert int(model.weights.bits.sum()) == 0
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


def test_a_label_of_two_dashes_is_stored_as_given(model_path, grid_pattern):
    # Python 3.11's argparse drops an option value that is exactly "--".
    assert main(["store", str(model_path), str(grid_pattern), "--label=--"]) == 0
    assert load_model(model_path).ledger[-1].label == "--"


def test_init_and_store_keep_the_model_file_mode(model_path, grid_pattern):
    # Each write replaces the file with a new one, which takes the old
    # file's permission bits rather than those the umask would give it.
    model_path.chmod(0o644)
    assert main(["init", str(model_path)]) == 0
    assert model_path.stat().st_mode & 0o777 == 0o644
    assert main(["store", str(model_path), str(grid_pattern)]) == 0
    assert model_path.stat().st_mode & 0o777 == 0o644


@pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"), reason="directories cannot be opened")
def test_init_flushes_the_directory_after_the_rename(tmp_path, monkeypatch):
    # A rename reaches the disk with its directory, so the write flushes the
    # target's directory once the file is in place.
    path, flushed = tmp_path / "n.msdc", []
    fsync = os.fsync

    def spy(fd):
        flushed.append((stat.S_ISDIR(os.fstat(fd).st_mode), path.exists()))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    assert main(["init", str(path)]) == 0
    assert flushed == [(False, False), (True, True)]


class HalfWriter:
    """A snapshot temporary file that takes half of a write, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_step(monkeypatch, step, nth=1, code=errno.ENOSPC):
    """Make the nth call of one step of a snapshot write fail with errno
    ``code``, a full disk by default: ``os.<step>``, or for ``write`` the
    temporary file's write, which fails as a full disk would.  Returns the
    calls seen, so that a test can check the fault fired."""
    name = "fdopen" if step == "write" else step
    real, calls = getattr(os, name), []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) != nth:
            return real(*args, **kwargs)
        if step == "write":
            return HalfWriter(real(*args, **kwargs))
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, name, failing)
    return calls


def snapshot_command(command, path, pattern):
    return ["init", str(path)] if command == "init" else ["store", str(path), str(pattern)]


@pytest.mark.parametrize("command, step", [
    (command, step) for command in ("init", "store")
    for step in ("open", "write", "fsync", "fchmod", "replace")
    if (command, step) != ("init", "fchmod")  # a new file keeps open()'s mode
])
def test_a_failed_snapshot_write_leaves_the_target_as_it_was(
    tmp_path, grid_pattern, monkeypatch, capsys, command, step
):
    path = tmp_path / "m.msdc"
    if command == "store":
        assert main(["init", str(path)]) == 0
    before = path.read_bytes() if path.exists() else None
    calls = fail_step(monkeypatch, step)
    assert main(snapshot_command(command, path, grid_pattern)) == 4
    assert calls and "No space left on device" in capsys.readouterr().err
    assert (path.read_bytes() if path.exists() else None) == before
    assert list(tmp_path.glob(".m.msdc.*")) == []


@pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"), reason="directories cannot be opened")
@pytest.mark.parametrize("step, code", [
    pytest.param(step, code, id=step if code == errno.ENOSPC else f"{step}-ENOENT")
    for code in (errno.ENOSPC, errno.ENOENT) for step in ("open", "fsync")
])
@pytest.mark.parametrize("command", ["init", "store"])
def test_a_failed_directory_flush_fails_with_the_new_model_in_place(
    tmp_path, grid_pattern, monkeypatch, capsys, command, step, code
):
    # The directory is flushed after the rename, so the command fails with
    # the complete new model already in place, as an unfailed run leaves it.
    # ENOENT re-raised makes a FileNotFoundError that names no file.
    path, twin = tmp_path / "m.msdc", tmp_path / "twin.msdc"
    if command == "store":
        assert main(["init", str(path)]) == 0
        twin.write_bytes(path.read_bytes())
    assert main(snapshot_command(command, twin, grid_pattern)) == 0
    calls = fail_step(monkeypatch, step, nth=2, code=code)
    assert main(snapshot_command(command, path, grid_pattern)) == 4
    err = capsys.readouterr().err
    assert len(calls) == 2 and "no such file" not in err
    # The message says the model was written, so that no caller retries it.
    assert f"{path} was written, but flushing its directory failed: {os.strerror(code)}" in err
    assert path.read_bytes() == twin.read_bytes()
    assert list(tmp_path.glob(".m.msdc.*")) == []


# A child that stores one pattern into one model file until it is killed.
# It says "ready" once its first store is in place; the stores' own output
# goes to the null device, so that no pipe fills and blocks it.
_STORE_LOOP = """
import os, sys
from msdc.cli import main
ready = os.fdopen(os.dup(1), "w")
sys.stdout = open(os.devnull, "w")
argv = ["store", *sys.argv[1:]]
if main(argv) == 0:
    ready.write("ready\\n")
    ready.flush()
    while main(argv) == 0:
        pass
"""


def _src_env():
    """The environment, with this msdc first on a child's import path."""
    src = str(Path(msdc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="no SIGKILL on this platform")
def test_a_killed_store_leaves_a_committed_model(tmp_path, grid_pattern):
    # SIGKILL runs no handler, so only the write's own order protects the
    # model: after each kill the file must hold one committed state whole.
    # Temporary files may remain; the model file may not be partial.
    path = tmp_path / "m.msdc"
    assert main(["init", str(path)]) == 0
    replay, pattern = load_model(path), read_pattern_file(grid_pattern)
    states = [path.read_bytes()]
    stored = 0
    for delay in np.random.default_rng(2038).uniform(0.01, 0.15, size=3):
        child = subprocess.Popen(
            [sys.executable, "-c", _STORE_LOOP, str(path), str(grid_pattern), "--label", "x"],
            stdout=subprocess.PIPE, env=_src_env(),
        )
        try:
            assert select.select([child.stdout], [], [], 60)[0], "the child never stored"
            assert child.stdout.readline() == b"ready\n"
            time.sleep(delay)
            assert child.poll() is None, "the child stopped storing before the kill"
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=60)
            child.stdout.close()
        model = load_model(path)
        assert model.num_stored > stored
        stored = model.num_stored
        while len(states) <= stored:
            replay.store(pattern, "x")
            states.append(encode_model(replay))
        assert path.read_bytes() == states[stored]


def two_patterns(tmp_path):
    """Two disjoint pattern files, labelled by their stems "a" and "b"."""
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, first in zip(paths, (0, 12)):
        path.write_text(json.dumps(list(range(first, first + 12))))
    return paths


def test_two_stores_into_one_model_run_one_after_the_other(model_path, tmp_path, monkeypatch):
    # The first store is held between its load and its write; the second
    # must wait for the writer lock rather than load the same model, and
    # the file must end with both items.
    loaded, resume, loads, codes = threading.Event(), threading.Event(), [], {}
    real_load = cli.load_model

    def held_load(path):
        name = threading.current_thread().name
        loads.append(name)
        model = real_load(path)
        if name == "a":
            loaded.set()
            assert resume.wait(60)
        return model

    def store(pattern):
        codes[pattern.stem] = main(["store", str(model_path), str(pattern)])

    monkeypatch.setattr(cli, "load_model", held_load)
    threads = [threading.Thread(target=store, args=(p,), name=p.stem) for p in two_patterns(tmp_path)]
    try:
        threads[0].start()
        assert loaded.wait(60)
        threads[1].start()
        threads[1].join(0.5)
        assert threads[1].is_alive() and loads == ["a"]
    finally:
        resume.set()
        for thread in threads:
            thread.join(60)
    assert codes == {"a": 0, "b": 0} and loads == ["a", "b"]
    assert [entry.label for entry in load_model(model_path).ledger] == ["a", "b"]


def test_a_store_whose_model_was_replaced_after_its_load_writes_nothing(
    model_path, grid_pattern, tmp_path, monkeypatch, capsys
):
    # A writer that takes no lock, here a library save_model, replaces the
    # model between the store's load and its write: the store exits 4, and
    # neither the model nor the trace is written.
    other = MemoryModel(PAPER_GEOMETRY, seed=9, enable_ledger=True)
    other.store(read_pattern_file(grid_pattern), "other")
    real_load = cli.load_model

    def load_then_replace(path):
        model = real_load(path)
        save_model(other, path)
        return model

    monkeypatch.setattr(cli, "load_model", load_then_replace)
    trace = tmp_path / "t.json"
    argv = ["store", str(model_path), str(grid_pattern), "--trace", str(trace)]
    assert main(argv) == 4
    assert f"{model_path} was replaced while this store ran" in capsys.readouterr().err
    assert model_path.read_bytes() == encode_model(other)
    assert not trace.exists()


# A child that stores one pattern into one model file each time it reads a
# line, and answers with the exit code; the stores' own output goes to the
# null device.
_STORE_ROUNDS = """
import os, sys
from msdc.cli import main
answer = os.fdopen(os.dup(1), "w")
sys.stdout = open(os.devnull, "w")
for _ in sys.stdin:
    answer.write(f"{main(['store', *sys.argv[1:]])}\\n")
    answer.flush()
"""


def test_concurrent_store_processes_keep_every_item(model_path, tmp_path):
    # Two processes, each told to store at once, five rounds over.
    children = [
        subprocess.Popen([sys.executable, "-c", _STORE_ROUNDS, str(model_path), str(pattern)],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_src_env())
        for pattern in two_patterns(tmp_path)
    ]
    try:
        for round in range(1, 6):
            for child in children:
                child.stdin.write(b"go\n")
                child.stdin.flush()
            assert [child.stdout.readline() for child in children] == [b"0\n", b"0\n"]
            labels = [entry.label for entry in load_model(model_path).ledger]
            assert sorted(labels) == sorted(["a", "b"] * round)
    finally:
        for child in children:
            child.stdin.close()
            child.wait(timeout=60)
            child.stdout.close()


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


def test_store_into_a_missing_model_names_it_and_makes_no_lock_file(grid_pattern, tmp_path, capsys):
    assert main(["store", str(tmp_path / "nope.msdc"), str(grid_pattern)]) == 4
    assert f"no such file: {tmp_path / 'nope.msdc'}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]


def test_store_missing_pattern_file_is_io_error(model_path, tmp_path, capsys):
    assert main(["store", str(model_path), str(tmp_path / "nope.txt")]) == 4


@pytest.mark.parametrize("command", ["store", "query"])
def test_a_directory_for_the_model_is_io_error(disjoint_pattern, tmp_path, capsys, command):
    assert main([command, str(tmp_path), str(disjoint_pattern)]) == 4
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")


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


# Runs each command line given as a JSON list, in one process, and prints
# each one's exit code after its output.
_COMMANDS = """
import json, sys
from msdc.cli import main
for argv in json.loads(sys.argv[1]):
    print("exit", main(argv), flush=True)
"""


def _run_commands(work, commands, **env):
    return subprocess.run(
        [sys.executable, "-c", _COMMANDS, json.dumps(commands)], cwd=work,
        env={**_src_env(), **env}, capture_output=True, timeout=120,
    )


def test_commands_write_the_same_bytes_under_any_hash_seed(tmp_path, grid_pattern):
    # A set or dict order leaking into a result would differ between two
    # processes with different str hashing, where it cannot show within one.
    spec = {**scenario_to_dict(default_appendix_scenario(6)),
            "store_order": ["I4", "I1", "I6", "I2", "I5", "I3"]}
    commands = [
        ["experiment", "spec.json", "out"],
        ["init", "m.msdc"],
        ["store", "m.msdc", "a.txt"],
        ["store", "m.msdc", "b.json", "--label", "\u03a9-second", "--trace", "store.json"],
        ["query", "m.msdc", "a.txt", "--trace", "query.json"],
        ["query", "m.msdc", "b.json", "--mode", "hard", "--seed", "3"],
    ]
    outputs = []
    for hash_seed in ("1", "2"):
        work = tmp_path / hash_seed
        work.mkdir()
        (work / "spec.json").write_text(json.dumps(spec))
        (work / "a.txt").write_bytes(grid_pattern.read_bytes())
        (work / "b.json").write_text(json.dumps(list(range(100, 112))))
        result = _run_commands(work, commands, PYTHONHASHSEED=hash_seed)
        assert result.returncode == 0, result.stderr.decode(errors="replace")
        assert result.stdout.count(b"exit 0\n") == len(commands), result.stdout
        files = {p.relative_to(work).as_posix(): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file()}
        assert {"out/results.json", "m.msdc", "store.json", "query.json"} <= set(files)
        outputs.append((result.stdout, files))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "env", [{"PYTHONUTF8": "0", "LC_ALL": "C"}, {"PYTHONIOENCODING": "ascii"}]
)
def test_a_label_stdout_cannot_encode_is_printed_escaped(tmp_path, grid_pattern, env):
    # store prints its summary after saving the model, so a crash there would
    # exit 1 with the item already stored.  Each character stdout cannot
    # encode is written as its backslash escape; the rest of each line is the
    # same as under UTF-8.
    commands = [["init", "m.msdc"], ["store", "m.msdc", "p.txt", "--label", "\u03a9"],
                ["query", "m.msdc", "p.txt", "--seed", "1"]]
    stdouts = []
    for name, run_env in (("utf8", {"PYTHONIOENCODING": "utf-8"}), ("narrow", env)):
        work = tmp_path / name
        work.mkdir()
        (work / "p.txt").write_bytes(grid_pattern.read_bytes())
        result = _run_commands(work, commands, **run_env)
        assert result.returncode == 0, result.stderr.decode(errors="replace")
        assert result.stdout.count(b"exit 0\n") == len(commands), result.stdout
        assert b"Traceback" not in result.stderr
        assert [e.label for e in load_model(work / "m.msdc").ledger] == ["\u03a9"]
        stdouts.append(result.stdout)
    utf8, narrow = stdouts
    escaped = b"\\u03a9"
    assert escaped + b": similarity=" in narrow and narrow.count(escaped) == 2
    assert narrow == utf8.replace("\u03a9".encode(), escaped)


def test_paths_print_byte_for_byte_under_a_non_utf8_locale(tmp_path):
    # Under the C locale a non-UTF-8 byte of a path decodes to a surrogate,
    # which stdout writes back as the same byte, not as an escape.
    name = os.fsencode(tmp_path) + b"/m\xff.msdc"
    result = subprocess.run(
        [sys.executable, "-m", "msdc", "init", name], capture_output=True, timeout=120,
        env={**_src_env(), "PYTHONUTF8": "0", "LC_ALL": "C"},
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stdout.startswith(b"initialized " + name + b": ")
    assert os.path.exists(name)


def test_experiment_writes_utf8_files_under_a_non_utf8_locale(tmp_path):
    # Under the C locale with UTF-8 mode off, the locale's encoding is
    # ASCII; the result files must still hold a non-ASCII probe label, byte
    # for byte as an in-process run writes them.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "tiny",
        "geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                     "num_cms": 24, "units_per_cm": 8},
        "num_stored": 6,
        "probes": [{"label": "\u03a9-probe", "overlaps": [5, 4, 2, 1, 0, 0]}],
        "seeds": [0, 1, 2],
    }))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "msdc", "experiment", str(spec_path), str(out)],
        env={**_src_env(), "PYTHONUTF8": "0", "LC_ALL": "C"},
        capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    spec = load_scenario(spec_path)
    want = emit_results(run_scenario(spec), spec, tmp_path / "want")
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in want)
    for path in want:
        assert (out / path.name).read_bytes() == path.read_bytes()
    assert "\u03a9-probe".encode() in (out / "trials.csv").read_bytes()


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


@pytest.mark.parametrize(
    "config, flags, ledger",
    [
        ({}, [], False),
        ({"ledger": False}, [], False),
        ({"ledger": True}, [], True),
        ({}, ["--ledger"], True),
        ({"ledger": False}, ["--ledger"], True),
        ({"ledger": True}, ["--no-ledger"], False),
    ],
)
def test_bench_reads_the_ledger_flags_and_config(tmp_path, capsys, config, flags, ledger):
    # Flags over the config file over bench's own default, ledger off; the
    # default report names no ledger, as before bench read one.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "bench.json"
    argv = ["bench", str(out), "--config", str(cfg), "--checkpoints", "1,2", "--trials", "1"]
    assert main([*argv, *flags]) == 0
    report = json.loads(out.read_text())
    assert report["config"].get("ledger", False) is ledger
    assert ("ledger" in report["config"]) is ledger


@pytest.mark.parametrize("checkpoints", ["1,,2", "", ",", "1,2,", "a", "1,x"])
def test_bench_checkpoint_list_with_an_empty_or_non_integer_field_is_usage_error(
    tmp_path, capsys, checkpoints
):
    # An empty field is not skipped: "1,,2" would otherwise run [1, 2].
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(out), f"--checkpoints={checkpoints}", "--trials", "1"])
    assert exc.value.code == 2
    assert f"bad checkpoint list {checkpoints!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_bench_with_fewer_than_one_trial_is_data_error(tmp_path, capsys, trials):
    out = tmp_path / "bench.json"
    assert main(["bench", str(out), "--checkpoints", "1,5", f"--trials={trials}"]) == 3
    assert f"trials_per_checkpoint must be at least 1, got {trials}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("module", ["msdc.cli", "msdc.experiments"])
def test_import_leaves_scipy_unloaded(module):
    # No module imports scipy; this keeps the command line and the scenario
    # harness numpy-only.
    probe = f"import sys, {module}; sys.exit('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=_src_env(), timeout=120)
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
    assert "seed must be non-negative, got -1" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert model_path.read_bytes() == before


@pytest.mark.parametrize("command", ["store", "query"])
def test_a_negative_seed_is_refused_before_the_model_is_read(
    grid_pattern, tmp_path, capsys, command
):
    # The seed is checked first, so a missing model file is not reached.
    assert main([command, str(tmp_path / "nope.msdc"), str(grid_pattern), "--seed", "-1"]) == 3
    assert "seed must be non-negative, got -1" in capsys.readouterr().err


def test_json_pattern_with_non_integer_index_is_data_error(model_path, tmp_path, capsys):
    # InputPattern, not the file reader, refuses each index; True beside the
    # 1 it equals is named as a bool, not as a duplicate.
    before = model_path.read_bytes()
    for first in (1.5, True, "3", None, [1]):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([first] + list(range(1, 12))))
        assert main(["store", str(model_path), str(path)]) == 3
        err = capsys.readouterr().err
        assert "must be integers" in err
        assert "Traceback" not in err
    assert model_path.read_bytes() == before


def test_json_pattern_object_with_another_key_is_data_error(model_path, tmp_path, capsys):
    before = model_path.read_bytes()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"active_pixels": list(range(12)), "weights": 5}))
    assert main(["store", str(model_path), str(path)]) == 3
    err = capsys.readouterr().err
    assert "active_pixels" in err
    assert "Traceback" not in err
    assert model_path.read_bytes() == before


@pytest.mark.parametrize("value", [5, {"0": 1}, None, "0,1"])
def test_json_pattern_object_without_a_list_is_data_error(model_path, tmp_path, capsys, value):
    before = model_path.read_bytes()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"active_pixels": value}))
    assert main(["store", str(model_path), str(path)]) == 3
    err = capsys.readouterr().err
    assert "JSON pattern must be a list of active pixel indices" in err
    assert "Traceback" not in err
    assert model_path.read_bytes() == before


@pytest.mark.parametrize(
    "change, message",
    [
        ({"geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                       "num_cms": 24, "units_per_cm": 8, "depth": 1}}, "unknown key"),
        ({"seeds": None}, "seeds must be a sequence"),
        ({"seeds": [0.5, 1.7]}, "seed must be an integer"),
        ({"seeds": [-1, 0]}, "non-negative"),
        ({"seeds": {"start": 0}}, "lacks required key"),
        ({"probes": [{"label": "I7", "overlaps": [5.9, 4, 2, 1, 0, 0]}]}, "must be an integer"),
        ({"probes": [{"label": "I7"}]}, "lacks required key"),
        ({"params": {"eta_max": "big"}}, "must be a number"),
        ({"num_stored": "6"}, "must be an integer"),
        ({"store_order": [1, 2, 3, 4, 5, 6]}, "store_order must hold labels"),
        ({"shuffle": True}, "unknown key"),
        ({"probes": []}, "scenario needs at least one probe"),
        # Counts whose seed tuple cannot be built are refused before any
        # allocation: 2**62 pointers overflow the address space, and 2**64
        # does not fit a range's length.
        ({"seeds": {"start": 0, "count": 2**62}}, f"seeds count {2**62} is too large"),
        ({"seeds": {"start": 0, "count": 2**64}}, f"seeds count {2**64} is too large"),
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


@pytest.mark.parametrize(
    "change, field",
    [
        ({"seeds": None}, "seed"),
        ({"seeds": "01"}, "seed"),
        ({"seeds": 5}, "seed"),
        ({"seeds": True}, "seed"),
        ({"probes": [{"label": 5, "overlaps": [5, 4, 2, 1, 0, 0]}]}, "label"),
        ({"probes": [{"label": "I7", "overlaps": "542100"}]}, "overlap"),
        ({"probes": [{"label": "I7", "overlaps": {"5": 1}}]}, "overlap"),
        ({"probes": [{"label": "I7", "overlaps": 5}]}, "overlap"),
        ({"store_order": [1, 2, 3, 4, 5, 6]}, "store_order"),
        ({"store_order": {f"I{i}": 0 for i in (2, 1, 3, 4, 5, 6)}}, "store_order"),
        ({"store_order": "I1I2I3"}, "store_order"),
    ],
)
def test_scenario_value_of_the_wrong_type_is_data_error(tmp_path, capsys, change, field):
    # The spec types refuse these values, and an object store_order, which
    # they would read as its keys, is refused by the file's shape check.
    spec = {
        "geometry": {"input_width": 12, "input_height": 12, "num_active": 12,
                     "num_cms": 24, "units_per_cm": 8},
        "num_stored": 6,
        "probes": [{"label": "I7", "overlaps": [5, 4, 2, 1, 0, 0]}],
        "seeds": [0, 1],
        **change,
    }
    spec_path, out = tmp_path / "spec.json", tmp_path / "o"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", str(spec_path), str(out)]) == 3
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("has_uint32", [2, 2**31, 2**32 - 1])
def test_query_on_snapshot_with_rng_flag_above_1_is_data_error(
    model_path, grid_pattern, capsys, has_uint32
):
    # A CRC-valid snapshot whose RNG has_uint32 flag, the u32 at byte 104,
    # is neither 0 nor 1; from 2**31 numpy's state setter used to overflow.
    blob = bytearray(model_path.read_bytes()[:-4])
    struct.pack_into("<I", blob, 104, has_uint32)
    model_path.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))
    assert main(["query", str(model_path), str(grid_pattern)]) == 3
    err = capsys.readouterr().err
    assert f"snapshot RNG has_uint32 flag must be 0 or 1, got {has_uint32}" in err
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
        "bench": configured | {"--checkpoints", "--trials", "--ledger", "--no-ledger"},
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
# The appendix scenario with 3 seeds; a drawn case redraws its geometry
# fields as _CONFIGS does, and then any of its keys as a _JSON value, whose
# lists hold at most 3 entries.
_APPENDIX = scenario_to_dict(default_appendix_scenario(3))
_APPENDIX_SCENARIOS = st.builds(
    lambda geometry, changes: {
        **_APPENDIX, "geometry": {**_APPENDIX["geometry"], **geometry}, **changes},
    st.fixed_dictionaries({}, optional={
        f.name: st.integers(-1, 24) | _NOT_INT for f in fields(ModelGeometry)}),
    st.dictionaries(st.sampled_from(sorted({*_APPENDIX, "store_order"})), _JSON, max_size=2),
)
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
    st.tuples(st.just("experiment"), _APPENDIX_SCENARIOS),
))
def test_cli_maps_malformed_input_to_a_documented_exit_code(case):
    # Every call returns 0, or 3 for bad data, and raises nothing; a failed
    # command leaves the model file as it was, and a refused scenario writes
    # no output.
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
        elif kind == "experiment":
            scenario, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
            scenario.write_text(json.dumps(value))
            rc = main(["experiment", str(scenario), str(out)])
            assert rc in (0, 3)
            assert out.exists() == (rc == 0)
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


# A seed list or range for `msdc experiment`: its count is at most 2, or
# 2**62 and above, which the parser refuses before it builds the seed tuple.
_SEEDS = st.one_of(
    st.lists(st.integers(-2, 2**64) | _NOT_INT, max_size=2),
    st.fixed_dictionaries({}, optional={
        "start": st.integers(-2, 2**64) | _NOT_INT,
        "count": st.integers(-1, 2) | st.integers(2**62, 2**66) | _NOT_INT,
        "stop": _NOT_INT,
    }),
    _NOT_INT,
)


@st.composite
def _scenarios(draw):
    """A tiny valid scenario object, then up to two of its fields redrawn:
    wrong types, empty lists and lists of up to 3 entries, duplicate probe
    labels, a store_order that is no permutation, negative or float seeds,
    and geometry fields of at most 24, as in ``_CONFIGS``.  Nothing drawn
    asks for an allocation that could succeed and fill memory."""
    n, s, width = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 24))
    # Room for n items and a probe's filler: at least (n + 1) * s pixels.
    height = draw(st.integers(-(-(n + 1) * s // width), 24))
    geometry = {
        "input_width": width, "input_height": height, "num_active": s,
        "num_cms": draw(st.integers(1, 24)), "units_per_cm": draw(st.integers(1, 24)),
    }
    labels = [f"I{i + 1}" for i in range(n)]
    overlaps = st.lists(st.integers(0, s // n), min_size=n, max_size=n)
    probes = [
        {"label": f"P{j}", "overlaps": draw(overlaps)} for j in range(draw(st.integers(1, 3)))
    ]
    scenario = {
        "geometry": geometry, "num_stored": n, "probes": probes,
        "seeds": draw(st.lists(st.integers(0, 2**64), min_size=1, max_size=2)),
        "mode": draw(st.sampled_from(["soft", "hard"])),
        "store_order": draw(st.permutations(labels)),
    }
    wrong = {
        "geometry": st.builds(lambda f, v: {**geometry, f: v}, st.sampled_from(sorted(geometry)),
                              st.integers(-1, 24) | _NOT_INT) | _JSON,
        "num_stored": st.integers(-1, 4) | _NOT_INT,
        "probes": st.sampled_from([[], probes + probes[:1]]) | st.lists(_JSON, max_size=3) | _JSON,
        "seeds": _SEEDS,
        "store_order": st.lists(st.sampled_from(labels + ["I9"]) | _NOT_INT, max_size=3) | _JSON,
        "params": st.fixed_dictionaries({}, optional={
            f.name: st.floats() | st.integers() | _NOT_INT for f in fields(CsaParams)}) | _JSON,
        "mode": _JSON, "w_max": _JSON, "name": _JSON,
    }
    for key in draw(st.lists(st.sampled_from(sorted(wrong)), max_size=2, unique=True)):
        scenario[key] = draw(wrong[key])
    return scenario


@settings(max_examples=60, deadline=None)
@given(_scenarios() | _JSON)
def test_experiment_maps_malformed_scenarios_to_a_documented_exit_code(scenario):
    # Every call returns 0, or 3 for bad data, and raises nothing; a refused
    # scenario writes no output.
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(json.dumps(scenario))
        rc = main(["experiment", str(path), str(out)])
        assert rc in (0, 3)
        assert out.exists() == (rc == 0)
