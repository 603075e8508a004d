"""Snapshot format: round-trips, exact layout, and distinct failure modes."""

import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from msdc import (
    CsaParams,
    MemoryModel,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotTruncatedError,
    SnapshotVersionError,
    load_model,
    random_pattern,
    save_model,
)
from msdc.memory import LedgerEntry
from msdc.snapshot import decode_model, encode_model

HEADER_BYTES = 117  # magic..ledger flag, per the documented layout
CRC_BYTES = 4


def populated_model(geometry, n=3, seed=8, ledger=True):
    model = MemoryModel(
        geometry,
        CsaParams(eta_max=250.0, steepness=20.0),
        w_max=127,
        seed=seed,
        enable_ledger=ledger,
    )
    gen = np.random.default_rng(seed)
    for i in range(n):
        model.store(random_pattern(geometry, gen), f"item{i}")
    return model


def test_round_trip_is_bit_exact(geometry, tmp_path, rng):
    model = populated_model(geometry)
    path = tmp_path / "model.msdc"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.geometry == model.geometry
    assert loaded.params == model.params
    assert loaded.w_max == model.w_max
    assert np.array_equal(loaded.weights.bits, model.weights.bits)
    assert loaded.rng.bit_generator.state == model.rng.bit_generator.state
    assert loaded.ledger == model.ledger
    assert loaded.num_stored == model.num_stored
    # The loaded model replays retrieval bit for bit.
    probe = random_pattern(geometry, rng)
    code_a, trace_a = model.retrieve(probe, rng=np.random.default_rng(3))
    code_b, trace_b = loaded.retrieve(probe, rng=np.random.default_rng(3))
    assert np.array_equal(code_a, code_b)
    for field in ("u", "u_norm", "mu", "rho"):
        assert np.array_equal(getattr(trace_a, field), getattr(trace_b, field))
    # And re-encoding it reproduces the same bytes.
    assert encode_model(loaded) == encode_model(model)


def test_save_then_retrieve_matches_presave(geometry, tmp_path, rng):
    model = populated_model(geometry)
    path = tmp_path / "model.msdc"
    save_model(model, path)
    probe = random_pattern(geometry, rng)
    pre_code, _ = model.retrieve(probe, mode="hard", rng=np.random.default_rng(7))
    post_code, _ = load_model(path).retrieve(
        probe, mode="hard", rng=np.random.default_rng(7)
    )
    assert np.array_equal(pre_code, post_code)


def test_empty_model_weight_section_is_bit_packed(geometry, tmp_path):
    # 144 pixels x 192 units = 27648 bits -> exactly 3456 bytes.
    model = MemoryModel(geometry, enable_ledger=False)
    blob = encode_model(model)
    weight_bytes = -(-144 * 192 // 8)
    assert weight_bytes == 3456
    assert len(blob) == HEADER_BYTES + weight_bytes + CRC_BYTES
    # With an (empty) ledger the only addition is its u32 count.
    with_ledger = MemoryModel(geometry, enable_ledger=True)
    assert len(encode_model(with_ledger)) == len(blob) + 4


def test_corrupted_byte_raises_integrity_error(geometry):
    blob = bytearray(encode_model(populated_model(geometry)))
    blob[200] ^= 0xFF
    with pytest.raises(SnapshotIntegrityError):
        decode_model(bytes(blob))


def test_truncation_raises_truncated_error(geometry):
    blob = encode_model(populated_model(geometry))
    for cut in (3, 50, 116, len(blob) - 5):
        with pytest.raises(SnapshotTruncatedError):
            decode_model(blob[:cut])


def test_version_mismatch_raises_version_error(geometry):
    blob = bytearray(encode_model(populated_model(geometry)))
    struct.pack_into("<H", blob, 4, 2)  # bump the version field
    with pytest.raises(SnapshotVersionError):
        decode_model(bytes(blob))


def test_bad_magic_raises_format_error(geometry):
    blob = b"NOPE" + encode_model(populated_model(geometry))[4:]
    with pytest.raises(SnapshotFormatError):
        decode_model(blob)


def test_trailing_garbage_rejected(geometry):
    blob = encode_model(populated_model(geometry)) + b"\x00"
    with pytest.raises(SnapshotFormatError):
        decode_model(blob)


def test_ledger_round_trip_preserves_entries(geometry, tmp_path):
    model = populated_model(geometry, n=2)
    path = tmp_path / "m.msdc"
    save_model(model, path)
    loaded = load_model(path)
    assert [e.label for e in loaded.ledger] == ["item0", "item1"]
    for ours, theirs in zip(model.ledger, loaded.ledger):
        assert ours.pattern.active == theirs.pattern.active
        assert ours.code == theirs.code


def test_no_ledger_round_trip(geometry, tmp_path):
    model = populated_model(geometry, ledger=False)
    path = tmp_path / "m.msdc"
    save_model(model, path)
    assert load_model(path).ledger is None


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def encode_with_entry(geometry, label, active, code):
    """A CRC-valid snapshot whose last ledger entry holds the given fields."""
    model = populated_model(geometry, n=2)
    model.ledger.append(LedgerEntry(label, SimpleNamespace(active=tuple(active)), tuple(code)))
    return encode_model(model)


@pytest.mark.parametrize(
    "active, code, message",
    [
        (range(12), (0, 1), "2 winners, expected 24"),
        (range(12), (0,) * 23 + (8,), "winner 8 outside"),
        (range(11), (0,) * 24, "11 pixels, expected 12"),
        (list(range(11)) + [144], (0,) * 24, "pixel 144 outside"),
        ([0] + list(range(11)), (0,) * 24, "duplicate pixel"),
    ],
    ids=["winner-count", "winner-range", "pixel-count", "pixel-range", "pixel-duplicate"],
)
def test_ledger_entry_off_geometry_is_format_error(geometry, active, code, message):
    blob = encode_with_entry(geometry, "bad", active, code)
    with pytest.raises(SnapshotFormatError, match=message):
        decode_model(blob)


def test_ledger_label_not_utf8_is_format_error(geometry):
    blob = encode_model(populated_model(geometry, n=2))
    assert blob.count(b"item1") == 1
    body = blob[:-CRC_BYTES].replace(b"item1", b"item\xff")
    with pytest.raises(SnapshotFormatError, match="ledger entry 1 label is not valid UTF-8"):
        decode_model(with_crc(body))


def test_corrupted_label_byte_is_integrity_error(geometry):
    # With the checksum left stale, a bad label reads as corruption.
    blob = encode_model(populated_model(geometry, n=2))
    with pytest.raises(SnapshotIntegrityError):
        decode_model(blob.replace(b"item1", b"item\xff"))
