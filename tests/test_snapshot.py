"""Snapshot format: round-trips, exact layout, and distinct failure modes."""

import hashlib
import struct
import zlib

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
from msdc.snapshot import decode_model, encode_model

HEADER_BYTES = 117  # magic..ledger flag, per the documented layout
CRC_BYTES = 4

# sha256 of encode_model for the 50-item model of test_encoded_model_is_pinned,
# as written when the weight quantum was still a constructor argument.
MODEL_SHA256 = "4cc91178ec1932927d1b83cbbf884cd5fc65b34054bcf5bf8801fcea496a8a6f"


def populated_model(geometry, n=3, seed=8, ledger=True):
    model = MemoryModel(
        geometry, CsaParams(eta_max=250.0, steepness=20.0), seed=seed, enable_ledger=ledger
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


def test_encoded_model_is_pinned(geometry):
    model = MemoryModel(geometry, seed=2038, enable_ledger=True)
    gen = np.random.default_rng(83)
    for i in range(50):
        model.store(random_pattern(geometry, gen), f"item{i}")
    blob = encode_model(model)
    assert hashlib.sha256(blob).hexdigest() == MODEL_SHA256
    assert struct.unpack_from("<I", blob, 28) == (127,)


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
    """A CRC-valid snapshot whose last ledger entry holds the given fields.

    The raw entry goes before the CRC, and the ledger's entry count, which
    follows the weight bytes, goes up by one.
    """
    blob = bytearray(encode_model(populated_model(geometry, n=2))[:-CRC_BYTES])
    count_at = HEADER_BYTES + -(-geometry.num_pixels * geometry.num_units // 8)
    (count,) = struct.unpack_from("<I", blob, count_at)
    struct.pack_into("<I", blob, count_at, count + 1)
    active, code, text = tuple(active), tuple(code), label.encode("utf-8")
    blob += struct.pack(f"<H{len(text)}s", len(text), text)
    blob += struct.pack(f"<I{len(active)}I", len(active), *active)
    blob += struct.pack(f"<I{len(code)}H", len(code), *code)
    return with_crc(bytes(blob))


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


@pytest.mark.parametrize("w_max", [0, 1, 126, 2**32 - 1])
def test_header_w_max_other_than_127_is_format_error(geometry, w_max):
    blob = bytearray(encode_model(populated_model(geometry)))
    struct.pack_into("<I", blob, 28, w_max)
    # The checksum is checked first, so a stale one reads as corruption.
    with pytest.raises(SnapshotIntegrityError):
        decode_model(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="snapshot w_max must be 127"):
        decode_model(with_crc(bytes(blob[:-CRC_BYTES])))
