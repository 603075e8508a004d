"""Snapshot format: round-trips, exact layout, and distinct failure modes."""

import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msdc import (
    CsaParams,
    MemoryModel,
    ModelGeometry,
    MsdcError,
    SnapshotError,
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


@pytest.mark.parametrize(
    "name, value",
    [("eta_max", np.float32(299.1)), ("g_floor", np.float32(0.1)), ("g_exponent", np.float32(1.3))],
)
def test_float32_params_replay_after_a_round_trip(geometry, name, value):
    # A float32 field once kept eta in float32, while the snapshot holds it
    # as a float64; the loaded copy then drew from other win distributions.
    model = MemoryModel(geometry, CsaParams(**{name: value}), seed=6)
    gen = np.random.default_rng(6)
    for _ in range(20):
        model.store(random_pattern(geometry, gen))
    loaded = decode_model(encode_model(model))
    assert loaded.params == model.params
    for i in range(200):
        probe = random_pattern(geometry, gen)
        code_a, a = model.retrieve(probe, "soft", np.random.default_rng(i))
        code_b, b = loaded.retrieve(probe, "soft", np.random.default_rng(i))
        assert np.array_equal(a.rho, b.rho) and np.array_equal(code_a, code_b)
        assert repr(a.eta) == repr(b.eta)


def test_encoded_model_is_pinned(geometry):
    model = MemoryModel(geometry, seed=2038, enable_ledger=True)
    gen = np.random.default_rng(83)
    for i in range(50):
        model.store(random_pattern(geometry, gen), f"item{i}")
    blob = encode_model(model)
    assert hashlib.sha256(blob).hexdigest() == MODEL_SHA256
    assert struct.unpack_from("<I", blob, 28) == (127,)
    assert encode_model(decode_model(blob)) == blob


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


def test_six_bytes_hold_the_version_and_five_do_not():
    # The version field ends at byte 6: a 6-byte blob with another version
    # is a version error, a shorter one or one with this version truncated.
    with pytest.raises(SnapshotVersionError):
        decode_model(b"MSDC\x02\x00")
    for blob in (b"MSDC\x02", b"MSDC\x01\x00"):
        with pytest.raises(SnapshotTruncatedError):
            decode_model(blob)


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
        (range(11), (0,) * 24, "11 active pixels, expected exactly 12"),
        (list(range(11)) + [144], (0,) * 24, "pixel index 144 outside"),
        ([0] + list(range(11)), (0,) * 24, "duplicate pixel"),
        (range(11, -1, -1), (0,) * 24, "ledger entry 2 pixels are not in ascending order"),
        ([1, 0] + list(range(2, 12)), (0,) * 24, "ledger entry 2 pixels are not in ascending"),
    ],
    ids=["winner-count", "winner-range", "pixel-count", "pixel-range", "pixel-duplicate",
         "pixels-descending", "pixels-swapped"],
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


def test_every_single_bit_flip_in_header_and_ledger_entry_is_a_snapshot_error(geometry):
    # No field is read before the checksum holds, so a flipped bit in the
    # header or in a ledger entry is never, say, a GeometryError.
    blob = encode_model(populated_model(geometry, n=3, seed=2038))
    entry_at = HEADER_BYTES + -(-geometry.num_pixels * geometry.num_units // 8) + 4
    entry_bytes = 2 + len("item0") + 4 + 4 * geometry.num_active + 4 + 2 * geometry.num_cms
    wrong = []
    for at in [*range(HEADER_BYTES), *range(entry_at, entry_at + entry_bytes)]:
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[at] ^= 1 << bit
            try:
                decode_model(bytes(flipped))
                wrong.append((at, bit, "decoded"))
            except SnapshotError:
                pass
            except MsdcError as exc:
                wrong.append((at, bit, type(exc).__name__))
    assert wrong == []


_SNAPSHOT_ERRORS = (
    SnapshotFormatError, SnapshotIntegrityError, SnapshotTruncatedError, SnapshotVersionError,
)
# A ledger-on snapshot of 3 items at the desk-scale geometry.
_FUZZ_BLOB = encode_model(populated_model(ModelGeometry(12, 12, 12, 24, 8), n=3, seed=2038))


def single_edits(size: int, at=None) -> st.SearchStrategy[tuple]:
    """One edit of a ``size``-byte blob: a byte xored with 1 to 255, a
    truncation, or 1 to 16 bytes inserted; at offsets drawn from ``at``, or
    anywhere."""
    at = st.integers(0, size - 1) if at is None else at
    return st.one_of(
        st.tuples(st.just("flip"), at, st.integers(1, 255)),
        st.tuples(st.just("truncate"), at),
        st.tuples(st.just("insert"), at | st.just(size), st.binary(min_size=1, max_size=16)),
    )


def edited(blob: bytes, edit: tuple) -> bytes:
    kind, at, *rest = edit
    blob = bytearray(blob)
    if kind == "flip":
        blob[at] ^= rest[0]
    elif kind == "truncate":
        del blob[at:]
    else:
        blob[at:at] = rest[0]
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(single_edits(len(_FUZZ_BLOB)))
def test_any_single_edit_of_a_snapshot_is_a_snapshot_error(edit):
    # Never a bare GeometryError, PatternError, struct.error or IndexError:
    # each edit is one of the four documented snapshot errors.
    with pytest.raises(SnapshotError) as exc:
        decode_model(edited(_FUZZ_BLOB, edit))
    assert type(exc.value) in _SNAPSHOT_ERRORS


# A ledger snapshot whose 9 x 9 weight bits leave 7 padding bits in their
# last byte, with 3 items of 3 pixels, without its checksum.
_PADDED = ModelGeometry(3, 3, 3, 3, 3)
_PADDED_BODY = encode_model(populated_model(_PADDED, n=3, seed=83))[:-CRC_BYTES]
_PADDING_AT = HEADER_BYTES + 81 // 8
# The first ledger entry's pixels (u32 each), after its count, label length,
# 5-byte label and pixel count.
_PIXELS_AT = _PADDING_AT + 1 + 4 + 2 + 5 + 4


@settings(max_examples=300, deadline=None)
@given(single_edits(len(_PADDED_BODY), st.integers(0, len(_PADDED_BODY) - 1)
                    | st.integers(100, HEADER_BYTES) | st.integers(_PADDING_AT, _PIXELS_AT + 12)))
# has_uint32 set to 2**31, a set padding bit, and the first entry's pixels
# (2, 4, 5) made (6, 4, 5): each crashed or loaded, to re-encode otherwise,
# before the checks that refuse them.
@example(("flip", 107, 0x80))
@example(("flip", _PADDING_AT, 0x80))
@example(("flip", _PIXELS_AT, 0x04))
def test_any_single_checksummed_edit_is_refused_or_round_trips(edit):
    # With the checksum recomputed, each edit reaches the field checks: a
    # blob loads only if it re-encodes to itself, so nothing is coerced.
    blob = with_crc(edited(_PADDED_BODY, edit))
    try:
        model = decode_model(blob)
    except SnapshotError as exc:
        assert type(exc) in _SNAPSHOT_ERRORS
    else:
        assert encode_model(model) == blob


def test_a_set_padding_bit_is_format_error():
    # 9 weight bits fill 2 bytes, so the second holds 7 padding bits.
    geometry = ModelGeometry(3, 3, 1, 1, 1)
    body = encode_model(populated_model(geometry, n=2))[:-CRC_BYTES]
    assert len(body) == HEADER_BYTES + 2 + 4 + 2 * (2 + 5 + 4 + 4 + 4 + 2)
    assert encode_model(decode_model(with_crc(body))) == with_crc(body)
    for bit in range(1, 8):
        padded = bytearray(body)
        padded[HEADER_BYTES + 1] |= 1 << bit
        with pytest.raises(SnapshotFormatError, match="snapshot weight padding bits must be 0"):
            decode_model(with_crc(bytes(padded)))


def test_encoding_a_model_whose_rng_is_not_pcg64_is_format_error(geometry):
    model = MemoryModel(geometry)
    model.rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(
        SnapshotFormatError, match="only PCG64 generators can be snapshotted, got MT19937"
    ):
        encode_model(model)


def test_header_fields_sit_at_their_documented_offsets():
    geometry = ModelGeometry(7, 5, 3, 6, 4)
    params = CsaParams(eta_max=123.5, steepness=17.25, midpoint=0.375,
                       g_floor=0.125, g_exponent=2.5)
    model = MemoryModel(geometry, params, seed=5)
    gen = np.random.default_rng(6)
    for _ in range(3):
        model.store(random_pattern(geometry, gen))
    model.rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": 0x0123456789ABCDEF_FEDCBA9876543210, "inc": 0x1357_9BDF_2468_ACE1},
        "has_uint32": 1,
        "uinteger": 0xDEADBEEF,
    }
    blob = encode_model(model)
    assert struct.unpack_from("<4sHH", blob, 0) == (b"MSDC", 1, 0)
    assert struct.unpack_from("<5I", blob, 8) == (7, 5, 3, 6, 4)
    assert struct.unpack_from("<I", blob, 28) == (127,)
    assert struct.unpack_from("<5d", blob, 32) == (123.5, 17.25, 0.375, 0.125, 2.5)
    state = model.rng.bit_generator.state
    assert int.from_bytes(blob[72:88], "little") == state["state"]["state"]
    assert int.from_bytes(blob[88:104], "little") == state["state"]["inc"]
    assert struct.unpack_from("<I", blob, 104) == (1,)
    assert struct.unpack_from("<I", blob, 108) == (0xDEADBEEF,)
    assert struct.unpack_from("<I", blob, 112) == (3,)
    assert struct.unpack_from("<B", blob, 116) == (0,)
    assert len(blob) == HEADER_BYTES + -(-35 * 24 // 8) + CRC_BYTES
    loaded = decode_model(blob)
    assert (loaded.geometry, loaded.params, loaded.num_stored) == (geometry, params, 3)
    assert loaded.rng.bit_generator.state == state


@pytest.mark.parametrize(
    "offset, fmt, value, message",
    [
        (16, "<I", 0, "snapshot header: num_active"),
        (32, "<d", float("nan"), "snapshot header: eta_max must be finite"),
        (6, "<H", 7, "reserved field must be 0, got 7"),
        (116, "<B", 2, "ledger flag must be 0 or 1, got 2"),
        (104, "<I", 2, "RNG has_uint32 flag must be 0 or 1, got 2"),
        (104, "<I", 2**31, "RNG has_uint32 flag must be 0 or 1, got 2147483648"),
        (104, "<I", 2**32 - 1, "RNG has_uint32 flag must be 0 or 1, got 4294967295"),
    ],
    ids=["num-active", "eta-max", "reserved", "ledger-flag", "has-uint32-2", "has-uint32-2**31",
         "has-uint32-max"],
)
def test_checksum_valid_header_with_bad_field_is_format_error(
    geometry, offset, fmt, value, message
):
    blob = bytearray(encode_model(populated_model(geometry))[:-CRC_BYTES])
    struct.pack_into(fmt, blob, offset, value)
    with pytest.raises(SnapshotFormatError, match=message):
        decode_model(with_crc(bytes(blob)))
