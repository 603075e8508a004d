"""Versioned binary snapshots of a memory model.

Layout (all integers little-endian; bit-packed bytes little bit order):

    offset  size  field
    0       4     magic ``MSDC``
    4       2     format version (u16), currently 1
    6       2     reserved (0)
    8       20    geometry: input_width, input_height, num_active,
                  num_cms, units_per_cm (5 x u32)
    28      4     w_max (u32)
    32      40    params: eta_max, steepness, midpoint, g_floor,
                  g_exponent (5 x f64)
    72      16    RNG state (u128)
    88      16    RNG stream increment (u128)
    104     4     RNG has_uint32 flag (u32)
    108     4     RNG cached uint32 (u32)
    112     4     number of completed stores (u32)
    116     1     ledger-present flag (u8)
    117     -     weight bits, packed 8 per byte, row-major by pixel:
                  ceil(num_pixels * num_units / 8) bytes
    ...     -     ledger, if present: count (u32); per entry label length
                  (u16) + UTF-8 bytes, pixel count (u32) + pixel indices
                  (u32 each), winner count (u32) + winners (u16 each)
    last 4  4     CRC-32 of all preceding bytes

Round-trips are bit-exact: a loaded model produces traces identical to the
saved one for the same inputs.  Loading never yields a partial model; any
defect raises before construction (distinct errors for wrong version,
truncation, and checksum mismatch).  After the checksum, every ledger entry
is checked against the geometry (S pixels inside the grid, Q winners below
K, a UTF-8 label); a bad entry raises ``SnapshotFormatError``.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .core import CsaParams, InputPattern, ModelGeometry, WeightMatrix
from .errors import (
    PatternError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotTruncatedError,
    SnapshotVersionError,
)
from .memory import LedgerEntry, MemoryModel

MAGIC = b"MSDC"
FORMAT_VERSION = 1


def _pack_rng_state(rng: np.random.Generator) -> bytes:
    state = rng.bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise SnapshotFormatError(
            f"only PCG64 generators can be snapshotted, got {state['bit_generator']}"
        )
    inner = state["state"]
    return (
        int(inner["state"]).to_bytes(16, "little")
        + int(inner["inc"]).to_bytes(16, "little")
        + struct.pack("<II", int(state["has_uint32"]), int(state["uinteger"]))
    )


def _unpack_rng_state(blob: bytes) -> dict:
    state = int.from_bytes(blob[0:16], "little")
    inc = int.from_bytes(blob[16:32], "little")
    has_uint32, uinteger = struct.unpack_from("<II", blob, 32)
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


def encode_model(model: MemoryModel) -> bytes:
    g = model.geometry
    parts = [
        MAGIC,
        struct.pack("<HH", FORMAT_VERSION, 0),
        struct.pack(
            "<5I", g.input_width, g.input_height, g.num_active, g.num_cms, g.units_per_cm
        ),
        struct.pack("<I", model.w_max),
        struct.pack(
            "<5d",
            model.params.eta_max,
            model.params.steepness,
            model.params.midpoint,
            model.params.g_floor,
            model.params.g_exponent,
        ),
        _pack_rng_state(model.rng),
        struct.pack("<I", model.num_stored),
        struct.pack("<B", 1 if model.ledger is not None else 0),
        np.packbits(model.weights.bits, bitorder="little").tobytes(),
    ]
    if model.ledger is not None:
        parts.append(struct.pack("<I", len(model.ledger)))
        for entry in model.ledger:
            label = entry.label.encode("utf-8")
            parts.append(struct.pack("<H", len(label)))
            parts.append(label)
            parts.append(struct.pack("<I", len(entry.pattern.active)))
            parts.append(struct.pack(f"<{len(entry.pattern.active)}I", *entry.pattern.active))
            parts.append(struct.pack("<I", len(entry.code)))
            parts.append(struct.pack(f"<{len(entry.code)}H", *entry.code))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


class _Cursor:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise SnapshotTruncatedError(
                f"snapshot ends at byte {len(self.blob)}, "
                f"needed {self.pos + n}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def decode_model(blob: bytes) -> MemoryModel:
    cur = _Cursor(blob)
    if cur.take(4) != MAGIC:
        raise SnapshotFormatError("not a model snapshot (bad magic)")
    version, _reserved = cur.unpack("<HH")
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"snapshot format version {version}, expected {FORMAT_VERSION}"
        )
    width, height, active, cms, units = cur.unpack("<5I")
    (w_max,) = cur.unpack("<I")
    eta_max, steepness, midpoint, g_floor, g_exponent = cur.unpack("<5d")
    rng_state = _unpack_rng_state(cur.take(40))
    (num_stored,) = cur.unpack("<I")
    (ledger_flag,) = cur.unpack("<B")

    geometry = ModelGeometry(width, height, active, cms, units)
    n_weight_bytes = -(-geometry.num_pixels * geometry.num_units // 8)
    packed = np.frombuffer(cur.take(n_weight_bytes), dtype=np.uint8)
    bits = np.unpackbits(
        packed, count=geometry.num_pixels * geometry.num_units, bitorder="little"
    ).reshape(geometry.num_pixels, geometry.num_units)

    raw_ledger = None
    if ledger_flag:
        raw_ledger = []
        (count,) = cur.unpack("<I")
        for _ in range(count):
            (label_len,) = cur.unpack("<H")
            label = cur.take(label_len)
            (n_pix,) = cur.unpack("<I")
            pixels = cur.unpack(f"<{n_pix}I")
            (n_win,) = cur.unpack("<I")
            winners = cur.unpack(f"<{n_win}H")
            raw_ledger.append((label, pixels, winners))

    (stored_crc,) = cur.unpack("<I")
    if cur.pos != len(blob):
        raise SnapshotFormatError(f"{len(blob) - cur.pos} trailing bytes after checksum")
    if zlib.crc32(blob[: cur.pos - 4]) != stored_crc:
        raise SnapshotIntegrityError("snapshot checksum mismatch")
    ledger = None
    if raw_ledger is not None:
        ledger = [_ledger_entry(geometry, i, *raw) for i, raw in enumerate(raw_ledger)]

    model = MemoryModel(
        geometry,
        CsaParams(eta_max, steepness, midpoint, g_floor, g_exponent),
        w_max=w_max,
        enable_ledger=False,
    )
    model.weights = WeightMatrix(
        geometry.num_pixels, geometry.num_units, w_max, bits=bits
    )
    model.rng.bit_generator.state = rng_state
    model.num_stored = num_stored
    model.ledger = ledger
    return model


def _ledger_entry(
    geometry: ModelGeometry,
    index: int,
    label: bytes,
    pixels: tuple[int, ...],
    winners: tuple[int, ...],
) -> LedgerEntry:
    """One decoded ledger entry, checked against the model's geometry."""
    where = f"ledger entry {index}"
    if len(pixels) != geometry.num_active:
        raise SnapshotFormatError(
            f"{where} has {len(pixels)} pixels, expected {geometry.num_active}"
        )
    if max(pixels) >= geometry.num_pixels:
        raise SnapshotFormatError(
            f"{where} has pixel {max(pixels)} outside the "
            f"{geometry.num_pixels}-pixel grid"
        )
    if len(winners) != geometry.num_cms:
        raise SnapshotFormatError(
            f"{where} has {len(winners)} winners, expected {geometry.num_cms}"
        )
    if max(winners) >= geometry.units_per_cm:
        raise SnapshotFormatError(
            f"{where} has winner {max(winners)} outside [0, {geometry.units_per_cm})"
        )
    try:
        text = label.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"{where} label is not valid UTF-8: {exc}") from exc
    try:
        pattern = InputPattern(pixels)
    except PatternError as exc:
        raise SnapshotFormatError(f"{where}: {exc}") from exc
    return LedgerEntry(text, pattern, winners)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the target directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: MemoryModel, destination: str | Path) -> None:
    atomic_write_bytes(destination, encode_model(model))


def load_model(source: str | Path) -> MemoryModel:
    return decode_model(Path(source).read_bytes())
