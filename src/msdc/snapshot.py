"""Versioned binary snapshots of a memory model.

Layout (all integers little-endian; bit-packed bytes little bit order):

    offset  size  field
    0       4     magic ``MSDC``
    4       2     format version (u16), currently 1
    6       2     reserved (0)
    8       20    geometry: input_width, input_height, num_active,
                  num_cms, units_per_cm (5 x u32)
    28      4     w_max (u32), always 127
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
    ...     -     ledger, if present: count (u32), then per entry its label
                  length (u16), UTF-8 label and ``<I{S}II{Q}H``: pixel
                  count, pixel indices, winner count, winners
    last 4  4     CRC-32 of all preceding bytes

Round-trips are bit-exact: a loaded model produces traces identical to the
saved one for the same inputs.  Loading never yields a partial model.  It
checks, in order, the magic, version, truncation, trailing bytes and
checksum, reading only the counts that size the sections; so a corrupted
byte anywhere raises a ``SnapshotError``.  Only then are the fields read,
and a blob loads only if ``encode_model`` would write it back byte for
byte: a reserved field other than 0, a ledger or ``has_uint32`` flag other
than 0 or 1, a set padding bit after the weights, invalid geometry or
params, a ``w_max`` other than 127, or a ledger entry that does not fit the
geometry (S ascending pixels inside the grid, Q winners below K, a UTF-8
label) raises ``SnapshotFormatError``.
"""

from __future__ import annotations

import os
import stat
import struct
import zlib
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .core import CsaParams, InputPattern, ModelGeometry, W_MAX, _check_w_max
from .errors import (
    GeometryError,
    PatternError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotTruncatedError,
    SnapshotVersionError,
)
from .memory import LedgerEntry, MemoryModel

MAGIC = b"MSDC"
FORMAT_VERSION = 1

# Bytes 0-116 of the table above, magic through ledger flag.
_HEADER = struct.Struct("<4sHH5II5d16s16sIIIB")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def encode_model(model: MemoryModel) -> bytes:
    g, ledger = model.geometry, model.ledger
    rng = model.rng.bit_generator.state
    if rng["bit_generator"] != "PCG64":
        raise SnapshotFormatError(
            f"only PCG64 generators can be snapshotted, got {rng['bit_generator']}"
        )
    parts = [
        _HEADER.pack(
            MAGIC, FORMAT_VERSION, 0, *astuple(g), W_MAX, *astuple(model.params),
            rng["state"]["state"].to_bytes(16, "little"),
            rng["state"]["inc"].to_bytes(16, "little"),
            rng["has_uint32"], rng["uinteger"],
            model.num_stored,
            ledger is not None,
        ),
        np.packbits(model.weights.bits, bitorder="little").tobytes(),
    ]
    if ledger is not None:
        s, q = g.num_active, g.num_cms
        tail = struct.Struct(f"<I{s}II{q}H")
        parts.append(_U32.pack(len(ledger)))
        for entry in ledger:
            label = entry.label.encode("utf-8")
            tail_bytes = tail.pack(s, *entry.pattern.active, q, *entry.code)
            parts += (_U16.pack(len(label)), label, tail_bytes)
    body = b"".join(parts)
    return body + _U32.pack(zlib.crc32(body))


def decode_model(blob: bytes) -> MemoryModel:
    if blob[:4] != MAGIC[: len(blob)]:
        raise SnapshotFormatError("not a model snapshot (bad magic)")
    version = int.from_bytes(blob[4:6], "little")
    if len(blob) >= 6 and version != FORMAT_VERSION:
        raise SnapshotVersionError(f"snapshot format version {version}, expected {FORMAT_VERSION}")
    # Size every section from its count fields, reading nothing else, so
    # that no field is interpreted before the checksum holds.
    try:
        head = _HEADER.unpack_from(blob)
        reserved, dims, w_max, param_values = head[2], head[3:8], head[8], head[9:14]
        state, inc, has_uint32, uinteger, num_stored, has_ledger = head[14:]
        num_bits = dims[0] * dims[1] * dims[3] * dims[4]  # pixels x units
        weight_bytes = -(-num_bits // 8)
        pos = _HEADER.size + weight_bytes
        spans = None  # per ledger entry: label offset, label, pixel and winner counts
        if has_ledger:
            (count,) = _U32.unpack_from(blob, pos)
            pos += 4
            spans = []
            for _ in range(count):
                (n_label,) = _U16.unpack_from(blob, pos)
                (n_pix,) = _U32.unpack_from(blob, pos + 2 + n_label)
                (n_win,) = _U32.unpack_from(blob, pos + 6 + n_label + 4 * n_pix)
                spans.append((pos + 2, n_label, n_pix, n_win))
                pos += 10 + n_label + 4 * n_pix + 2 * n_win
        (stored_crc,) = _U32.unpack_from(blob, pos)
    except (struct.error, OverflowError):  # an offset past the end, or past any buffer
        raise SnapshotTruncatedError(
            f"snapshot ends at byte {len(blob)}, before the content its header declares"
        ) from None
    if pos + 4 != len(blob):
        raise SnapshotFormatError(f"{len(blob) - pos - 4} trailing bytes after checksum")
    if zlib.crc32(blob[:pos]) != stored_crc:
        raise SnapshotIntegrityError("snapshot checksum mismatch")
    if reserved != 0:
        raise SnapshotFormatError(f"snapshot reserved field must be 0, got {reserved}")
    for name, flag in (("ledger flag", has_ledger), ("RNG has_uint32 flag", has_uint32)):
        if flag > 1:
            raise SnapshotFormatError(f"snapshot {name} must be 0 or 1, got {flag}")
    if num_bits % 8 and blob[_HEADER.size + weight_bytes - 1] >> num_bits % 8:
        raise SnapshotFormatError("snapshot weight padding bits must be 0")

    try:
        geometry = ModelGeometry(*dims)
        params = CsaParams(*param_values)
    except GeometryError as exc:
        raise SnapshotFormatError(f"snapshot header: {exc}") from exc
    _check_w_max(w_max, "snapshot w_max", SnapshotFormatError)
    ledger = None
    if spans is not None:
        ledger = []
        for i, (at, n_label, n_pix, n_win) in enumerate(spans):
            label = blob[at : at + n_label]
            tail = struct.unpack_from(f"<I{n_pix}II{n_win}H", blob, at + n_label)
            ledger.append(_ledger_entry(geometry, i, label, tail[1 : 1 + n_pix], tail[2 + n_pix :]))

    model = MemoryModel(geometry, params, enable_ledger=ledger is not None)
    packed = np.frombuffer(blob, np.uint8, weight_bytes, _HEADER.size)
    bits = np.unpackbits(packed, count=num_bits, bitorder="little")
    model.weights.bits = bits.reshape(geometry.num_pixels, geometry.num_units)
    model.rng.bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": has_uint32, "uinteger": uinteger,
        "state": {"state": int.from_bytes(state, "little"), "inc": int.from_bytes(inc, "little")},
    }
    model.num_stored = num_stored
    if ledger:
        model._append_ledger(
            ledger,
            np.array([e.code for e in ledger]),
            np.array([e.pattern.active for e in ledger]),
        )
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
    try:
        pattern = InputPattern(pixels)
        geometry.validate_pattern(pattern)
    except PatternError as exc:
        raise SnapshotFormatError(f"{where}: {exc}") from exc
    if pattern.active != pixels:  # InputPattern would sort them
        raise SnapshotFormatError(f"{where} pixels are not in ascending order")
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
    return LedgerEntry(text, pattern, winners)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the target directory, flushed to disk, then
    rename it over the target and flush the directory, where the platform
    can open one, so that the rename survives a crash.  A failed flush
    raises an ``OSError`` of the same errno whose text says that the target
    was written.  The result keeps the target's permission bits if it
    exists; a new file gets ``0o666`` less the umask, as ``open()`` would
    give it."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if path.exists():
                os.fchmod(fd, stat.S_IMODE(path.stat().st_mode))
            fh.write(data)
            fh.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    if hasattr(os, "O_DIRECTORY"):
        try:
            fd = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError as exc:
            # The target already holds the new bytes: say so, so that a
            # caller does not retry a write that took effect.
            raise OSError(
                exc.errno, f"{path} was written, but flushing its directory failed: "
                f"{exc.strerror}"
            ) from exc


def save_model(model: MemoryModel, destination: str | Path) -> None:
    atomic_write_bytes(destination, encode_model(model))


def load_model(source: str | Path) -> MemoryModel:
    return decode_model(Path(source).read_bytes())
