"""Output checks for the benchmark, independent of the program's own code.

Every checker returns a list of problems (empty when the output is right).
Reference values are recomputed here with numpy from the raw inputs and the
weight bits, or are properties the method must have; nothing is compared
against a saved copy of earlier output, and no program function is called.
"""

from __future__ import annotations

import re
import struct
import zlib

import numpy as np

# Snapshot layout, as documented in ``msdc/snapshot.py``: a 117-byte header,
# the bit-packed weights, an optional ledger, and a trailing CRC-32.
_HEADER = struct.Struct("<4sHH5II5d16s16sIIIB")


def check_code(code, q: int, k: int) -> list[str]:
    """A code names one winner in [0, K) for each of the Q modules."""
    code = np.asarray(code)
    if code.shape != (q,):
        return [f"code has shape {code.shape}, expected ({q},)"]
    if code.min() < 0 or code.max() >= k:
        return [f"code entry outside [0, {k}): {code.tolist()}"]
    return []


def check_first_store(familiarity: float, rho: np.ndarray, k: int) -> list[str]:
    """An empty model sees G == 0 exactly and gives every unit odds 1/K."""
    problems = []
    if familiarity != 0.0:
        problems.append(f"first store has G={familiarity!r}, expected exactly 0")
    if not np.all(rho == 1.0 / k):
        problems.append("first store's win probabilities are not uniform")
    return problems


def check_store_ops(deltas: list[dict[str, int]], s: int, q: int, k: int) -> list[str]:
    """Every store does identical work, and the work the geometry dictates."""
    problems = []
    first = deltas[0]
    for i, delta in enumerate(deltas):
        if delta != first:
            problems.append(f"store {i} op counts {delta} differ from store 0's {first}")
            break
    expected = {"weight_reads": s * q * k, "sigmoid_evals": q * k, "rng_draws": q,
                "weight_writes": s * q}
    for name, want in expected.items():
        if first.get(name) != want:
            problems.append(f"store {name}={first.get(name)}, expected {want}")
    return problems


def or_of_stores(pixels: np.ndarray, codes: np.ndarray, num_pixels: int, k: int) -> np.ndarray:
    """Weight bits after storing each (pixel set, code) pair into empty weights.

    ``pixels`` is (N, S) active pixel indices, ``codes`` is (N, Q) winners.
    """
    n, q = codes.shape
    bits = np.zeros(num_pixels * q * k, dtype=np.uint8)
    columns = codes + np.arange(q) * k
    for lo in range(0, n, 256):
        flat = pixels[lo : lo + 256, :, None] * (q * k) + columns[lo : lo + 256, None, :]
        bits[flat.ravel()] = 1
    return bits.reshape(num_pixels, q * k)


def check_weights(bits: np.ndarray, pixels: np.ndarray, codes: np.ndarray, k: int) -> list[str]:
    """The weights are exactly the OR over every stored (pattern, code) pair."""
    want = or_of_stores(pixels, codes, bits.shape[0], k)
    if want.shape != bits.shape:
        return [f"weight shape {bits.shape}, expected {want.shape}"]
    wrong = int(np.count_nonzero(want != bits))
    if wrong:
        return [f"{wrong} weight bits differ from the OR of the stored pairs"]
    return []


def summation(bits: np.ndarray, pixels, q: int, k: int, w_max: int) -> np.ndarray:
    """Per-unit input summation ``u`` recomputed from the weight bits."""
    rows = bits[np.asarray(pixels, dtype=np.intp)]
    return (rows.sum(axis=0, dtype=np.int64) * w_max).reshape(q, k)


def check_selection(
    u: np.ndarray,
    familiarity: float,
    code,
    mode: str,
    bits: np.ndarray,
    pixels,
    s: int,
    w_max: int,
    stored: bool,
) -> list[str]:
    """A retrieval's u, G and winners agree with the weights.

    ``u`` must equal the recomputed summation and G its mean per-module max
    of u / (S * w_max).  A hard code picks a maximal unit in every module; a
    stored probe has G == 1 and, in hard mode, U == 1 at every winner.
    """
    q, k = u.shape
    problems = check_code(code, q, k)
    if problems:
        return problems
    want_u = summation(bits, pixels, q, k, w_max)
    if not np.array_equal(u, want_u):
        return ["u differs from the summation recomputed from the weight bits"]
    u_norm = want_u / float(s * w_max)
    want_g = float(u_norm.max(axis=1).mean())
    if abs(familiarity - want_g) > 1e-12:
        problems.append(f"G={familiarity!r}, recomputed {want_g!r}")
    winners = u_norm[np.arange(q), np.asarray(code)]
    if mode == "hard" and np.any(winners != u_norm.max(axis=1)):
        problems.append("hard code has a winner below its module's maximum")
    if stored:
        if familiarity != 1.0:
            problems.append(f"stored probe has G={familiarity!r}, expected exactly 1")
        if mode == "hard" and np.any(winners != 1.0):
            problems.append("stored probe's hard code has a winner with U < 1")
    return problems


def check_belief(
    labels,
    similarities,
    intersections,
    likelihoods,
    code,
    ledger_labels,
    ledger_codes: np.ndarray,
    ledger_members: np.ndarray,
    probe_pixels,
    s: int,
) -> list[str]:
    """A belief report covers the ledger in order with the right figures.

    ``ledger_codes`` is (N, Q); ``ledger_members`` is an (N, num_pixels)
    boolean incidence matrix of the stored patterns.
    """
    q = ledger_codes.shape[1]
    if list(labels) != list(ledger_labels):
        return ["belief entries are not the ledger's items in ledger order"]
    want_inter = (ledger_codes == np.asarray(code)).sum(axis=1)
    inter = np.asarray(intersections)
    problems = []
    if not np.array_equal(inter, want_inter):
        problems.append(
            f"{int(np.count_nonzero(inter != want_inter))} intersections differ "
            "from (code == recorded_code).sum()"
        )
    want_sim = ledger_members[:, np.asarray(probe_pixels, dtype=np.intp)].sum(axis=1) / s
    if not np.array_equal(np.asarray(similarities), want_sim):
        problems.append("input similarities differ from |X & Y| / S")
    if not np.array_equal(np.asarray(likelihoods), inter / q):
        problems.append("likelihoods differ from intersection / Q")
    return problems


def rank_average(values) -> np.ndarray:
    """Ranks from 1, ties sharing the mean of the ranks they span."""
    _, inverse, counts = np.unique(np.asarray(values), return_inverse=True, return_counts=True)
    start = np.cumsum(counts) - counts
    return (start + (counts + 1) / 2.0)[inverse]


def spearman(a, b) -> float:
    return float(np.corrcoef(rank_average(a), rank_average(b))[0, 1])


def check_scenario(
    similarities: dict[str, np.ndarray],
    intersections: dict[str, np.ndarray],
    schedule: dict[str, tuple[int, ...]],
    s: int,
    q: int,
    k: int,
) -> list[str]:
    """The appendix experiment's claims over one block of seeds.

    For each probe, ``similarities`` and ``intersections`` are (seeds, items)
    arrays with items in stored order I1, I2, ...; ``schedule`` gives the
    probe's pixel overlap with each item.
    """
    problems = []
    for probe, overlaps in schedule.items():
        if not np.all(similarities[probe] == np.asarray(overlaps) / s):
            problems.append(f"{probe}: input similarities differ from the schedule / S")
    i7 = intersections["I7"]
    rho = spearman(np.asarray(schedule["I7"]) / s, i7.mean(axis=0))
    if not rho >= 0.9:
        problems.append(f"I7 rank correlation {rho:.3f} < 0.9")
    # np.argmax and a stable sort pick the earliest item on a tie.
    top7 = np.mean(np.argmax(i7, axis=1) == 0)
    if top7 < 0.9:
        problems.append(f"I1 tops I7 in {top7:.1%} of seeds, < 90%")
    top8 = np.mean(np.argmax(intersections["I8"], axis=1) == 1)
    if top8 < 0.9:
        problems.append(f"I2 tops I8 in {top8:.1%} of seeds, < 90%")
    top_two = np.sort(np.argsort(-intersections["I9"], axis=1, kind="stable")[:, :2], axis=1)
    top9 = np.mean(np.all(top_two == (2, 5), axis=1))
    if top9 < 0.9:
        problems.append(f"I3 and I6 top I9 in {top9:.1%} of seeds, < 90%")
    for probe, overlaps in schedule.items():
        inter = intersections[probe]
        sigma = np.sqrt((1 / k) * (1 - 1 / k) / (q * inter.shape[0]))
        for item in np.flatnonzero(np.asarray(overlaps) == 0):
            mean = inter[:, item].mean() / q
            if not abs(mean - 1 / k) < 3 * sigma:
                problems.append(
                    f"{probe}: zero-overlap item I{item + 1} mean likelihood "
                    f"{mean:.4f} is not within 3 sigma ({3 * sigma:.4f}) of 1/K"
                )
    return problems


def check_same_files(first: dict[str, bytes], again: dict[str, bytes]) -> list[str]:
    """Emitted files are byte-identical between repetitions of one config."""
    if sorted(first) != sorted(again):
        return [f"emitted files {sorted(again)} differ from {sorted(first)}"]
    return [f"{name} differs between repetitions" for name in sorted(first) if first[name] != again[name]]


def parse_snapshot(blob: bytes) -> dict:
    """Decode a snapshot following its documented layout.

    Returns geometry, stored count, weight bits and the ledger as
    ``(label, pixels, code)`` tuples.  Raises ``ValueError`` on any defect.
    """
    if len(blob) < _HEADER.size + 4:
        raise ValueError("snapshot shorter than its header")
    if zlib.crc32(blob[:-4]) != struct.unpack_from("<I", blob, len(blob) - 4)[0]:
        raise ValueError("snapshot CRC mismatch")
    head = _HEADER.unpack_from(blob, 0)
    if head[0] != b"MSDC" or head[1] != 1:
        raise ValueError("not a version-1 snapshot")
    width, height, s, q, k = head[3:8]
    w_max, num_stored, has_ledger = head[8], head[18], head[19]
    num_pixels, num_units = width * height, q * k
    pos = _HEADER.size
    n_bytes = -(-num_pixels * num_units // 8)
    packed = np.frombuffer(blob, dtype=np.uint8, count=n_bytes, offset=pos)
    bits = np.unpackbits(packed, count=num_pixels * num_units, bitorder="little")
    pos += n_bytes
    ledger = None
    if has_ledger:
        ledger = []
        (count,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        for _ in range(count):
            (n_label,) = struct.unpack_from("<H", blob, pos)
            label = blob[pos + 2 : pos + 2 + n_label].decode("utf-8")
            pos += 2 + n_label
            (n_pix,) = struct.unpack_from("<I", blob, pos)
            pix = struct.unpack_from(f"<{n_pix}I", blob, pos + 4)
            pos += 4 + 4 * n_pix
            (n_win,) = struct.unpack_from("<I", blob, pos)
            win = struct.unpack_from(f"<{n_win}H", blob, pos + 4)
            pos += 4 + 2 * n_win
            ledger.append((label, pix, win))
    if pos + 4 != len(blob):
        raise ValueError(f"snapshot has {len(blob) - pos - 4} bytes past its ledger")
    return {
        "geometry": (width, height, s, q, k),
        "w_max": w_max,
        "num_stored": num_stored,
        "bits": bits.reshape(num_pixels, num_units),
        "ledger": ledger,
    }


def snapshot_size(num_pixels: int, num_units: int, ledger) -> int:
    """File size the documented layout gives for these weights and ledger."""
    size = _HEADER.size + -(-num_pixels * num_units // 8) + 4
    if ledger is not None:
        size += 4 + sum(
            2 + len(label.encode("utf-8")) + 4 + 4 * len(pix) + 4 + 2 * len(win)
            for label, pix, win in ledger
        )
    return size


def check_snapshot_after_store(before: dict, blob: bytes, label: str, pixels) -> list[str]:
    """One store grew the ledger by its item and only ever set weight bits."""
    try:
        after = parse_snapshot(blob)
    except (ValueError, struct.error) as exc:
        return [f"snapshot does not decode: {exc}"]
    problems = []
    width, height, _, q, k = after["geometry"]
    if len(blob) != snapshot_size(width * height, q * k, after["ledger"]):
        problems.append("snapshot size differs from the documented layout")
    if after["num_stored"] != before["num_stored"] + 1:
        problems.append("stored count did not grow by one")
    if after["ledger"][:-1] != before["ledger"] or len(after["ledger"]) != len(before["ledger"]) + 1:
        problems.append("ledger did not grow by exactly the stored item")
    elif after["ledger"][-1][:2] != (label, tuple(sorted(pixels))):
        problems.append("last ledger entry is not the stored pattern")
    if np.any(before["bits"] > after["bits"]):
        problems.append("a weight bit was cleared by a store")
    return problems


_CODE_LINE = re.compile(r"^(?:code: |stored \S+: G=\S+ code=)([\d ]+)$", re.M)
_G_LINE = re.compile(r"G=([0-9.eE+-]+)")
_ENTRY_LINE = re.compile(r"^(\S+): similarity=\S+ intersection=(\d+)/(\d+) ", re.M)


def parse_printed_code(stdout: str, q: int, k: int) -> tuple[np.ndarray | None, list[str]]:
    """The code and G a ``store`` or ``query`` invocation printed."""
    match = _CODE_LINE.search(stdout)
    g = _G_LINE.search(stdout)
    if match is None or g is None:
        return None, ["no code or G line in the command's output"]
    code = np.array([int(c) for c in match.group(1).split()])
    in_range = 0.0 <= float(g.group(1)) <= 1.0
    return code, check_code(code, q, k) + ([] if in_range else [f"G={g.group(1)} outside [0, 1]"])


def check_query_output(stdout: str, ledger, q: int, k: int, stored: bool) -> list[str]:
    """A ``query`` printout: valid code, ledger-order intersections that match
    the printed code against the decoded ledger, and G == 1 for a stored probe."""
    code, problems = parse_printed_code(stdout, q, k)
    if code is None or problems:
        return problems
    if stored and float(_G_LINE.search(stdout).group(1)) != 1.0:
        problems.append("stored pattern queried with G != 1")
    entries = _ENTRY_LINE.findall(stdout)
    if [e[0] for e in entries] != [label for label, _, _ in ledger]:
        return problems + ["query lines are not the ledger's items in order"]
    printed = np.array([int(e[1]) for e in entries])
    want = (np.array([win for _, _, win in ledger]) == code).sum(axis=1)
    if not np.array_equal(printed, want):
        problems.append(
            f"{int(np.count_nonzero(printed != want))} printed intersections differ "
            "from the printed code against the decoded ledger"
        )
    return problems
