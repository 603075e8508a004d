"""Scenario harness: graded-overlap corpora, multi-seed trials, plot data.

A scenario stores a set of pairwise-disjoint patterns and then probes the
memory with test patterns holding a prescribed pixel overlap with each
stored item.  Because the stored patterns are disjoint, a probe's overlaps
must sum to at most S (every probe pixel can coincide with at most one
stored pattern); infeasible schedules are rejected up front.

The default scenario uses a 12x12 grid, S=12, Q=24, K=8 and three probes:

* ``I7`` ramps across the stored items, (5, 4, 2, 1, 0, 0)/12 — the most
  similar item should light up hardest, and mean code intersections should
  rank-correlate with the input similarities.
* ``I8`` peaks hard at the second item, (0, 7, 3, 2, 0, 0)/12 — its code
  should share most of its winners with that item's code.
* ``I9`` splits evenly, (0, 0, 6, 0, 0, 6)/12 — the two half-matched items
  should come out approximately equally, and most, active.

Corpus layout is deterministic (block allocation over the pixel grid), so
a scenario plus its seed list fully determines every output byte.

Each seed is an independent single-trial run: a fresh
``MemoryModel(..., seed=seed)`` stores every item, then reads a belief for
every probe.  Code selection is fixed-time, so ``run_scenario`` runs the
seeds in blocks (37 seeds at the appendix geometry, never fewer than one).
The stored items are disjoint, so every pixel of item i carries the same
weight row, one-hot of item i's code, and a pixel no item holds keeps a
zero row.  A block therefore stacks one row per item plus one shared zero
row, as a (B, items + 1, Q*K) array, and every pixel array the kernel
would take becomes the array of those pixels' rows: the kernel sums the
same rows, so u, G, eta and every code are unchanged.  Every store is
wholly novel (G = 0) and draws from the flat chart of an empty model: one
kernel call on the plane of the run's one empty model draws all of a
block's store codes, and each is then learned into its item's one row of
the block's planes.  The kernel then runs once per probe step over the
block, writing into the result's arrays, which are allocated once.  Each
seed's own model-RNG stream, with no model built for it, supplies its Q
uniforms per step in the single-model order (stores in store order, then
probes), so every record is the one a seed-by-seed loop over
``MemoryModel.store`` and ``belief_update`` would give, bit for bit.  One
call per run, ``memory._pcg64_states``, gives each seed's ``default_rng``
state: SeedSequence's hashes as arrays, numpy's for a seed over 128 bits, and
PCG64's step on Python ints.  Each row is drawn from it on one generator.

The store draw and each soft probe step hold many models' uniforms, so the
soft draw takes its running count over them, not one model's ``cumsum``
(see ``core.draw_winners``).

``run_scenario(spec)`` returns a ``ScenarioResult`` that names ``spec`` and
builds a ``TrialRecord`` only when one is read.  The aggregates and the
trial writers take only a result of their own spec, and read its arrays;
the result forms the per-series means and stds that the aggregates, the
rank correlations and ``emit_results`` read once, when first read.  The
writers format each value once: a dense integer column, such as codes or
intersections, by its offset in a table of its range, and a likelihood by
its intersection count; each cell carries the layout that follows it, so
each trial section is one join.
"""

from __future__ import annotations

import csv
import io
import json
from collections import abc
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np

from . import memory
from .core import (
    CsaParams, InputPattern, ModelGeometry, _GEOMETRY_KEYS, _PARAM_KEYS, _as_int, _check_w_max,
    _config_object, _model_record, _parse_json, _read_text, _zeros,
)
from .errors import ConfigError, GeometryError, ScheduleError
from .memory import MemoryModel, _check_mode, _pcg64_states, _select_codes

# Seeds per block, sized as if each seed held a full (P, Q*K) weight plane
# of 1 MiB in all: 37 seeds at the appendix geometry.  A block's per-item
# planes hold only (items + 1) of those P rows, so it stays well under the
# budget, and peak memory does not grow with the seed count.
_BLOCK_BYTES = 1 << 20

# The most memory a scenario's results may need, as ``_result_bytes``
# estimates it: 1 GiB, or 61,987 seeds of the appendix scenario.  A
# scenario that needs more is refused before any seed is built.
MAX_RESULT_BYTES = 1 << 30
# Bytes per value of a record, allowed for the value in run_scenario's
# arrays, its text in each of emit_results's outputs and the cell that holds
# that text; the appendix scenario takes about 75.
_VALUE_BYTES = 128

TRIAL_COLUMNS = (
    "seed", "probe", "item", "input_similarity", "code_intersection", "likelihood", "familiarity"
)
AGGREGATE_COLUMNS = (
    "probe", "item", "input_similarity", "mean_intersection", "std_intersection",
    "mean_likelihood", "std_likelihood", "num_seeds",
)


def _count(seeds: Sequence) -> int:
    """How many seeds ``seeds`` holds, counted without iterating it, a range
    even beyond ``sys.maxsize``."""
    try:
        return len(seeds)
    except OverflowError:  # a range too long for len()
        return (seeds[-1] - seeds[0]) // seeds.step + 1


def _result_bytes(num_seeds: int, probes, num_cms: int, num_stored: int) -> int:
    """An upper estimate of the bytes ``run_scenario`` and ``emit_results``
    need for ``num_seeds`` seeds: per seed and probe, a record of Q winners,
    G, eta, the seed and, per stored item, a similarity, an intersection and
    a likelihood, and the probe's label once per item and once more."""
    values = len(probes) * (num_cms + 3 * num_stored + 3) * _VALUE_BYTES
    labels = (num_stored + 1) * sum(len(p.label) for p in probes)
    return num_seeds * (values + labels)


def _sequence(values, name: str) -> Sequence:
    """``values`` if it is an ordered, sized sequence: a list, a tuple, a
    range or a 1-d integer ndarray, such as ``np.arange(n)`` seeds.  Anything
    else, such as a set, a mapping, a ``str``, ``bytes``, an iterator or a
    float array, is a ``ScheduleError`` naming the field ``name``, rather
    than read in some order of its own."""
    if isinstance(values, (list, tuple, range)) or (
        isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu"
    ):
        return values
    raise ScheduleError(
        f"{name} must be a sequence (a list, a tuple, a range or a 1-d integer array), "
        f"got {values!r}"
    )


@dataclass(frozen=True)
class ProbeSpec:
    label: str
    overlaps: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ScheduleError(f"probe label must be a string, got {self.label!r}")
        where = f"probe {self.label!r} overlap"
        overlaps = tuple(_as_int(o, where, ScheduleError) for o in _sequence(self.overlaps, where))
        object.__setattr__(self, "overlaps", overlaps)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    geometry: ModelGeometry
    params: CsaParams
    num_stored: int
    probes: tuple[ProbeSpec, ...]
    seeds: tuple[int, ...]
    mode: str = "soft"
    # Optional storage-order variant: a permutation of the stored labels
    # (patterns and overlap schedules are unaffected, only store order).
    store_order: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ScheduleError(f"scenario name must be a string, got {self.name!r}")
        if not isinstance(self.geometry, ModelGeometry):
            raise GeometryError(f"geometry must be a ModelGeometry, got {self.geometry!r}")
        if not isinstance(self.params, CsaParams):
            raise GeometryError(f"params must be a CsaParams, got {self.params!r}")
        object.__setattr__(self, "probes", tuple(_sequence(self.probes, "probes")))
        seen = set()
        for probe in self.probes:
            if not isinstance(probe, ProbeSpec):
                raise ScheduleError(f"probes must be ProbeSpecs, got {probe!r}")
            if probe.label in seen:
                raise ScheduleError(f"two probes are labelled {probe.label!r}")
            seen.add(probe.label)
        num_stored = _as_int(self.num_stored, "num_stored", ScheduleError)
        object.__setattr__(self, "num_stored", num_stored)
        if num_stored < 1:
            raise ScheduleError("scenario needs at least one stored pattern")
        if not self.probes:
            raise ScheduleError("scenario needs at least one probe")
        _check_mode(self.mode, ScheduleError)
        # Each probe must fit num_stored disjoint S-pixel blocks plus filler.
        g, n, s = self.geometry, num_stored, self.geometry.num_active
        if n * s > g.num_pixels:
            raise ScheduleError(
                f"{n} disjoint patterns of {s} pixels do not fit "
                f"in a {g.num_pixels}-pixel grid"
            )
        free = g.num_pixels - n * s
        for probe in self.probes:
            if len(probe.overlaps) != n:
                raise ScheduleError(
                    f"probe {probe.label!r} has {len(probe.overlaps)} overlap entries, "
                    f"expected {n}"
                )
            if any(o < 0 or o > s for o in probe.overlaps):
                raise ScheduleError(f"probe {probe.label!r} overlap outside [0, {s}]")
            demanded = sum(probe.overlaps)
            if demanded > s:
                raise ScheduleError(
                    f"probe {probe.label!r} demands {demanded} overlapping pixels "
                    f"but patterns have only {s}; disjoint stored patterns make "
                    f"overlaps sum to at most {s}"
                )
            if s - demanded > free:
                raise ScheduleError(
                    f"probe {probe.label!r} needs {s - demanded} filler pixels but only "
                    f"{free} are free"
                )
        # Counted, and held to the cap, before a seed is built.
        seeds = _sequence(self.seeds, "seeds")
        count = _count(seeds)
        if _result_bytes(count, self.probes, g.num_cms, n) > MAX_RESULT_BYTES:
            raise ScheduleError(
                f"scenario seeds count {count} is too large: its results would need more "
                f"than the {MAX_RESULT_BYTES}-byte cap"
            )
        seeds = tuple(_as_int(s, "seed", ScheduleError) for s in seeds)
        object.__setattr__(self, "seeds", seeds)
        if not seeds:
            raise ScheduleError("scenario needs at least one seed")
        if min(seeds) < 0:
            raise ScheduleError(f"seeds must be non-negative, got {min(seeds)}")
        if self.store_order is not None:
            order = tuple(_sequence(self.store_order, "store_order"))
            object.__setattr__(self, "store_order", order)
            if not all(isinstance(label, str) for label in order):
                raise ScheduleError(f"store_order must hold labels, got {list(order)}")
            if sorted(order) != sorted(self.stored_labels()):
                raise ScheduleError(
                    f"store_order must permute {self.stored_labels()}, got {list(order)}"
                )

    def stored_labels(self) -> list[str]:
        return [f"I{i + 1}" for i in range(self.num_stored)]


def default_appendix_scenario(num_seeds: int = 200) -> ScenarioSpec:
    """The bundled appendix scenario (``load_scenario("appendix")``), with
    seeds ``0 .. num_seeds - 1``."""
    seeds = range(_as_int(num_seeds, "num_seeds", ScheduleError))
    return replace(load_scenario("appendix"), seeds=seeds)


def build_appendix_corpus(
    spec: ScenarioSpec,
) -> tuple[list[tuple[str, InputPattern]], list[tuple[str, InputPattern]]]:
    """Construct the stored patterns and probes for a scenario.

    Stored patterns are consecutive S-pixel blocks (hence pairwise
    disjoint); each probe takes the demanded number of pixels from the
    front of each stored block and fills the remainder from the free zone
    after all blocks.  The spec has already checked that its schedules fit,
    so each probe's overlaps are exactly as scheduled.
    """
    s = spec.geometry.num_active
    stored = [
        (label, InputPattern.from_indices(range(i * s, (i + 1) * s)))
        for i, label in enumerate(spec.stored_labels())
    ]

    free_base = spec.num_stored * s
    probes = []
    for probe in spec.probes:
        pixels = []
        for i, count in enumerate(probe.overlaps):
            pixels.extend(range(i * s, i * s + count))
        pixels.extend(range(free_base, free_base + s - sum(probe.overlaps)))
        probes.append((probe.label, InputPattern.from_indices(pixels)))
    return stored, probes


@dataclass(frozen=True)
class TrialRecord:
    """One probe presentation under one seed."""

    seed: int
    probe: str
    familiarity: float
    eta: float
    code: tuple[int, ...]
    similarities: dict[str, float]
    intersections: dict[str, int]
    likelihoods: dict[str, float]


@dataclass(frozen=True, eq=False)
class ScenarioResult(abc.Sequence):
    """``run_scenario(spec)``'s trials, read as records from the arrays that
    its seed blocks write into; ``spec`` is the scenario it ran.

    Item columns follow ``items`` (``spec.stored_labels()``); ``store_order``
    holds the item indices in the order they were stored.  Record ``i``, seed
    ``i // len(probes)`` under probe ``i % len(probes)``, is built when read,
    with the mapping order and leaf types of a seed-by-seed run.  A result
    equals a list of the same records.  Its arrays are not changed once it
    is built, so its per-series statistics are formed once, when first read.
    """

    spec: ScenarioSpec
    probes: tuple[str, ...]
    items: tuple[str, ...]
    store_order: tuple[int, ...]
    codes: np.ndarray  # (seeds, probes, Q)
    familiarity: np.ndarray  # (seeds, probes)
    eta: np.ndarray  # (seeds, probes)
    intersections: np.ndarray  # (seeds, probes, items)
    similarities: np.ndarray  # (probes, items), the same for every seed

    def __len__(self) -> int:
        return len(self.spec.seeds) * len(self.probes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        s, p = divmod(range(len(self))[index], len(self.probes))
        keys = [self.items[i] for i in self.store_order]
        inter = self.intersections[s, p, self.store_order]
        return TrialRecord(
            self.spec.seeds[s], self.probes[p],
            float(self.familiarity[s, p]), float(self.eta[s, p]), tuple(self.codes[s, p].tolist()),
            dict(zip(keys, self.similarities[p, self.store_order].tolist())),
            dict(zip(keys, inter.tolist())),
            dict(zip(keys, (inter / self.codes.shape[-1]).tolist())),
        )

    def __eq__(self, other):
        if isinstance(other, (ScenarioResult, list)):
            return list(self) == list(other)
        return NotImplemented

    @cached_property
    def _series_stats(self) -> tuple[list, list, list, list]:
        """Per (probe, item), over the seeds: the mean and std of the code
        intersections, then of the likelihoods, each as nested lists
        (probes, items) of floats.  ``aggregate_records``,
        ``similarity_rank_correlation`` and ``emit_results`` all read them."""
        # (probes, items, seeds): each series is one contiguous row, as in a 1-D
        # array of it, so numpy's pairwise sums give each mean and std its bits.
        inter = self.intersections.transpose(1, 2, 0).astype(np.float64, order="C")
        series = (inter, inter / self.codes.shape[-1])
        return tuple(f(a, axis=-1).tolist() for a in series for f in (np.mean, np.std))


def _seed_block_size(geometry: ModelGeometry) -> int:
    """Seeds per block: as many full (P, Q*K) weight planes as would fit in
    ``_BLOCK_BYTES``, although a block stores only its per-item rows."""
    return max(1, _BLOCK_BYTES // (geometry.num_pixels * geometry.num_units))


def _item_rows(stored: Sequence[tuple[str, InputPattern]], num_pixels: int) -> np.ndarray:
    """Each pixel's row in a block's per-item planes: the index of the
    stored item that holds it, or ``len(stored)``, the shared zero row, for
    a pixel that no item holds.  Read from the items' own pixels, so it
    relies only on their being disjoint."""
    row_of = _zeros(num_pixels, np.intp, f"a {num_pixels}-pixel row map")
    row_of.fill(len(stored))
    for i, (_, pattern) in enumerate(stored):
        row_of[list(pattern.active)] = i
    return row_of


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Per seed: fresh model, store all items in order, probe in order.

    Seeds run in blocks, each on its own model-RNG stream, with one empty
    model per run (see the module docstring).  The result holds the kernel's
    arrays; its records, each built only when read, are those of one model
    per seed, in seed order, then probe order.
    """
    stored, probes = build_appendix_corpus(spec)
    items = [label for label, _ in stored]
    order = [items.index(label) for label in spec.store_order or items]
    g = spec.geometry
    similarities = np.array([p.overlaps for p in spec.probes]) / g.num_active
    row_of = _item_rows(stored, g.num_pixels)
    probe_rows = [row_of[list(p.active)] for _, p in probes]
    num_draws = (len(stored) + len(probes)) * g.num_cms
    block = _seed_block_size(g)
    empty = MemoryModel(g, spec.params).weights.bits[None]
    zero_rows = np.zeros(g.num_active, dtype=np.intp)
    n, m = len(spec.seeds), len(probes)
    codes = _zeros((n, m, g.num_cms), np.intp, f"{n} x {m} x {g.num_cms} scenario codes")
    familiarity, eta = (_zeros((n, m), np.float64, f"{n} x {m} scenario {x}") for x in ("G", "eta"))
    intersections = _zeros((n, m, len(stored)), np.intp, f"{n} x {m} x {len(stored)} intersections")
    uniforms = _zeros((min(block, n), num_draws), np.float64, f"{num_draws} uniforms per seed")
    # Every seed's model-RNG state, set in turn on one generator.
    states = _pcg64_states(spec.seeds)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for first in range(0, len(spec.seeds), block):
        at = slice(first, first + block)
        seeds = spec.seeds[at]
        # Each seed's model RNG stream, drawn into its row and read as (steps, B, Q):
        # Q uniforms per step, stores first, then probes.
        for row, (state, inc) in zip(uniforms, states[at]):
            bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0,
            }
            rng.random(out=row)
        draws = uniforms[: len(seeds)].reshape(len(seeds), -1, g.num_cms).transpose(1, 0, 2)
        # build_appendix_corpus stores pairwise-disjoint items, so each store
        # reads only weight rows that no earlier store wrote: G is 0 and the
        # charts are the flat ones of an empty model, whatever the params.
        # One draw from the empty model's plane, S reads of its zero row 0,
        # gives every store's codes, its (stores * B, Q) uniform rows
        # broadcast against that plane's chart.
        stores = draws[: len(stored)].reshape(-1, g.num_cms)
        stored_codes = _select_codes(empty, zero_rows, g, spec.params, "soft", stores)[0]
        stored_codes = stored_codes.reshape(len(stored), len(seeds), g.num_cms)
        bits = _zeros(
            (len(seeds), len(stored) + 1, g.num_units), np.uint8,
            f"{len(seeds)} x {len(stored) + 1} x {g.num_units} scenario weight rows",
        )
        # Each store learns into its item's one row, not the S copies of it
        # that the item's pixels read.
        for i, code in zip(order, stored_codes):
            memory.apply_learning(bits, [i], bits[:, [i]], code, g)
        # (B, items, Q), item columns in stored-label order.
        ledger = stored_codes.transpose(1, 0, 2)[:, np.argsort(order)]
        for p, (rows, r) in enumerate(zip(probe_rows, draws[len(stored) :])):
            out = _select_codes(bits, rows, g, spec.params, spec.mode, r)
            codes[at, p], familiarity[at, p], eta[at, p] = out[0], out[2], out[3]
            intersections[at, p] = (ledger == codes[at, p, None]).sum(axis=2)
    return ScenarioResult(
        spec, tuple(label for label, _ in probes), tuple(items), tuple(order),
        codes, familiarity, eta, intersections, similarities,
    )


def _result_of(records: ScenarioResult, spec: ScenarioSpec) -> ScenarioResult:
    """``records`` if it is a ``ScenarioResult`` of this spec, as
    ``run_scenario(spec)`` returns; else ``ScheduleError``."""
    if not (isinstance(records, ScenarioResult) and records.spec == spec):
        raise ScheduleError("trials must be a ScenarioResult of this spec")
    return records


def aggregate_records(records: ScenarioResult, spec: ScenarioSpec) -> list[dict]:
    """Per (probe, stored item): mean and stddev of intersection/likelihood."""
    return _aggregates(_result_of(records, spec))


def _aggregates(result: ScenarioResult) -> list[dict]:
    """``aggregate_records``'s rows, read from ``result._series_stats``."""
    stats = result._series_stats
    return [
        dict(zip(AGGREGATE_COLUMNS, (label, *row, len(result.spec.seeds))))
        for p, label in enumerate(result.probes)
        for row in zip(result.items, result.similarities[p].tolist(), *(s[p] for s in stats))
    ]


def similarity_rank_correlation(
    records: ScenarioResult, spec: ScenarioSpec, probe_label: str
) -> float:
    """Spearman correlation of input similarity vs mean code intersection.

    Over the ``aggregate_records`` rows of ``probe_label``; NaN for a label
    that no probe carries.
    """
    result = _result_of(records, spec)
    if probe_label not in result.probes:
        return float("nan")
    p = result.probes.index(probe_label)
    sims, inter = result.similarities[p], result._series_stats[0][p]
    # Spearman is undefined when either side is constant: NaN, with no warning.
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(_average_ranks(sims), _average_ranks(inter))[1, 0])


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks from 1, with tied values sharing the mean of their positions."""
    _, group, counts = np.unique(
        np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True
    )
    first = np.cumsum(counts) - counts
    return (first + (counts + 1) / 2)[group]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _texts(values: np.ndarray, fmt, tails: Sequence[str] = ("",)) -> np.ndarray:
    """``fmt`` of each entry followed by its column's tail, ``tails[j]`` at
    ``[..., j]`` or else the one tail, as an object array of ``values``'s
    shape, each value formatted once.  An integer column whose values span
    no more than its size, such as codes or intersections, finds its text
    by ``value - lo`` in a table of every value from its least, ``lo``, to
    its greatest; any other is sorted into its distinct values.  Floats are
    keyed by their bits, so -0.0 keeps a text of its own and every NaN
    finds one."""
    keys = values.ravel()
    span = keys.size
    if keys.dtype.kind in "iu":
        lo, hi = int(keys.min()), int(keys.max())
        span = hi - lo
    if span < keys.size:
        index = keys - lo
        distinct = range(lo, hi + 1)
    else:
        distinct, index = np.unique(
            keys.view(np.uint64) if keys.dtype == np.float64 else keys, return_inverse=True
        )
        distinct = distinct.view(keys.dtype).tolist()
    texts = [fmt(v) for v in distinct]
    table = np.array([[text + tail for text in texts] for tail in tails], dtype=object)
    return table[np.arange(len(tails)), index.reshape(values.shape)]


def _fill(template: str, columns, between: str = "") -> str:
    """``template`` per record, joined by ``between``, its ``%s`` filled in
    turn by each ``(values, fmt)`` of ``columns`` along ``values``'s last
    axis.  Each cell carries the layout after it, so the text is one join."""
    head, *tails = template.split("%s")
    tails[-1] += between + head
    shape = np.broadcast_shapes(*(values.shape[:-1] for values, _ in columns))
    cells = np.empty((*shape, len(tails)), dtype=object)
    at = 0
    for values, fmt in columns:
        width = values.shape[-1]
        cells[..., at : at + width] = _texts(values, fmt, tails[at : at + width])
        at += width
    cells = cells.ravel().tolist()
    cells[-1] = cells[-1].removesuffix(between + head)
    cells.insert(0, head)
    return "".join(cells)


def _csv_lines(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _trial_csv_text(result: ScenarioResult) -> str:
    """trials.csv's rows, one per record and stored item: what
    ``csv.writer`` writes for ``_fmt``-formatted cells.  A likelihood is
    keyed by its intersection count c and written as ``c / Q``."""
    q = result.codes.shape[-1]
    # A probe label as csv.writer writes it within a row, quoted if need be.
    return _fill(",".join(["%s"] * len(TRIAL_COLUMNS)) + "\n", [
        (np.array(result.spec.seeds, dtype=object)[:, None, None, None], _fmt),
        (np.array(result.probes, dtype=object)[:, None, None],
         lambda p: _csv_lines([(p, "")])[:-2]),
        (np.array(result.items, dtype=object)[:, None], str),
        (result.similarities[..., None], _fmt), (result.intersections[..., None], _fmt),
        (result.intersections[..., None], lambda c: _fmt(c / q)),
        (result.familiarity[..., None, None], _fmt),
    ])


# What json.encoder writes for the non-finite floats, whose float.__repr__
# text is "nan", "inf" or "-inf".
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_NON_FINITE.get(text, text)


def _json_block(opener: str, lines: Sequence[str], closer: str, indent: int) -> str:
    """A JSON array or object laid out as ``json.dumps(indent=2)`` does,
    its closer at ``indent`` spaces and each line two deeper."""
    inner = "\n" + " " * (indent + 2)
    return opener + inner + ("," + inner).join(lines) + "\n" + " " * indent + closer


def _trial_json_text(result: ScenarioResult) -> str:
    """The records of the "trials" array of results.json, as
    ``json.dumps(indent=2, sort_keys=True)`` writes them at depth two: one
    ``_fill`` layout per record, keys sorted as strings, and each leaf
    encoded as ``json.encoder`` encodes a Python int or float.  A likelihood
    is keyed by its intersection count c and written as ``c / Q``."""
    q = result.codes.shape[-1]
    items = result.items
    order = sorted(range(len(items)), key=items.__getitem__)
    mapping = _json_block("{", [encode_basestring_ascii(items[i]) + ": %s" for i in order], "}", 6)
    template = _json_block(
        "{",
        [
            '"code": ' + _json_block("[", ["%s"] * q, "]", 6),
            '"eta": %s', '"familiarity": %s',
            '"intersections": ' + mapping, '"likelihoods": ' + mapping,
            '"probe": %s', '"seed": %s', '"similarities": ' + mapping,
        ],
        "}",
        4,
    )
    inter = result.intersections[..., order]
    return _fill(template, [
        (result.codes, int.__repr__), (result.eta[..., None], _json_float),
        (result.familiarity[..., None], _json_float), (inter, int.__repr__),
        (inter, lambda c: _json_float(c / q)),
        (np.array(result.probes, dtype=object)[:, None], encode_basestring_ascii),
        (np.array(result.spec.seeds, dtype=object)[:, None, None], int.__repr__),
        (result.similarities[:, order], _json_float),
    ], ",\n    ")


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    data = {
        "name": spec.name,
        **_model_record(spec.geometry, spec.params),
        "num_stored": spec.num_stored,
        "probes": [{"label": p.label, "overlaps": list(p.overlaps)} for p in spec.probes],
        "seeds": list(spec.seeds),
        "mode": spec.mode,
    }
    if spec.store_order is not None:
        data["store_order"] = list(spec.store_order)
    return data


_SCENARIO_KEYS = (
    "name", "geometry", "params", "w_max", "num_stored", "probes", "seeds", "mode", "store_order"
)
_SCENARIO_REQUIRED = ("geometry", "num_stored", "probes", "seeds")
_PROBE_KEYS = ("label", "overlaps")


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Parse a scenario config, checking only its shape.

    A wrong shape raises ``ConfigError``: not an object, an unknown or
    missing key, a ``w_max`` other than 127, a seeds object other than
    ``{"start", "count"}``, or probes not a list of ``{"label", "overlaps"}``
    objects.  The spec types check every value.
    """
    data = _config_object(data, "scenario", _SCENARIO_KEYS, _SCENARIO_REQUIRED)
    if "w_max" in data:
        _check_w_max(data["w_max"], "scenario w_max", ConfigError)
    seeds = data["seeds"]
    if isinstance(seeds, dict):
        seeds = _config_object(seeds, "scenario seeds", ("start", "count"), ("start", "count"))
        start = _as_int(seeds["start"], "seeds start", ScheduleError)
        count = _as_int(seeds["count"], "seeds count", ScheduleError)
        # A range, which ScenarioSpec counts against its cap before building.
        seeds = range(start, start + count)
    probes = data["probes"]
    if not isinstance(probes, list):
        raise ConfigError(f"scenario probes must be a list, got {probes!r}")
    return ScenarioSpec(
        name=data.get("name", "scenario"),
        geometry=ModelGeometry(
            **_config_object(data["geometry"], "scenario geometry", _GEOMETRY_KEYS, _GEOMETRY_KEYS)
        ),
        params=CsaParams(**_config_object(data.get("params", {}), "scenario params", _PARAM_KEYS)),
        num_stored=data["num_stored"],
        probes=[
            ProbeSpec(**_config_object(p, f"scenario probe {i}", _PROBE_KEYS, _PROBE_KEYS))
            for i, p in enumerate(probes)
        ],
        seeds=seeds,
        mode=data.get("mode", "soft"),
        store_order=data.get("store_order"),
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario config; the literal name ``appendix`` loads the bundled one."""
    if str(path) == "appendix":
        data = json.loads(
            resources.files("msdc").joinpath("data/appendix_scenario.json").read_text()
        )
    else:
        data = _parse_json(_read_text(path, ConfigError), "scenario file", ConfigError)
    return scenario_from_dict(data)


def emit_results(
    records: ScenarioResult,
    spec: ScenarioSpec,
    out_dir: str | Path,
    formats: Sequence[str] = ("csv", "json"),
) -> list[Path]:
    """Write trial rows, aggregates, and the resolved scenario config, as
    UTF-8 text whatever the locale.

    ``records`` must be ``run_scenario(spec)``'s result, and ``formats`` a
    non-empty list, tuple, set or frozenset of "csv" and "json"; otherwise
    ``ScheduleError`` or ``ConfigError`` is raised before a file is written.
    Identical runs produce byte-identical files: ``results.json`` is the
    ``json.dumps(payload, indent=2, sort_keys=True)`` text of
    ``{"aggregates", "scenario", "trials"}``, and the CSVs are what
    ``csv.writer`` writes for ``_fmt``-formatted cells.  The trial sections
    come from the result's arrays, building no record, through value tables
    that format each distinct value once.
    """
    # A mapping, a string or an iterator is refused, not read as its keys,
    # characters or items.
    if not (
        isinstance(formats, (list, tuple, set, frozenset))
        and formats and all(isinstance(f, str) and f in ("csv", "json") for f in formats)
    ):
        raise ConfigError(f"formats must be some of 'csv' and 'json', got {formats!r}")
    result = _result_of(records, spec)
    aggregates = _aggregates(result)
    scenario = scenario_to_dict(spec)
    texts = {}
    if "csv" in formats:
        texts["trials.csv"] = _csv_lines([TRIAL_COLUMNS]) + _trial_csv_text(result)
        rows = ([_fmt(row[c]) for c in AGGREGATE_COLUMNS] for row in aggregates)
        texts["aggregate.csv"] = _csv_lines([AGGREGATE_COLUMNS, *rows])
    if "json" in formats:
        payload = {"aggregates": aggregates, "scenario": scenario}
        head = json.dumps(payload, indent=2, sort_keys=True)
        trial_text = _trial_json_text(result)
        # "trials" sorts last, so it goes where head's closing "\n}" was.
        texts["results.json"] = f'{head[:-2]},\n  "trials": [\n    {trial_text}\n  ]\n}}\n'
    texts["scenario.json"] = json.dumps(scenario, indent=2, sort_keys=True) + "\n"
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return [out_dir / name for name in texts]
