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
every probe.  Code selection is fixed-time, so all seeds do the same array
work on arrays of the same shape, and ``run_scenario`` runs them in blocks.
A block stacks its seeds' weight bits as one (B, P, Q*K) array and runs the
model's selection kernel once per store and probe step over the whole
block.  Each seed's own model RNG still supplies that seed's Q uniforms per
step, in the single-model order: one step per store in store order, then
one per probe.  So every record is the one a seed-by-seed loop over
``MemoryModel.store`` and ``belief_update`` would give, bit for bit.  A
block holds about 1 MiB of weight bits (37 seeds at the appendix geometry,
never fewer than one), so memory does not grow with the seed count.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    CsaParams,
    InputPattern,
    ModelGeometry,
    PAPER_GEOMETRY,
    W_MAX,
    _as_int,
    _check_w_max,
    _config_object,
    _parse_json,
    _read_text,
)
from .errors import ConfigError, ScheduleError
from .memory import MemoryModel, _select_codes
from .oracle import oracle_similarity

APPENDIX_GEOMETRY = PAPER_GEOMETRY

# Stacked weight planes per seed block: about 1 MiB, 37 seeds at the
# appendix geometry, so peak memory does not grow with the seed count.
_BLOCK_BYTES = 1 << 20

TRIAL_COLUMNS = (
    "seed",
    "probe",
    "item",
    "input_similarity",
    "code_intersection",
    "likelihood",
    "familiarity",
)
AGGREGATE_COLUMNS = (
    "probe",
    "item",
    "input_similarity",
    "mean_intersection",
    "std_intersection",
    "mean_likelihood",
    "std_likelihood",
    "num_seeds",
)


@dataclass(frozen=True)
class ProbeSpec:
    label: str
    overlaps: tuple[int, ...]

    def __post_init__(self):
        where = f"probe {self.label!r} overlap"
        overlaps = tuple(_as_int(o, where, ScheduleError) for o in self.overlaps)
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
        object.__setattr__(self, "probes", tuple(self.probes))
        seen = set()
        for probe in self.probes:
            if probe.label in seen:
                raise ScheduleError(f"two probes are labelled {probe.label!r}")
            seen.add(probe.label)
        seeds = tuple(_as_int(s, "seed", ScheduleError) for s in self.seeds)
        object.__setattr__(self, "seeds", seeds)
        num_stored = _as_int(self.num_stored, "num_stored", ScheduleError)
        object.__setattr__(self, "num_stored", num_stored)
        if num_stored < 1:
            raise ScheduleError("scenario needs at least one stored pattern")
        if not seeds:
            raise ScheduleError("scenario needs at least one seed")
        if min(seeds) < 0:
            raise ScheduleError(f"seeds must be non-negative, got {min(seeds)}")
        if self.mode not in ("soft", "hard"):
            raise ScheduleError(f"unknown retrieval mode {self.mode!r}")
        if self.store_order is not None:
            order = tuple(self.store_order)
            object.__setattr__(self, "store_order", order)
            if sorted(order) != sorted(self.stored_labels()):
                raise ScheduleError(
                    f"store_order must permute {self.stored_labels()}, got {list(order)}"
                )

    def stored_labels(self) -> list[str]:
        return [f"I{i + 1}" for i in range(self.num_stored)]


def default_appendix_scenario(num_seeds: int = 200) -> ScenarioSpec:
    """The bundled appendix scenario (``load_scenario("appendix")``), with
    seeds ``0 .. num_seeds - 1``."""
    return replace(load_scenario("appendix"), seeds=tuple(range(num_seeds)))


def build_appendix_corpus(
    spec: ScenarioSpec,
) -> tuple[list[tuple[str, InputPattern]], list[tuple[str, InputPattern]]]:
    """Construct the stored patterns and probes for a scenario.

    Stored patterns are consecutive S-pixel blocks (hence pairwise
    disjoint); each probe takes the demanded number of pixels from the
    front of each stored block and fills the remainder from the free zone
    after all blocks.  Overlap constraints are re-verified against the
    similarity oracle before returning.
    """
    g = spec.geometry
    s = g.num_active
    if spec.num_stored * s > g.num_pixels:
        raise ScheduleError(
            f"{spec.num_stored} disjoint patterns of {s} pixels do not fit "
            f"in a {g.num_pixels}-pixel grid"
        )
    stored = [
        (f"I{i + 1}", InputPattern.from_indices(range(i * s, (i + 1) * s)))
        for i in range(spec.num_stored)
    ]

    free_base = spec.num_stored * s
    probes = []
    for probe in spec.probes:
        if len(probe.overlaps) != spec.num_stored:
            raise ScheduleError(
                f"probe {probe.label!r} has {len(probe.overlaps)} overlap entries, "
                f"expected {spec.num_stored}"
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
        fill = s - demanded
        if free_base + fill > g.num_pixels:
            raise ScheduleError(
                f"probe {probe.label!r} needs {fill} filler pixels but only "
                f"{g.num_pixels - free_base} are free"
            )
        pixels = []
        for i, count in enumerate(probe.overlaps):
            pixels.extend(range(i * s, i * s + count))
        pixels.extend(range(free_base, free_base + fill))
        probes.append((probe.label, InputPattern.from_indices(pixels)))

    # Post-hoc verification through the oracle: stored items disjoint,
    # probe overlaps exactly as scheduled.
    for i, (_, a) in enumerate(stored):
        for _, b in stored[i + 1 :]:
            assert a.overlap(b) == 0
    for (label, pattern), probe in zip(probes, spec.probes):
        for (_, stored_pattern), want in zip(stored, probe.overlaps):
            got = oracle_similarity(pattern, stored_pattern)
            assert got == want / s, (label, got, want)
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


def _seed_block_size(geometry: ModelGeometry) -> int:
    """Seeds per block: as many weight planes as fit in ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (geometry.num_pixels * geometry.num_units))


def run_scenario(spec: ScenarioSpec) -> list[TrialRecord]:
    """Per seed: fresh model, store all items in order, probe in order.

    Seeds run in blocks (see the module docstring); the records are those
    of one model per seed, in seed order, then probe order.
    """
    stored, probes = build_appendix_corpus(spec)
    if spec.store_order is not None:
        by_label = dict(stored)
        stored = [(label, by_label[label]) for label in spec.store_order]
    g = spec.geometry
    labels = [label for label, _ in stored]
    similarities = [
        [pattern.overlap(item) / g.num_active for _, item in stored] for _, pattern in probes
    ]
    store_pixels = [np.asarray(p.active, dtype=np.intp) for _, p in stored]
    probe_pixels = [np.asarray(p.active, dtype=np.intp) for _, p in probes]
    num_draws = (len(stored) + len(probes)) * g.num_cms
    block = _seed_block_size(g)
    records = []
    for first in range(0, len(spec.seeds), block):
        seeds = spec.seeds[first : first + block]
        # Each seed's own model supplies its RNG stream: Q uniforms per
        # step, stores first, then probes.  Its weights are not used; the
        # block's stacked planes stand in for them.
        draws = np.stack(
            [
                MemoryModel(g, spec.params, seed=seed)
                .rng.random(num_draws)
                .reshape(-1, g.num_cms)
                for seed in seeds
            ],
            axis=1,
        )
        bits = np.zeros((len(seeds), g.num_pixels, g.num_units), dtype=np.uint8)
        ledger = np.stack(
            [
                _select_codes(bits, active, g, spec.params, "soft", r, learn=True)[0]
                for active, r in zip(store_pixels, draws)
            ],
            axis=1,
        )
        readouts = []
        for active, r in zip(probe_pixels, draws[len(stored) :]):
            code, *_, fam, eta = _select_codes(bits, active, g, spec.params, spec.mode, r)
            inter = (ledger == code[:, None, :]).sum(axis=2)
            readouts.append(
                (code.tolist(), fam, eta, inter.tolist(), (inter / g.num_cms).tolist())
            )
        for b, seed in enumerate(seeds):
            for (probe, _), sims, (code, fam, eta, inter, like) in zip(
                probes, similarities, readouts
            ):
                records.append(
                    TrialRecord(
                        seed=seed,
                        probe=probe,
                        familiarity=fam[b],
                        eta=eta[b],
                        code=tuple(code[b]),
                        similarities=dict(zip(labels, sims)),
                        intersections=dict(zip(labels, inter[b])),
                        likelihoods=dict(zip(labels, like[b])),
                    )
                )
    return records


def aggregate_records(records: Sequence[TrialRecord], spec: ScenarioSpec) -> list[dict]:
    """Per (probe, stored item): mean and stddev of intersection/likelihood."""
    items = spec.stored_labels()
    return [row for p in spec.probes for row in _probe_aggregates(records, p.label, items)]


def _probe_aggregates(
    records: Sequence[TrialRecord], probe_label: str, items: Sequence[str]
) -> list[dict]:
    """``aggregate_records``'s rows for one probe label, one per stored item."""
    probe_records = [r for r in records if r.probe == probe_label]
    if not probe_records:
        return []
    rows = []
    for item in items:
        inter = np.array([r.intersections[item] for r in probe_records], dtype=float)
        like = np.array([r.likelihoods[item] for r in probe_records], dtype=float)
        sims = {r.similarities[item] for r in probe_records}
        assert len(sims) == 1, "corpus construction must not vary across seeds"
        rows.append(
            {
                "probe": probe_label,
                "item": item,
                "input_similarity": sims.pop(),
                "mean_intersection": float(inter.mean()),
                "std_intersection": float(inter.std()),
                "mean_likelihood": float(like.mean()),
                "std_likelihood": float(like.std()),
                "num_seeds": len(probe_records),
            }
        )
    return rows


def similarity_rank_correlation(
    records: Sequence[TrialRecord], spec: ScenarioSpec, probe_label: str
) -> float:
    """Spearman correlation of input similarity vs mean code intersection.

    Over the ``aggregate_records`` rows of ``probe_label``; NaN for a label
    that no record carries.
    """
    rows = _probe_aggregates(records, probe_label, spec.stored_labels())
    sims = [r["input_similarity"] for r in rows]
    inter = [r["mean_intersection"] for r in rows]
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


def _write_csv(path: Path, columns: Sequence[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def _trial_csv_rows(records: Sequence[TrialRecord], items: Sequence[str]) -> list[tuple]:
    """trials.csv rows, one per record and stored item, as ``_fmt`` gives them.

    Floats become ``.10g`` text; ints pass through, since ``csv.writer``
    writes them as ``str`` does.
    """
    rows = []
    for r in records:
        rows += zip(
            repeat(r.seed),
            repeat(r.probe),
            items,
            [format(r.similarities[i], ".10g") for i in items],
            map(r.intersections.__getitem__, items),
            [format(r.likelihoods[i], ".10g") for i in items],
            repeat(format(r.familiarity, ".10g")),
        )
    return rows


# What json.encoder writes for the non-finite floats, whose float.__repr__
# text is "nan", "inf" or "-inf".
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_NON_FINITE.get(text, text)


def _json_block(opener: str, lines: Sequence[str], closer: str, indent: int) -> str:
    """A JSON array or object laid out as ``json.dumps(indent=2)`` does,
    its closer at ``indent`` spaces and each line two deeper."""
    if not lines:
        return opener + closer
    inner = "\n" + " " * (indent + 2)
    return opener + inner + ("," + inner).join(lines) + "\n" + " " * indent + closer


def _trial_json_records(
    records: Sequence[TrialRecord], items: Sequence[str], num_codes: int
) -> list[str]:
    """Each record's object in the "trials" array of results.json, as
    ``json.dumps(indent=2, sort_keys=True)`` writes it at depth two.

    One ``%`` template for every record: keys in sorted order (the stored
    labels sorted as strings, as ``sort_keys`` does), and each leaf encoded
    as ``json.encoder`` encodes its declared type.  ``float.__repr__``, not
    ``repr``, since a numpy float64 reprs as ``np.float64(...)``.
    """
    items = sorted(items)
    entries = [encode_basestring_ascii(i) + ": %s" for i in items]
    template = _json_block(
        "{",
        [
            '"code": ' + _json_block("[", ["%s"] * num_codes, "]", 6),
            '"eta": %s',
            '"familiarity": %s',
            '"intersections": ' + _json_block("{", entries, "}", 6),
            '"likelihoods": ' + _json_block("{", entries, "}", 6),
            '"probe": %s',
            '"seed": %s',
            '"similarities": ' + _json_block("{", entries, "}", 6),
        ],
        "}",
        4,
    )
    return [
        template
        % (
            *map(int.__repr__, r.code),
            _json_float(r.eta),
            _json_float(r.familiarity),
            *map(int.__repr__, map(r.intersections.__getitem__, items)),
            *map(_json_float, map(r.likelihoods.__getitem__, items)),
            encode_basestring_ascii(r.probe),
            int.__repr__(r.seed),
            *map(_json_float, map(r.similarities.__getitem__, items)),
        )
        for r in records
    ]


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    data = {
        "name": spec.name,
        "geometry": asdict(spec.geometry),
        "params": asdict(spec.params),
        "w_max": W_MAX,
        "num_stored": spec.num_stored,
        "probes": [{"label": p.label, "overlaps": list(p.overlaps)} for p in spec.probes],
        "seeds": list(spec.seeds),
        "mode": spec.mode,
    }
    if spec.store_order is not None:
        data["store_order"] = list(spec.store_order)
    return data


_SCENARIO_KEYS = (
    "name",
    "geometry",
    "params",
    "w_max",
    "num_stored",
    "probes",
    "seeds",
    "mode",
    "store_order",
)
_SCENARIO_REQUIRED = ("geometry", "num_stored", "probes", "seeds")


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Parse a scenario config, rejecting any shape but the documented one.

    A wrong shape (not an object, an unknown or missing key, a section of
    the wrong JSON type) raises ``ConfigError``, as does a ``w_max`` other
    than 127; the spec types then check the values.
    """
    data = _config_object(data, "scenario", _SCENARIO_KEYS, _SCENARIO_REQUIRED)
    if "w_max" in data:
        _check_w_max(data["w_max"], "scenario w_max", ConfigError)
    seeds = data["seeds"]
    if isinstance(seeds, dict):
        seeds = _config_object(seeds, "scenario seeds", ("start", "count"), ("start", "count"))
        start = _as_int(seeds["start"], "seeds start", ScheduleError)
        seeds = range(start, start + _as_int(seeds["count"], "seeds count", ScheduleError))
    elif not isinstance(seeds, list):
        raise ConfigError(f"scenario seeds must be a list or an object, got {seeds!r}")
    probes = data["probes"]
    if not isinstance(probes, list):
        raise ConfigError(f"scenario probes must be a list, got {probes!r}")
    for i, p in enumerate(probes):
        where = f"scenario probe {i}"
        _config_object(p, where, ("label", "overlaps"), ("label", "overlaps"))
        if not (isinstance(p["label"], str) and isinstance(p["overlaps"], list)):
            raise ConfigError(f"{where} needs a string label and a list of overlaps")
    store_order = data.get("store_order")
    if store_order is not None and not (
        isinstance(store_order, list) and all(isinstance(x, str) for x in store_order)
    ):
        raise ConfigError(f"scenario store_order must be a list of labels, got {store_order!r}")
    geometry_keys = [f.name for f in fields(ModelGeometry)]
    return ScenarioSpec(
        name=data.get("name", "scenario"),
        geometry=ModelGeometry(
            **_config_object(data["geometry"], "scenario geometry", geometry_keys, geometry_keys)
        ),
        params=CsaParams(
            **_config_object(
                data.get("params", {}), "scenario params", [f.name for f in fields(CsaParams)]
            )
        ),
        num_stored=data["num_stored"],
        probes=tuple(ProbeSpec(p["label"], tuple(p["overlaps"])) for p in probes),
        seeds=tuple(seeds),
        mode=data.get("mode", "soft"),
        store_order=tuple(store_order) if store_order is not None else None,
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
    records: Sequence[TrialRecord],
    spec: ScenarioSpec,
    out_dir: str | Path,
    formats: Sequence[str] = ("csv", "json"),
) -> list[Path]:
    """Write trial rows, aggregates, and the resolved scenario config.

    Output is a pure function of (spec, records): identical runs produce
    byte-identical files.  ``results.json`` is the
    ``json.dumps(payload, indent=2, sort_keys=True)`` text of
    ``{"aggregates", "scenario", "trials"}``, and the CSVs are what
    ``csv.writer`` writes for ``_fmt``-formatted cells.  The small
    sections go through those encoders; the trial sections are written by
    fixed-layout writers that reproduce them byte for byte.  Those writers
    take each leaf as ``TrialRecord`` declares it: ints (not bools) for
    ``seed``, ``code`` and ``intersections``, floats (numpy float64
    included) for the rest, and one entry per stored label in each mapping.
    """
    if not records:
        raise ScheduleError("no trial records to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    aggregates = aggregate_records(records, spec)
    scenario = scenario_to_dict(spec)
    items = spec.stored_labels()
    written = []
    if "csv" in formats:
        trials_path = out_dir / "trials.csv"
        _write_csv(trials_path, TRIAL_COLUMNS, _trial_csv_rows(records, items))
        agg_path = out_dir / "aggregate.csv"
        _write_csv(
            agg_path,
            AGGREGATE_COLUMNS,
            ([_fmt(row[c]) for c in AGGREGATE_COLUMNS] for row in aggregates),
        )
        written += [trials_path, agg_path]
    if "json" in formats:
        head = json.dumps(
            {"aggregates": aggregates, "scenario": scenario}, indent=2, sort_keys=True
        )
        trials = _json_block(
            "[",
            _trial_json_records(records, items, spec.geometry.num_cms),
            "]",
            2,
        )
        # "trials" sorts last, so it goes where head's closing "\n}" was.
        json_path = out_dir / "results.json"
        json_path.write_text(f'{head[:-2]},\n  "trials": {trials}\n}}\n')
        written.append(json_path)
    config_path = out_dir / "scenario.json"
    config_path.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n")
    written.append(config_path)
    return written
