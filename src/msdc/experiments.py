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
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import CsaParams, InputPattern, ModelGeometry, W_MAX_DEFAULT
from .errors import ScheduleError
from .memory import MemoryModel
from .oracle import oracle_similarity

APPENDIX_GEOMETRY = ModelGeometry(
    input_width=12, input_height=12, num_active=12, num_cms=24, units_per_cm=8
)

# Per-probe overlap with stored items I1..I6, in twelfths.  Each schedule
# sums to at most S=12 (the feasibility bound for a disjoint corpus).
APPENDIX_I7_OVERLAPS = (5, 4, 2, 1, 0, 0)
APPENDIX_I8_OVERLAPS = (0, 7, 3, 2, 0, 0)
APPENDIX_I9_OVERLAPS = (0, 0, 6, 0, 0, 6)

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
        object.__setattr__(self, "overlaps", tuple(int(o) for o in self.overlaps))


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    geometry: ModelGeometry
    params: CsaParams
    w_max: int
    num_stored: int
    probes: tuple[ProbeSpec, ...]
    seeds: tuple[int, ...]
    mode: str = "soft"
    # Optional storage-order variant: a permutation of the stored labels
    # (patterns and overlap schedules are unaffected, only store order).
    store_order: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "probes", tuple(self.probes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.num_stored < 1:
            raise ScheduleError("scenario needs at least one stored pattern")
        if not self.seeds:
            raise ScheduleError("scenario needs at least one seed")
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
    return ScenarioSpec(
        name="appendix",
        geometry=APPENDIX_GEOMETRY,
        params=CsaParams(),
        w_max=W_MAX_DEFAULT,
        num_stored=6,
        probes=(
            ProbeSpec("I7", APPENDIX_I7_OVERLAPS),
            ProbeSpec("I8", APPENDIX_I8_OVERLAPS),
            ProbeSpec("I9", APPENDIX_I9_OVERLAPS),
        ),
        seeds=tuple(range(num_seeds)),
    )


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


def run_scenario(spec: ScenarioSpec) -> list[TrialRecord]:
    """Per seed: fresh model, store all items in order, probe in order."""
    stored, probes = build_appendix_corpus(spec)
    if spec.store_order is not None:
        by_label = dict(stored)
        stored = [(label, by_label[label]) for label in spec.store_order]
    records = []
    for seed in spec.seeds:
        model = MemoryModel(
            spec.geometry, spec.params, w_max=spec.w_max, seed=seed, enable_ledger=True
        )
        for label, pattern in stored:
            model.store(pattern, label)
        for label, pattern in probes:
            report = model.belief_update(pattern, mode=spec.mode)
            records.append(
                TrialRecord(
                    seed=seed,
                    probe=label,
                    familiarity=report.familiarity,
                    eta=report.trace.eta,
                    code=tuple(int(c) for c in report.code),
                    similarities={e.label: e.input_similarity for e in report.entries},
                    intersections={e.label: e.code_intersection for e in report.entries},
                    likelihoods={e.label: e.likelihood for e in report.entries},
                )
            )
    return records


def aggregate_records(records: Sequence[TrialRecord], spec: ScenarioSpec) -> list[dict]:
    """Per (probe, stored item): mean and stddev of intersection/likelihood."""
    rows = []
    items = spec.stored_labels()
    for probe in spec.probes:
        probe_records = [r for r in records if r.probe == probe.label]
        if not probe_records:
            continue
        for item in items:
            inter = np.array([r.intersections[item] for r in probe_records], dtype=float)
            like = np.array([r.likelihoods[item] for r in probe_records], dtype=float)
            sims = {r.similarities[item] for r in probe_records}
            assert len(sims) == 1, "corpus construction must not vary across seeds"
            rows.append(
                {
                    "probe": probe.label,
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
    """Spearman correlation of input similarity vs mean code intersection."""
    rows = [
        r
        for r in aggregate_records(records, spec)
        if r["probe"] == probe_label
    ]
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


def _trial_rows(records: Sequence[TrialRecord], spec: ScenarioSpec):
    items = spec.stored_labels()
    for r in records:
        for item in items:
            yield {
                "seed": r.seed,
                "probe": r.probe,
                "item": item,
                "input_similarity": r.similarities[item],
                "code_intersection": r.intersections[item],
                "likelihood": r.likelihoods[item],
                "familiarity": r.familiarity,
            }


def _write_csv(path: Path, columns: Sequence[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    path.write_text(buf.getvalue())


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    data = {
        "name": spec.name,
        "geometry": asdict(spec.geometry),
        "params": asdict(spec.params),
        "w_max": spec.w_max,
        "num_stored": spec.num_stored,
        "probes": [{"label": p.label, "overlaps": list(p.overlaps)} for p in spec.probes],
        "seeds": list(spec.seeds),
        "mode": spec.mode,
    }
    if spec.store_order is not None:
        data["store_order"] = list(spec.store_order)
    return data


def scenario_from_dict(data: dict) -> ScenarioSpec:
    seeds = data["seeds"]
    if isinstance(seeds, dict):
        seeds = range(int(seeds["start"]), int(seeds["start"]) + int(seeds["count"]))
    return ScenarioSpec(
        name=data.get("name", "scenario"),
        geometry=ModelGeometry(**data["geometry"]),
        params=CsaParams(**data.get("params", {})),
        w_max=int(data.get("w_max", W_MAX_DEFAULT)),
        num_stored=int(data["num_stored"]),
        probes=tuple(
            ProbeSpec(p["label"], tuple(p["overlaps"])) for p in data["probes"]
        ),
        seeds=tuple(seeds),
        mode=data.get("mode", "soft"),
        store_order=(
            tuple(data["store_order"]) if data.get("store_order") is not None else None
        ),
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario config; the literal name ``appendix`` loads the bundled one."""
    if str(path) == "appendix":
        data = json.loads(
            resources.files("msdc").joinpath("data/appendix_scenario.json").read_text()
        )
    else:
        data = json.loads(Path(path).read_text())
    return scenario_from_dict(data)


def emit_results(
    records: Sequence[TrialRecord],
    spec: ScenarioSpec,
    out_dir: str | Path,
    formats: Sequence[str] = ("csv", "json"),
) -> list[Path]:
    """Write trial rows, aggregates, and the resolved scenario config.

    Output is a pure function of (spec, records): identical runs produce
    byte-identical files.
    """
    if not records:
        raise ScheduleError("no trial records to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    aggregates = aggregate_records(records, spec)
    written = []
    if "csv" in formats:
        trials_path = out_dir / "trials.csv"
        _write_csv(trials_path, TRIAL_COLUMNS, _trial_rows(records, spec))
        agg_path = out_dir / "aggregate.csv"
        _write_csv(agg_path, AGGREGATE_COLUMNS, aggregates)
        written += [trials_path, agg_path]
    if "json" in formats:
        payload = {
            "scenario": scenario_to_dict(spec),
            "trials": [
                {
                    "seed": r.seed,
                    "probe": r.probe,
                    "familiarity": r.familiarity,
                    "eta": r.eta,
                    "code": list(r.code),
                    "similarities": r.similarities,
                    "intersections": r.intersections,
                    "likelihoods": r.likelihoods,
                }
                for r in records
            ],
            "aggregates": aggregates,
        }
        json_path = out_dir / "results.json"
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(json_path)
    config_path = out_dir / "scenario.json"
    config_path.write_text(
        json.dumps(scenario_to_dict(spec), indent=2, sort_keys=True) + "\n"
    )
    written.append(config_path)
    return written
