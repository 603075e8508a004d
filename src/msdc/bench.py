"""Empirical check of the fixed-time claim.

Grows a model through a series of stored-item checkpoints and, at each one,
measures (a) the exact elementary-operation count of a single store through
the instrumented pipeline and (b) wall-clock store / hard-retrieve latency
over fresh random probes.  The operation counts must be exactly equal at
every checkpoint: the pipeline touches only units and weights, never the
stored items.  Wall-clock medians get a tolerance since cache behavior
shifts with weight density even when the step count does not.

Timed stores run on throwaway clones so the model under measurement stays
exactly at its checkpoint; retrieval timing runs read-only on the
checkpoint snapshots.  Timing is interleaved round-robin across all
checkpoints so ambient machine noise lands on every checkpoint equally
rather than biasing whichever was measured during a slow stretch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import CsaParams, InputPattern, ModelGeometry, PAPER_GEOMETRY, W_MAX, random_pattern
from .errors import GeometryError
from .memory import MemoryModel

DEFAULT_CHECKPOINTS = (1, 10, 100, 1000, 5000)

BENCH_SCHEMA = "msdc-scaling-bench-v1"


@dataclass(frozen=True)
class LatencySummary:
    median_ns: float
    p95_ns: float
    trials: int


@dataclass(frozen=True)
class CheckpointResult:
    stored_items: int
    store_latency: LatencySummary
    retrieve_latency: LatencySummary
    csa_ops: dict[str, int]


@dataclass(frozen=True)
class ScalingReport:
    geometry: ModelGeometry
    params: CsaParams
    seed: int
    trials_per_checkpoint: int
    checkpoints: tuple[CheckpointResult, ...]

    @property
    def csa_ops_equal(self) -> bool:
        first = self.checkpoints[0].csa_ops
        return all(cp.csa_ops == first for cp in self.checkpoints)


class _PatternStream:
    """Distinct random patterns from one seeded stream."""

    def __init__(self, geometry: ModelGeometry, rng: np.random.Generator):
        self.geometry = geometry
        self.rng = rng
        self.seen: set[tuple[int, ...]] = set()

    def next(self) -> InputPattern:
        for _ in range(1000):
            pattern = random_pattern(self.geometry, self.rng)
            if pattern.active not in self.seen:
                self.seen.add(pattern.active)
                return pattern
        raise GeometryError("could not draw a fresh distinct pattern")


def _summarize(times_ns: list[int], trials: int) -> LatencySummary:
    arr = np.asarray(times_ns, dtype=np.float64)
    return LatencySummary(
        median_ns=float(np.median(arr)),
        p95_ns=float(np.quantile(arr, 0.95)),
        trials=trials,
    )


def run_scaling_bench(
    geometry: ModelGeometry | None = None,
    params: CsaParams | None = None,
    checkpoints: Sequence[int] = DEFAULT_CHECKPOINTS,
    trials_per_checkpoint: int = 50,
    seed: int = 0,
) -> ScalingReport:
    if geometry is None:
        geometry = PAPER_GEOMETRY
    if params is None:
        params = CsaParams()
    checkpoints = tuple(int(c) for c in checkpoints)
    if not checkpoints or any(c < 1 for c in checkpoints):
        raise GeometryError("checkpoints must be positive")
    if list(checkpoints) != sorted(set(checkpoints)):
        raise GeometryError("checkpoints must be strictly ascending")
    needed = checkpoints[-1] + len(checkpoints) * (trials_per_checkpoint * 2 + 12)
    if math.comb(geometry.num_pixels, geometry.num_active) < 4 * needed:
        raise GeometryError(
            f"input space too small to draw {needed} distinct patterns"
        )

    model = MemoryModel(geometry, params, seed=seed)
    patterns = _PatternStream(geometry, np.random.default_rng((seed, 1)))

    # Phase 1: grow the model, snapshotting it and its exact single-store
    # operation count at every checkpoint.
    snapshots = []
    op_counts = {}
    stored = 0
    for checkpoint in checkpoints:
        while stored < checkpoint:
            model.store(patterns.next())
            stored += 1
        probe = model.clone()
        before = probe.op_counter.as_dict()
        probe.store(patterns.next())
        after = probe.op_counter.as_dict()
        op_counts[checkpoint] = {k: after[k] - before[k] for k in after}
        snapshots.append((checkpoint, model.clone()))

    # Phase 2: interleaved timing rounds over the checkpoint snapshots.
    batch = 5
    rounds = max(1, -(-trials_per_checkpoint // batch))
    store_times: dict[int, list[int]] = {cp: [] for cp in checkpoints}
    retrieve_times: dict[int, list[int]] = {cp: [] for cp in checkpoints}
    retrieve_rng = np.random.default_rng((seed, 2))
    for checkpoint, snapshot in snapshots:  # warm code paths and caches
        snapshot.clone().store(patterns.next())
        snapshot.retrieve(patterns.next(), mode="hard", rng=retrieve_rng)
    for _ in range(rounds):
        for checkpoint, snapshot in snapshots:
            scratch = snapshot.clone()
            for _ in range(batch):
                pattern = patterns.next()
                t0 = time.perf_counter_ns()
                scratch.store(pattern)
                store_times[checkpoint].append(time.perf_counter_ns() - t0)
            for _ in range(batch):
                pattern = patterns.next()
                t0 = time.perf_counter_ns()
                snapshot.retrieve(pattern, mode="hard", rng=retrieve_rng)
                retrieve_times[checkpoint].append(time.perf_counter_ns() - t0)

    results = [
        CheckpointResult(
            stored_items=checkpoint,
            store_latency=_summarize(store_times[checkpoint], rounds * batch),
            retrieve_latency=_summarize(retrieve_times[checkpoint], rounds * batch),
            csa_ops=op_counts[checkpoint],
        )
        for checkpoint, _ in snapshots
    ]
    return ScalingReport(
        geometry=geometry,
        params=params,
        seed=seed,
        trials_per_checkpoint=trials_per_checkpoint,
        checkpoints=tuple(results),
    )


def report_to_dict(report: ScalingReport) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "config": {
            "geometry": asdict(report.geometry),
            "params": asdict(report.params),
            "w_max": W_MAX,
            "seed": report.seed,
            "trials_per_checkpoint": report.trials_per_checkpoint,
        },
        "csa_ops_equal": report.csa_ops_equal,
        "checkpoints": [
            {
                "stored_items": cp.stored_items,
                "store_ns": asdict(cp.store_latency),
                "retrieve_ns": asdict(cp.retrieve_latency),
                "csa_ops": cp.csa_ops,
            }
            for cp in report.checkpoints
        ],
    }


def save_report(report: ScalingReport, destination: str | Path) -> None:
    Path(destination).write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    )
