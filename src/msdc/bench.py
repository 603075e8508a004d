"""Empirical check of the fixed-time claim.

Grows a model through a series of stored-item checkpoints and, at each one,
records (a) the nominal elementary-operation tally of a single store, which
``OpCounter`` computes from the geometry, and (b) wall-clock store /
hard-retrieve latency over fresh random probes.  The tallies must be
exactly equal at every checkpoint: the pipeline touches only units and
weights, never the stored items.  Wall-clock medians get a tolerance since
cache behavior shifts with weight density even when the step count does not.

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
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import (
    CsaParams, InputPattern, ModelGeometry, PAPER_GEOMETRY, _as_int, _model_record, random_pattern,
)
from .errors import GeometryError
from .memory import MemoryModel

DEFAULT_CHECKPOINTS = (1, 10, 100, 1000, 5000)

BENCH_SCHEMA = "msdc-scaling-bench-v1"


def _distinct_patterns(geometry: ModelGeometry, rng: np.random.Generator) -> Iterator[InputPattern]:
    """Distinct random patterns from one seeded stream."""
    seen: set[tuple[int, ...]] = set()
    while True:
        for _ in range(1000):
            pattern = random_pattern(geometry, rng)
            if pattern.active not in seen:
                break
        else:
            raise GeometryError("could not draw a fresh distinct pattern")
        seen.add(pattern.active)
        yield pattern


def _summarize(times_ns: list[int]) -> dict:
    arr = np.asarray(times_ns, dtype=np.float64)
    return {
        "median_ns": float(np.median(arr)),
        "p95_ns": float(np.quantile(arr, 0.95)),
        "trials": len(times_ns),
    }


def run_scaling_bench(
    geometry: ModelGeometry | None = None,
    params: CsaParams | None = None,
    checkpoints: Sequence[int] = DEFAULT_CHECKPOINTS,
    trials_per_checkpoint: int = 50,
    seed: int = 0,
    enable_ledger: bool = False,
) -> dict:
    """The report as the JSON-ready dict ``save_report`` writes:
    ``schema``; ``config`` (geometry, params, ``w_max``, seed,
    ``trials_per_checkpoint``, and ``ledger: true`` if the model records a
    ledger); ``csa_ops_equal``; and ``checkpoints``, one
    ``{stored_items, store_ns, retrieve_ns, csa_ops}`` per checkpoint, whose
    latencies are ``{median_ns, p95_ns, trials}``."""
    if geometry is None:
        geometry = PAPER_GEOMETRY
    if params is None:
        params = CsaParams()
    checkpoints = tuple(_as_int(c, "checkpoint", GeometryError) for c in checkpoints)
    if not checkpoints or any(c < 1 for c in checkpoints):
        raise GeometryError("checkpoints must be positive")
    if list(checkpoints) != sorted(set(checkpoints)):
        raise GeometryError("checkpoints must be strictly ascending")
    trials_per_checkpoint = _as_int(
        trials_per_checkpoint, "trials_per_checkpoint", GeometryError
    )
    if trials_per_checkpoint < 1:
        raise GeometryError(
            f"trials_per_checkpoint must be at least 1, got {trials_per_checkpoint}"
        )
    # Growth, then per checkpoint two warm-up calls and one store and one
    # retrieve per trial, each on a fresh pattern.
    needed = checkpoints[-1] + len(checkpoints) * (2 + 2 * trials_per_checkpoint)
    if math.comb(geometry.num_pixels, geometry.num_active) < 4 * needed:
        raise GeometryError(
            f"input space too small to draw {needed} distinct patterns"
        )

    model = MemoryModel(geometry, params, seed=seed, enable_ledger=enable_ledger)
    patterns = _distinct_patterns(geometry, np.random.default_rng((seed, 1)))

    # Phase 1: grow the model, snapshotting it at every checkpoint.
    snapshots = []
    stored = 0
    for checkpoint in checkpoints:
        while stored < checkpoint:
            model.store(next(patterns))
            stored += 1
        snapshots.append((checkpoint, model.clone()))

    # Phase 2: interleaved timing rounds over the checkpoint snapshots; each
    # round times one store, on a throwaway clone, and one hard retrieve at
    # every checkpoint.  The warm-up store's op-count delta is the
    # checkpoint's single-store tally; a retrieve with a caller RNG counts
    # nothing.
    store_times: dict[int, list[int]] = {cp: [] for cp in checkpoints}
    retrieve_times: dict[int, list[int]] = {cp: [] for cp in checkpoints}
    op_counts = {}
    retrieve_rng = np.random.default_rng((seed, 2))
    for checkpoint, snapshot in snapshots:  # warm code paths and caches
        warm = snapshot.clone()
        before = warm.op_counter.as_dict()
        warm.store(next(patterns))
        after = warm.op_counter.as_dict()
        op_counts[checkpoint] = {k: after[k] - before[k] for k in after}
        snapshot.retrieve(next(patterns), mode="hard", rng=retrieve_rng)
    for _ in range(trials_per_checkpoint):
        for checkpoint, snapshot in snapshots:
            scratch = snapshot.clone()
            pattern = next(patterns)
            t0 = time.perf_counter_ns()
            scratch.store(pattern)
            store_times[checkpoint].append(time.perf_counter_ns() - t0)
            pattern = next(patterns)
            t0 = time.perf_counter_ns()
            snapshot.retrieve(pattern, mode="hard", rng=retrieve_rng)
            retrieve_times[checkpoint].append(time.perf_counter_ns() - t0)

    first = op_counts[checkpoints[0]]
    config = {
        **_model_record(geometry, params),
        "seed": seed,
        "trials_per_checkpoint": trials_per_checkpoint,
    }
    if enable_ledger:
        config["ledger"] = True
    return {
        "schema": BENCH_SCHEMA,
        "config": config,
        "csa_ops_equal": all(ops == first for ops in op_counts.values()),
        "checkpoints": [
            {
                "stored_items": checkpoint,
                "store_ns": _summarize(store_times[checkpoint]),
                "retrieve_ns": _summarize(retrieve_times[checkpoint]),
                "csa_ops": op_counts[checkpoint],
            }
            for checkpoint in checkpoints
        ],
    }


def save_report(report: dict, destination: str | Path) -> None:
    Path(destination).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
