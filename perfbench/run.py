"""Run one benchmark workload against ``src/`` and print its metrics.

    python3 perfbench/run.py --workload grow --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; nothing needs installing.  With ``--trace 0``
the end-to-end metrics are measured with no tracing; with ``--trace 1`` the
layers' functions are wrapped and the per-layer metrics are reported
instead (see README.md).  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_TASK_MS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("grow", "retrieve", "belief", "scenario")
# Reference-task timings around each set-up.
SETUP_CALIBRATIONS = 5

# Per-layer metric -> (workload whose spans or values it is taken from,
# span name or value key, unit).  Span figures are median self times.
CORE = ("compute_u", "normalize_u", "familiarity", "eta_for_familiarity",
        "mu_from_u", "rho_from_mu", "draw_winners", "hard_max_winners")
EXPERIMENTS = ("build_appendix_corpus", "run_scenario", "aggregate_records",
               "similarity_rank_correlation", "emit_results")
PER_LAYER = {
    **{f"core.{fn}.us": ("retrieve", f"core.{fn}", "us") for fn in CORE},
    "core.apply_learning.us": ("grow", "core.apply_learning", "us"),
    "core.ops_per_store": ("grow", "ops_per_store", "count"),
    "core.ops_per_retrieve": ("retrieve", "ops_per_retrieve", "count"),
    "core.bytes_per_store": ("grow", "bytes_per_store", "B-computed"),
    "memory.store.us": ("grow", "memory.store", "us"),
    "memory.retrieve.us": ("retrieve", "memory.retrieve", "us"),
    "memory.belief_readout.us": ("belief", "memory.belief_update", "us"),
    "memory.ledger_entries_per_belief": ("belief", "ledger_entries_per_belief", "count"),
    "memory.init.us": ("scenario", "memory.init", "us"),
    "memory.store_late_over_early": ("grow", "store_late_over_early", "ratio"),
    **{f"snapshot.{fn}.us": ("cli", f"snapshot.{fn}", "us")
       for fn in ("encode_model", "decode_model", "atomic_write_bytes")},
    "snapshot.file_kib": ("cli", "snapshot.file_kib", "KiB"),
    **{f"experiments.{fn}.us": ("scenario", f"experiments.{fn}", "us") for fn in EXPERIMENTS},
    "cli.import_s": ("cli", "cli.import_s", "s"),
    "cli.interpreter_s": ("cli", "cli.interpreter_s", "s"),
    "cli.main.store.us": ("cli", "cli.main.store", "us"),
    "cli.main.query.us": ("cli", "cli.main.query", "us"),
    "cli.cold_store_s": ("cli", "cli.cold_store_s", "s"),
    "cli.cold_query_s": ("cli", "cli.cold_query_s", "s"),
}


def speed_factors(reference: list[tuple[int, int]], at_ns) -> np.ndarray:
    """For each instant, the reference task's nominal time over the median
    of the six timings of it nearest that instant: the factor that converts
    a time measured then into a time at the reference speed."""
    mids = np.array([t + d / 2 for t, d in reference])
    times = np.array([d for _, d in reference], dtype=np.float64) / 1e6
    width = min(6, len(times))
    medians = np.median(np.lib.stride_tricks.sliding_window_view(times, width), axis=1)
    first = np.clip(np.searchsorted(mids, at_ns) - width // 2, 0, len(medians) - 1)
    return REFERENCE_TASK_MS / medians[first]


def scaled_request_ms(run) -> np.ndarray:
    """Each request's time in ms at the reference speed."""
    ns = np.array(run.request_ns, dtype=np.float64)
    return ns / 1e6 * speed_factors(run.reference, np.array(run.request_start) + ns / 2)


def run_rounds(workload, run, seconds: float, tracer=None) -> None:
    """Whole rounds until ``seconds`` have passed (at least one round)."""
    deadline = time.perf_counter() + seconds
    while True:
        workload.round(run, tracer)
        run.tick()
        if time.perf_counter() >= deadline:
            break
    workload.finish(run)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(name: str, seed: int, seconds: float, work: Path) -> dict:
    from workloads import WORKLOADS, Run

    cls = WORKLOADS[name]
    run = Run()
    setups = []
    workload = None
    run.calibrate(SETUP_CALIBRATIONS)
    for repeat in range(cls.setup_repeats):
        workload = None
        t0 = time.perf_counter_ns()
        workload = cls(seed, work / f"setup-{repeat}")
        setups.append((t0, time.perf_counter_ns() - t0))
        run.calibrate(SETUP_CALIBRATIONS)
    run_rounds(workload, run, seconds)

    setup_ns = np.array(setups, dtype=np.float64)
    setup_s = setup_ns[:, 1] / 1e9 * speed_factors(run.reference, setup_ns[:, 0] + setup_ns[:, 1] / 2)
    metrics = {
        "setup_s": (float(np.median(setup_s)), "s"),
        "request_ms_p50": (float(np.median(scaled_request_ms(run))), "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    print(f"{name}: {len(run.request_ns)} requests; as measured: request p50 "
          f"{np.median(run.request_ns) / 1e6:.6g} ms, "
          f"setup {np.median(setup_ns[:, 1]) / 1e9:.6g} s; reference p50 "
          f"{np.median([d for _, d in run.reference]) / 1e6:.4g} ms over {len(run.reference)} timings",
          file=sys.stderr)
    return result(run, metrics)


def per_layer(name: str, seed: int, seconds: float, work: Path) -> dict:
    """Traced rounds of ``name`` for ``seconds``, then one traced round of
    every other workload, so that every layer's metrics are reported.  Each
    metric comes from the rounds of the workload that owns it."""
    from spans import Tracer
    from workloads import LAYER_SEGMENTS, Run

    tracer = Tracer()
    runs = {}
    for other in (name, *(n for n in LAYER_SEGMENTS if n != name)):
        workload = LAYER_SEGMENTS[other](seed, work / other)
        run = runs[other] = Run()
        with tracer.installed(other):
            run_rounds(workload, run, seconds if other == name else 0, tracer)
        for span, values in tracer.self_times_us(other).items():
            run.values[span].extend(values)
        del workload
    own = runs[name]
    if own.request_ns:
        print(f"{name}: traced request p50 {np.median(own.request_ns) / 1e6:.6g} ms as "
              f"measured, {np.median(scaled_request_ms(own)):.6g} ms at reference speed, "
              f"over {len(own.request_ns)} requests", file=sys.stderr)
    metrics = {}
    for metric, (owner, key, unit) in PER_LAYER.items():
        values = runs[owner].values.get(key)
        if not values:
            own.problems.append(f"no samples for {metric}")
            continue
        metrics[metric] = (float(np.median(values)), unit)
    for other, run in runs.items():
        if other != name:
            own.problems.extend(f"[{other}] {p}" for p in run.problems)
    return result(own, metrics)


def result(run, metrics: dict) -> dict:
    for problem in run.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "msdc" / "__init__.py").is_file():
        print(f"error: no msdc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        out = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"workload {args.workload}: attempted {out['attempted']}, failed {out['failed']}, "
          f"correct {out['correct']}")
    for metric, m in out["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
