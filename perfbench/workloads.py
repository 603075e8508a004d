"""The benchmark's workloads: inputs made from a seed, timed rounds, checks.

Each workload is a closed loop in one thread: the next call goes out when
the previous one returns.  A workload object is built once per set-up (the
set-up is what its constructor does) and then runs whole rounds; every
round checks the outputs it produced, outside the timed calls.  A request
is the unit of work a round times:

``grow``      one ``store`` into a model filling from empty to 5000 items
``retrieve``  one probe read in soft then hard mode (two ``retrieve`` calls)
``belief``    one probe read out by ``belief_update`` in soft then hard mode
``scenario``  one reproduction of the paper's 200-seed appendix experiment

Pairing the two modes in one request keeps its latency unimodal, so its
median does not jump between the two modes' costs, and a change to either
mode moves it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from calibrate import reference_task
from msdc import InputPattern, MemoryModel, ModelGeometry, cli, experiments, snapshot

PAPER = ModelGeometry(12, 12, 12, 24, 8)
# 64x64 grid, S=64, Q=128, K=16: the weight bits are 4096 x 2048 bytes (8 MiB),
# larger than one core's 2 MiB L2, and fill to ~0.64 density over 5000 stores.
LARGE = ModelGeometry(64, 64, 64, 128, 16)
NUM_ITEMS = 5000
# Probes per kind in the retrieve and belief mixes; noisy copies keep this
# many of their source item's S=12 pixels.
PROBES_PER_KIND = 64
NOISY_KEEP = (9, 6, 3)

clock = time.perf_counter_ns
# How often the reference task is timed between requests.
CALIBRATE_EVERY_NS = 50_000_000


class Run:
    """What one run of a workload accumulates."""

    def __init__(self):
        self.request_ns: list[int] = []
        self.request_start: list[int] = []
        # (start, duration) of each timing of the reference task.
        self.reference: list[tuple[int, int]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Per-layer figures that are not spans: counts, ratios, child times.
        self.values: dict[str, list[float]] = defaultdict(list)

    def check(self, where: str, problems: list[str]) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)

    def timed(self, start: int, ns: int) -> None:
        self.request_start.append(start)
        self.request_ns.append(ns)

    def calibrate(self, times: int = 1) -> None:
        """Time the reference task ``times`` times."""
        for _ in range(times):
            t0 = clock()
            reference_task()
            self.reference.append((t0, clock() - t0))

    def tick(self) -> None:
        """Time the reference task if it has not run for a while."""
        if not self.reference or clock() - sum(self.reference[-1]) >= CALIBRATE_EVERY_NS:
            self.calibrate()


def distinct_patterns(geometry, n: int, rng, avoid=()) -> list[InputPattern]:
    seen = {p.active for p in avoid}
    out = []
    while len(out) < n:
        idx = rng.choice(geometry.num_pixels, size=geometry.num_active, replace=False)
        pattern = InputPattern.from_indices(idx.tolist())
        if pattern.active not in seen:
            seen.add(pattern.active)
            out.append(pattern)
    return out


class Workload:
    """Set-up is the constructor; ``round`` runs and checks one whole round."""

    setup_repeats = 3

    def round(self, run: Run, tracer=None) -> None:
        raise NotImplementedError

    def finish(self, run: Run) -> None:
        """Checks that need the whole run, such as that readers changed nothing."""


class Grow(Workload):
    """Store-only fill of a fresh model from empty to 5000 items, ledger on."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.patterns = distinct_patterns(LARGE, NUM_ITEMS, np.random.default_rng([seed, 0]))
        self.pixels = np.array([p.active for p in self.patterns])

    def round(self, run: Run, tracer=None) -> None:
        g = LARGE
        model = MemoryModel(g, seed=self.seed, enable_ledger=True)
        counter = model.op_counter
        starts = np.empty(NUM_ITEMS, dtype=np.int64)
        times = np.empty(NUM_ITEMS, dtype=np.int64)
        codes = np.empty((NUM_ITEMS, g.num_cms), dtype=np.int64)
        tallies = np.empty((NUM_ITEMS + 1, 5), dtype=np.int64)
        tallies[0] = 0
        first_trace = None
        for i, pattern in enumerate(self.patterns):
            starts[i] = t0 = clock()
            code, trace = model.store(pattern)
            times[i] = clock() - t0
            codes[i] = code
            tallies[i + 1] = (
                counter.weight_reads,
                counter.element_ops,
                counter.sigmoid_evals,
                counter.rng_draws,
                counter.weight_writes,
            )
            if first_trace is None:
                first_trace = trace
            if i % 100 == 99:
                run.tick()
        run.request_start.extend(starts.tolist())
        run.request_ns.extend(times.tolist())
        run.attempted += NUM_ITEMS

        run.check("grow first store", checks.check_first_store(
            first_trace.familiarity, first_trace.rho, g.units_per_cm))
        if codes.min() < 0 or codes.max() >= g.units_per_cm:
            run.check("grow", [f"a code entry lies outside [0, {g.units_per_cm})"])
        fields = ("weight_reads", "element_ops", "sigmoid_evals", "rng_draws", "weight_writes")
        deltas = [dict(zip(fields, map(int, row))) for row in np.diff(tallies, axis=0)]
        run.check("grow op counts", checks.check_store_ops(
            deltas, g.num_active, g.num_cms, g.units_per_cm))
        run.check("grow weights", checks.check_weights(
            model.weights.bits, self.pixels, codes, g.units_per_cm))
        if not np.array_equal(np.array([e.code for e in model.ledger]), codes):
            run.check("grow ledger", ["ledger codes differ from the returned codes"])

        tenth = NUM_ITEMS // 10
        run.values["store_late_over_early"].append(
            float(np.median(times[-tenth:]) / np.median(times[:tenth])))
        run.values["ops_per_store"].append(sum(deltas[0].values()))
        run.values["bytes_per_store"].append(store_bytes(g))


def store_bytes(g: ModelGeometry) -> int:
    """Bytes one store touches, computed from array sizes (not measured).

    The S gathered uint8 weight rows, the S x Q written bits, and the
    float64/int64 (Q, K) arrays u, U, mu, rho and the draw's cumulative sum.
    """
    return g.num_active * g.num_units + g.num_active * g.num_cms + 5 * 8 * g.num_units


class _FilledModel(Workload):
    """Paper-geometry model holding 5000 items with the ledger on, plus a
    probe pool of stored items, noisy copies and novel patterns."""

    def __init__(self, seed: int, work: Path):
        g = PAPER
        rng = np.random.default_rng([seed, 1])
        items = distinct_patterns(g, NUM_ITEMS, rng)
        self.model = MemoryModel(g, seed=seed, enable_ledger=True)
        for pattern in items:
            self.model.store(pattern)
        self.seed = seed
        self.calls = 0

        probes = [(items[i], True) for i in rng.choice(NUM_ITEMS, PROBES_PER_KIND, replace=False)]
        for keep in NOISY_KEEP:
            for i in rng.choice(NUM_ITEMS, PROBES_PER_KIND, replace=False):
                source = np.array(items[i].active)
                outside = np.setdiff1d(np.arange(g.num_pixels), source)
                pixels = np.concatenate([
                    rng.choice(source, keep, replace=False),
                    rng.choice(outside, g.num_active - keep, replace=False),
                ])
                probes.append((InputPattern.from_indices(pixels.tolist()), False))
        probes += [(p, False) for p in distinct_patterns(g, PROBES_PER_KIND, rng, avoid=items)]
        self.probes = [probes[i] for i in rng.permutation(len(probes))]

        ledger = self.model.ledger
        self.ledger_labels = [e.label for e in ledger]
        self.ledger_codes = np.array([e.code for e in ledger])
        self.ledger_members = np.zeros((NUM_ITEMS, g.num_pixels), dtype=bool)
        self.ledger_members[np.arange(NUM_ITEMS)[:, None], [e.pattern.active for e in ledger]] = True
        m = self.model
        self.before = (m.weights.bits.copy(), m.rng.bit_generator.state, list(m.ledger), m.num_stored)

    def _next_probe(self):
        pattern, stored = self.probes[self.calls % len(self.probes)]
        rng = np.random.default_rng([self.seed, 2, self.calls])
        self.calls += 1
        return pattern, stored, rng

    def _check_selection(self, run, where, trace, code, mode, pattern, stored):
        g = PAPER
        run.check(where, checks.check_selection(
            trace.u, trace.familiarity, code, mode, self.model.weights.bits,
            pattern.active, g.num_active, self.model.w_max, stored))

    def finish(self, run: Run) -> None:
        bits, rng_state, ledger, num_stored = self.before
        m = self.model
        if not np.array_equal(m.weights.bits, bits):
            run.check("read-only", ["weights changed"])
        if m.rng.bit_generator.state != rng_state:
            run.check("read-only", ["model RNG state changed"])
        if len(m.ledger) != len(ledger) or any(a is not b for a, b in zip(m.ledger, ledger)):
            run.check("read-only", ["ledger changed"])
        if m.num_stored != num_stored:
            run.check("read-only", ["num_stored changed"])


class Retrieve(_FilledModel):
    """Soft and hard ``retrieve`` with a caller RNG over the probe mix.

    Each round also makes one call known to fail: a caller-RNG retrieve on a
    fixed empty model still adds to ``model.op_counter``, though readers are
    documented as read-only.  It is counted in ``failed``.
    """

    probes_per_round = 4

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.fixed = MemoryModel(PAPER, seed=0)
        self.fixed_probe = InputPattern.from_indices(range(PAPER.num_active))

    def round(self, run: Run, tracer=None) -> None:
        model = self.model
        for _ in range(self.probes_per_round):
            pattern, stored, rng = self._next_probe()
            t0 = clock()
            soft, soft_trace = model.retrieve(pattern, "soft", rng)
            hard, hard_trace = model.retrieve(pattern, "hard", rng)
            run.timed(t0, clock() - t0)
            run.attempted += 1
            self._check_selection(run, "retrieve soft", soft_trace, soft, "soft", pattern, stored)
            self._check_selection(run, "retrieve hard", hard_trace, hard, "hard", pattern, stored)

        run.attempted += 1
        before = self.fixed.op_counter.total()
        self.fixed.retrieve(self.fixed_probe, "hard", np.random.default_rng(0))
        ops = self.fixed.op_counter.total() - before
        run.values["ops_per_retrieve"].append(ops)
        if ops:
            run.failed += 1


class Belief(_FilledModel):
    """Soft and hard ``belief_update`` with a caller RNG over the probe mix."""

    def round(self, run: Run, tracer=None) -> None:
        pattern, stored, rng = self._next_probe()
        t0 = clock()
        soft = self.model.belief_update(pattern, "soft", rng)
        hard = self.model.belief_update(pattern, "hard", rng)
        run.timed(t0, clock() - t0)
        run.attempted += 1
        for report in (soft, hard):
            where = f"belief {report.mode}"
            self._check_selection(run, where, report.trace, report.code, report.mode, pattern, stored)
            entries = report.entries
            run.check(where, checks.check_belief(
                [e.label for e in entries],
                [e.input_similarity for e in entries],
                [e.code_intersection for e in entries],
                [e.likelihood for e in entries],
                report.code, self.ledger_labels, self.ledger_codes,
                self.ledger_members, pattern.active, PAPER.num_active))
            run.values["ledger_entries_per_belief"].append(len(entries))


class Scenario(Workload):
    """The bundled appendix scenario, run and emitted as ``msdc experiment``
    does, plus each probe's rank correlation.

    The seed block is the bundled one (0-199) whatever ``--seed`` is: the
    checks on it are statistical (90% of seeds, 3 sigma), and on other blocks
    a correct program fails one of them now and then.
    """

    setup_repeats = 5
    warmup_seeds = 20

    def __init__(self, seed: int, work: Path):
        self.spec = experiments.load_scenario("appendix")
        # Warm the code paths and allocator on the block's first seeds.
        warmup = experiments.scenario_from_dict(
            {**experiments.scenario_to_dict(self.spec),
             "seeds": list(self.spec.seeds[: self.warmup_seeds])})
        experiments.run_scenario(warmup)
        self.schedule = {p.label: p.overlaps for p in self.spec.probes}
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)
        self.first_files = None
        self.repetitions = 0

    def round(self, run: Run, tracer=None) -> None:
        spec = self.spec
        out = self.work / f"out-{self.repetitions}"
        self.repetitions += 1
        t0 = clock()
        records = experiments.run_scenario(spec)
        experiments.aggregate_records(records, spec)
        correlations = {
            label: experiments.similarity_rank_correlation(records, spec, label)
            for label in self.schedule
        }
        experiments.emit_results(records, spec, out)
        run.timed(t0, clock() - t0)
        run.attempted += 1

        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        if self.first_files is None:
            self.first_files = files
        run.check("scenario files", checks.check_same_files(self.first_files, files))

        items = spec.stored_labels()
        similarities, intersections = {}, {}
        for label in self.schedule:
            rows = [r for r in records if r.probe == label]
            similarities[label] = np.array([[r.similarities[i] for i in items] for r in rows])
            intersections[label] = np.array([[r.intersections[i] for i in items] for r in rows])
        g = spec.geometry
        run.check("scenario", checks.check_scenario(
            similarities, intersections, self.schedule, g.num_active, g.num_cms, g.units_per_cm))
        for label, value in correlations.items():
            own = checks.spearman(np.asarray(self.schedule[label]) / g.num_active,
                                  intersections[label].mean(axis=0))
            if not abs(value - own) <= 1e-9:
                run.check("scenario", [f"{label}: rank correlation {value} != recomputed {own}"])


class CliLayers(Workload):
    """The ``cli`` and ``snapshot`` layers, against a snapshot of a
    paper-geometry model with 5000 items; run only by the traced run.

    A round times, in this process, snapshot decode, encode and atomic write
    and a warm ``msdc.cli.main`` store then query of a new pattern; then, as
    child processes, a cold ``python -m msdc`` store then query of another
    new pattern, a bare interpreter and one that imports ``msdc.cli``.  Cold
    commands vary too much from one process to the next for a bounded
    end-to-end metric (see README.md), so they are reported here instead.
    """

    setup_repeats = 1

    def __init__(self, seed: int, work: Path):
        g = PAPER
        rng = np.random.default_rng([seed, 4])
        items = distinct_patterns(g, NUM_ITEMS, rng)
        model = MemoryModel(g, seed=seed, enable_ledger=True)
        for pattern in items:
            model.store(pattern)
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.snapshot = work / "model.msdc"
        snapshot.save_model(model, self.snapshot)
        self.new = distinct_patterns(g, 256, rng, avoid=items)
        self.state = checks.parse_snapshot(self.snapshot.read_bytes())
        self.seed = seed
        self.calls = 0
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = {**os.environ, "PYTHONPATH": str(src)}

    def _pattern_file(self) -> tuple[Path, InputPattern, str]:
        i = self.calls
        self.calls += 1
        pattern = self.new[i % len(self.new)]
        path = self.work / f"new-{i}.json"
        path.write_text(json.dumps(list(pattern.active)))
        return path, pattern, f"new-{i}"

    def _commands(self, path: Path, label: str) -> tuple[list[str], list[str]]:
        query_seed = str(self.seed * 100003 + self.calls)
        return (["store", str(self.snapshot), str(path), "--label", label],
                ["query", str(self.snapshot), str(path), "--mode", "hard", "--seed", query_seed])

    def _check(self, run: Run, where: str, command: str, stdout: str, label: str, pattern) -> None:
        g = PAPER
        if command == "query":
            run.check(where, checks.check_query_output(
                stdout, self.state["ledger"], g.num_cms, g.units_per_cm, stored=True))
            return
        run.check(where, checks.parse_printed_code(stdout, g.num_cms, g.units_per_cm)[1])
        blob = self.snapshot.read_bytes()
        run.check(where, checks.check_snapshot_after_store(self.state, blob, label, pattern.active))
        self.state = checks.parse_snapshot(blob)

    def _spawn(self, run: Run, args) -> tuple[float, str]:
        """Run one child process to its end; returns (seconds, stdout)."""
        t0 = clock()
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=self.env, cwd=self.work, timeout=120)
        seconds = (clock() - t0) / 1e9
        if proc.returncode != 0:
            run.check("cli", [f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr[-300:]}"])
        return seconds, proc.stdout

    def round(self, run: Run, tracer=None) -> None:
        blob = self.snapshot.read_bytes()
        copy = self.work / "copy.msdc"
        for _ in range(3):
            data = snapshot.encode_model(snapshot.decode_model(blob))
            snapshot.atomic_write_bytes(copy, data)
            if data != blob:
                run.check("snapshot", ["re-encoding a decoded snapshot changed its bytes"])
        run.values["snapshot.file_kib"].append(len(blob) / 1024)

        path, pattern, label = self._pattern_file()
        for command in self._commands(path, label):
            out = io.StringIO()
            with tracer.span(f"cli.main.{command[0]}"), contextlib.redirect_stdout(out):
                code = cli.main(command)
            run.attempted += 1
            if code != 0:
                run.check("cli main", [f"{command[0]} returned {code}"])
            self._check(run, "cli main", command[0], out.getvalue(), label, pattern)

        path, pattern, label = self._pattern_file()
        for command in self._commands(path, label):
            seconds, stdout = self._spawn(run, ["-m", "msdc", *command])
            run.values[f"cli.cold_{command[0]}_s"].append(seconds)
            run.attempted += 1
            self._check(run, "cli cold", command[0], stdout, label, pattern)

        for name, code in (("cli.interpreter_s", "pass"), ("cli.import_s", "import msdc.cli")):
            seconds, _ = self._spawn(run, ["-c", code])
            run.values[name].append(seconds)


WORKLOADS = {
    "grow": Grow,
    "retrieve": Retrieve,
    "belief": Belief,
    "scenario": Scenario,
}
# Traced runs also time these layers, which no end-to-end workload covers.
LAYER_SEGMENTS = {**WORKLOADS, "cli": CliLayers}
