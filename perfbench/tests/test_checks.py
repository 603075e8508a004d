"""Each checker accepts the program's real output and rejects a corrupted copy.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io

import numpy as np
import pytest
from scipy import stats

import checks
from msdc import InputPattern, MemoryModel, ModelGeometry, cli, experiments, save_model

GEOMETRY = ModelGeometry(16, 16, 8, 8, 8)


def patterns(geometry, n, seed):
    rng = np.random.default_rng(seed)
    return [
        InputPattern.from_indices(rng.choice(geometry.num_pixels, geometry.num_active, replace=False).tolist())
        for _ in range(n)
    ]


@pytest.fixture
def filled():
    """A lightly filled model: (model, stored patterns, codes, first trace, op deltas)."""
    model = MemoryModel(GEOMETRY, seed=3, enable_ledger=True)
    items = patterns(GEOMETRY, 20, 5)
    codes, deltas, first = [], [], None
    for pattern in items:
        before = model.op_counter.as_dict()
        code, trace = model.store(pattern)
        after = model.op_counter.as_dict()
        deltas.append({k: after[k] - before[k] for k in after if k != "total"})
        codes.append(code)
        first = first or trace
    return model, items, np.array(codes), first, deltas


def test_store_checks_accept_real_output(filled):
    model, items, codes, first, deltas = filled
    g = GEOMETRY
    pixels = np.array([p.active for p in items])
    assert checks.check_first_store(first.familiarity, first.rho, g.units_per_cm) == []
    assert checks.check_store_ops(deltas, g.num_active, g.num_cms, g.units_per_cm) == []
    assert checks.check_weights(model.weights.bits, pixels, codes, g.units_per_cm) == []
    assert all(checks.check_code(c, g.num_cms, g.units_per_cm) == [] for c in codes)


def test_store_checks_reject_corruption(filled):
    model, items, codes, first, deltas = filled
    g = GEOMETRY
    pixels = np.array([p.active for p in items])

    flipped = codes.copy()
    flipped[4, 2] = (flipped[4, 2] + 1) % g.units_per_cm
    assert checks.check_weights(model.weights.bits, pixels, flipped, g.units_per_cm)

    missing = pixels.copy()
    missing[0, 0] = missing[0, 1]
    assert checks.check_weights(model.weights.bits, missing, codes, g.units_per_cm)

    bits = model.weights.bits.copy()
    bits[pixels[7, 3], 5 * g.units_per_cm + codes[7, 5]] = 0
    assert checks.check_weights(bits, pixels, codes, g.units_per_cm)

    uneven = [dict(d) for d in deltas]
    uneven[9]["weight_reads"] += 1
    assert checks.check_store_ops(uneven, g.num_active, g.num_cms, g.units_per_cm)

    assert checks.check_first_store(0.125, first.rho, g.units_per_cm)
    assert checks.check_code(np.full(g.num_cms, g.units_per_cm), g.num_cms, g.units_per_cm)


def test_selection_check(filled):
    model, items, _, _, _ = filled
    g = GEOMETRY
    bits, w_max = model.weights.bits, model.w_max
    rng = np.random.default_rng(0)
    code, trace = model.retrieve(items[2], "hard", rng)
    args = (bits, items[2].active, g.num_active, w_max, True)
    assert checks.check_selection(trace.u, trace.familiarity, code, "hard", *args) == []
    soft, soft_trace = model.retrieve(items[2], "soft", rng)
    assert checks.check_selection(soft_trace.u, soft_trace.familiarity, soft, "soft", *args) == []

    # A module whose maximum is unique, so that moving its winner is wrong.
    q = next(i for i in range(g.num_cms) if np.sum(trace.u[i] == trace.u[i].max()) == 1)
    flipped = code.copy()
    flipped[q] = (flipped[q] + 1) % g.units_per_cm
    assert checks.check_selection(trace.u, trace.familiarity, flipped, "hard", *args)

    u = trace.u.copy()
    u[0, 0] += w_max
    assert checks.check_selection(u, trace.familiarity, code, "hard", *args)
    assert checks.check_selection(trace.u, trace.familiarity - 0.01, code, "hard", *args)

    novel = patterns(GEOMETRY, 1, 99)[0]
    code, trace = model.retrieve(novel, "hard", rng)
    assert trace.familiarity < 1.0
    assert checks.check_selection(trace.u, trace.familiarity, code, "hard",
                                  bits, novel.active, g.num_active, w_max, True)


def belief_args(model, report, probe):
    entries = report.entries
    members = np.zeros((len(model.ledger), GEOMETRY.num_pixels), dtype=bool)
    for i, e in enumerate(model.ledger):
        members[i, list(e.pattern.active)] = True
    return dict(
        labels=[e.label for e in entries],
        similarities=[e.input_similarity for e in entries],
        intersections=[e.code_intersection for e in entries],
        likelihoods=[e.likelihood for e in entries],
        code=report.code,
        ledger_labels=[e.label for e in model.ledger],
        ledger_codes=np.array([e.code for e in model.ledger]),
        ledger_members=members,
        probe_pixels=probe.active,
        s=GEOMETRY.num_active,
    )


def test_belief_check(filled):
    model = filled[0]
    probe = filled[1][6]
    report = model.belief_update(probe, "soft", np.random.default_rng(1))
    args = belief_args(model, report, probe)
    assert checks.check_belief(**args) == []

    wrong = dict(args, intersections=list(args["intersections"]))
    wrong["intersections"][3] += 1
    assert checks.check_belief(**wrong)

    flipped = np.array(report.code)
    flipped[0] = (flipped[0] + 1) % GEOMETRY.units_per_cm
    assert checks.check_belief(**dict(args, code=flipped))

    assert checks.check_belief(**dict(args, labels=args["labels"][::-1]))
    sims = list(args["similarities"])
    sims[0] += 1 / GEOMETRY.num_active
    assert checks.check_belief(**dict(args, similarities=sims))
    likes = list(args["likelihoods"])
    likes[1] += 0.5
    assert checks.check_belief(**dict(args, likelihoods=likes))


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.integers(0, 4, 8)
        b = rng.integers(0, 5, 8)
        if len(set(a)) > 1 and len(set(b)) > 1:
            assert checks.spearman(a, b) == pytest.approx(stats.spearmanr(a, b).statistic, abs=1e-12)


@pytest.fixture(scope="module")
def scenario():
    spec = experiments.default_appendix_scenario(num_seeds=200)
    records = experiments.run_scenario(spec)
    items = spec.stored_labels()
    schedule = {p.label: p.overlaps for p in spec.probes}
    sims, inters = {}, {}
    for label in schedule:
        rows = [r for r in records if r.probe == label]
        sims[label] = np.array([[r.similarities[i] for i in items] for r in rows])
        inters[label] = np.array([[r.intersections[i] for i in items] for r in rows])
    return spec, records, schedule, sims, inters


def test_scenario_check(scenario):
    spec, _, schedule, sims, inters = scenario
    g = spec.geometry
    args = (schedule, g.num_active, g.num_cms, g.units_per_cm)
    assert checks.check_scenario(sims, inters, *args) == []

    bad_sims = dict(sims, I8=sims["I8"] + 1 / g.num_active)
    assert checks.check_scenario(bad_sims, inters, *args)
    swapped = dict(inters, I7=inters["I7"][:, [1, 0, 2, 3, 4, 5]])
    assert checks.check_scenario(sims, swapped, *args)
    split = inters["I9"].copy()
    split[:, 3] = 24
    assert checks.check_scenario(sims, dict(inters, I9=split), *args)
    biased = inters["I7"].copy()
    biased[:, 5] += 1
    assert checks.check_scenario(sims, dict(inters, I7=biased), *args)


def test_emitted_files_check(scenario, tmp_path):
    spec, records, *_ = scenario
    outputs = []
    for name in ("a", "b"):
        experiments.emit_results(records, spec, tmp_path / name)
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert checks.check_same_files(*outputs) == []
    changed = dict(outputs[1])
    blob = bytearray(changed["aggregate.csv"])
    blob[40] ^= 1
    changed["aggregate.csv"] = bytes(blob)
    assert checks.check_same_files(outputs[0], changed)


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


def test_snapshot_and_cli_checks(filled, tmp_path):
    model = filled[0]
    g = GEOMETRY
    path = tmp_path / "model.msdc"
    save_model(model, path)
    before = checks.parse_snapshot(path.read_bytes())
    assert np.array_equal(before["bits"], model.weights.bits)
    assert [e[2] for e in before["ledger"]] == [e.code for e in model.ledger]
    assert path.stat().st_size == checks.snapshot_size(g.num_pixels, g.num_units, before["ledger"])

    new = patterns(GEOMETRY, 1, 77)[0]
    pattern_file = tmp_path / "new.json"
    pattern_file.write_text(str(list(new.active)))
    stdout = run_cli("store", path, pattern_file, "--label", "new")
    code, problems = checks.parse_printed_code(stdout, g.num_cms, g.units_per_cm)
    assert problems == [] and code is not None
    blob = path.read_bytes()
    assert checks.check_snapshot_after_store(before, blob, "new", new.active) == []

    after = checks.parse_snapshot(blob)
    cleared = dict(before, bits=before["bits"].copy())
    cleared["bits"][after["bits"] == 0] = 1
    assert checks.check_snapshot_after_store(cleared, blob, "new", new.active)
    assert checks.check_snapshot_after_store(before, blob, "other", new.active)
    assert checks.check_snapshot_after_store(after, blob, "new", new.active)
    corrupt = bytearray(blob)
    corrupt[200] ^= 1
    assert checks.check_snapshot_after_store(before, bytes(corrupt), "new", new.active)

    stdout = run_cli("query", path, pattern_file, "--mode", "hard", "--seed", "5")
    assert checks.check_query_output(stdout, after["ledger"], g.num_cms, g.units_per_cm, stored=True) == []
    lines = stdout.splitlines()
    entry = next(i for i, line in enumerate(lines) if line.startswith("item-3:"))
    inter = int(lines[entry].split("intersection=")[1].split("/")[0])
    lines[entry] = lines[entry].replace(f"intersection={inter}/", f"intersection={inter + 1}/")
    assert checks.check_query_output("\n".join(lines), after["ledger"], g.num_cms, g.units_per_cm, True)
    code_line = next(i for i, line in enumerate(lines) if line.startswith("code: "))
    winners = lines[code_line].split()[1:]
    winners[0] = str((int(winners[0]) + 1) % g.units_per_cm)
    lines = stdout.splitlines()
    lines[code_line] = "code: " + " ".join(winners)
    assert checks.check_query_output("\n".join(lines), after["ledger"], g.num_cms, g.units_per_cm, True)
