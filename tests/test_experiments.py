"""Scenario harness: corpus construction, trial runs, emission."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import msdc
from msdc import ConfigError, ScheduleError, oracle_nearest, oracle_similarity
from msdc.experiments import (
    APPENDIX_GEOMETRY,
    AGGREGATE_COLUMNS,
    TRIAL_COLUMNS,
    ProbeSpec,
    ScenarioSpec,
    TrialRecord,
    _average_ranks,
    aggregate_records,
    build_appendix_corpus,
    default_appendix_scenario,
    emit_results,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    similarity_rank_correlation,
)


@pytest.fixture(scope="module")
def spec_40():
    return default_appendix_scenario(num_seeds=40)


@pytest.fixture(scope="module")
def records_40(spec_40):
    return run_scenario(spec_40)


def test_corpus_satisfies_every_overlap_constraint():
    spec = default_appendix_scenario(num_seeds=1)
    stored, probes = build_appendix_corpus(spec)
    assert [label for label, _ in stored] == ["I1", "I2", "I3", "I4", "I5", "I6"]
    # Stored patterns are pairwise disjoint.
    for i, (_, a) in enumerate(stored):
        for _, b in stored[i + 1 :]:
            assert a.overlap(b) == 0
    by_label = dict(probes)
    # I7 ramps down the schedule; I9 splits between I3 and I6.
    i7 = by_label["I7"]
    assert [i7.overlap(p) for _, p in stored] == [5, 4, 2, 1, 0, 0]
    assert oracle_similarity(i7, stored[0][1]) == pytest.approx(5 / 12)
    i9 = by_label["I9"]
    assert oracle_similarity(i9, stored[2][1]) == 0.5
    assert oracle_similarity(i9, stored[5][1]) == 0.5
    assert sorted(oracle_nearest(i9, stored)) == ["I3", "I6"]
    assert oracle_nearest(i7, stored) == ["I1"]
    i8 = by_label["I8"]
    assert oracle_nearest(i8, stored) == ["I2"]
    # Every pattern carries exactly S pixels.
    for _, p in stored + probes:
        assert len(p.active) == 12


def test_infeasible_schedule_is_rejected():
    # Overlaps summing past S cannot coexist with disjoint stored patterns:
    # a 12-pixel probe cannot share 5+4+3+2+1+0 = 15 pixels with them.
    spec = ScenarioSpec(
        name="bad",
        geometry=default_appendix_scenario(1).geometry,
        params=default_appendix_scenario(1).params,
        num_stored=6,
        probes=(ProbeSpec("P", (5, 4, 3, 2, 1, 0)),),
        seeds=(0,),
    )
    with pytest.raises(ScheduleError, match="at most 12"):
        build_appendix_corpus(spec)


def test_schedule_validation_errors():
    base = default_appendix_scenario(1)
    too_many_items = ScenarioSpec(
        name="big", geometry=base.geometry, params=base.params,
        num_stored=13, probes=(ProbeSpec("P", (0,) * 13),), seeds=(0,),
    )
    with pytest.raises(ScheduleError, match="do not fit"):
        build_appendix_corpus(too_many_items)
    wrong_len = ScenarioSpec(
        name="len", geometry=base.geometry, params=base.params,
        num_stored=6, probes=(ProbeSpec("P", (1, 2)),), seeds=(0,),
    )
    with pytest.raises(ScheduleError, match="overlap entries"):
        build_appendix_corpus(wrong_len)


def test_run_scenario_shape_and_determinism(spec_40, records_40):
    assert len(records_40) == 40 * 3
    again = run_scenario(spec_40)
    assert again == records_40


def test_similarity_ranking_holds_on_modest_seed_count(spec_40, records_40):
    assert similarity_rank_correlation(records_40, spec_40, "I7") >= 0.9


def test_rank_correlation_of_the_appendix_probes_is_pinned():
    # I9's similarities tie (two items at 6/12, four at 0); the values are
    # scipy.stats.spearmanr's to the last bit.
    spec = default_appendix_scenario(num_seeds=200)
    records = run_scenario(spec)
    rhos = [similarity_rank_correlation(records, spec, p) for p in ("I7", "I8", "I9")]
    assert rhos == [0.9856107606091624, 0.819688599970537, 0.8280786712108251]


def test_rank_correlation_ties_and_constant_input():
    assert _average_ranks([0.5, 0.0, 0.5, 0.25, 0.0]).tolist() == [4.5, 1.5, 4.5, 3.0, 1.5]
    assert _average_ranks([7.0] * 4).tolist() == [2.5] * 4
    base = default_appendix_scenario(1)
    flat = ScenarioSpec(
        name="flat", geometry=base.geometry, params=base.params,
        num_stored=6, probes=(ProbeSpec("P", (0,) * 6),), seeds=(0, 1),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = similarity_rank_correlation(run_scenario(flat), flat, "P")
    assert math.isnan(rho)


def test_rank_correlation_matches_the_full_aggregate(spec_40, records_40):
    # One probe's aggregate gives the same float as all probes' aggregate
    # filtered to it, an unknown label (NaN) included.
    def reference(label):
        rows = [r for r in aggregate_records(records_40, spec_40) if r["probe"] == label]
        ranks = [_average_ranks([r[k] for r in rows])
                 for k in ("input_similarity", "mean_intersection")]
        with np.errstate(invalid="ignore", divide="ignore"):
            return float(np.corrcoef(*ranks)[1, 0])

    for label in ("I7", "I8", "I9"):
        assert similarity_rank_correlation(records_40, spec_40, label) == reference(label)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert math.isnan(reference("nope"))
        assert math.isnan(similarity_rank_correlation(records_40, spec_40, "nope"))


def test_experiments_import_leaves_scipy_unloaded():
    src = str(Path(msdc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, msdc.experiments; sys.exit('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path}, timeout=120
    )
    assert result.returncode == 0


def test_zero_overlap_items_sit_at_chance(spec_40, records_40):
    # For every probe, a stored item with zero pixel overlap should have
    # mean likelihood within 3 binomial sigma of 1/K.
    n = 40
    sigma = np.sqrt((1 / 8) * (7 / 8) / (24 * n))
    for row in aggregate_records(records_40, spec_40):
        if row["input_similarity"] == 0.0:
            assert abs(row["mean_likelihood"] - 1 / 8) < 3 * sigma + 1e-12, row


def test_emitted_files_are_deterministic(spec_40, records_40, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_results(records_40, spec_40, a)
    emit_results(run_scenario(spec_40), spec_40, b)
    for name in ("trials.csv", "aggregate.csv", "results.json", "scenario.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_emitted_csv_layout(spec_40, records_40, tmp_path):
    emit_results(records_40, spec_40, tmp_path, formats=("csv",))
    trials = (tmp_path / "trials.csv").read_text().splitlines()
    assert trials[0] == "seed,probe,item,input_similarity,code_intersection,likelihood,familiarity"
    assert len(trials) == 1 + 40 * 3 * 6
    agg = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert agg[0].startswith("probe,item,input_similarity,mean_intersection")
    assert len(agg) == 1 + 3 * 6
    # Sidecar provenance: the resolved scenario rides along with the CSVs.
    scenario = json.loads((tmp_path / "scenario.json").read_text())
    assert scenario == scenario_to_dict(spec_40)


def reference_emit(records, spec, out_dir):
    """``emit_results`` through the generic encoders: one ``json.dumps`` of
    the whole payload, and one ``csv.writer`` row of ``fmt`` cells per row."""
    def fmt(value):
        return format(value, ".10g") if isinstance(value, float) else str(value)

    def write_csv(path, columns, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row[c]) for c in columns])
        path.write_text(buf.getvalue())

    out_dir.mkdir()
    aggregates = aggregate_records(records, spec)
    items = spec.stored_labels()
    write_csv(out_dir / "trials.csv", TRIAL_COLUMNS, [
        {"seed": r.seed, "probe": r.probe, "item": item,
         "input_similarity": r.similarities[item],
         "code_intersection": r.intersections[item],
         "likelihood": r.likelihoods[item], "familiarity": r.familiarity}
        for r in records for item in items
    ])
    write_csv(out_dir / "aggregate.csv", AGGREGATE_COLUMNS, aggregates)
    payload = {
        "scenario": scenario_to_dict(spec),
        "trials": [
            {"seed": r.seed, "probe": r.probe, "familiarity": r.familiarity, "eta": r.eta,
             "code": list(r.code), "similarities": r.similarities,
             "intersections": r.intersections, "likelihoods": r.likelihoods}
            for r in records
        ],
        "aggregates": aggregates,
    }
    (out_dir / "results.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (out_dir / "scenario.json").write_text(
        json.dumps(scenario_to_dict(spec), indent=2, sort_keys=True) + "\n"
    )


def hand_built_trials():
    """Twelve stored items (so "I10" sorts before "I2"), probe labels that
    need quoting or escaping, non-finite and signed-zero floats, and numpy
    float64 leaves."""
    probes = ('say "hi"', "a,b", "two\nlines", "ünïcödé ✓", "100%s %d")
    spec = ScenarioSpec(
        name="odd", geometry=APPENDIX_GEOMETRY, params=default_appendix_scenario(1).params,
        num_stored=12, probes=tuple(ProbeSpec(p, (0,) * 12) for p in probes),
        seeds=(3, 0, 11),
    )
    labels = spec.stored_labels()
    odd = [math.nan, math.inf, -math.inf, -0.0, 0.0, np.float64(0.1), np.float64(math.nan),
           5e-324, 1e-7, 1e16, 123456789.12345679, -2.5]
    gen = np.random.default_rng(7)
    # I1's similarity is zero for every probe, and seed 0 writes it as -0.0:
    # equal, so the aggregate holds, but its JSON and CSV text differ.
    sims = {p: [0.0] + [int(gen.integers(0, 13)) / 12 for _ in labels[1:]] for p in probes}
    records = []
    for k, seed in enumerate(spec.seeds):
        for j, probe in enumerate(probes):
            order = [int(i) for i in gen.permutation(len(labels))]
            inter = [int(x) for x in gen.integers(0, 25, len(labels))]
            records.append(TrialRecord(
                seed=seed,
                probe=probe,
                familiarity=odd[(3 * k + j) % len(odd)],
                eta=odd[(5 * k + 2 * j + 1) % len(odd)],
                code=tuple(int(c) for c in gen.integers(0, 8, 24)),
                similarities={labels[i]: -0.0 if seed == 0 and sims[probe][i] == 0
                              else np.float64(sims[probe][i]) if i % 2 else sims[probe][i]
                              for i in order},
                intersections={labels[i]: inter[i] for i in order},
                likelihoods={labels[i]: -0.0 if inter[i] == 0 and i % 2
                             else np.float64(inter[i] / 24) for i in order},
            ))
    return spec, records


def files_of(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("case", ["hand-built", "appendix"])
def test_emitted_files_match_the_generic_encoders(spec_40, records_40, tmp_path, case):
    spec, records = hand_built_trials() if case == "hand-built" else (spec_40, records_40)
    reference_emit(records, spec, tmp_path / "reference")
    want = files_of(tmp_path / "reference")
    emit_results(records, spec, tmp_path / "both")
    assert files_of(tmp_path / "both") == want
    for fmt, names in (("csv", ["aggregate.csv", "scenario.json", "trials.csv"]),
                       ("json", ["results.json", "scenario.json"])):
        emit_results(records, spec, tmp_path / fmt, formats=(fmt,))
        assert files_of(tmp_path / fmt) == {name: want[name] for name in names}


def test_hard_retrieve_of_ramped_probe_recovers_best_match_code():
    # Best-match readout: after storing the corpus, a hard retrieval of the
    # ramped probe reactivates most of the nearest item's code (chance
    # would be Q/K = 3 of 24 CMs).
    from msdc import MemoryModel, code_intersection

    spec = default_appendix_scenario(num_seeds=1)
    stored, probes = build_appendix_corpus(spec)
    model = MemoryModel(spec.geometry, spec.params, seed=0, enable_ledger=True)
    codes = {}
    for label, pattern in stored:
        codes[label], _ = model.store(pattern, label)
    retrieved, _ = model.retrieve(
        dict(probes)["I7"], mode="hard", rng=np.random.default_rng(0)
    )
    assert code_intersection(retrieved, codes["I1"]) >= 15


def test_aggregate_top_item_likelihood_scale(spec_40, records_40):
    rows = {
        (r["probe"], r["item"]): r for r in aggregate_records(records_40, spec_40)
    }
    # The most similar item's mean likelihood sits well above chance under
    # default parameters (single-trial readouts of it run around 3/4).
    assert 0.5 <= rows[("I7", "I1")]["mean_likelihood"] <= 0.9
    assert rows[("I8", "I2")]["mean_likelihood"] >= 0.8


def test_scenario_round_trip_and_bundled_default():
    spec = default_appendix_scenario(num_seeds=200)
    assert scenario_from_dict(scenario_to_dict(spec)) == spec
    assert load_scenario("appendix") == spec


def test_store_order_variant():
    base = scenario_to_dict(default_appendix_scenario(num_seeds=5))
    reordered = scenario_from_dict(
        {**base, "store_order": ["I6", "I5", "I4", "I3", "I2", "I1"]}
    )
    records = run_scenario(reordered)
    # The corpus is unchanged; only the storage sequence differs, and with
    # a fully disjoint corpus every store still happens at zero familiarity.
    assert all(len(r.similarities) == 6 for r in records)
    natural = run_scenario(scenario_from_dict(base))
    assert records != natural
    with pytest.raises(ScheduleError, match="permute"):
        scenario_from_dict({**base, "store_order": ["I1", "I1", "I2", "I3", "I4", "I5"]})


def test_seed_range_shorthand():
    spec = scenario_from_dict(
        {**scenario_to_dict(default_appendix_scenario(1)), "seeds": {"start": 5, "count": 3}}
    )
    assert spec.seeds == (5, 6, 7)


def test_emit_requires_records(spec_40, tmp_path):
    with pytest.raises(ScheduleError):
        emit_results([], spec_40, tmp_path)


def test_probe_overlaps_must_be_integers():
    with pytest.raises(ScheduleError, match="must be an integer"):
        ProbeSpec("P", (5.9, 4, 2, 1, 0, 0))
    assert ProbeSpec("P", np.array([5, 4, 2, 1, 0, 0])).overlaps == (5, 4, 2, 1, 0, 0)


@pytest.mark.parametrize(
    "change, error, message",
    [
        ({"seeds": (0.5, 1.7)}, ScheduleError, "seed must be an integer"),
        ({"seeds": (0, -3)}, ScheduleError, "non-negative"),
        ({"num_stored": 6.0}, ScheduleError, "num_stored must be an integer"),
    ],
)
def test_scenario_spec_rejects_non_integral_values(change, error, message):
    with pytest.raises(error, match=message):
        dataclasses.replace(default_appendix_scenario(2), **change)


def test_scenario_spec_accepts_numpy_integer_seeds():
    base = default_appendix_scenario(3)
    spec = dataclasses.replace(base, seeds=np.arange(3))
    assert spec == base
    assert all(type(s) is int for s in spec.seeds)


def test_scenario_spec_rejects_duplicate_probe_labels():
    base = default_appendix_scenario(2)
    with pytest.raises(ScheduleError, match="two probes are labelled 'I7'"):
        dataclasses.replace(base, probes=base.probes + (ProbeSpec("I7", (0,) * 6),))
    data = scenario_to_dict(base)
    data["probes"][2]["label"] = "I8"
    with pytest.raises(ScheduleError, match="two probes are labelled 'I8'"):
        scenario_from_dict(data)


def test_scenario_w_max_is_written_and_read_only_as_127():
    data = scenario_to_dict(default_appendix_scenario(2))
    assert data["w_max"] == 127
    without = {key: value for key, value in data.items() if key != "w_max"}
    assert scenario_from_dict(data) == scenario_from_dict(without)
    for bad in (0, 127.0):
        with pytest.raises(ConfigError, match="scenario w_max must be"):
            scenario_from_dict({**data, "w_max": bad})
