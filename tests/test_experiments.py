"""Scenario harness: corpus construction, trial runs, emission."""

import csv
import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

import msdc
from msdc import ConfigError, GeometryError, ScheduleError
from msdc.cli import main
from msdc.core import PAPER_GEOMETRY
from msdc.experiments import (
    AGGREGATE_COLUMNS,
    MAX_RESULT_BYTES,
    TRIAL_COLUMNS,
    ProbeSpec,
    ScenarioResult,
    ScenarioSpec,
    TrialRecord,
    _average_ranks,
    _fmt,
    _json_float,
    _result_bytes,
    _texts,
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

from oracle import code_intersection, oracle_nearest, oracle_similarity, pixel_overlap


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
            assert pixel_overlap(a, b) == 0
    by_label = dict(probes)
    # I7 ramps down the schedule; I9 splits between I3 and I6.
    i7 = by_label["I7"]
    assert [pixel_overlap(i7, p) for _, p in stored] == [5, 4, 2, 1, 0, 0]
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
    with pytest.raises(ScheduleError, match="at most 12"):
        ScenarioSpec(
            name="bad",
            geometry=default_appendix_scenario(1).geometry,
            params=default_appendix_scenario(1).params,
            num_stored=6,
            probes=(ProbeSpec("P", (5, 4, 3, 2, 1, 0)),),
            seeds=(0,),
        )


def test_schedule_validation_errors():
    base = default_appendix_scenario(1)
    with pytest.raises(ScheduleError, match="do not fit"):
        ScenarioSpec(
            name="big", geometry=base.geometry, params=base.params,
            num_stored=13, probes=(ProbeSpec("P", (0,) * 13),), seeds=(0,),
        )
    with pytest.raises(ScheduleError, match="overlap entries"):
        ScenarioSpec(
            name="len", geometry=base.geometry, params=base.params,
            num_stored=6, probes=(ProbeSpec("P", (1, 2)),), seeds=(0,),
        )


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
        warnings.simplefilter("ignore")  # numpy's mean of the reference's empty ranks
        assert math.isnan(reference("nope"))
    assert math.isnan(similarity_rank_correlation(records_40, spec_40, "nope"))


def test_aggregates_do_not_depend_on_which_reader_came_first(spec_40, tmp_path):
    # A result forms its series statistics once, for whichever reader comes
    # first; the aggregate rows are the same in each order.
    first = {
        "aggregate_records": lambda result: None,
        "similarity_rank_correlation":
            lambda result: similarity_rank_correlation(result, spec_40, "I8"),
        "emit_results": lambda result: emit_results(result, spec_40, tmp_path / "out"),
    }
    rows = []
    for read in first.values():
        result = run_scenario(spec_40)
        read(result)
        rows.append(aggregate_records(result, spec_40))
    assert rows[0] == rows[1] == rows[2]


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
        path.write_text(buf.getvalue(), encoding="utf-8")

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
    """A result of twelve stored items (so "I10" sorts before "I2"), stored
    in a shuffled order, with probe labels that need quoting or escaping and
    non-finite, signed-zero and subnormal familiarity and eta values.  I1's
    code intersection is 0 in every record, and its similarity -0.0 under
    one probe and 0.0 under the others, so one column holds both zeros.
    Twelve 12-pixel items fill the paper's grid, so each probe's schedule
    takes one pixel from every item."""
    probes = ('say "hi"', "a,b", "two\nlines", "ünïcödé ✓", "100%s %d")
    gen = np.random.default_rng(7)
    labels = [f"I{i + 1}" for i in range(12)]
    order = [int(i) for i in gen.permutation(12)]
    spec = ScenarioSpec(
        name="odd", geometry=PAPER_GEOMETRY, params=default_appendix_scenario(1).params,
        num_stored=12, probes=tuple(ProbeSpec(p, (1,) * 12) for p in probes),
        seeds=(3, 0, 11), store_order=tuple(labels[i] for i in order),
    )
    odd = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1, -math.nan,
           5e-324, 1e-7, 1e16, 123456789.12345679, -2.5]
    fam = [[odd[(3 * k + j) % 12] for j in range(5)] for k in range(3)]
    eta = [[odd[(5 * k + 2 * j + 1) % 12] for j in range(5)] for k in range(3)]
    inter = gen.integers(0, 25, (3, 5, 12))
    inter[..., 0] = 0
    sims = gen.integers(0, 13, (5, 12)) / 12
    sims[:, 0] = 0.0
    sims[2, 0] = -0.0
    result = ScenarioResult(
        spec, probes, tuple(labels), tuple(order), gen.integers(0, 8, (3, 5, 24)),
        np.array(fam), np.array(eta), inter, sims,
    )
    return spec, result


def files_of(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def store_order_trials():
    spec = dataclasses.replace(
        default_appendix_scenario(1),
        seeds=(7, 7, 8, 9, 10), store_order=("I4", "I1", "I6", "I2", "I5", "I3"),
    )
    return spec, run_scenario(spec)


def wide_seed_trials():
    # Seeds past int64 must be written as the Python ints they are, not as floats.
    spec = dataclasses.replace(default_appendix_scenario(1), seeds=(0, 2**63 + 1))
    return spec, run_scenario(spec)


def single_trials():
    # One seed, one probe and one stored item: each trial section is a single
    # record, so its first and last cells fall in the same record.
    spec = ScenarioSpec(
        name="single", geometry=PAPER_GEOMETRY, params=default_appendix_scenario(1).params,
        num_stored=1, probes=(ProbeSpec("I7", (5,)),), seeds=(4,),
    )
    return spec, run_scenario(spec)


def wide_code_trials():
    # Q = 3 winners of K = 4096 units: the code column spans more values
    # than it has entries, so its texts come from its sorted distinct values
    # rather than from a table of every value in its range.
    spec = ScenarioSpec(
        name="wide codes", geometry=msdc.ModelGeometry(12, 12, 12, 3, 4096),
        params=default_appendix_scenario(1).params,
        num_stored=1, probes=(ProbeSpec("I7", (5,)),), seeds=(4,),
    )
    result = run_scenario(spec)
    assert np.ptp(result.codes) >= result.codes.size
    return spec, result


@pytest.mark.parametrize(
    "case", ["hand-built", "appendix", "store_order", "wide_seeds", "single", "wide_codes"]
)
def test_emitted_files_match_the_generic_encoders(spec_40, records_40, tmp_path, case):
    spec, records = {
        "hand-built": hand_built_trials, "store_order": store_order_trials,
        "wide_seeds": wide_seed_trials, "single": single_trials,
        "wide_codes": wide_code_trials, "appendix": lambda: (spec_40, records_40),
    }[case]()
    reference_emit(records, spec, tmp_path / "reference")
    want = files_of(tmp_path / "reference")
    emit_results(records, spec, tmp_path / "both")
    assert files_of(tmp_path / "both") == want
    for fmt, names in (("csv", ["aggregate.csv", "scenario.json", "trials.csv"]),
                       ("json", ["results.json", "scenario.json"])):
        emit_results(records, spec, tmp_path / fmt, formats=(fmt,))
        assert files_of(tmp_path / fmt) == {name: want[name] for name in names}


@pytest.mark.parametrize(
    "case",
    ["record-list", "empty-list", "other-seeds", "fewer-probes", "fewer-items",
     "reversed-order", "hard-mode", "other-params", "other-name"],
)
def test_readers_and_writers_take_only_their_spec_s_result(tmp_path, case):
    # Read a result against a spec other than the one it ran: each must
    # raise, and emit_results must write nothing that misdescribes the
    # trials, such as other seeds, store order, mode, params or name.
    spec = default_appendix_scenario(2)
    result = run_scenario(spec)
    five = tuple(ProbeSpec(p.label, p.overlaps[:5]) for p in spec.probes)
    reversed_order = tuple(reversed(spec.stored_labels()))
    records, spec = {
        "record-list": (list(result), spec),
        "empty-list": ([], spec),
        "other-seeds": (result, dataclasses.replace(spec, seeds=(5, 6, 7))),
        "fewer-probes": (result, dataclasses.replace(spec, probes=spec.probes[:2])),
        "fewer-items": (result, dataclasses.replace(spec, num_stored=5, probes=five)),
        "reversed-order": (
            run_scenario(dataclasses.replace(spec, store_order=reversed_order)), spec
        ),
        "hard-mode": (run_scenario(dataclasses.replace(spec, mode="hard")), spec),
        "other-params": (
            result, dataclasses.replace(spec, params=dataclasses.replace(spec.params, eta_max=1.0))
        ),
        "other-name": (result, dataclasses.replace(spec, name="other")),
    }[case]
    message = "trials must be a ScenarioResult"
    with pytest.raises(ScheduleError, match=message):
        aggregate_records(records, spec)
    with pytest.raises(ScheduleError, match=message):
        similarity_rank_correlation(records, spec, "I7")
    with pytest.raises(ScheduleError, match=message):
        emit_results(records, spec, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_the_user_path_builds_no_records(tmp_path, python_calls):
    spec = default_appendix_scenario(num_seeds=40)
    init = TrialRecord.__init__.__code__

    def user_path():
        emit_results(run_scenario(spec), spec, tmp_path)

    assert python_calls(user_path, code=init) == 0
    # The hook does see records, once they are read.
    assert python_calls(lambda: list(run_scenario(spec)), code=init) == 40 * 3


def test_run_scenario_builds_one_model_per_run(spec_40, python_calls):
    # Each seed's stream comes from its own seeded RNG; the one empty model
    # gives the store draw its plane.
    init = msdc.MemoryModel.__init__.__code__
    assert python_calls(run_scenario, spec_40, code=init) == 1


def test_value_tables_keep_signed_zeros_and_every_nan():
    values = np.array([0.0, -0.0, math.nan, -math.nan, 0.0, math.inf, -0.0])
    assert _texts(values, _json_float).tolist() == [
        "0.0", "-0.0", "NaN", "NaN", "0.0", "Infinity", "-0.0"
    ]
    assert _texts(values.reshape(7, 1), _fmt)[:, 0].tolist() == [
        "0", "-0", "nan", "nan", "0", "inf", "-0"
    ]
    seeds = np.array([2**70, 3, 2**70], dtype=object)
    assert _texts(seeds, int.__repr__).tolist() == [str(2**70), "3", str(2**70)]


@pytest.mark.parametrize(
    "formats",
    # Then some that are not iterable, or hold an unhashable value, and
    # some that are iterable but not a list, tuple, set or frozenset.
    ["jsonl", "csv", (), set(), ("xml",), ["csv", "xml"], 5, None, [["csv"]], object(),
     {"csv": "no", "json": False}, iter(["json"]), (f for f in ["csv"])],
)
def test_emit_rejects_formats_other_than_csv_and_json(spec_40, records_40, tmp_path, formats):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="formats must be some of 'csv' and 'json'"):
        emit_results(records_40, spec_40, out, formats=formats)
    assert not out.exists()


def test_hard_retrieve_of_ramped_probe_recovers_best_match_code():
    # Best-match readout: after storing the corpus, a hard retrieval of the
    # ramped probe reactivates most of the nearest item's code (chance
    # would be Q/K = 3 of 24 CMs).
    from msdc import MemoryModel

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


def test_default_appendix_scenario_is_the_bundled_file():
    # Every entry point runs the bundled file; these are the paper's
    # appendix values it must hold.
    spec = default_appendix_scenario(num_seeds=3)
    assert spec == dataclasses.replace(load_scenario("appendix"), seeds=(0, 1, 2))
    assert default_appendix_scenario(200) == load_scenario("appendix")
    assert (spec.name, spec.geometry, spec.params, spec.num_stored, spec.mode) == (
        "appendix", PAPER_GEOMETRY, msdc.CsaParams(), 6, "soft"
    )
    assert spec.probes == (
        ProbeSpec("I7", (5, 4, 2, 1, 0, 0)),
        ProbeSpec("I8", (0, 7, 3, 2, 0, 0)),
        ProbeSpec("I9", (0, 0, 6, 0, 0, 6)),
    )
    assert spec.store_order is None


def test_numpy_integer_params_emit_like_python_ints(tmp_path):
    base = dataclasses.replace(default_appendix_scenario(3), params=msdc.CsaParams(eta_max=299))
    spec = dataclasses.replace(base, params=msdc.CsaParams(eta_max=np.int64(299)))
    emit_results(run_scenario(base), base, tmp_path / "int")
    emit_results(run_scenario(spec), spec, tmp_path / "int64")
    assert files_of(tmp_path / "int64") == files_of(tmp_path / "int")


def test_schedules_are_checked_before_the_store_order():
    # An oversized corpus is rejected before store_order's check lists every
    # stored label.
    data = {**scenario_to_dict(default_appendix_scenario(1)), "num_stored": 10**5,
            "store_order": ["I1"]}
    with pytest.raises(ScheduleError, match="do not fit"):
        scenario_from_dict(data)


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


def test_a_seed_count_is_held_to_the_cap_before_any_seed_is_built(monkeypatch):
    # Each count is refused by arithmetic alone: 10**12 seeds would be a
    # 36 TB tuple, and 2**70 is too long for len() of a range.
    base = default_appendix_scenario(1)
    data = scenario_to_dict(base)
    for count in (10**12, 2**70):
        with pytest.raises(ScheduleError, match=f"seeds count {count} is too large"):
            scenario_from_dict({**data, "seeds": {"start": 3, "count": count}})
        with pytest.raises(ScheduleError, match=f"seeds count {count} is too large"):
            dataclasses.replace(base, seeds=range(count))
    with pytest.raises(ScheduleError, match=f"seeds count {10**12} is too large"):
        default_appendix_scenario(10**12)
    # The appendix scenario's cap, 61,987 seeds, as a range and as a list.
    per_seed = _result_bytes(1, base.probes, base.geometry.num_cms, base.num_stored)
    cap = MAX_RESULT_BYTES // per_seed
    assert cap == 61_987
    assert len(dataclasses.replace(base, seeds=range(cap)).seeds) == cap
    with pytest.raises(ScheduleError, match=f"seeds count {cap + 1} is too large"):
        dataclasses.replace(base, seeds=range(cap + 1))
    # Seed lists are held to the same cap, here lowered to three seeds.
    monkeypatch.setattr(msdc.experiments, "MAX_RESULT_BYTES", 3 * per_seed)
    assert dataclasses.replace(base, seeds=[0, 1, 2]).seeds == (0, 1, 2)
    with pytest.raises(ScheduleError, match="seeds count 4 is too large"):
        dataclasses.replace(base, seeds=[0, 1, 2, 3])
    with pytest.raises(ScheduleError, match="seeds count 4 is too large"):
        scenario_from_dict({**data, "seeds": [0, 1, 2, 3]})


def test_emit_requires_records(spec_40, tmp_path):
    with pytest.raises(ScheduleError):
        emit_results([], spec_40, tmp_path)


def test_probe_overlaps_must_be_integers():
    with pytest.raises(ScheduleError, match="must be an integer"):
        ProbeSpec("P", (5.9, 4, 2, 1, 0, 0))
    assert ProbeSpec("P", np.array([5, 4, 2, 1, 0, 0])).overlaps == (5, 4, 2, 1, 0, 0)


@pytest.mark.parametrize("label", [5, None, b"P", ("P",)])
def test_probe_label_must_be_a_string(label):
    with pytest.raises(ScheduleError, match="probe label must be a string"):
        ProbeSpec(label, (1, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("name", [{"a": [1]}, 5, None, ["x"]])
def test_scenario_name_must_be_a_string(name, tmp_path, capsys):
    base = default_appendix_scenario(2)
    message = "scenario name must be a string"
    with pytest.raises(ScheduleError, match=message):
        dataclasses.replace(base, name=name)
    data = {**scenario_to_dict(base), "name": name}
    with pytest.raises(ScheduleError, match=message):
        scenario_from_dict(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["experiment", str(path), str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


NOT_A_SEQUENCE = "must be a sequence (a list, a tuple, a range or a 1-d integer array), got"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda base: ProbeSpec("P", 5), f"probe 'P' overlap {NOT_A_SEQUENCE} 5"),
        (lambda base: ProbeSpec("P", None), f"probe 'P' overlap {NOT_A_SEQUENCE} None"),
        (lambda base: dataclasses.replace(base, probes=5), f"probes {NOT_A_SEQUENCE} 5"),
        (lambda base: dataclasses.replace(base, seeds=5), f"seeds {NOT_A_SEQUENCE} 5"),
        (lambda base: dataclasses.replace(base, store_order=5), f"store_order {NOT_A_SEQUENCE} 5"),
        (lambda base: dataclasses.replace(base, probes=("x",)),
         "probes must be ProbeSpecs, got 'x'"),
        (lambda base: default_appendix_scenario(1.5), "num_seeds must be an integer, got 1.5"),
    ],
    ids=["overlaps int", "overlaps None", "probes int", "seeds int", "store_order int",
         "probe str", "num_seeds float"],
)
def test_scenario_types_map_a_wrong_type_to_schedule_error(build, message):
    # Not a TypeError or AttributeError from deep inside the constructor.
    with pytest.raises(ScheduleError) as raised:
        build(default_appendix_scenario(2))
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "order",
    [("I1", 2, "I3", "I4", "I5", "I6"), (1, 2, 3, 4, 5, 6), ("I1", "I2", "I3", "I4", "I5", None)],
)
def test_store_order_must_hold_labels(order):
    # Checked before the order is sorted, which mixed types would break.
    with pytest.raises(ScheduleError, match="store_order must hold labels"):
        dataclasses.replace(default_appendix_scenario(2), store_order=order)


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


@pytest.mark.parametrize(
    "change, message",
    [
        ({"probes": (ProbeSpec("P", (-1, 0, 0, 0, 0, 0)),)}, "probe 'P' overlap outside [0, 12]"),
        ({"probes": (ProbeSpec("P", (13, 0, 0, 0, 0, 0)),)}, "probe 'P' overlap outside [0, 12]"),
        # 3 items of 4 pixels leave 2 of 14 pixels free for a probe's filler.
        ({"geometry": msdc.ModelGeometry(7, 2, 4, 2, 2), "num_stored": 3,
          "probes": (ProbeSpec("P", (1, 0, 0)),)},
         "probe 'P' needs 3 filler pixels but only 2 are free"),
        ({"seeds": ()}, "scenario needs at least one seed"),
        ({"seeds": range(5, 5)}, "scenario needs at least one seed"),
    ],
    ids=["overlap-below-0", "overlap-above-s", "filler", "no-seeds", "empty-seed-range"],
)
def test_scenario_spec_rejects_an_unrunnable_schedule(change, message):
    with pytest.raises(ScheduleError, match=re.escape(message)):
        dataclasses.replace(default_appendix_scenario(2), **change)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("geometry", "geo", "geometry must be a ModelGeometry, got 'geo'"),
        ("params", None, "params must be a CsaParams, got None"),
        ("params", {"eta_max": 1.0}, "params must be a CsaParams, got {'eta_max': 1.0}"),
    ],
)
def test_scenario_spec_rejects_a_wrong_geometry_or_params_type(field, value, message):
    fields = {"geometry": PAPER_GEOMETRY, "params": msdc.CsaParams(), field: value}
    with pytest.raises(GeometryError) as raised:
        ScenarioSpec("x", num_stored=1, probes=(), seeds=(0,), **fields)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "shape, what",
    [
        (144, "a 144-pixel row map"),
        ((144, 192), "144 x 192 weight bits"),
        ((2, 7, 192), "2 x 7 x 192 scenario weight rows"),
        ((2, 3, 24), "2 x 3 x 24 scenario codes"),
    ],
)
def test_run_scenario_maps_an_allocation_failure_to_geometry_error(
    shape, what, tmp_path, capsys, monkeypatch
):
    # The allocator refuses one of run_scenario's arrays, as it would one
    # too large for memory, and lets every other allocation through.
    zeros = np.zeros

    def refuse(*args, **kwargs):
        if args and args[0] == shape:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return zeros(*args, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse)
    spec = default_appendix_scenario(2)
    with pytest.raises(GeometryError, match=f"cannot allocate {what}: Unable to allocate"):
        run_scenario(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(scenario_to_dict(spec)))
    assert main(["experiment", str(path), str(tmp_path / "out")]) == 3
    assert f"cannot allocate {what}" in capsys.readouterr().err


def test_scenario_spec_accepts_numpy_integer_seeds():
    base = default_appendix_scenario(3)
    spec = dataclasses.replace(base, seeds=np.arange(3))
    assert spec == base
    assert all(type(s) is int for s in spec.seeds)


def with_field(field):
    return lambda value: dataclasses.replace(default_appendix_scenario(1), **{field: value})


SEQUENCE_FIELDS = {
    # Each field's accepted value, and the spec built with a value in its place.
    "overlaps": ((5, 4, 2, 1, 0, 0), lambda value: ProbeSpec("P", value)),
    "probes": (default_appendix_scenario(1).probes, with_field("probes")),
    "seeds": ((2, 0, 1), with_field("seeds")),
    "store_order": (("I6", "I1", "I5", "I2", "I4", "I3"), with_field("store_order")),
}
FIELD_NAMES = {"overlaps": "probe 'P' overlap"}

UNORDERED = {
    "set": set, "frozenset": frozenset, "dict": dict.fromkeys,
    "keys": lambda v: dict.fromkeys(v).keys(), "str": lambda v: "".join(map(str, v)),
    "bytes": lambda v: bytes(range(len(v))), "iterator": iter,
    "generator": lambda v: (x for x in v), "2-d array": lambda v: np.array(v, dtype=object)[None],
    "0-d array": lambda v: np.array(v[0], dtype=object), "float array": lambda v: np.ones(len(v)),
    "object array": lambda v: np.array(v, dtype=object),
}


@pytest.mark.parametrize("kind", list(UNORDERED))
@pytest.mark.parametrize("field", list(SEQUENCE_FIELDS))
def test_sequence_fields_refuse_unordered_and_unsized_input(field, kind):
    # A set or a mapping would be read in an order of its own (a set of str
    # in the order of str hashing), bytes or a str as their items, and an
    # iterator would be used up; each is a ScheduleError naming the field.
    valid, build = SEQUENCE_FIELDS[field]
    value = UNORDERED[kind](valid)
    with pytest.raises(ScheduleError) as raised:
        build(value)
    name = FIELD_NAMES.get(field, field)
    assert str(raised.value) == f"{name} {NOT_A_SEQUENCE} {value!r}"


@pytest.mark.parametrize("field", list(SEQUENCE_FIELDS))
def test_sequence_fields_take_lists_tuples_ranges_and_1d_integer_arrays(field):
    valid, build = SEQUENCE_FIELDS[field]
    cases = [(list(valid), valid), (tuple(valid), valid)]
    if field in ("overlaps", "seeds"):
        # An integer array's items become Python ints.
        cases += [(np.array(valid), valid), (np.array(valid, dtype=np.uint8), valid)]
    if field == "seeds":
        cases.append((range(3), (0, 1, 2)))
    for value, want in cases:
        got = getattr(build(value), field)
        assert got == tuple(want)
        assert [type(x) for x in got] == [type(x) for x in want]


def test_scenario_from_dict_leaves_a_store_order_object_to_the_spec(tmp_path, capsys):
    # The reader no longer checks store_order's type; the spec refuses an
    # object, which it would otherwise read as its keys.
    data = scenario_to_dict(default_appendix_scenario(2))
    data["store_order"] = {label: 0 for label in ("I6", "I1", "I5", "I2", "I4", "I3")}
    message = f"store_order {NOT_A_SEQUENCE} {data['store_order']!r}"
    with pytest.raises(ScheduleError) as raised:
        scenario_from_dict(data)
    assert str(raised.value) == message
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["experiment", str(path), str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
