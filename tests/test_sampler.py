import csv
import json
import math
from dataclasses import replace

import jsonschema
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from rfim import (
    FieldDistribution,
    InputError,
    IsingModel,
    SamplerConfig,
    ValidationFailure,
    build_graph,
    gibbs_table,
    incremental_sample_batch,
    path_graph,
    run_experiment,
    sample_field,
    to_zero_one,
    validated_incremental_sample,
    warm_start_density_bound,
    warm_start_tv_bound,
)
from rfim import sampler as sampler_module
from rfim.model import model_to_json_dict
from rfim.oracle import empirical_tv
from rfim.rng import PIPELINE, substream
from rfim.sampler import CONFIG_SCHEMA, STEP_SCHEMAS, _validate_config

from conftest import random_field_model, uniform_model
from strategies import models


def test_sampler_config_validation():
    with pytest.raises(InputError):
        SamplerConfig(c_star=0.0, seed=1)
    assert SamplerConfig(c_star=2.0, seed=1).k_star(8) == 64


@pytest.mark.parametrize("c_star", [math.nan, math.inf])
def test_sampler_config_rejects_a_non_finite_c_star(c_star):
    # Both passed c_star <= 0; k_star then raised ValueError (NaN) or
    # OverflowError (inf).
    with pytest.raises(InputError, match="finite"):
        SamplerConfig(c_star=c_star, seed=1)


def test_k_star_overflow_names_n_and_c_star():
    with pytest.raises(InputError, match=r"n=12, c\*=1e\+300"):
        SamplerConfig(c_star=1e300, seed=1).k_star(12)


def test_single_vertex_is_exact():
    h = 0.6
    m = uniform_model(build_graph(1, []), 0.0, [h])
    config = SamplerConfig(c_star=2.0, seed=3)
    values, report = incremental_sample_batch(m, config, replicas=100_000)
    assert report.stage_steps == (0,)
    assert report.total_updates == 0
    p_plus = float((values[:, 0] == 1).mean())
    exact = math.exp(h) / (2 * math.cosh(h))
    assert abs(p_plus - exact) <= 3 * math.sqrt(exact * (1 - exact) / 100_000)


def test_p2_long_chain_close_to_oracle():
    m = random_field_model(path_graph(2), 1.0, seed=5)
    config = SamplerConfig(c_star=10.0, seed=6, ordering_seed=2)
    assert config.k_star(2) == 1024
    values, report = incremental_sample_batch(m, config, replicas=100_000)
    tv = empirical_tv(gibbs_table(m), values)
    assert tv <= 0.01
    assert report.stage_steps == (0, 1024)
    assert report.total_updates == 1024


def test_beta_zero_exact_for_any_chain_length():
    m = random_field_model(path_graph(4), 0.0, seed=7)
    config = SamplerConfig(c_star=0.5, seed=8)
    values, _ = incremental_sample_batch(m, config, replicas=200_000)
    tv = empirical_tv(gibbs_table(m), values)
    noise = 0.5 * float(np.sqrt(
        2 * gibbs_table(m).probs * (1 - gibbs_table(m).probs) / (np.pi * 200_000)).sum())
    assert tv <= 3 * noise


def test_single_run_matches_batch_semantics():
    m = random_field_model(path_graph(3), 0.5, seed=9)
    config = SamplerConfig(c_star=2.0, seed=10, ordering_seed=4)
    values, report = incremental_sample_batch(m, config, 1)
    assert values.shape == (1, 3)
    assert report.replicas == 1
    assert len(report.stage_steps) == 3
    assert report.total_updates == sum(report.stage_steps)
    assert sorted(report.ordering) == [0, 1, 2]


def test_disconnected_graph_runs_per_component():
    g = build_graph(4, [(0, 1), (2, 3)])
    m = random_field_model(g, 0.6, seed=11)
    config = SamplerConfig(c_star=3.5, seed=12)
    values, report = incremental_sample_batch(m, config, replicas=50_000)
    assert sorted(report.ordering) == [0, 1, 2, 3]
    tv = empirical_tv(gibbs_table(m), values)
    assert tv <= 0.02


@pytest.mark.parametrize("convention", ["pm", "01"])
@pytest.mark.parametrize("edges, n, c_star, replicas", [
    ([(0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4, 5), (5, 6), (6, 7)],
     8, 0.5, 50),  # 2x4 grid, k* = 3: codes to stage 4, the float kernel from stage 5
    ([(0, 1), (1, 2), (4, 5), (5, 6), (6, 7), (4, 7)], 8, 1.0, 400),  # path, isolated, cycle
])
def test_coded_stages_equal_the_float_kernel(monkeypatch, convention, edges, n, c_star,
                                             replicas):
    m = random_field_model(build_graph(n, edges), 0.7, seed=19)
    m = m if convention == "pm" else to_zero_one(m)
    config = SamplerConfig(c_star=c_star, seed=20, ordering_seed=3)
    coded, report = incremental_sample_batch(m, config, replicas)
    monkeypatch.setattr(sampler_module, "_codes_fit", lambda f, work: False)
    floats, float_report = incremental_sample_batch(m, config, replicas)
    assert np.array_equal(coded, floats)
    assert report.stage_steps == float_report.stage_steps
    assert report.ordering == float_report.ordering


# Up to 40 replicas and k* = 12^1.5 put the switch to the float kernel
# anywhere from stage 2 to stage 8, so often inside a component.  No explain
# phase: on a failing kernel it takes minutes to report what shrinking found.
@pytest.mark.parametrize("convention", ["pm", "01"])
@settings(max_examples=30, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data(), replicas=st.integers(1, 40), c_star=st.floats(0.3, 1.5),
       seed=st.integers(0, 2**31 - 1), ordering_seed=st.integers(0, 2**31 - 1))
def test_coded_stages_equal_the_float_kernel_on_random_models(convention, data, replicas,
                                                              c_star, seed, ordering_seed):
    m = replace(data.draw(models(min_pairs=1, convention=convention)), pinning={})
    config = SamplerConfig(c_star=c_star, seed=seed, ordering_seed=ordering_seed)
    coded, _ = incremental_sample_batch(m, config, replicas)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler_module, "_codes_fit", lambda f, work: False)
        floats, _ = incremental_sample_batch(m, config, replicas)
    assert np.array_equal(coded, floats)


def test_sampler_rejects_a_negative_replica_count():
    m = random_field_model(path_graph(3), 0.5, seed=13)
    with pytest.raises(InputError):
        incremental_sample_batch(m, SamplerConfig(c_star=1.0, seed=14), -1)
    values, report = incremental_sample_batch(m, SamplerConfig(c_star=1.0, seed=14), 0)
    assert values.shape == (0, 3) and report.replicas == 0


def test_validated_sampler_needs_a_sample():
    m = random_field_model(path_graph(3), 0.5, seed=13)
    with pytest.raises(InputError):
        validated_incremental_sample(m, SamplerConfig(c_star=1.0, seed=14), 0, eps=0.05)


def test_validated_sampler_raises_on_tight_eps():
    m = random_field_model(path_graph(3), 1.2, seed=13)
    config = SamplerConfig(c_star=0.2, seed=14)  # k* = 2: far from mixed
    with pytest.raises(ValidationFailure):
        validated_incremental_sample(m, config, replicas=20_000, eps=1e-4)


def test_sampler_rejects_pinned_model():
    m = random_field_model(path_graph(3), 0.5, seed=15).with_pinning({0: 1})
    with pytest.raises(InputError):
        incremental_sample_batch(m, SamplerConfig(c_star=1.0, seed=1), 1)


def test_warm_start_bound_values():
    assert warm_start_tv_bound(1.0, 2.0, 1.0, 100) == pytest.approx(
        4.0 * math.log(100) / 100)
    with pytest.warns(UserWarning):  # A^p = 1 is below 2, off the stated domain
        assert warm_start_tv_bound(1.0, 1.0, 1.0, 8) == pytest.approx(0.2599, abs=1e-4)


def test_warm_start_bound_vanishes():
    vals = [warm_start_tv_bound(2.0, 3.0, 2.0, k) for k in (10, 100, 1000, 10_000, 10**6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    small = [warm_start_tv_bound(2.0, 3.0, 1.0, k) for k in (10**4, 10**6)]
    assert small[-1] < 0.05


def test_warm_start_bound_warns_off_domain():
    with pytest.warns(UserWarning):
        warm_start_tv_bound(1.0, 1.0, 0.9, 100)
    with pytest.warns(UserWarning):
        warm_start_tv_bound(1.0, 0.1, 2.0, 100)
    with pytest.warns(UserWarning):
        warm_start_tv_bound(1.0, 2.0, 1.0, 1)


def test_warm_start_density_bound():
    assert warm_start_density_bound(0.5, 1.0) == pytest.approx(math.exp(2.0 * math.e))


def test_run_experiment_empty_pipeline(tmp_path):
    bundle = run_experiment({"seed": 1, "pipeline": []}, output_dir=tmp_path)
    assert bundle["manifest"]["steps"] == []
    assert bundle["reports"] == []
    assert (tmp_path / "manifest.json").exists()


def test_run_experiment_schema_errors():
    with pytest.raises(InputError, match="pipeline"):
        _validate_config({"seed": 1})
    with pytest.raises(InputError, match="unknown step kind"):
        _validate_config({"pipeline": [{"kind": "nope"}]})
    with pytest.raises(InputError, match="count"):
        _validate_config({"pipeline": [{"kind": "gap_vs_exact"}]})


def test_compiled_validators_raise_what_validate_raises():
    gap_step = {"kind": "gap_vs_exact", "count": 2, "n": 8, "beta": 0.5, "degree": 3,
                "p0": 0.05, "k": 4.5, "field": {}}
    bad = [{"seed": 1}, {"seed": "x", "pipeline": []}, {"pipeline": "x"},
           {"pipeline": [{}]}, {"pipeline": [{"kind": 3}]},
           {"pipeline": [{**gap_step, "count": 0}]},
           {"pipeline": [{**gap_step, "beta": -1, "p0": 2}]},
           {"pipeline": [{"kind": "sample", "model": {}, "c_star": 1.0, "replicas": 0,
                          "validate": "yes"}]}]
    for config in bad:
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(config, CONFIG_SCHEMA)
            for step in config["pipeline"]:
                jsonschema.validate(step, STEP_SCHEMAS[step["kind"]])
        path = "/".join(str(p) for p in want.value.absolute_path)
        with pytest.raises(InputError) as got:
            _validate_config(config)
        assert str(got.value) == f"config schema violation at '{path}': {want.value.message}"


def test_run_experiment_gap_vs_exact():
    config = {
        "seed": 3,
        "pipeline": [{
            "kind": "gap_vs_exact", "count": 20, "n": 8, "beta": 0.5, "degree": 3,
            "p0": 0.05, "k": 4.5, "field": {"kind": "two_point", "atom": 5.0},
        }],
    }
    bundle = run_experiment(config)
    report = bundle["reports"][0]
    assert report["assumption_valid"]
    assert report["holds_fraction"] == 1.0
    assert len(report["csv_rows"]) == 20


def test_run_experiment_sample_step_and_determinism(tmp_path):
    m = random_field_model(path_graph(3), 0.5, seed=21)
    config = {
        "seed": 5,
        "pipeline": [{
            "kind": "sample", "model": model_to_json_dict(m), "c_star": 4.0,
            "replicas": 20_000, "validate": True, "eps": 0.05,
        }],
    }
    a = run_experiment(config, output_dir=tmp_path / "a")
    b = run_experiment(config, output_dir=tmp_path / "b")
    assert a["reports"] == b["reports"]
    m_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    m_a.pop("created_at"), m_b.pop("created_at")
    assert m_a == m_b
    assert (tmp_path / "a" / "report.csv").read_text() == (tmp_path / "b" / "report.csv").read_text()
    assert (tmp_path / "a" / "final_state_0.json").exists()
    assert a["reports"][0]["tv_vs_oracle"] <= 0.05


def test_run_experiment_keeps_each_sample_steps_final_state(tmp_path):
    models = [random_field_model(path_graph(n), 0.5, seed=n) for n in (3, 4)]
    config = {"seed": 6, "pipeline": [
        {"kind": "sample", "model": model_to_json_dict(m), "c_star": 1.5, "replicas": 2}
        for m in models]}
    reports = run_experiment(config, output_dir=tmp_path)["reports"]
    states = [json.loads((tmp_path / f"final_state_{i}.json").read_text()) for i in (0, 1)]
    assert states == [rep["final_state"] for rep in reports]
    assert [len(s["first_replica"]) for s in states] == [3, 4]


def test_run_experiment_writes_one_csv_over_mixed_steps(tmp_path):
    # gap_vs_exact rows and sample rows share no field: the csv holds the
    # union of the fields, each row blank where its step has none
    m = random_field_model(path_graph(3), 0.5, seed=21)
    config = {"seed": 4, "pipeline": [
        {"kind": "gap_vs_exact", "count": 2, "n": 6, "beta": 0.5, "degree": 3,
         "p0": 0.05, "k": 4.5, "field": {"kind": "two_point", "atom": 5.0}},
        {"kind": "sample", "model": model_to_json_dict(m), "c_star": 1.5, "replicas": 3}]}
    reports = run_experiment(config, output_dir=tmp_path)["reports"]
    with open(tmp_path / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    want = [r for rep in reports for r in rep["csv_rows"]]
    assert list(rows[0]) == sorted({k for r in want for k in r})
    assert len(rows) == len(want) == 2 + len(reports[1]["stage_steps"])
    for got, row in zip(rows, want):
        assert got == {k: str(row[k]) if k in row else "" for k in got}


def test_run_experiment_sample_step_without_validation():
    m = random_field_model(path_graph(4), 0.5, seed=22)
    config = {"seed": 5, "pipeline": [
        {"kind": "sample", "model": model_to_json_dict(m), "c_star": 1.5, "replicas": 3}]}
    report = run_experiment(config)["reports"][0]
    seed, ordering_seed = substream(5, PIPELINE, 0).integers(2**63, size=2).tolist()
    values, direct = incremental_sample_batch(
        m, SamplerConfig(c_star=1.5, seed=seed, ordering_seed=ordering_seed), 3)
    assert report["tv_vs_oracle"] is None
    assert report["stage_steps"] == list(direct.stage_steps)
    assert report["final_state"]["first_replica"] == values[0].astype(int).tolist()
