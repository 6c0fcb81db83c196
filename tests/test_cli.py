import json

import numpy as np
import pytest

from rfim.cli import main
from rfim.graphs import (
    build_graph,
    cycle_graph,
    graph_to_json_dict,
    grid_graph,
    path_graph,
    random_regular_graph,
    torus_grid,
    tree3,
)
from rfim.localization import (
    default_theta_grid,
    variance_conservation_R,
    verify_posterior_by_simulation,
)
from rfim.model import (
    HEAT_BATH_TABLE_CAP,
    FieldDistribution,
    model_to_json_dict,
    sample_field,
    theta_star,
    to_zero_one,
)
from rfim.oracle import cor2_matrix, gibbs_table, sup_cor2_over_pinnings, table_from_binary
from rfim.percolation import gap_certificate, percolate, row_sum_tail_report
from rfim.sampler import SamplerConfig, incremental_sample
from rfim.slwsm import trace_moment_probe

from conftest import random_field_model


def run_cli(*args):
    return main(list(args))


def write_model(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(model_to_json_dict(model)))
    return str(path)


def test_graph_gen_and_info(tmp_path, capsys):
    out = tmp_path / "p5.txt"
    assert run_cli("graph", "gen", "--kind", "path", "--n", "5", "-o", str(out)) == 0
    assert out.read_text().splitlines()[0] == "5 4"
    assert run_cli("graph", "info", str(out)) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 5 and info["connected"]


def test_model_make_tilt_assume(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli("graph", "gen", "--kind", "cycle", "--n", "4", "-o", str(gpath))
    mpath = tmp_path / "m.json"
    assert run_cli("model", "make", "--graph", str(gpath), "--beta", "0.5",
                   "--field-kind", "uniform", "--field-param", "1.0",
                   "--seed", "3", "--convention", "01", "-o", str(mpath)) == 0
    model = json.loads(mpath.read_text())
    assert model["convention"] == "01"
    assert model["beta"] == 2.0  # 4 * 0.5 after the coordinate change
    assert run_cli("model", "tilt", "--model", str(mpath), "--theta", "0.5",
                   "--pin", "0=1") == 0
    tilted = json.loads(capsys.readouterr().out)
    assert tilted["pinning"] == {"0": 1}
    assert run_cli("model", "assume", "--p0", "0.05", "--k", "4.5",
                   "--beta", "0.5", "--delta", "3") == 0
    params = json.loads(capsys.readouterr().out)
    assert params["valid"]


def test_oracle_commands(tmp_path, capsys):
    m = random_field_model(path_graph(3), 0.5, seed=5)
    mpath = write_model(tmp_path, m)
    bpath = tmp_path / "table.bin"
    out = tmp_path / "table.json"
    assert run_cli("oracle", "table", "--model", mpath, "--binary", str(bpath),
                   "-o", str(out)) == 0
    table = json.loads(out.read_text())
    binary = table_from_binary(bpath.read_bytes())
    assert np.allclose(binary["probs"], table["probs"])
    assert binary["free_vertices"] == table["free_vertices"]
    assert run_cli("oracle", "gap", "--model", mpath) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gap"] > 0
    assert report["at_variance_constant"] == 1.0 / (3 * report["gap"])


def test_oracle_sweep(tmp_path, capsys):
    m01 = to_zero_one(random_field_model(path_graph(4), 0.5, seed=5))
    mpath = write_model(tmp_path, m01)
    assert run_cli("oracle", "sweep", "--model", mpath, "--thetas", "0,0.3") == 0
    payload = json.loads(capsys.readouterr().out)
    direct = sup_cor2_over_pinnings(m01, [0.0, 0.3])
    assert payload["matrices_checked"] == 2 * 3**4
    assert payload["mode"] == "exact"
    assert payload["interpolation_ok"]
    for key in ("argmax_row", "argmax_col", "argmax_opnorm"):
        value, cell = payload[key]
        assert value == getattr(direct, key)[0]
        pinning = {int(v): s for v, s in cell["pinning"].items()}
        assert pinning and cell["theta"] == 0.3
        assert pinning == getattr(direct, key)[1]["pinning"]


def test_oracle_capacity_exit_code(tmp_path):
    m = random_field_model(path_graph(26), 0.1, seed=1)
    mpath = write_model(tmp_path, m)
    assert run_cli("oracle", "table", "--model", mpath) == 3


def test_mix_heat_bath_table_capacity_exit_code(tmp_path):
    leaves = HEAT_BATH_TABLE_CAP.bit_length() - 1  # a centre of 2^20 entries plus the leaves
    star = build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    mpath = write_model(tmp_path, random_field_model(star, 0.3, seed=2))
    assert run_cli("mix", "run", "--model", mpath, "--steps", "10") == 3
    assert run_cli("mix", "couple", "--model", mpath, "--steps", "10") == 3


def test_input_error_exit_code(tmp_path):
    assert run_cli("oracle", "table", "--model", str(tmp_path / "missing.json")) == 4
    assert run_cli("graph", "gen", "--kind", "cycle", "--n", "2") == 4


def test_mix_and_localize(tmp_path, capsys):
    m = random_field_model(path_graph(3), 0.5, seed=6)
    mpath = write_model(tmp_path, m)
    assert run_cli("mix", "run", "--model", mpath, "--steps", "50", "--seed", "2",
                   "--trace", str(tmp_path / "t.csv")) == 0
    assert (tmp_path / "t.csv").read_text().startswith("step,magnetization,energy")
    capsys.readouterr()
    assert run_cli("mix", "couple", "--model", mpath, "--steps", "200", "--seed", "2") == 0
    capsys.readouterr()

    m01path = tmp_path / "m01.json"
    m01path.write_text(json.dumps(model_to_json_dict(to_zero_one(m))))
    assert run_cli("localize", "trace", "--model", str(m01path), "--t", "0.4",
                   "--seed", "1") == 0
    trace = json.loads(capsys.readouterr().out)
    assert len(trace["edge_uniforms"]) == 2
    assert run_cli("localize", "posterior", "--model", str(m01path), "--t", "0.4",
                   "--revealed", "0") == 0
    post = json.loads(capsys.readouterr().out)
    assert post["pinning"] == {"0": 1, "1": 1}
    assert run_cli("localize", "certificate", "--kind", "entropy", "--theta", "0.5",
                   "--eta-op", "2.0", "--k-low", "4.0") == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["r_value"] == pytest.approx(66.0159, abs=1e-3)


def test_mix_holds_the_pinned_spins(tmp_path, capsys):
    pins = {0: 1, 3: -1}
    m = random_field_model(path_graph(5), 0.5, seed=6).with_pinning(pins)
    mpath = write_model(tmp_path, m)
    for init in ("plus", "minus"):
        assert run_cli("mix", "run", "--model", mpath, "--steps", "50", "--seed", "2",
                       "--init", init) == 0
        final = json.loads(capsys.readouterr().out)["final"]
        assert all(final[v] == s for v, s in pins.items())
    assert run_cli("mix", "couple", "--model", mpath, "--steps", "200", "--seed", "2") == 0
    assert not set(pins) & set(json.loads(capsys.readouterr().out)["disagreements"])
    assert run_cli("mix", "tvcurve", "--model", mpath, "--steps", "0,20", "--replicas", "200",
                   "--seed", "2") == 0
    assert [row["step"] for row in json.loads(capsys.readouterr().out)] == [0, 20]


def test_certify_and_sl(tmp_path, capsys):
    assert run_cli("certify", "mlsi", "--n", "10", "--beta", "0.5", "--delta", "3",
                   "--alpha-star", "0.8304", "--m-bound", "1.0") == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["log_rho_lower"] < 0

    matrix_path = tmp_path / "mat.json"
    matrix_path.write_text("[[1, 0], [0, 1]]")
    assert run_cli("certify", "norm", "--matrix", str(matrix_path)) == 0
    assert json.loads(capsys.readouterr().out)["ok"]

    gpath = tmp_path / "c8.txt"
    run_cli("graph", "gen", "--kind", "cycle", "--n", "8", "-o", str(gpath))
    capsys.readouterr()
    assert run_cli("sl", "plan", "--graph", str(gpath), "--points", "0,4") == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["selected"] == [1]

    m = random_field_model(path_graph(3), 0.5, seed=7)
    mpath = write_model(tmp_path, m)
    assert run_cli("sl", "boost", "--model", mpath, "--t", "2.0", "--seed", "3") == 0


def test_sample_incremental_validate(tmp_path, capsys):
    m = random_field_model(path_graph(3), 0.5, seed=8)
    mpath = write_model(tmp_path, m)
    assert run_cli("sample", "incremental", "--model", mpath, "--cstar", "4.0",
                   "--seed", "2", "--validate", "--replicas", "20000",
                   "--eps", "0.05", "--outdir", str(tmp_path / "run")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tv_vs_oracle"] <= 0.05
    assert (tmp_path / "run" / "final_state.json").exists()
    # eps impossible to meet with k* = 2 -> validation failure exit code
    assert run_cli("sample", "incremental", "--model", mpath, "--cstar", "0.2",
                   "--seed", "2", "--validate", "--replicas", "20000",
                   "--eps", "0.0001") == 2


def test_sample_experiment(tmp_path, capsys):
    config = {"seed": 1, "pipeline": []}
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    assert run_cli("sample", "experiment", "--config", str(cpath),
                   "--outdir", str(tmp_path / "exp")) == 0
    assert (tmp_path / "exp" / "manifest.json").exists()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1}))
    assert run_cli("sample", "experiment", "--config", str(bad)) == 4


def write_graph(tmp_path, *args, name="g.txt"):
    path = tmp_path / name
    assert run_cli("graph", "gen", *args, "-o", str(path)) == 0
    return str(path)


def test_graph_gen_json_kinds(capsys):
    for args, want in ((("--kind", "torus", "--rows", "3", "--cols", "4"), torus_grid(3, 4)),
                       (("--kind", "grid", "--rows", "2", "--cols", "3"), grid_graph(2, 3)),
                       (("--kind", "regular", "--n", "8", "--degree", "3", "--seed", "5"),
                        random_regular_graph(8, 3, 5)),
                       (("--kind", "tree3", "--depth", "2"), tree3(2))):
        assert run_cli("graph", "gen", *args, "--format", "json") == 0
        assert json.loads(capsys.readouterr().out) == graph_to_json_dict(want)


def test_oracle_cor2(tmp_path, capsys):
    m = random_field_model(path_graph(4), 0.5, seed=5)
    m01 = to_zero_one(m)
    assert run_cli("oracle", "cor2", "--model", write_model(tmp_path, m01)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edges"] == [list(e) for e in m01.graph.edges]
    cor2 = np.array(payload["cor2"])
    assert cor2.shape == (3, 3)
    assert np.array_equal(cor2, cor2_matrix(gibbs_table(m01)))
    assert run_cli("oracle", "cor2", "--model", write_model(tmp_path, m, "pm.json")) == 4


def test_localize_verify_and_variance_certificate(tmp_path, capsys):
    m01 = to_zero_one(random_field_model(path_graph(3), 0.5, seed=6))
    assert run_cli("localize", "verify", "--model", write_model(tmp_path, m01), "--t", "0.4",
                   "--traces", "3000", "--seed", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    direct = verify_posterior_by_simulation(m01, 0.4, 3000, 2)
    assert payload["max_tv"] == direct.max_tv
    assert [b["hits"] for b in payload["buckets"]] == [h for _, h, _ in direct.buckets]
    assert run_cli("localize", "verify", "--model", write_model(tmp_path, m01), "--t", "0.4",
                   "--traces", "0", "--seed", "2") == 4
    assert run_cli("localize", "certificate", "--kind", "variance", "--theta", "0.5") == 4
    assert run_cli("localize", "certificate", "--kind", "variance", "--theta", "0.5",
                   "--rate-c", "2.0") == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["r_value"] == variance_conservation_R(2.0, 0.5).r_value


def test_certify_gap_tails_percolate(tmp_path, capsys):
    assert run_cli("certify", "gap", "--n", "10", "--beta", "0.5", "--delta", "3",
                   "--alpha-star", "0.8304", "--eps", "0.05", "--field-l1", "2.0") == 0
    payload = json.loads(capsys.readouterr().out)
    cert = gap_certificate(10, 0.5, 3, 0.8304)
    assert payload["gap_lower"] == cert.gap_lower
    assert payload["log_gap_lower"] == cert.log_gap_lower
    assert payload["tmix_upper"] == cert.tmix_upper(0.05, 2.0)

    gpath = write_graph(tmp_path, "--kind", "cycle", "--n", "4")
    dist = FieldDistribution.two_point(5.0)
    assert run_cli("certify", "tails", "--graph", gpath, "--beta", "0.3", "--p0", "0.05",
                   "--k", "4.5", "--trials", "2", "--seed", "3", "--m-grid", "0.1,1") == 0
    payload = json.loads(capsys.readouterr().out)
    grid = default_theta_grid(theta_star(0.3))[:-1]
    rep = row_sum_tail_report(cycle_graph(4), 0.3, grid, dist, 4.5, 0.05, 2, 3, [0.1, 1.0])
    assert payload["mode"] == rep.mode == "exact" and payload["trials"] == 2
    assert [r["m"] for r in payload["rows"]] == [0.1, 1.0]
    for got, want in zip(payload["rows"], rep.rows):
        assert got["bound"] == want.bound
        assert got["max_row_exceed_freq"] == float(want.row_exceed_freq.max())
        assert got["max_col_exceed_freq"] == float(want.col_exceed_freq.max())

    assert run_cli("certify", "tails", "--graph", gpath, "--beta", "0.3", "--p0", "0.05",
                   "--k", "4.5", "--trials", "0") == 4
    big = write_graph(tmp_path, "--kind", "cycle", "--n", "40", name="c40.txt")
    assert run_cli("certify", "tails", "--graph", big, "--beta", "0.3", "--p0", "0.05",
                   "--k", "4.5", "--trials", "1") == 3

    assert run_cli("certify", "percolate", "--graph", gpath, "--field-seed", "4",
                   "--k", "4.5", "--p0", "0.3", "--seed", "5") == 0
    payload = json.loads(capsys.readouterr().out)
    real = percolate(cycle_graph(4), sample_field(dist, 4, 4), 4.5, 0.3, 5)
    assert payload["open"] == sorted(real.open_set)
    assert payload["provenance"] == real.provenance.tolist()


def test_sl_wsm_csv_and_probe(tmp_path, capsys):
    gpath = write_graph(tmp_path, "--kind", "cycle", "--n", "8")
    csv_path = tmp_path / "wsm.csv"
    assert run_cli("sl", "wsm", "--graph", gpath, "--beta", "0.5", "--radii", "1,2",
                   "--trials", "2", "--vertices", "0,3", "--csv", str(csv_path)) == 0
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "vertex,radius,mean_delta,stderr"
    assert [tuple(line.split(",")[:2]) for line in lines[1:]] == [
        ("0", "1"), ("0", "2"), ("3", "1"), ("3", "2")]
    assert run_cli("sl", "wsm", "--graph", gpath, "--beta", "0.5", "--trials", "0") == 4

    m = random_field_model(path_graph(3), 0.5, seed=7)
    assert run_cli("sl", "probe", "--model", write_model(tmp_path, m), "--t-grid", "0,1",
                   "--realizations", "50", "--seed", "4") == 0
    payload = json.loads(capsys.readouterr().out)
    rep = trace_moment_probe(m, 2, [0.0, 1.0], 50, 4)
    assert payload["label"] == "fitted" and payload["p"] == 2
    assert payload["rows"] == list(rep.rows)
    assert payload["sup_mean"] == rep.sup_mean and payload["c0_fit"] == rep.c0_fit
    assert run_cli("sl", "probe", "--model", write_model(tmp_path, m), "--t-grid", "0,1",
                   "--realizations", "0") == 4


def test_sample_incremental_without_validation(tmp_path, capsys):
    m = random_field_model(path_graph(4), 0.5, seed=8)
    assert run_cli("sample", "incremental", "--model", write_model(tmp_path, m),
                   "--cstar", "1.5", "--seed", "3", "--ordering-seed", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    cfg, report = incremental_sample(m, SamplerConfig(c_star=1.5, seed=3, ordering_seed=2))
    assert payload["ordering"] == list(report.ordering)
    assert payload["stage_steps"] == list(report.stage_steps)
    assert payload["final"] == cfg.values().tolist()
    assert payload["tv_vs_oracle"] is None
