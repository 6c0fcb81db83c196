import json

import numpy as np
import pytest

from rfim.cli import main
from rfim.graphs import path_graph
from rfim.model import model_to_json_dict, to_zero_one
from rfim.oracle import sup_cor2_over_pinnings, table_from_binary

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
