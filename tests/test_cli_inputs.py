"""The CLI's typed parameters: a bad input exits 4 before any work, and "" is no edges."""

import json

import pytest

from rfim.cli import main
from rfim.graphs import cycle_graph, graph_to_edgelist_text, path_graph
from rfim.model import edge_tilt, model_to_json_dict, to_zero_one

from conftest import random_field_model


PM = random_field_model(path_graph(3), 0.5, seed=6)
M01 = to_zero_one(PM)


@pytest.fixture
def files(tmp_path):
    """Paths of a pm model, a 01 model, a graph and a file that is not JSON."""
    texts = {"model.json": json.dumps(model_to_json_dict(PM)),
             "m01.json": json.dumps(model_to_json_dict(M01)),
             "graph.txt": graph_to_edgelist_text(cycle_graph(4)),
             "text.txt": "not json\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {name.split(".")[0]: str(tmp_path / name) for name in texts}


@pytest.mark.parametrize("args, message", [
    (("oracle", "gap", "--model", "{text}"), "Expecting value"),
    (("sample", "experiment", "--config", "{text}"), "Expecting value"),
    (("certify", "norm", "--matrix", "{text}"), "Expecting value"),
    (("oracle", "sweep", "--model", "{m01}", "--thetas", "0,x"),
     "could not convert string to float: 'x'"),
    (("mix", "tvcurve", "--model", "{model}", "--steps", "0,1.5"), "invalid literal for int()"),
    (("sl", "plan", "--graph", "{graph}", "--points", "0,"), "invalid literal for int()"),
    (("sl", "probe", "--model", "{model}", "--t-grid", ""), "time grid is empty"),
    (("certify", "tails", "--graph", "{graph}", "--beta", "0.3", "--p0", "0.05", "--k", "4.5",
      "--m-grid", ""), "a field trial and an m"),
    (("model", "make", "--graph", "{graph}", "--beta", "0.5", "--field-kind", "cauchy"),
     "'cauchy' is not one of 'gaussian', 'uniform', 'two_point'"),
    (("model", "tilt", "--model", "{m01}", "--theta", "0.5", "--pin", "0=1", "--pin", "3"),
     "pin '3' is not of the form vertex=value"),
    (("localize", "posterior", "--model", "{m01}", "--t", "0.4", "--revealed", "7"),
     "edge 7 out of range [0, 2)"),
    (("sample", "incremental", "--model", "{model}", "--cstar", "inf"),
     "c_star must be positive and finite"),
    (("sample", "incremental", "--model", "{model}", "--cstar", "1e300"), "overflows at n=3"),
])
def test_bad_inputs_exit_4(files, capsys, args, message):
    assert main([a.format(**files) for a in args]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and message in captured.err


@pytest.mark.parametrize("args", [
    ("certify", "gap", "--n", "10", "--beta", "1e300", "--delta", "3", "--alpha-star", "0.5"),
    ("certify", "gap", "--n", "10", "--beta", "inf", "--delta", "3", "--alpha-star", "0.5"),
    ("certify", "mlsi", "--n", "10", "--beta", "inf", "--delta", "3", "--alpha-star", "0.5",
     "--m-bound", "1"),
    ("localize", "certificate", "--kind", "variance", "--theta", "0.5", "--rate-c", "inf"),
])
def test_non_finite_outputs_exit_4(capsys, args):
    # JSON (RFC 8259) has no NaN or Infinity, so such a result is refused, not printed
    assert main(list(args)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: Out of range float values are not JSON")


def test_posterior_without_revealed_edges_pins_nothing(files, capsys):
    assert main(["localize", "posterior", "--model", files["m01"], "--t", "0.4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pinning"] == {}
    assert payload == json.loads(json.dumps(model_to_json_dict(edge_tilt(M01, 0.4))))
