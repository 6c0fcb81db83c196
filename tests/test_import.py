"""What loading the package costs: heavy modules stay out until a call needs them."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Every heat-bath route on small models: a scalar chain, both batch routes
# (float kernel and codes), the monotone batch, the staged sampler with its
# validation (codes up to stage 3, the float kernel after) and a Gibbs table.
DYNAMICS = """
import numpy as np
from rfim import (IsingModel, SamplerConfig, SpinConfiguration, dynamics, gibbs_table,
                  grid_graph, monotone_coupled_batch, run_chain, run_chains_batch,
                  validated_incremental_sample)
for convention in ("pm", "01"):
    m = IsingModel.uniform(grid_graph(3, 3), 0.3, np.linspace(-1, 1, 9), convention)
    one = m.full_values(1)
    run_chain(m, SpinConfiguration(one, convention), 100, seed=1)
    assert not dynamics._codes_fit(9, 4 * 3) and dynamics._codes_fit(9, 100 * 100)
    run_chains_batch(m, np.tile(one, (4, 1)), 3, seed=1)
    run_chains_batch(m, np.tile(one, (100, 1)), 100, seed=1)
    monotone_coupled_batch(m, 50, 4, seed=1)
    validated_incremental_sample(m, SamplerConfig(c_star=0.5, seed=1), 20, eps=1.0)
    gibbs_table(m)
"""


def _modules_after(code: str = "") -> list[str]:
    """``sys.modules`` of a fresh interpreter after ``import rfim, rfim.cli`` from
    ``SRC`` and then ``code``."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import rfim, rfim.cli\n"
        f"{code}\n"
        "print(json.dumps([rfim.__file__, list(sys.modules)]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    where, loaded = json.loads(out.stdout.splitlines()[-1])
    assert Path(where).resolve().is_relative_to(SRC)
    return loaded


def _scipy(loaded: list[str]) -> list[str]:
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_import_loads_no_scipy():
    # scipy.special and scipy.sparse took about 0.3 s of the import; the
    # heat-bath rule is numpy, and the routines that use scipy import it.
    assert _scipy(_modules_after()) == []


def test_chains_samplers_and_tables_load_no_scipy():
    assert _scipy(_modules_after(DYNAMICS)) == []


def test_wsm_delta_and_field_rows_load_no_scipy():
    # Only estimate_wsm's fit needs scipy; the enumeration behind it does not.
    loaded = _modules_after(
        "import numpy as np\n"
        "from rfim import IsingModel, oracle, torus_grid, wsm_delta\n"
        "m = IsingModel.uniform(torus_grid(4, 4), 0.3, np.linspace(-1, 1, 16))\n"
        "wsm_delta(m, 0, 1)\n"
        "oracle._free_energies(m, [0, 1, 4, 5], np.ones((3, 16)))")
    assert _scipy(loaded) == []


def test_estimate_wsm_loads_scipy_optimize_for_its_fit():
    loaded = _modules_after("rfim.estimate_wsm(rfim.torus_grid(4, 4), 0.3, "
                            "rfim.FieldDistribution.gaussian(0.5), [1], 2, seed=1)")
    assert "scipy.optimize" in loaded


def test_glauber_gap_loads_scipy_sparse():
    loaded = _modules_after("rfim.glauber_gap(rfim.IsingModel.uniform(rfim.path_graph(4), 0.3, "
                            "[0.1, -0.2, 0.3, 0.0]))")
    assert "scipy.sparse" in loaded
    # 16 configurations take the dense branch, as the bench's set-up gaps do:
    # loading ARPACK's module took about 0.1 s of a fresh process.
    assert "scipy.sparse.linalg" not in loaded


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # The two modules are a large share of what importing rfim would cost;
    # the three functions that use them import them when called.
    loaded = [m for m in _modules_after() if m.startswith("scipy.")]
    assert not [m for m in loaded if m.split(".")[1] in ("stats", "optimize")]


def test_import_leaves_jsonschema_and_sparse_linalg_unloaded():
    # Only run_experiment validates a schema and only glauber_gap calls eigsh;
    # each module took about 0.1 s of the import.
    loaded = _modules_after()
    assert "jsonschema" not in loaded
    assert "scipy.sparse.linalg" not in loaded
