"""Golden digests of the dynamics and sampler layers for fixed seeds.

Each case runs one public routine on a fixed model with fixed seeds and
hashes its output with SHA-256.  Spins and counts are hashed exactly; other
floats are hashed to 10 significant digits, so a reordered sum that moves a
float by an ulp leaves the digest alone while any change of a random stream
or of an update decision moves it.  A deliberate move must be re-baselined
and recorded in CHANGES.md with the case that moved and why.

Print the digests of the current code (to paste into ``GOLDEN``) with

    python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from rfim import (
    FieldDistribution,
    IsingModel,
    SamplerConfig,
    SpinConfiguration,
    build_graph,
    grid_graph,
    incremental_sample_batch,
    monotone_coupled_batch,
    monotone_coupled_run,
    path_graph,
    random_regular_graph,
    run_chain,
    run_chains_batch,
    sample_field,
    sample_noising_trace,
    sl_boost,
    to_zero_one,
    torus_grid,
)
from rfim.dynamics import empirical_tv_curve


def _model(graph, beta, seed, convention="pm", pinning=None):
    """A Gaussian random-field model; 01 models are the re-coordinated pm model."""
    field = sample_field(FieldDistribution.gaussian(0.6), graph.num_vertices, seed)
    m = IsingModel.uniform(graph, beta, field.values)
    if convention == "01":
        m = to_zero_one(m)
    return m.with_pinning(pinning or {})


def _start(m, value):
    """Constant start in the model's convention, agreeing with its pinning."""
    vals = np.full(m.n, value, dtype=np.int8)
    for v, s in m.pinning.items():
        vals[v] = s
    return vals


def _plain(x):
    """JSON-ready form: integral floats become ints, other floats 10-digit strings."""
    if isinstance(x, SpinConfiguration):
        return _plain(x.values())
    if isinstance(x, np.ndarray):
        return _plain(x.tolist())
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in sorted(x.items())}
    if isinstance(x, (frozenset, set)):
        return sorted(_plain(i) for i in x)
    if isinstance(x, (list, tuple)):
        return [_plain(i) for i in x]
    if x is None or isinstance(x, (bool, np.bool_)):
        return x if x is None else bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    x = float(x)
    return int(x) if x.is_integer() else f"{x:.9e}"


def digest(output) -> str:
    text = json.dumps(_plain(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def run_chain_pm():
    m = _model(random_regular_graph(12, 3, 1), 0.4, 2)
    state, trajectory = run_chain(m, SpinConfiguration(_start(m, 1), "pm"), 3000, 5,
                                  record_every=250)
    return state.config, trajectory


def run_chain_01_pinned():
    m = _model(torus_grid(4, 4), 0.3, 3, "01", {0: 1, 5: 0})
    state, _ = run_chain(m, SpinConfiguration(_start(m, 0), "01"), 2000, 6, chain_index=3)
    return state.config


def batch_pm():
    m = _model(torus_grid(5, 5), 0.35, 4)
    init = np.tile(_start(m, -1).astype(float), (32, 1))
    final, snaps = run_chains_batch(m, init, 200, 7, snapshot_steps=(0, 50, 200))
    return final, snaps


def batch_01():
    m = _model(grid_graph(4, 4), 0.3, 5, "01")
    init = np.tile(_start(m, 1).astype(float), (24, 1))
    final, snaps = run_chains_batch(m, init, 150, 8, snapshot_steps=(75,))
    return final, snaps


def batch_pm_pinned():
    m = _model(random_regular_graph(10, 3, 6), 0.5, 7, pinning={2: -1, 7: 1})
    init = np.tile(_start(m, 1).astype(float), (16, 1))
    final, _ = run_chains_batch(m, init, 120, 9, stream_path=(4, 2))
    return final


def coupled_run_pm():
    m = _model(torus_grid(4, 4), 0.4, 8)
    trace = monotone_coupled_run(m, SpinConfiguration(_start(m, -1), "pm"),
                                 SpinConfiguration(_start(m, 1), "pm"), 400, 10,
                                 log_uniforms=True)
    return ([s.config for s in trace.states], trace.disagreement_set,
            trace.coalescence_step, trace.shared_uniform_log)


def coupled_run_01_pinned():
    m = _model(grid_graph(3, 4), 0.5, 9, "01", {4: 1})
    trace = monotone_coupled_run(m, SpinConfiguration(_start(m, 0), "01"),
                                 SpinConfiguration(_start(m, 1), "01"), 300, 11)
    return [s.config for s in trace.states], trace.disagreement_set, trace.coalescence_step


def coupled_batch_pm():
    report = monotone_coupled_batch(_model(torus_grid(5, 5), 0.4, 10), steps=600, runs=32,
                                    seed=12)
    return report


def coupled_batch_01_pinned():
    m = _model(grid_graph(3, 3), 0.3, 11, "01", {0: 0, 8: 1})
    return monotone_coupled_batch(m, steps=200, runs=40, seed=13)


def sampler_grid():
    values, report = incremental_sample_batch(
        _model(grid_graph(5, 5), 0.3, 12), SamplerConfig(c_star=0.5, seed=14, ordering_seed=3),
        16)
    return values, report.stage_steps, report.ordering, report.total_updates


def sampler_disconnected_01():
    g = build_graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
    values, report = incremental_sample_batch(
        _model(g, 0.4, 13, "01"), SamplerConfig(c_star=0.7, seed=15, ordering_seed=4), 20)
    return values, report.stage_steps, report.ordering


def tv_curve():
    m = _model(path_graph(4), 0.5, 14)
    return empirical_tv_curve(m, SpinConfiguration(_start(m, 1), "pm"), [0, 5, 20],
                              replicas=2000, seed=16)


def noising_traces_glauber():
    m = _model(grid_graph(3, 3), 0.4, 15, "01")
    traces = [sample_noising_trace(m, 17, sampler="glauber", burn_steps=500, trace_index=i)
              for i in range(4)]
    return [(tr.x_sample, tr.edge_uniforms) for tr in traces]


def sl_boost_glauber():
    m = _model(grid_graph(3, 3), 0.4, 16)
    boosts = [sl_boost(m, 0.7, 18, sampler="glauber", burn_steps=500, index=i)
              for i in range(4)]
    return [(b.sigma_star, b.y) for b in boosts]


CASES = {f.__name__: f for f in (
    run_chain_pm, run_chain_01_pinned, batch_pm, batch_01, batch_pm_pinned,
    coupled_run_pm, coupled_run_01_pinned, coupled_batch_pm, coupled_batch_01_pinned,
    sampler_grid, sampler_disconnected_01, tv_curve, noising_traces_glauber, sl_boost_glauber,
)}

GOLDEN = {
    "run_chain_pm": "eabb6169573cff215e529b4b20fdbfd3591f38bc351fe930f8ade7fea5a84ac1",
    "run_chain_01_pinned": "d2a5391a0d93ddf2063839d9d887b530229c9d36d771fbe1822e957d419f6d57",
    "batch_pm": "989aa91f32e4d3c5ded2ac218690e16954129b6f6443ea889a7725f34250c6a2",
    "batch_01": "d174ef9aad160ba4dd69c4a55043717547e46d7f2ec649fc27e2afa14a092dfe",
    "batch_pm_pinned": "e61a92a03b0c3cfa04f541b4ab9529773e67d5eb41b175eaf3e8ae97827c59aa",
    "coupled_run_pm": "497003ba7399d7bfc54f27d70f38597ed6c76d4159d30658e4fa516af3b50898",
    "coupled_run_01_pinned": "5e6240f4d71138eaa12e64bbad71642476752b2d2769c028f72ea8151acdcd72",
    "coupled_batch_pm": "ce1ef962f11b8827b9c4617e5a88b2a143891257260d2f54164833f3a4b9ab91",
    "coupled_batch_01_pinned": "c424be4c01c42a3a1b5f6b75b0f1692025a5f0cb9b37acc7b568900f1fa9c7e0",
    "sampler_grid": "17cea01c46aceb5f940926bdd58c5d8aef649b37abaf6b9d2a6e82565cc9a732",
    "sampler_disconnected_01": "ec05650c9c318a78c624b4986aadbc02cf4a702386ab7bcbf82aa1d203b7fd18",
    "tv_curve": "c933643e31f2fc05450a68141ae5a6dc6b6845ded8e4bf1c0b7ee83efd4de6df",
    "noising_traces_glauber": "13349104f2b94f9c3090021b33e72dbef73149bc1e00246e86e6cbe46395f1db",
    "sl_boost_glauber": "2438d9c93ab350a9a6de3b2f31389521d89a56330df6242e276162097477c0cb",
}


def test_every_case_has_a_golden():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name, case in CASES.items():
        print(f'    "{name}": "{digest(case())}",')
