"""Golden digests of the oracle, dynamics, localization and sampler layers for fixed seeds.

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
    at_variance_constant,
    build_graph,
    cor2_matrix,
    cycle_graph,
    disagreement_experiment,
    estimate_wsm,
    exact_revealed_posterior,
    gibbs_table,
    glauber_gap,
    grand_coupled_update,
    grid_graph,
    incremental_sample_batch,
    marginals,
    mean_and_covariance,
    mlsi_lower_estimate,
    monotone_coupled_batch,
    monotone_coupled_run,
    path_graph,
    percolate,
    posterior_model,
    random_regular_graph,
    row_sum_tail_report,
    run_chain,
    run_chains_batch,
    sample_field,
    sample_noising_trace,
    sl_boost,
    sup_cor2_over_pinnings,
    theta_star,
    to_zero_one,
    torus_grid,
    trace_moment_probe,
    verify_posterior_by_simulation,
    vertex_tilt_table,
    weak_poincare_probe,
)
from rfim.dynamics import empirical_tv_curve
from rfim.localization import align_posterior_to_base
from rfim.rng import substream
from rfim.slwsm import averaged_boosted_table, magnetization_function

from dense_reference import transition_matrix


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
    if isinstance(x, str):
        return x
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


def grand_coupled_pm_pinned():
    g = grid_graph(3, 3)
    models = [_model(g, 0.4, 17), _model(g, 0.4, 18, pinning={4: 1}),
              _model(g, 0.3, 19, pinning={0: -1, 8: 1})]
    states = [{2: 1}, {6: -1, 4: 1}, {0: -1}]  # a state may repeat a pinned value
    pinned = [m.with_pinning(st) for m, st in zip(models, states)]
    configs, disagree, log = grand_coupled_update(pinned, seed=19,
                                                  order=[4, 0, 8, 1, 7, 2, 6, 3, 5])
    return configs, disagree, log


def grand_coupled_01():
    g = path_graph(6)
    models = [_model(g, 0.5, 20, "01"), _model(g, 0.5, 20, "01", {0: 1, 5: 0})]
    return grand_coupled_update([models[0], models[1].with_pinning({3: 1})], seed=20)


def _disagreement(order):
    g = grid_graph(3, 4)
    field = sample_field(FieldDistribution.gaussian(0.6), g.num_vertices, 21)
    m01 = to_zero_one(IsingModel.uniform(g, 0.3, field.values))
    res = disagreement_experiment(m01, g.edges[5], 0.6 * theta_star(0.3), {11: 0}, field.values,
                                  k=0.3, p0=0.2, seed=22, order=order)
    return res.disagreement_set, res.cluster, res.contained, res.order


def disagreement_bfs():
    return _disagreement("bfs")


def disagreement_cluster():
    return _disagreement("cluster")


def percolate_torus():
    g = torus_grid(6, 6)
    real = percolate(g, sample_field(FieldDistribution.gaussian(1.0), g.num_vertices, 23),
                     k=0.4, p0=0.3, seed=24)
    return real.open_set, real.provenance, real.seed


def posterior_buckets_grid():
    m01 = _model(grid_graph(3, 4), 0.3, 25, "01")
    report = verify_posterior_by_simulation(m01, 0.2, 20_000, seed=26, min_hits=100)
    return report.buckets, report.max_tv, report.traces


def posterior_alignment():
    m01 = _model(grid_graph(3, 3), 0.35, 27, "01", {8: 0})
    t, revealed = 0.4, [0, 3]
    post = gibbs_table(posterior_model(m01, t, revealed))
    return (align_posterior_to_base(post, gibbs_table(m01)),
            exact_revealed_posterior(m01, t, revealed))


def _table(table):
    return table.probs, table.log_partition, table.free


def gibbs_table_pm():
    return _table(gibbs_table(_model(random_regular_graph(10, 3, 28), 0.4, 29)))


def gibbs_table_01():
    return _table(gibbs_table(_model(torus_grid(3, 3), 0.3, 30, "01")))


def gibbs_table_pinned():
    return _table(gibbs_table(_model(grid_graph(3, 3), 0.5, 31, "pm", {1: 1, 4: -1})))


def spectra_pm():
    m = _model(random_regular_graph(8, 3, 32), 0.3, 33)
    return (glauber_gap(m).gap, at_variance_constant(m),
            mlsi_lower_estimate(m, restarts=4, seed=34, iterations=30))


def spectra_01_pinned():
    m = _model(grid_graph(2, 4), 0.4, 35, "01", {0: 1, 6: 0})
    return (glauber_gap(m).gap, at_variance_constant(m),
            mlsi_lower_estimate(m, restarts=4, seed=36, iterations=30))


def transition_matrix_pinned():
    return transition_matrix(_model(path_graph(5), 0.6, 37, "pm", {2: 1}))


def cor2_grid():
    m01 = _model(grid_graph(2, 3), 0.4, 38, "01")
    report = sup_cor2_over_pinnings(m01, [0.0, 0.5])
    return (cor2_matrix(gibbs_table(m01)), report.max_row_sum, report.max_col_sum,
            report.max_opnorm, report.per_edge_row_max, report.per_edge_col_max,
            report.argmax_row, report.argmax_col, report.argmax_opnorm,
            report.interpolation_ok, report.matrices_checked, report.mode)


def moments_pinned():
    table = gibbs_table(_model(random_regular_graph(8, 3, 39), 0.4, 40, "pm", {3: -1}))
    return mean_and_covariance(table), marginals(table)


def boosted_average():
    mean, stderr, _ = averaged_boosted_table(_model(grid_graph(2, 3), 0.4, 41), 0.8, 200, 42)
    return mean, stderr


def noising_traces_oracle():
    m = _model(grid_graph(3, 3), 0.4, 43, "01", {4: 1})
    traces = [sample_noising_trace(m, 44, trace_index=i) for i in range(4)]
    return [(tr.x_sample, tr.edge_uniforms) for tr in traces]


def sl_boost_oracle():
    m = _model(grid_graph(3, 3), 0.4, 45, "pm", {0: -1})
    boosts = [sl_boost(m, 0.7, 46, index=i) for i in range(4)]
    return [(b.sigma_star, b.y) for b in boosts]


def wsm_torus():
    report = estimate_wsm(torus_grid(6, 6), 0.4, FieldDistribution.gaussian(0.6), (1, 2), 3,
                          47, vertices=(0, 14, 35))
    return report.mean_delta, report.stderr, report.fitted_c


def trace_moments_grid():
    report = trace_moment_probe(_model(grid_graph(2, 3), 0.4, 48), 2, (0.0, 0.5, 1.0), 50, 49)
    return report.rows, report.sup_mean, report.c0_fit


def weak_poincare_magnetization():
    m = _model(grid_graph(2, 3), 0.4, 50)
    phi = magnetization_function(gibbs_table(m))
    report = weak_poincare_probe(m, 0.5, 0.5, [("magnetization", phi)], 200, 51)
    return report.c0, report.p_exponent, [(r.name, r.lhs_variance, r.rhs_bound, r.ok)
                                          for r in report.rows]


def row_sum_tail_cycle():
    report = row_sum_tail_report(cycle_graph(5), 0.3, (0.0, 0.4), FieldDistribution.gaussian(0.6),
                                 k=0.3, p0=0.2, trials=2, seed=52, m_grid=(0.25, 0.5))
    return ([(r.m, r.bound, r.row_exceed_freq, r.col_exceed_freq) for r in report.rows],
            report.trials, report.mode, report.delta, report.interpolation_all_ok)


def vertex_tilt():
    return _table(vertex_tilt_table(_model(grid_graph(3, 3), 0.35, 53, "01", {2: 1}), 0.6))


def gap_pm_n10():
    return glauber_gap(_model(random_regular_graph(10, 3, 54), 0.5, 55)).gap


def gap_01_pinned_f9():
    return glauber_gap(_model(random_regular_graph(10, 3, 56), 0.6, 57, "01", {3: 1})).gap


def cor2_sweep_chunked():
    m01 = _model(random_regular_graph(6, 3, 58), 0.4, 59, "01")
    report = sup_cor2_over_pinnings(m01, [0.0, 0.3], chunk=100)  # 3^6 = 729 codes, 8 chunks
    return (report.max_row_sum, report.max_col_sum, report.max_opnorm,
            report.per_edge_row_max, report.per_edge_col_max, report.argmax_row,
            report.argmax_col, report.argmax_opnorm, report.interpolation_ok,
            report.matrices_checked)


def cor2_sweep_sampled():
    m01 = _model(random_regular_graph(12, 3, 61), 0.4, 62, "01")
    codes = substream(63, 0).integers(0, 3**12, size=200)
    report = sup_cor2_over_pinnings(m01, [0.0, 0.3], pinning_codes=codes, chunk=64)  # 4 chunks
    return (report.max_row_sum, report.max_col_sum, report.max_opnorm,
            report.per_edge_row_max, report.per_edge_col_max, report.argmax_row,
            report.argmax_col, report.argmax_opnorm, report.interpolation_ok,
            report.matrices_checked, report.mode)


def row_sum_tail_sampled():
    report = row_sum_tail_report(grid_graph(3, 4), 0.4, (0.0, 0.3), FieldDistribution.gaussian(0.6),
                                 k=0.3, p0=0.2, trials=2, seed=60, m_grid=(0.25, 0.5),
                                 sampled_pinnings=50)
    return ([(r.m, r.bound, r.row_exceed_freq, r.col_exceed_freq) for r in report.rows],
            report.trials, report.mode, report.delta, report.interpolation_all_ok)


CASES = {f.__name__: f for f in (
    run_chain_pm, run_chain_01_pinned, batch_pm, batch_01, batch_pm_pinned,
    coupled_run_pm, coupled_run_01_pinned, coupled_batch_pm, coupled_batch_01_pinned,
    sampler_grid, sampler_disconnected_01, tv_curve, noising_traces_glauber, sl_boost_glauber,
    grand_coupled_pm_pinned, grand_coupled_01, disagreement_bfs, disagreement_cluster,
    percolate_torus, posterior_buckets_grid, posterior_alignment, gibbs_table_pm,
    gibbs_table_01, gibbs_table_pinned, spectra_pm, spectra_01_pinned, transition_matrix_pinned,
    cor2_grid, moments_pinned, boosted_average, noising_traces_oracle, sl_boost_oracle,
    wsm_torus, trace_moments_grid, weak_poincare_magnetization, row_sum_tail_cycle, vertex_tilt,
    gap_pm_n10, gap_01_pinned_f9, cor2_sweep_chunked, cor2_sweep_sampled, row_sum_tail_sampled,
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
    "grand_coupled_pm_pinned": "885a3633272d2d3aad355eb29015cf639caf4f092cb2963a9bcdd84e556f40a3",
    "grand_coupled_01": "6eadaf104eaaf09c2b40e4c5df91ec1a030ce69fbb54f7935db35d8a4df7b00a",
    "disagreement_bfs": "863ead5f823d1c40d3efec5a95d9f0c1bf875008e89af3720b0299c41d97fd27",
    "disagreement_cluster": "8b44c0a2ce7678d86af7db80eea898ee6b11d188df8bb18f1205993e93ffc528",
    "percolate_torus": "a4e82d568b5510eb93666e00d1e0e7d95f2f7da24c5c90496c8ce7dd5d97faa3",
    "posterior_buckets_grid": "93b9d82211c312638d877ac5d225c8d90c172e7e829e933209f26b5acfd4076e",
    "posterior_alignment": "8058207d0a929145d73d1c66dd5b62cb06d37dc2fd062c40b4b3066ad3b4f6c9",
    "gibbs_table_pm": "4267400967957c934220c2659fe62e8c3213fa2237e08458b44d08afa8375f92",
    "gibbs_table_01": "5014daf9c6ae35c4f5164fa0db3db5f007060afdfa0bef886324d536c8f1f73a",
    "gibbs_table_pinned": "9c0d6e3e239d1739512894dfaca3f3cdb1990cb8c4b7a77519fa631fde68e8ca",
    "spectra_pm": "81f1031cfc837c188632634b85d554b8705959e33d7139a523545ec495b276cd",
    "spectra_01_pinned": "1fa129868237f33d66a4aeac4a9ccab55303e273e5787ca85dfd14d1cbeca1d8",
    "transition_matrix_pinned": "0a21c4ed3f088027526c35876c00634515605c6425610f9ef1a5158e281834b9",
    "cor2_grid": "275fb203b1ed36f6f123c35331f285e112ce0e18ae8644110d5aaf46555a3bc0",
    "moments_pinned": "50924d605562f46fe49d30201636138079e2a5ab490c307099848dc6208b8f9d",
    "boosted_average": "9a5df597a3c8e912c7f0381b7ac774e05476240b97c359de43dfb3aa000b4166",
    "noising_traces_oracle": "6e87c9c06f9aad9924a3de08df163b58b232c4967a84b65cdbf08eaa6b31db97",
    "sl_boost_oracle": "56692ead8f0e0f3d176649df096f9bad89ef836b7978bd2d61a7876412fbce15",
    "wsm_torus": "e55685e3f0df628db5e9e0e029336d772cbc130f56504fff0f7ec2429c75880e",
    "trace_moments_grid": "d56c9918d4ff1aa90a216591c9ce3f44035cefac04abad525f156702a33b1880",
    "weak_poincare_magnetization": "ba5c5abfca6fb82af57bdedf55d3d11f1718b0bb7bf3d9b5a0f73e8346084a49",
    "row_sum_tail_cycle": "8434bd177005025d19e111bad9aaa355284584e4b4d5e7fbaddb093c9c126798",
    "vertex_tilt": "08d0c4c972b7ecd26de085296393b1b6597e13d7f846aa853dbf5e2c03c180c1",
    "gap_pm_n10": "2c2a5fa4f030d4c653aaa0af2b704bb1fed876817a1bd3dd3d4c59019d07ff00",
    "gap_01_pinned_f9": "53bd9d7cab5148ceacb077bdc8bb80cc612287764f126eb26e3005f2092f18da",
    "cor2_sweep_chunked": "150cd2a8179c0a67723810c18639d688fed48a1f82106aedb7c0f0193e63c2ab",
    "cor2_sweep_sampled": "20b9cf8f43f6074584e69b751d5e2424a33132e5aa581edfaa88660f85cc5fa3",
    "row_sum_tail_sampled": "030a3fed80f6af3ea14ebe1cc59ecb781ea4b623980a6f1720234e1fde1b7574",
}


def test_every_case_has_a_golden():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name, case in CASES.items():
        print(f'    "{name}": "{digest(case())}",')
