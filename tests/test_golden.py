"""Golden digests of the oracle, dynamics, localization and sampler layers for fixed seeds.

Each case runs one public routine on a fixed model with fixed seeds and
hashes its output with SHA-256.  Spins and counts are hashed exactly; other
floats are hashed to 10 significant digits, so a reordered sum that moves a
float by an ulp leaves the digest alone while any change of a random stream
or of an update decision moves it.  A deliberate move must be re-baselined
and recorded in CHANGES.md with the case that moved and why.

Print the digests of the current code (to paste into ``GOLDEN``) with

    python tests/test_golden.py

and only the cases whose digest differs from ``GOLDEN``, each with its old
and new digest, with

    python tests/test_golden.py --changed
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

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
from rfim import oracle
from rfim.dynamics import empirical_tv_curve
from rfim.localization import align_posterior_to_base
from rfim.rng import COUPLING, SL, substream
from rfim.slwsm import _boosted_prob_blocks

from dense_reference import transition_matrix
from scalar_reference import block_draws


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
                                 SpinConfiguration(_start(m, 1), "pm"), 400, 10)
    index, uniform = block_draws(substream(10, COUPLING), 16, 1, 400)
    draws = tuple((k + 1, v, u) for k, (v, u) in enumerate(zip(index.ravel(), uniform.ravel())))
    return ([s.config for s in trace.states], trace.disagreement_set, trace.coalescence_step, draws)


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
    blocks, _, _ = _boosted_prob_blocks(_model(grid_graph(2, 3), 0.4, 41), 0.8, 200,
                                        substream(42, SL))
    probs = np.concatenate(list(blocks))
    return probs.mean(axis=0), probs.std(axis=0, ddof=1) / np.sqrt(200)


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
    table = gibbs_table(m)
    phi = table.rows()[:, list(table.free)].sum(axis=1, dtype=np.float64)
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
    with mock.patch.object(oracle, "SWEEP_BLOCK", 100):  # 3^6 = 729 codes, 8 blocks
        report = sup_cor2_over_pinnings(m01, [0.0, 0.3])
    return (report.max_row_sum, report.max_col_sum, report.max_opnorm,
            report.per_edge_row_max, report.per_edge_col_max, report.argmax_row,
            report.argmax_col, report.argmax_opnorm, report.interpolation_ok,
            report.matrices_checked)


def cor2_sweep_sampled():
    m01 = _model(random_regular_graph(12, 3, 61), 0.4, 62, "01")
    codes = substream(63, 0).integers(0, 3**12, size=200)
    with mock.patch.object(oracle, "SWEEP_BLOCK", 64):  # 4 blocks
        report = sup_cor2_over_pinnings(m01, [0.0, 0.3], pinning_codes=codes)
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
    "run_chain_pm": "daeddeba0c45be39e0dd6dd496db946c4d179598f2b48f13873e91c6e99f0a49",
    "run_chain_01_pinned": "4700c22a1f658a8bdd99cbd25e99bafd01c805b064583d2bea0ffacb60254f84",
    "batch_pm": "3d5a166334765c45d2745aa1e321e3750f8da0ee0be15c71213915fd956b5f53",
    "batch_01": "0324d5d5f0ab7b27d94c9b64c8bb795c2ceabc6782a365972db1850e7a5ca99b",
    "batch_pm_pinned": "62ccddb1cba15c0ee95aa145caefa9aa79f6118cfe3ddff3a3968d17c68f1cfb",
    "coupled_run_pm": "82a780a7637d3503ef4e5a8a03e79a8a04ce4117fbce6a154d8c5ccd67666954",
    "coupled_run_01_pinned": "729c6548de3872397329babd60c815aba0e301b03f57944622c42702cdce3918",
    "coupled_batch_pm": "edc507b657ddacb31634831929ef2ede444f463bd6a77b00db39b24b557023d1",
    "coupled_batch_01_pinned": "5466a53b73e58e490af12a4c063a9900ea626ed6ac2d838555527d9f22d0f535",
    "sampler_grid": "bd30ff8f9ca55ccaffd67a3b7b7f1625dd1e6d61546469bfb4d7907310187959",
    "sampler_disconnected_01": "bef8afa13220bb21012b6d64085a9a20fb7c3d50dd49d982caf8cec779486840",
    "tv_curve": "3d15b84d1d1021d05e5684d91b8a1f87a921578a6bf38ea1d0c8495ed4902d96",
    "noising_traces_glauber": "c873cd8d267164f40793cfcadb83a1ac78fec5c99bcf566caa743e120b30386b",
    "sl_boost_glauber": "cf704eb84f0866a3a5f6945037cf98a13281959b93725f884a04b55fa44259a2",
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
    "wsm_torus": "ff63cc90f01929f3b1dc59e0dcd4c2f023be366c2068c41e6d792a0cdf242e27",
    "trace_moments_grid": "678f595bd84772c8e6b1ba8b0757f1339425a7f9cfc13a3fad70c1e9f7896641",
    "weak_poincare_magnetization": "ba5c5abfca6fb82af57bdedf55d3d11f1718b0bb7bf3d9b5a0f73e8346084a49",
    "row_sum_tail_cycle": "0e8c58c7af18a019ff7737355df61b6c530b6f54f8405d27e4849d9a3d46173a",
    "vertex_tilt": "08d0c4c972b7ecd26de085296393b1b6597e13d7f846aa853dbf5e2c03c180c1",
    "gap_pm_n10": "2c2a5fa4f030d4c653aaa0af2b704bb1fed876817a1bd3dd3d4c59019d07ff00",
    "gap_01_pinned_f9": "53bd9d7cab5148ceacb077bdc8bb80cc612287764f126eb26e3005f2092f18da",
    "cor2_sweep_chunked": "150cd2a8179c0a67723810c18639d688fed48a1f82106aedb7c0f0193e63c2ab",
    "cor2_sweep_sampled": "20b9cf8f43f6074584e69b751d5e2424a33132e5aa581edfaa88660f85cc5fa3",
    "row_sum_tail_sampled": "ae652e5f1eb2f742da8e09f4b1629d10b67357209a6cfabf54cedf6cd48892df",
}


def test_every_case_has_a_golden():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    changed = "--changed" in sys.argv[1:]
    for name, case in CASES.items():
        new = digest(case())
        if not changed:
            print(f'    "{name}": "{new}",')
        elif new != GOLDEN.get(name):
            print(f"{name}: {GOLDEN.get(name)} -> {new}")
