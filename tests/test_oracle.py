import itertools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.special import logsumexp

from rfim import (
    CapacityError,
    FieldDistribution,
    GibbsTable,
    InputError,
    IsingModel,
    ValidationFailure,
    at_variance_constant,
    build_graph,
    complete_graph,
    cycle_graph,
    cor2_matrix,
    edge_tilt,
    gibbs_table,
    glauber_gap,
    marginals,
    mean_and_covariance,
    mlsi_lower_estimate,
    path_graph,
    random_regular_graph,
    sup_cor2_over_pinnings,
    sample_field,
    to_zero_one,
    tv_distance,
)
from rfim import oracle
from rfim.model import array_energy
from rfim.oracle import (
    _centred_moments,
    _entropy,
    _free_energies,
    _normalise,
    table_from_binary,
    table_to_binary,
    table_to_json_dict,
)

import dense_reference
from conftest import random_field_model, uniform_model
from induced_reference import edge_scan_induced
from strategies import models


def test_gibbs_single_vertex_symmetric():
    t = gibbs_table(uniform_model(build_graph(1, []), 0.0, [0.0]))
    assert np.allclose(t.probs, [0.5, 0.5])


def test_gibbs_single_vertex_fielded():
    c = 0.7
    t = gibbs_table(uniform_model(build_graph(1, []), 0.0, [c]))
    z = 2 * math.cosh(c)
    assert t.probs[0] == pytest.approx(math.exp(-c) / z)  # bit 0 -> spin -1
    assert t.probs[1] == pytest.approx(math.exp(c) / z)


def test_gibbs_p2_hand_enumeration(p2_symmetric):
    t = gibbs_table(p2_symmetric)
    z = 2 * math.e + 2 / math.e
    assert t.rows().tolist() == [[-1, -1], [1, -1], [-1, 1], [1, 1]]
    assert t.probs == pytest.approx([math.e / z, 1 / math.e / z, 1 / math.e / z, math.e / z],
                                    abs=1e-12)


def test_gibbs_capacity():
    with pytest.raises(CapacityError):
        gibbs_table(uniform_model(path_graph(30), 0.1, np.zeros(30)))


def test_gibbs_table_normalized_and_finite():
    for seed in range(10):
        m = random_field_model(complete_graph(4), 0.4, seed)
        t = gibbs_table(m)
        assert abs(t.probs.sum() - 1.0) < 1e-12
        assert np.isfinite(t.log_partition)
        assert (t.probs >= 0).all()


def test_conditional_pinned_marginal(p2_symmetric):
    t = gibbs_table(p2_symmetric.with_pinning({0: 1}))
    z = 2 * math.cosh(1.0)
    assert t.probs[0] == pytest.approx(math.exp(-1.0) / z, abs=1e-12)
    assert t.probs[1] == pytest.approx(math.exp(1.0) / z, abs=1e-12)


def test_conditional_pin_all(p3_symmetric):
    t = gibbs_table(p3_symmetric.with_pinning({0: 1, 1: -1, 2: 1}))
    assert t.probs.tolist() == [1.0]


def test_conditional_pin_nothing(p3_symmetric):
    assert np.allclose(gibbs_table(p3_symmetric.with_pinning({})).probs,
                       gibbs_table(p3_symmetric).probs)


def test_conditional_equals_renormalized_slice(k3_fielded):
    t = gibbs_table(k3_fielded)
    cond = gibbs_table(k3_fielded.with_pinning({1: 1}))
    keep = t.rows()[:, 1] == 1
    assert np.array_equal(cond.rows(), t.rows()[keep])
    assert cond.probs == pytest.approx(t.probs[keep] / t.probs[keep].sum(), abs=1e-12)


def test_mean_cov_single_spin():
    mean, cov = mean_and_covariance(gibbs_table(uniform_model(build_graph(1, []), 0.0, [0.0])))
    assert mean[0] == pytest.approx(0.0)
    assert cov[0, 0] == pytest.approx(1.0)


def test_mean_cov_product_is_diagonal():
    m = random_field_model(build_graph(3, []), 0.0, seed=2)
    _, cov = mean_and_covariance(gibbs_table(m))
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-14


def test_mean_cov_p2_tanh(p2_symmetric):
    _, cov = mean_and_covariance(gibbs_table(p2_symmetric))
    assert cov[0, 1] == pytest.approx(math.tanh(1.0), abs=1e-12)
    assert cov[0, 1] == pytest.approx(0.7615942, abs=1e-7)


def test_cor2_product_measure_vanishes():
    g = build_graph(4, [(0, 1), (2, 3)])
    m01 = to_zero_one(random_field_model(g, 0.0, seed=3))
    cor = cor2_matrix(gibbs_table(m01))
    assert cor[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert cor[1, 0] == pytest.approx(0.0, abs=1e-14)


def test_cor2_diagonal(k3_fielded):
    m01 = to_zero_one(k3_fielded)
    t = gibbs_table(m01)
    cor = cor2_matrix(t)
    z = np.array([[a.count(0) == 0 for a in []]])  # placeholder - computed below
    from rfim.oracle import _edge_event_columns

    p = t.probs @ _edge_event_columns(t)
    for e in range(m01.graph.num_edges):
        assert cor[e, e] == pytest.approx(1.0 - p[e], abs=1e-12)
        assert cor[e, e] >= 0.0


def test_cor2_requires_zero_one(k3_fielded):
    with pytest.raises(InputError):
        cor2_matrix(gibbs_table(k3_fielded))


def test_cor2_dual_enumeration_paths(k3_fielded):
    # joint-probability ratio (library) vs condition-then-renormalize
    m01 = to_zero_one(k3_fielded)
    t = gibbs_table(m01)
    cor = cor2_matrix(t)
    edges = m01.graph.edges
    base_rows = t.rows()
    for e, (u, v) in enumerate(edges):
        cond = gibbs_table(m01.with_pinning({u: 1, v: 1}))
        rows = cond.rows()
        for f, (w, z) in enumerate(edges):
            p_cond = cond.probs[(rows[:, w] == 1) & (rows[:, z] == 1)].sum()
            p_base = t.probs[(base_rows[:, w] == 1) & (base_rows[:, z] == 1)].sum()
            assert cor[e, f] == pytest.approx(p_cond - p_base, abs=1e-12)


def test_cor2_zero_probability_rows():
    m01 = to_zero_one(random_field_model(path_graph(3), 0.5, seed=4)).with_pinning({1: 0})
    cor = cor2_matrix(gibbs_table(m01))
    assert np.all(cor == 0.0)  # every edge touches the pinned-to-0 middle vertex


def test_tv_distance_basics(p2_symmetric):
    t = gibbs_table(p2_symmetric)
    assert tv_distance(t, t) == 0.0
    a = GibbsTable(model=p2_symmetric, probs=np.array([1.0, 0, 0, 0]), log_partition=0.0,
                   free=t.free)
    b = GibbsTable(model=p2_symmetric, probs=np.array([0, 0, 0, 1.0]), log_partition=0.0,
                   free=t.free)
    assert tv_distance(a, b) == pytest.approx(1.0)


def test_tv_distance_hand_value():
    t1 = gibbs_table(uniform_model(build_graph(1, []), 0.0, [0.0]))
    t2 = gibbs_table(uniform_model(build_graph(1, []), 0.0, [math.log(3.0) / 2.0]))
    assert np.allclose(t2.probs, [0.25, 0.75])
    assert tv_distance(t1, t2) == pytest.approx(0.25, abs=1e-12)


def test_tv_mismatched_spaces(p2_symmetric, p3_symmetric):
    with pytest.raises(InputError):
        tv_distance(gibbs_table(p2_symmetric), gibbs_table(p3_symmetric))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_tv_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    model = uniform_model(build_graph(2, []), 0.0, [0.0, 0.0])
    free = gibbs_table(model).free
    tables = []
    for _ in range(3):
        p = rng.dirichlet(np.ones(4))
        tables.append(GibbsTable(model=model, probs=p, log_partition=0.0, free=free))
    a, b, c = tables
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


def test_gap_single_vertex():
    m = uniform_model(build_graph(1, []), 0.0, [0.4])
    assert glauber_gap(m).gap == pytest.approx(1.0, abs=1e-12)


def test_gap_two_isolated_vertices():
    m = uniform_model(build_graph(2, []), 0.0, [0.0, 0.0])
    assert glauber_gap(m).gap == pytest.approx(0.5, abs=1e-12)


def test_gap_dual_route_agreement(p2_symmetric):
    # Strong two-point fields put many eigenvalues next to the gap, which
    # stalled ARPACK's restarts with its default 20 Lanczos vectors.
    field = sample_field(FieldDistribution.two_point(5.0), 12, 9073).values
    clustered = IsingModel.uniform(random_regular_graph(12, 3, 7073), 1.5, field)
    for m in (p2_symmetric, clustered):
        report = glauber_gap(m)
        eig, ray = (float(part.split("=")[1]) for part in report.notes.split())
        assert abs(eig - ray) <= 1e-9


def test_gap_capacity():
    with pytest.raises(CapacityError):
        glauber_gap(uniform_model(path_graph(17), 0.2, np.zeros(17)))


def test_gap_past_the_dense_reference_cap():
    m = random_field_model(random_regular_graph(13, 4, 5), 0.5, seed=6)
    report = glauber_gap(m)
    assert "rayleigh=" in report.notes
    assert 0.0 < report.gap <= 1.0
    assert report.at_variance_constant == 1.0 / (13 * report.gap)


@settings(max_examples=30)
@given(models(max_n=8))
def test_gap_matches_dense_eigenvalues(m):
    # A gap is returned within 1e-12 of the dense reference or refused, and
    # only a gap below 1e-8 is ever refused.
    dense = dense_reference.dense_gap(m)
    try:
        gap = glauber_gap(m).gap
    except ValidationFailure:
        assert dense < 1e-8
    else:
        assert abs(gap - dense) <= 1e-12


def test_gap_matches_dense_eigenvalues_on_a_clustered_spectrum():
    # Fields of +-5 all but freeze each spin, so the ten single-site
    # relaxations crowd next to lambda_2; ARPACK must still resolve it.
    field = sample_field(FieldDistribution.two_point(5.0), 10, 102).values
    m = IsingModel.uniform(random_regular_graph(10, 3, 2), 0.5, field)
    eigenvalues = dense_reference.symmetrized_eigenvalues(m)
    assert (eigenvalues[:-1] >= eigenvalues[-2] - 2e-4).sum() >= 10
    assert abs(glauber_gap(m).gap - (1.0 - eigenvalues[-2])) <= 1e-12


def test_gap_repeats_bit_for_bit():
    m = random_field_model(random_regular_graph(10, 3, 7), 0.5, seed=8)
    first, second = glauber_gap(m), glauber_gap(m)
    assert first.gap == second.gap
    assert first.notes == second.notes


def test_gap_cross_check_is_live(monkeypatch):
    dirichlet = oracle._dirichlet_matrix

    def scaled(energy, log_z, partners):
        return dirichlet(energy, log_z, partners) * 1.01

    monkeypatch.setattr(oracle, "_dirichlet_matrix", scaled)
    for n in (6, 8):  # 64 configurations run dense, 256 run ARPACK
        with pytest.raises(ValidationFailure):
            glauber_gap(random_field_model(random_regular_graph(n, 3, 9), 0.4, seed=10))


def test_gap_eigenvalue_route_is_live(monkeypatch):
    symmetrized = oracle._symmetrized_transition

    def scaled(energy, root, partners):
        return symmetrized(energy, root, partners) * 1.01

    monkeypatch.setattr(oracle, "_symmetrized_transition", scaled)
    for n in (6, 8):  # 64 configurations run dense, 256 run ARPACK
        with pytest.raises(ValidationFailure):
            glauber_gap(random_field_model(random_regular_graph(n, 3, 9), 0.4, seed=10))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f", range(1, 11))
def test_gap_solvers_do_not_warn(f):
    g = cycle_graph(f) if f >= 3 else path_graph(f)
    report = glauber_gap(random_field_model(g, 0.6, seed=f))
    assert 0.0 < report.gap <= 1.0


def test_spectral_routines_refuse_an_underflowed_measure(monkeypatch):
    # Fields of +-80 at beta 0.5 leave 7 of the 64 configurations at probability 0,
    # where the gap's routes would divide by sqrt(mu).
    m = IsingModel.uniform(random_regular_graph(6, 3, 3), 0.5, np.array([80.0, -80.0] * 3))

    def solver(*args):
        raise AssertionError("a solver ran on an underflowed measure")

    for name in ("_symmetrized_transition", "_dirichlet_matrix", "_transition"):
        monkeypatch.setattr(oracle, name, solver)
    for routine in (glauber_gap, lambda model: mlsi_lower_estimate(model, 2, seed=0)):
        with pytest.raises(ValidationFailure, match="7 of 64 configurations"):
            routine(m)


def test_spectral_caps():
    with pytest.raises(CapacityError):
        at_variance_constant(uniform_model(path_graph(17), 0.2, np.zeros(17)))
    with pytest.raises(CapacityError):
        mlsi_lower_estimate(uniform_model(path_graph(11), 0.2, np.zeros(11)), 2, seed=0)
    fully_pinned = uniform_model(path_graph(2), 0.2, np.zeros(2)).with_pinning({0: 1, 1: -1})
    for routine in (glauber_gap, at_variance_constant):
        with pytest.raises(InputError):
            routine(fully_pinned)


def test_at_variance_product_measure():
    m = random_field_model(build_graph(3, []), 0.0, seed=6)
    assert at_variance_constant(m) == pytest.approx(1.0, abs=1e-9)


def test_at_variance_needs_a_resolved_gap():
    # On K7 with no field the gap sinks towards the rounding of 1 - lambda_2
    # as J grows.  At J = 1 the routes agree to 7.7e-7 relative and the AT
    # constant is 1/(7 gap); at J = 1.2 they differ by 1.4e-4 relative, so only
    # the unchecked gap of 2.6e-12, above the floor, is returned; at J = 2
    # route (a) reads 1.3e-15 against 4.3e-18, and both calls refuse it.
    kept = uniform_model(complete_graph(7), 1.0, np.zeros(7))
    report = glauber_gap(kept)
    assert report.at_variance_constant == 1.0 / (7 * report.gap)
    assert at_variance_constant(kept) == report.at_variance_constant
    disagreeing = uniform_model(complete_graph(7), 1.2, np.zeros(7))
    with pytest.raises(ValidationFailure, match="eigenvalue 2.62"):
        glauber_gap(disagreeing)
    assert glauber_gap(disagreeing, cross_validate=False).gap > oracle.GAP_FLOOR
    unresolved = uniform_model(complete_graph(7), 2.0, np.zeros(7))
    for cross_validate in (True, False):
        with pytest.raises(ValidationFailure):
            glauber_gap(unresolved, cross_validate=cross_validate)
    with pytest.raises(ValidationFailure):
        at_variance_constant(unresolved)


def test_gap_turns_arpack_errors_into_validation_failures(monkeypatch):
    from scipy.sparse import linalg as splinalg

    def failing(op, **kwargs):  # the one ARPACK solve, route (a)'s
        raise splinalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(splinalg, "eigsh", failing)
    with pytest.raises(ValidationFailure, match="ARPACK"):
        glauber_gap(random_field_model(random_regular_graph(8, 3, 9), 0.4, seed=10))


def test_at_variance_matches_gap(p2_symmetric):
    gap = glauber_gap(p2_symmetric).gap
    at = dense_reference.at_variance_constant(p2_symmetric)
    assert at == pytest.approx(1.0 / (2.0 * gap), abs=1e-9)


def test_at_variance_high_temperature_bound():
    # 01-coordinate couplings at most 1/max_degree admit constant 2
    rng = np.random.default_rng(11)
    m01 = IsingModel(graph=complete_graph(4), couplings=np.full(6, 0.25),
                     field=rng.normal(0, 1, 4), convention="01")
    assert at_variance_constant(m01) <= 2.0


def test_at_gap_identity_random_models():
    for seed in range(10):
        rng = np.random.default_rng(seed + 100)
        n = int(rng.integers(2, 7))
        g = complete_graph(n) if seed % 2 else path_graph(n)
        m = IsingModel(graph=g, couplings=rng.uniform(-0.7, 0.9, g.num_edges),
                       field=rng.normal(0, 1, n))
        f = len(m.free_vertices)
        product = dense_reference.at_variance_constant(m) * f * glauber_gap(m).gap
        assert product == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30)
@given(models(max_n=8))
def test_at_variance_matches_dense_reference(m):
    # Both sides invert an eigenvalue found to about 1e-16 absolute, so they are
    # compared as the gaps they invert: within 1e-12, or the gap is refused, and
    # only a gap below 1e-8 is ever refused.
    f = len(m.free_vertices)
    try:
        at = at_variance_constant(m)
    except ValidationFailure:
        assert dense_reference.dense_gap(m) < 1e-8
    else:
        assert abs(1.0 / (f * at) - 1.0 / (f * dense_reference.at_variance_constant(m))) <= 1e-12


def test_mlsi_single_vertex_matches_scan():
    m = uniform_model(build_graph(1, []), 0.0, [0.0])
    est = mlsi_lower_estimate(m, restarts=50, seed=1)
    # 1-D exhaustive scan over f = (x, 1): Pf is constant so Ent[Pf] = 0
    p, mu = dense_reference.transition_matrix(m)
    worst = 0.0
    for x in np.linspace(0.01, 20.0, 500):
        f = np.array([[x], [1.0]])
        ent_f = _entropy(f, mu)[0]
        worst = max(worst, _entropy(p @ f, mu)[0] / ent_f)
    assert est == pytest.approx(1.0 - worst, abs=1e-9)
    assert est == pytest.approx(1.0, abs=1e-9)


def test_mlsi_product_not_below_half_single():
    m = uniform_model(build_graph(2, []), 0.0, [0.0, 0.0])
    est = mlsi_lower_estimate(m, restarts=300, seed=1)
    # exact entropy tensorization for products keeps the constant >= 1/f
    assert est >= 0.5 - 1e-9


def test_mlsi_seed_stability(p2_symmetric):
    a = mlsi_lower_estimate(p2_symmetric, restarts=1000, seed=1)
    b = mlsi_lower_estimate(p2_symmetric, restarts=1000, seed=2)
    assert abs(a - b) <= 1e-3


def test_sweep_product_measure_diagonal():
    # vertex-disjoint edges: at independence the off-diagonals vanish and the
    # worst row sum is the worst pinned diagonal 1 - mu^tau(uv)
    g = build_graph(4, [(0, 1), (2, 3)])
    m01 = to_zero_one(random_field_model(g, 0.0, seed=8))
    report = sup_cor2_over_pinnings(m01, [0.0])
    best = 0.0
    for codes in itertools.product((None, 0, 1), repeat=4):
        pin = {v: s for v, s in enumerate(codes) if s is not None}
        t = gibbs_table(m01.with_pinning(pin))
        cor = cor2_matrix(t)
        best = max(best, float(np.abs(np.diag(cor)).max()))
    assert report.max_row_sum == pytest.approx(best, abs=1e-12)


def test_sweep_single_edge():
    m01 = to_zero_one(uniform_model(path_graph(2), 0.4, [0.2, -0.1]))
    report = sup_cor2_over_pinnings(m01, [0.0, 0.3])
    assert report.max_opnorm < 1.0
    assert report.interpolation_ok


def test_sweep_interpolation_holds(k3_fielded):
    m01 = to_zero_one(k3_fielded)
    grid = np.linspace(0.0, 0.6, 5)
    report = sup_cor2_over_pinnings(m01, grid)
    assert report.interpolation_ok
    assert report.max_opnorm <= math.sqrt(report.max_row_sum * report.max_col_sum) + 1e-9
    assert report.matrices_checked == 5 * 3**3


def test_sweep_checks_inputs_before_enumerating(monkeypatch):
    m01 = to_zero_one(uniform_model(path_graph(3), 0.4, [0.2, -0.1, 0.3]))

    def enumerate_anyway(model):
        raise AssertionError("enumerated before checking the inputs")

    monkeypatch.setattr(oracle, "_free_energies", enumerate_anyway)
    for grid, kwargs in (([0.2, 1.0], {}), ([], {}), ([-0.1], {}),
                         ([0.2], {"pinning_codes": []}), ([0.2], {"pinning_codes": [27]}),
                         ([0.2], {"pinning_codes": [-1]})):
        with pytest.raises(InputError):
            sup_cor2_over_pinnings(m01, grid, **kwargs)
    # the sampled route holds the (2^n, E) edge events, so explicit codes are capped too
    m15 = to_zero_one(uniform_model(path_graph(15), 0.4, np.zeros(15)))
    with pytest.raises(CapacityError):
        sup_cor2_over_pinnings(m15, [0.2], pinning_codes=[0])


def _free_zero_one(m):
    """The drawn model without its pinning, in the 01 convention."""
    m = replace(m, pinning={})
    return m if m.convention == "01" else to_zero_one(m)


@settings(max_examples=40)
@given(models(max_n=7).map(_free_zero_one),
       st.lists(st.floats(0.0, 0.9), min_size=1, max_size=2), st.integers(1, 3000), st.data())
def test_sweep_routes_agree(m01, grid, block, data):
    # Exhaustive mode sums the weighted columns by the ternary transform;
    # explicit codes sum slices of the weights and edge events.  Both run the
    # SVD on live edges, in blocks of any size.
    with mock.patch.object(oracle, "SWEEP_BLOCK", block):
        exact = sup_cor2_over_pinnings(m01, grid)
        sliced = sup_cor2_over_pinnings(m01, grid, pinning_codes=np.arange(3**m01.n))
    for key in ("max_row_sum", "max_col_sum", "max_opnorm"):
        assert getattr(exact, key) == pytest.approx(getattr(sliced, key), rel=1e-12, abs=1e-12)
    for key in ("per_edge_row_max", "per_edge_col_max"):
        assert np.allclose(getattr(exact, key), getattr(sliced, key), rtol=1e-12, atol=1e-12)
    for key in ("argmax_row", "argmax_col", "argmax_opnorm"):
        assert getattr(exact, key)[1] == getattr(sliced, key)[1]
    assert exact.interpolation_ok == sliced.interpolation_ok
    assert exact.matrices_checked == sliced.matrices_checked == len(grid) * 3**m01.n
    # One code at a time, the sliced route reads each edge's row sum and the
    # operator norm off cor2_matrix of the pinned table.
    theta = grid[0]
    for code in data.draw(st.lists(st.integers(0, 3**m01.n - 1), min_size=1, max_size=3)):
        one = sup_cor2_over_pinnings(m01, [theta], pinning_codes=[code])
        pinned = edge_tilt(m01, theta).with_pinning(oracle._pinning_from_code(code, m01.n))
        cor = cor2_matrix(gibbs_table(pinned))
        want = np.abs(cor).sum(axis=1)
        assert np.allclose(one.per_edge_row_max, want, rtol=1e-9, atol=1e-12)
        norm = np.linalg.svd(cor, compute_uv=False)[0] if cor.size else 0.0
        assert one.max_opnorm == pytest.approx(norm, rel=1e-9, abs=1e-12)


def test_sampled_sweep_holds_no_mask():
    # The (2^14, E) edge events take 2.6 MiB and the per-block Cor2 statistics
    # of 1000 codes most of the rest; the (2^14, 1 + E + E^2) columns alone
    # would take 58 MiB, and any float array over (codes, 2^14) 125 MiB.
    m01 = to_zero_one(random_field_model(random_regular_graph(14, 3, seed=3), 0.3, seed=4))
    codes = np.random.default_rng(5).integers(0, 3**14, size=1000)
    tracemalloc.start()
    try:
        report = sup_cor2_over_pinnings(m01, [0.0, 0.2, 0.4], pinning_codes=codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.matrices_checked == 3000
    assert peak < 24 << 20


def test_sweep_refuses_a_pinning_whose_weights_all_underflow():
    # With fields of +-60 some pinnings allow only configurations more than
    # 745 nats below the heaviest one, so all their weights round to 0 and
    # they have no Cor2 matrix; at +-20 every pinning keeps a weight.
    g = random_regular_graph(8, 3, seed=3)
    far, near = (to_zero_one(IsingModel.uniform(g, 0.3, h * (-1.0) ** np.arange(8)))
                 for h in (60.0, 20.0))
    for codes in (None, np.arange(3**8)):
        with pytest.raises(ValidationFailure, match="theta=0.3"):
            sup_cor2_over_pinnings(far, [0.3], pinning_codes=codes)
        assert sup_cor2_over_pinnings(near, [0.3], pinning_codes=codes).max_row_sum == 5.0


def test_fkg_monotone_conditional_means():
    # increasing pinnings raise conditional means of every free spin
    for seed in range(3):
        m = random_field_model(complete_graph(4), 0.5, seed=seed + 40)
        assert m.ferromagnetic
        for pinned in itertools.combinations(range(4), 2):
            for low_vals, high_vals in itertools.product(
                    itertools.product((-1, 1), repeat=2), repeat=2):
                if any(l > h for l, h in zip(low_vals, high_vals)):
                    continue
                t_low = gibbs_table(m.with_pinning(dict(zip(pinned, low_vals))))
                t_high = gibbs_table(m.with_pinning(dict(zip(pinned, high_vals))))
                mean_low, _ = mean_and_covariance(t_low)
                mean_high, _ = mean_and_covariance(t_high)
                assert (mean_low <= mean_high + 1e-12).all()


def test_table_export_roundtrip(k3_fielded):
    t = gibbs_table(k3_fielded)
    blob = table_to_binary(t)
    back = table_from_binary(blob)
    assert back["free_vertices"] == list(t.free)
    assert np.allclose(back["probs"], t.probs)
    assert back["log_partition"] == pytest.approx(t.log_partition)
    d = table_to_json_dict(t)
    assert d["free_vertices"] == list(t.free)
    assert len(d["probs"]) == 8


@settings(max_examples=60)
@given(models())
def test_free_energies_match_array_energy(m):
    energy = _free_energies(m)
    direct = np.array([array_energy(m, r) for r in gibbs_table(m).rows().astype(np.float64)])
    assert np.abs((energy - energy[0]) - (direct - direct[0])).max() <= 1e-9


@settings(max_examples=60)
@given(models(min_pairs=1), st.data())
def test_region_energies_equal_the_induced_models(m, data):
    region = sorted(set(data.draw(st.lists(st.integers(0, m.n - 1), max_size=m.n))))
    assert np.array_equal(_free_energies(m, region), _free_energies(edge_scan_induced(m, region)))


# No explain phase: a failing enumeration takes minutes to explain.
@settings(max_examples=60, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(models(), st.data())
def test_field_rows_equal_one_model_per_row(m, data):
    region = data.draw(st.none() | st.lists(st.integers(0, m.n - 1), max_size=m.n).map(
        lambda vs: sorted(set(vs))))
    rows = data.draw(st.integers(1, 4))
    fields = np.array(data.draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=m.n,
                                                  max_size=m.n), min_size=rows, max_size=rows)))
    energies = _free_energies(m, region, fields)
    assert energies.shape[0] == rows
    for row, field in zip(energies, fields):
        assert np.array_equal(row, _free_energies(replace(m, field=field), region))


@settings(max_examples=60)
@given(models())
def test_marginals_read_the_free_columns(m):
    table = gibbs_table(m)
    rows = table.rows()
    want = np.array([table.probs @ (rows[:, v] == 1) for v in table.free])
    assert np.abs(marginals(table) - want).max() <= 1e-12


@settings(max_examples=60)
@given(models().filter(lambda m: m.pinning), st.data())
def test_pinned_only_terms_leave_the_table_bit_identical(m, data):
    pinned = np.isin(np.arange(m.n), list(m.pinning))
    ends = m.graph.endpoints
    fully_pinned = pinned[ends[:, 0]] & pinned[ends[:, 1]]
    shift = st.floats(-3.0, 3.0)
    field_shift = np.array(data.draw(st.lists(shift, min_size=m.n, max_size=m.n)))
    coupling_shift = np.array(data.draw(st.lists(shift, min_size=len(ends), max_size=len(ends))))
    shifted = replace(m, field=m.field + np.where(pinned, field_shift, 0.0),
                      couplings=m.couplings + np.where(fully_pinned, coupling_shift, 0.0))
    a, b = gibbs_table(m), gibbs_table(shifted)
    assert np.array_equal(a.probs, b.probs)
    assert a.log_partition == b.log_partition


@settings(max_examples=100)
@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=64),
       st.sampled_from([-700.0, 0.0, 700.0]), st.booleans())
def test_normalise_matches_scipy_logsumexp(energies, offset, rounded):
    energy = np.array(energies) + offset
    if rounded:  # ties at the top
        energy = np.round(energy)
    for e in (energy, np.stack([energy, energy[::-1] - 3.0])):
        probs, log_z = _normalise(e.copy())
        want = logsumexp(e, axis=-1)
        assert np.all(np.abs(log_z - want) <= 1e-12 * np.abs(want))
        assert np.abs(probs - np.exp(e - want[..., None])).max() <= 1e-15


def _dense_moments(probs, values):
    """E[x] and E[(x - m)(x - m)^T] term by term, over the rows of ``values`` (configs, k)."""
    mean = sum(p * x for p, x in zip(probs, values))
    return mean, sum(p * np.outer(x - mean, x - mean) for p, x in zip(probs, values))


@settings(max_examples=40)
@given(models(max_n=10))
def test_covariance_matches_the_dense_reference(m):
    table = gibbs_table(m)
    mean, cov = mean_and_covariance(table)
    want_mean, want_cov = _dense_moments(table.probs, table.rows()[:, list(table.free)])
    assert np.abs(mean - want_mean).max() <= 1e-12
    assert np.abs(cov - want_cov).max() <= 1e-12
    assert (np.diag(cov) >= 0).all()


def test_centred_moments_of_a_batch_in_blocks(monkeypatch):
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(16), size=5)
    values = np.vstack([rng.normal(size=16), np.ones(16), rng.integers(0, 2, 16)])
    mean, moment = _centred_moments(probs, values)
    for row, m, c in zip(probs, mean, moment):
        want_mean, want = _dense_moments(row, values.T)
        assert np.abs(m - want_mean).max() <= 1e-14 and np.abs(c - want).max() <= 1e-14
        assert m[1] == 1.0 and not c[1].any()  # a constant is its own mean, with no spread
    monkeypatch.setattr(oracle, "MOMENT_BLOCK", 1)  # one function per block of products
    kept = values.copy()
    for weights in (probs, probs[0]):
        whole = (mean, moment) if weights is probs else (mean[0], moment[0])
        blocked = _centred_moments(weights, values)
        assert np.array_equal(blocked[0], whole[0])  # the sums do not depend on the blocks
        assert np.abs(blocked[1] - whole[1]).max() <= 1e-15  # the products' order may
        assert not blocked[1][..., 1, :].any()
    assert np.array_equal(values, kept)  # the deviations go to a copy
    mean, cov = mean_and_covariance(gibbs_table(uniform_model(path_graph(2), 0.5, [0, 0])
                                                .with_pinning({0: 1, 1: -1})))
    assert mean.shape == (0,) and cov.shape == (0, 0)
