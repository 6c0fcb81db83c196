import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfim import (
    FieldDistribution,
    InputError,
    IsingModel,
    SpinConfiguration,
    assumption_params,
    build_graph,
    check_field_assumption,
    complete_graph,
    edge_tilt,
    gibbs_table,
    hamiltonian,
    induced_model,
    path_graph,
    sample_field,
    theta_star,
    to_zero_one,
)
from rfim.model import model_from_json_dict, model_to_json_dict

from conftest import random_field_model, uniform_model
from strategies import models


def test_sample_field_degenerate_two_point():
    field = sample_field(FieldDistribution.two_point(0.0), 5, seed=1)
    assert np.all(field.values == 0.0)


def test_sample_field_uniform_clt():
    n = 10_000
    field = sample_field(FieldDistribution.uniform_symmetric(2.0), n, seed=4)
    tol = 3.0 * (2.0 / math.sqrt(3.0)) / math.sqrt(n)
    assert abs(field.values.mean()) < tol


def test_sample_field_deterministic():
    a = sample_field(FieldDistribution.gaussian(1.0), 50, seed=9)
    b = sample_field(FieldDistribution.gaussian(1.0), 50, seed=9)
    assert np.array_equal(a.values, b.values)
    c = sample_field(FieldDistribution.gaussian(1.0), 50, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_hamiltonian_single_edge():
    m = uniform_model(path_graph(2), 1.0, [0, 0])
    assert hamiltonian(m, SpinConfiguration([1, 1], "pm")) == pytest.approx(1.0)


def test_hamiltonian_hand_value():
    m = uniform_model(path_graph(2), 1.0, [0.5, -0.5])
    assert hamiltonian(m, SpinConfiguration([1, -1], "pm")) == pytest.approx(0.0)


def test_hamiltonian_no_edges():
    m = uniform_model(build_graph(3, []), 0.7, [0.1, -0.2, 0.3])
    sigma = SpinConfiguration([1, -1, 1], "pm")
    assert hamiltonian(m, sigma) == pytest.approx(0.1 + 0.2 + 0.3)


def test_hamiltonian_convention_mismatch():
    m = uniform_model(path_graph(2), 1.0, [0, 0])
    with pytest.raises(InputError):
        hamiltonian(m, SpinConfiguration([1, 0], "01"))


def test_to_zero_one_examples():
    m = to_zero_one(uniform_model(path_graph(2), 1.0, [0, 0]))
    assert np.allclose(m.couplings, [4.0])
    assert np.allclose(m.field, [-2.0, -2.0])

    iso = to_zero_one(uniform_model(build_graph(1, []), 0.3, [0.8]))
    assert np.allclose(iso.field, [1.6])

    m2 = to_zero_one(uniform_model(path_graph(2), 1.0, [0.5, -0.5]))
    assert np.allclose(m2.couplings, [4.0])
    assert np.allclose(m2.field, [-1.0, -3.0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_to_zero_one_preserves_gibbs_measure(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    g = path_graph(n) if seed % 2 else complete_graph(n)
    m = IsingModel(graph=g, couplings=rng.uniform(-0.6, 0.9, g.num_edges),
                   field=rng.normal(0, 1, n))
    t_pm = gibbs_table(m)
    t_01 = gibbs_table(to_zero_one(m))
    d_pm = t_pm.as_full_dict()
    d_01 = t_01.as_full_dict()
    for spins, p in d_pm.items():
        mapped = tuple((s + 1) // 2 for s in spins)
        assert d_01[mapped] == pytest.approx(p, abs=1e-12)


def test_to_zero_one_maps_pinning():
    m = uniform_model(path_graph(3), 0.5, [0, 0, 0]).with_pinning({0: -1, 2: 1})
    m01 = to_zero_one(m)
    assert m01.pinning == {0: 0, 2: 1}


def test_edge_tilt_identity_at_zero():
    m01 = to_zero_one(uniform_model(path_graph(3), 0.5, [0.1, 0.2, 0.3]))
    tilted = edge_tilt(m01, 0.0)
    assert np.allclose(tilted.couplings, m01.couplings)
    assert np.allclose(tilted.field, m01.field)


def test_edge_tilt_terminal_kills_couplings():
    beta = 0.5
    m01 = to_zero_one(uniform_model(path_graph(3), beta, [0, 0, 0]))
    ts = theta_star(beta)
    assert ts == pytest.approx(1.0 - math.exp(-2.0))
    tilted = edge_tilt(m01, ts)
    assert np.allclose(tilted.couplings, 0.0, atol=1e-12)


def test_edge_tilt_half_value():
    m01 = to_zero_one(uniform_model(path_graph(2), 0.5, [0, 0]))
    tilted = edge_tilt(m01, 0.5)
    assert tilted.couplings[0] == pytest.approx(2.0 + math.log(0.5))
    assert tilted.couplings[0] == pytest.approx(1.3068528, abs=1e-6)


def test_edge_tilt_rejects_theta_one():
    m01 = to_zero_one(uniform_model(path_graph(2), 0.5, [0, 0]))
    with pytest.raises(InputError):
        edge_tilt(m01, 1.0)


def test_assumption_params_rho_half_invalid():
    p = assumption_params(0.3, k=1.5, beta=0.5, delta=3)  # K = delta * beta
    assert p.rho == pytest.approx(0.5)
    assert not p.valid


def test_assumption_params_closed_form():
    p = assumption_params(0.05, k=4.0, beta=0.5, delta=3)
    assert p.xi_star == pytest.approx(math.log(1.0 / (4 * 0.05 * 0.95)), abs=1e-9)
    assert p.xi_star == pytest.approx(1.6607, abs=1e-4)
    assert p.alpha_star == pytest.approx(0.8304, abs=1e-4)
    assert p.valid


def test_assumption_params_subcritical_clause():
    p = assumption_params(0.4, k=4.0, beta=0.5, delta=3)
    assert 0.4 * 2 < 1.0
    assert p.alpha_star > 0


def test_assumption_params_rejects_low_degree():
    with pytest.raises(InputError):
        assumption_params(0.1, k=1.0, beta=0.5, delta=2)


def test_alpha_star_increases_as_p0_decreases():
    values = [assumption_params(p0, 4.0, 0.5, 3).alpha_star
              for p0 in (0.4, 0.2, 0.1, 0.05, 0.01, 0.001)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_check_field_assumption_examples():
    ok, mass = check_field_assumption(FieldDistribution.two_point(5.0), p0=0.1, k=1.0)
    assert ok and mass == 0.0
    ok, mass = check_field_assumption(FieldDistribution.uniform_symmetric(10.0), p0=0.5, k=1.0)
    assert ok and mass == pytest.approx(0.1)
    ok, mass = check_field_assumption(FieldDistribution.gaussian(1.0), p0=0.1, k=1.0)
    assert not ok
    assert mass == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), abs=1e-12)


def test_shifted_field_kind():
    base = FieldDistribution.two_point(2.0)
    dist = FieldDistribution.shifted(base, [0.0, 1.0, -3.0])
    field = sample_field(dist, 3, seed=5)
    assert set(np.round(field.values - [0.0, 1.0, -3.0], 12)) <= {2.0, -2.0}
    # worst-case per-vertex mass: |+-2 - 3| <= 1 holds for the +2 atom
    assert dist.mass_within(1.0) == pytest.approx(0.5)


def test_spin_configuration_roundtrip():
    cfg = SpinConfiguration([1, -1, 1, 1, -1], "pm")
    assert cfg.values().tolist() == [1, -1, 1, 1, -1]
    as01 = cfg.to_convention("01")
    assert as01.values().tolist() == [1, 0, 1, 1, 0]
    assert as01.to_convention("pm") == cfg
    with pytest.raises(InputError):
        SpinConfiguration([2, 0], "pm")


def test_pinned_values_are_checked_not_truncated():
    m01 = to_zero_one(random_field_model(path_graph(3), 0.5, seed=3))
    for bad in (lambda: m01.with_pinning({0: 0.5}),
                lambda: replace(m01, pinning={1: 0.5}),
                lambda: random_field_model(path_graph(3), 0.5, seed=3).with_pinning({2: 0})):
        with pytest.raises(InputError):
            bad()


@settings(max_examples=50)
@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40))
def test_spin_configuration_pack_unpack(values):
    cfg = SpinConfiguration(values, "pm")
    assert cfg.values().tolist() == values


def test_induced_model_relabels():
    m = random_field_model(path_graph(5), 0.5, seed=3)
    sub = induced_model(m.with_pinning({3: 1}), [1, 2, 3])
    assert sub.n == 3
    assert sub.graph.edges == ((0, 1), (1, 2))
    assert sub.pinning == {2: 1}
    assert np.allclose(sub.field, m.field[1:4])


def _edge_scan_induced(model, vertices):
    """The induced model by a scan over every parent edge: the reference for ``induced_model``."""
    keep = sorted(int(v) for v in set(vertices))
    relabel = {v: i for i, v in enumerate(keep)}
    edges, couplings = [], []
    for (u, v), c in zip(model.graph.edges, model.couplings):
        if u in relabel and v in relabel:
            edges.append((relabel[u], relabel[v]))
            couplings.append(c)
    return IsingModel(graph=build_graph(len(keep), edges),
                      couplings=np.asarray(couplings, dtype=np.float64),
                      field=model.field[keep], convention=model.convention,
                      pinning={relabel[v]: s for v, s in model.pinning.items() if v in relabel})


@settings(max_examples=60)
@given(models(), st.data())
def test_induced_model_equals_the_edge_scan(m, data):
    vertices = data.draw(st.lists(st.integers(0, m.n - 1), max_size=m.n))
    got, want = induced_model(m, vertices), _edge_scan_induced(m, vertices)
    assert got.graph == want.graph
    assert np.array_equal(got.couplings, want.couplings)
    assert np.array_equal(got.field, want.field)
    assert got.pinning == want.pinning and got.convention == want.convention


def test_model_json_roundtrip():
    m = random_field_model(complete_graph(3), 0.4, seed=8).with_pinning({1: -1})
    again = model_from_json_dict(model_to_json_dict(m))
    assert again.graph.edges == m.graph.edges
    assert np.allclose(again.couplings, m.couplings)
    assert np.allclose(again.field, m.field)
    assert again.pinning == m.pinning
    assert again.convention == m.convention


def test_pinning_conflicts_rejected():
    m = uniform_model(path_graph(2), 0.5, [0, 0]).with_pinning({0: 1})
    with pytest.raises(InputError):
        m.with_pinning({0: -1})
