import numpy as np
import pytest
from hypothesis import settings

from rfim import FieldDistribution, IsingModel, complete_graph, path_graph, sample_field

# Property tests enumerate Gibbs tables and run chains, whose time varies with
# the drawn model, so no per-example deadline applies.
settings.register_profile("rfim", deadline=None)
settings.load_profile("rfim")


def uniform_model(graph, beta, field_values, convention="pm"):
    return IsingModel.uniform(graph, beta, np.asarray(field_values, dtype=float),
                              convention=convention)


def random_field_model(graph, beta, seed, half_width=1.0):
    field = sample_field(FieldDistribution.uniform_symmetric(half_width),
                         graph.num_vertices, seed)
    return IsingModel.uniform(graph, beta, field.values)


@pytest.fixture
def p2_symmetric():
    return uniform_model(path_graph(2), 1.0, [0.0, 0.0])


@pytest.fixture
def p3_symmetric():
    return uniform_model(path_graph(3), 1.0, [0.0, 0.0, 0.0])


@pytest.fixture
def k3_fielded():
    return random_field_model(complete_graph(3), 0.3, seed=17)
