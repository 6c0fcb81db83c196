"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from rfim import IsingModel, build_graph
from rfim.model import SPIN_VALUES

MAX_DEGREE = 5


@st.composite
def models(draw, ferromagnetic=False):
    """A random graph with degrees at most MAX_DEGREE, random couplings and field,
    a random convention and a random pinning that leaves a vertex free."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    degree = [0] * n
    edges = set()
    for u, v in pairs:
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and max(degree[u], degree[v]) < MAX_DEGREE:
            edges.add(e)
            degree[u] += 1
            degree[v] += 1
    g = build_graph(n, sorted(edges))
    low = 0.0 if ferromagnetic else -1.5
    couplings = draw(st.lists(st.floats(low, 1.5), min_size=g.num_edges,
                              max_size=g.num_edges))
    field = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    convention = draw(st.sampled_from(["pm", "01"]))
    one, zero = SPIN_VALUES[convention]
    pinned = draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    pinning = {v: draw(st.sampled_from([one, zero])) for v in pinned}
    return IsingModel(graph=g, couplings=np.array(couplings), field=np.array(field),
                      convention=convention, pinning=pinning)
