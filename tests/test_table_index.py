"""Properties of the Gibbs-table index format and the revelation posterior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfim import (
    InputError,
    exact_revealed_posterior,
    gibbs_table,
    posterior_model,
    to_zero_one,
)
from rfim.localization import align_posterior_to_base
from rfim.model import SPIN_VALUES, ZERO_ONE
from rfim.oracle import empirical_tv

from strategies import models


@settings(max_examples=60)
@given(models())
def test_rows_and_indices_invert_each_other(m):
    table = gibbs_table(m)
    every = np.arange(len(table.probs))
    rows = table.rows(every)
    assert rows.shape == (len(every), m.n) and rows.dtype == np.int8
    assert np.array_equal(table.rows(), rows)
    assert np.array_equal(table.indices(rows), every)
    for v, s in m.pinning.items():
        assert (rows[:, v] == s).all()
    assert np.isin(rows, SPIN_VALUES[m.convention]).all()
    # bit j of an index is the 'one' value at the j-th free vertex
    for j, v in enumerate(table.free):
        assert np.array_equal(rows[:, v] == 1, (every >> j) & 1 == 1)
    assert table.assignment(len(every) - 1) == dict(enumerate(rows[-1].tolist()))


@settings(max_examples=60)
@given(models().filter(lambda m: m.pinning), st.data())
def test_indices_rejects_a_pinning_conflict(m, data):
    table = gibbs_table(m)
    rows = table.rows()
    v = data.draw(st.sampled_from(sorted(m.pinning)))
    r = data.draw(st.integers(0, len(rows) - 1))
    one, zero = SPIN_VALUES[m.convention]
    rows[r, v] = zero if rows[r, v] == one else one
    with pytest.raises(InputError):
        table.indices(rows)


@settings(max_examples=60)
@given(models(), st.data())
def test_indices_and_empirical_tv_reject_non_spin_rows(m, data):
    table = gibbs_table(m)
    rows = table.rows().astype(np.float64)
    r = data.draw(st.integers(0, len(rows) - 1))
    v = data.draw(st.sampled_from(m.free_vertices))
    rows[r, v] = data.draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0]).filter(
        lambda x: x not in SPIN_VALUES[m.convention]))
    for check in (table.indices, lambda vals: empirical_tv(table, vals)):
        with pytest.raises(InputError):
            check(rows)
    with pytest.raises(InputError):
        empirical_tv(table, rows[:0])


@settings(max_examples=60)
@given(models(), st.one_of(st.just(0.0), st.floats(0.01, 0.95)), st.data())
def test_aligned_posterior_model_equals_bayes_posterior(m, t, data):
    m01 = to_zero_one(m) if m.convention != ZERO_ONE else m
    # a revealed edge needs both endpoints able to take the value 1
    allowed = [e for e, (u, v) in enumerate(m01.graph.edges)
               if m01.pinning.get(u, 1) == 1 and m01.pinning.get(v, 1) == 1]
    revealed = data.draw(st.lists(st.sampled_from(allowed), unique=True)) if allowed and t > 0 else []
    base = gibbs_table(m01)
    aligned = align_posterior_to_base(gibbs_table(posterior_model(m01, t, revealed)), base)
    assert np.abs(aligned - exact_revealed_posterior(m01, t, revealed)).max() <= 1e-12
