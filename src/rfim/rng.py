"""Reproducible randomness built on the counter-based Philox generator.

Every random quantity in the package is drawn from a substream addressed by
``(seed, domain tag, index...)``.  Substreams with distinct addresses are
independent, and the k-th draw within a substream is a fixed function of the
address, so coupled chains can replay the identical uniform at a given
revelation position by simply sharing the drawn array.  Results are
bit-reproducible across runs and platforms.  No seed is derived from another
by arithmetic: a caller that needs several streams extends the address.

The addresses, by caller (``path`` is a caller's optional trailing path):

=================================  ==========================================
caller                             address
=================================  ==========================================
``sample_field``                   (seed, FIELD, *path)
``random_regular_graph``           (seed, GENERATOR, *path)
``connected_ordering``             (seed, ORDERING, *path)
``run_chain``                      (seed, CHAIN, chain_index)
``sl_boost``, Glauber chain        (seed, CHAIN, SL, index)
``sample_noising_trace``, chain    (seed, CHAIN, TRACE, trace_index)
``run_chains_batch``               (seed, COUPLING, *stream_path)
coupled run, batch, grand update   (seed, COUPLING)
``sl_boost``, sigma* and noise     (seed, SL, index)
``weak_poincare_probe``            (seed, SL)
``trace_moment_probe``, time i     (seed, SL, PROBE, i)
``estimate_wsm``, trial t field    (seed, FIELD, SL, t)
``sample_noising_trace``           (seed, TRACE, trace_index)
posterior check's traces           (seed, TRACE)
``percolate``                      (seed, PERCOLATION)
progeny, disagreement uniforms     (seed, PERCOLATION, 1), (seed, PERCOLATION, 2)
tail report, trial t               pinnings (seed, PERCOLATION, 3, t),
                                   field (seed, FIELD, PERCOLATION, t)
staged sampler, component c        (seed, SAMPLER, c); ordering
                                   (ordering_seed, ORDERING), plus (c,) if c > 0
pipeline step i, model j           graph (seed, GENERATOR, PIPELINE, i, j),
                                   field (seed, FIELD, PIPELINE, i, j)
pipeline sample step i             sampler and ordering seeds drawn at
                                   (seed, PIPELINE, i)
MLSI restarts, probe vectors       (seed, PROBE), (0, PROBE, size)
=================================  ==========================================

Every Glauber kernel reads its updates in one block layout
(``dynamics._draws``): a run of ``steps`` updates of R replicas, R = 1 for
a scalar chain and for the coupled pair, is drawn in blocks of
b = max(1, ``DRAW_BLOCK`` // R) steps, the last block shorter, each block
drawing one (b, R) array of doubles, each of which is split into its
update's vertex index and uniform.  With
``DRAW_BLOCK`` = 2^13 a scalar chain draws 8,192 updates at a time and
the staged sampler at R = 64 a stage's k* updates at once.
"""

from __future__ import annotations

import numpy as np

# Domain tags.  Keep these stable: they are part of the reproducibility
# contract (same (seed, tag, index...) -> same stream forever).
FIELD = 1
CHAIN = 2
COUPLING = 3
TRACE = 4
PERCOLATION = 5
SL = 6
SAMPLER = 7
ORDERING = 8
GENERATOR = 9
PROBE = 10
PIPELINE = 11


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator at the fixed address ``(seed, *path)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
