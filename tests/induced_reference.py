"""Induced models by a scan over every parent edge, kept out of the library.

``rfim`` never builds an induced model: ``oracle._free_energies`` enumerates
a region of the parent model in place, and the staged sampler updates each
prefix inside the parent's state matrix.  The routine here builds the model
induced on a vertex subset explicitly, so tests can check those in-place
routes, and orderings of a component, against a separate model.
"""

from __future__ import annotations

import numpy as np

from rfim.graphs import build_graph
from rfim.model import IsingModel


def edge_scan_induced(model: IsingModel, vertices) -> IsingModel:
    """Model induced on ``vertices``, relabeled to 0..k-1 in ascending order.

    Keeps the field and pins of the kept vertices and every parent edge with
    both ends kept, in the parent's edge order.
    """
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
