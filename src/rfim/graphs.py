"""Finite graphs: construction, metric balls, growth profiles, orderings, generators.

Vertices are dense 0-based indices.  Graphs are immutable after construction
and safe to share between workers; all operations here are pure functions of
their inputs.  ``_layered_bfs`` is the one breadth-first walk: ``bfs``,
distances, balls, components and growth profiles all read its visit order and
layer ends, one walk per source on demand (no all-pairs tables).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .rng import GENERATOR, ORDERING, substream

PAIRING_TRIES = 2000  # pairings random_regular_graph draws before giving up


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..num_vertices-1``."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return max(len(nbrs) for nbrs in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.num_vertices and v in self.adjacency[u]

    @cached_property
    def endpoints(self) -> np.ndarray:
        """``(E, 2)`` int64 array of ``edges``, built once per graph; read-only."""
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        ends.flags.writeable = False
        return ends


def _check_vertex(g_or_n, v: int) -> None:
    n = g_or_n.num_vertices if isinstance(g_or_n, Graph) else g_or_n
    if not (isinstance(v, (int, np.integer)) and 0 <= v < n):
        raise InputError(f"vertex {v!r} out of range [0, {n})")


def _edge_index(g: Graph, e) -> int:
    """Edge index ``e`` as an int; raises InputError unless it is an integer in [0, E)."""
    if not (isinstance(e, (int, np.integer)) and 0 <= e < g.num_edges):
        raise InputError(f"edge {e!r} out of range [0, {g.num_edges})")
    return int(e)


def build_graph(num_vertices: int, edges) -> Graph:
    """Build a simple graph, deduplicating edges and deriving adjacency.

    Raises InputError on out-of-range endpoints or self-loops.
    """
    if num_vertices < 0:
        raise InputError("num_vertices must be nonnegative")
    seen: set[tuple[int, int]] = set()
    normalized: list[tuple[int, int]] = []
    for e in edges:
        u, v = int(e[0]), int(e[1])
        _check_vertex(num_vertices, u)
        _check_vertex(num_vertices, v)
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            normalized.append(key)
    adj: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v in normalized:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(
        num_vertices=num_vertices,
        edges=tuple(normalized),
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
    )


def distances_from(g: Graph, v: int) -> np.ndarray:
    """BFS distances from ``v``, read off the layers of ``_layered_bfs``; -1 if unreachable."""
    order, ends = _layered_bfs(g, [v])
    dist = np.full(g.num_vertices, -1, dtype=np.int64)
    dist[order] = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    return dist


def graph_distance(g: Graph, u: int, v: int) -> int:
    d = distances_from(g, u)[v]
    if d < 0:
        raise InputError(f"no path between vertices {u} and {v}")
    return int(d)


def _layered_bfs(g: Graph, sources, allowed=None, depth: int | None = None):
    """``bfs``'s visit order and its layer ends: ``(order, ends)``.

    ``ends[d]`` vertices of ``order`` lie within d steps of the sources, so
    ``order[ends[d-1]:ends[d]]`` is layer d; the last entry is ``len(order)``
    and ``len(ends) - 1`` is the depth reached.
    """
    if depth is not None and not (isinstance(depth, (int, np.integer)) and depth >= 0):
        raise InputError(f"depth {depth!r} must be a nonnegative integer or None")
    order: list[int] = []
    seen: set[int] = set()
    for s in sources:
        _check_vertex(g, s)
        s = int(s)
        if s not in seen:
            seen.add(s)
            order.append(s)
    adjacency = g.adjacency
    ends: list[int] = []
    head, layer_end, level = 0, len(order), 0
    while head < len(order):
        if head == layer_end:
            ends.append(layer_end)
            level += 1
            layer_end = len(order)
        if level == depth:
            break
        for x in adjacency[order[head]]:
            if x not in seen and (allowed is None or x in allowed):
                seen.add(x)
                order.append(x)
        head += 1
    ends.append(len(order))
    return order, ends


def bfs(g: Graph, sources, allowed=None, depth: int | None = None) -> list[int]:
    """Breadth-first visit order from ``sources``.

    The sources come first, in the order given (repeats dropped), then every
    vertex reached, first in first out, neighbours in ascending index.  Past
    the sources only vertices in ``allowed`` are entered (all when None), and
    the walk stops after ``depth`` layers (never when None).  The walk is
    ``_layered_bfs``, whose layer ends this order drops.
    """
    return _layered_bfs(g, sources, allowed, depth)[0]


def ball(g: Graph, v: int, r: int) -> frozenset[int]:
    """All vertices at graph distance <= r from v (closed ball, by a BFS stopped at depth r)."""
    return frozenset(bfs(g, [v], depth=r))


def boundary(g: Graph, a) -> frozenset[int]:
    """Vertices outside ``a`` adjacent to some vertex of ``a``."""
    aset = set(int(x) for x in a)
    for v in aset:
        _check_vertex(g, v)
    out: set[int] = set()
    for v in aset:
        for w in g.adjacency[v]:
            if w not in aset:
                out.add(w)
    return frozenset(out)


def edge_ball(g: Graph, e, l: int) -> frozenset[int]:
    """Union of the closed balls of radius ``l`` around both endpoints of edge ``e``."""
    u, v = _edge_endpoints(g, e)
    return ball(g, u, l) | ball(g, v, l)


def _edge_endpoints(g: Graph, e) -> tuple[int, int]:
    """The endpoints ``(u, v)`` of edge ``e`` as ints; raises InputError unless both
    are vertices of ``g`` and ``e`` is one of its edges."""
    u, v = e[0], e[1]
    _check_vertex(g, u)
    _check_vertex(g, v)
    if not g.has_edge(u, v):
        raise InputError(f"({u}, {v}) is not an edge")
    return int(u), int(v)


def is_connected(g: Graph) -> bool:
    return g.num_vertices == 0 or len(bfs(g, [0])) == g.num_vertices


def connected_components(g: Graph) -> list[list[int]]:
    """Components as ascending vertex lists, ordered by their least vertex."""
    seen = np.zeros(g.num_vertices, dtype=bool)
    comps: list[list[int]] = []
    for v in range(g.num_vertices):
        if not seen[v]:
            comp = sorted(bfs(g, [v]))
            seen[comp] = True
            comps.append(comp)
    return comps


@dataclass(frozen=True)
class GrowthProfile:
    """Measured ball sizes against the stretched-exponential budget exp(c_alpha * r^alpha)."""

    alpha: float
    c_alpha: float
    per_radius_max_ball: tuple[tuple[int, int], ...]
    satisfied: bool


def growth_profile(g: Graph, alpha: float, c_alpha: float) -> GrowthProfile:
    """Profile max_v |B_r(v)| for r = 1..diameter and check the growth budget.

    |B_r(v)| is ``ends[r]`` of the walk from v, padded past v's eccentricity
    with its last entry, v's whole component.  Costs one BFS per vertex and
    O(n + diameter) memory: only the running maximum over vertices is kept.
    The budget is compared in logs, log |B_r| <= c_alpha r^alpha, so a large
    finite c_alpha cannot overflow it.
    """
    if not (0.0 < alpha < 1.0):
        raise InputError("alpha must lie in (0, 1)")
    if not (math.isfinite(c_alpha) and c_alpha > 0):
        raise InputError("c_alpha must be finite and positive")
    top = [0]
    for v in range(g.num_vertices):
        ends = _layered_bfs(g, [v])[1]
        top += top[-1:] * (len(ends) - len(top))
        ends += ends[-1:] * (len(top) - len(ends))
        top = list(map(max, top, ends))
    rows = tuple((r, top[r]) for r in range(1, len(top)))
    ok = all(math.log(size) <= c_alpha * r**alpha for r, size in rows)
    return GrowthProfile(alpha=alpha, c_alpha=c_alpha, per_radius_max_ball=rows, satisfied=ok)


def connected_ordering(g: Graph, seed: int, vertices=None, *path: int) -> tuple[int, ...]:
    """Order of ``vertices`` (default: all) whose every prefix induces a connected subgraph.

    Randomized BFS/DFS frontier selection, deterministic given the substream
    (seed, ORDERING, *path): the start is drawn uniformly from the sorted
    vertices and each next vertex uniformly from the sorted frontier.  Only
    edges inside ``vertices`` count, so the order is that of the induced
    subgraph relabelled in sorted order.
    """
    for v in () if vertices is None else vertices:
        _check_vertex(g, v)
    keep = range(g.num_vertices) if vertices is None else sorted({int(v) for v in vertices})
    if not keep:
        return ()
    rng = substream(seed, ORDERING, *path)
    start = keep[int(rng.integers(len(keep)))]
    inside = set(keep)
    order = [start]
    in_prefix = {start}
    frontier = inside.intersection(g.adjacency[start])
    while frontier:
        candidates = sorted(frontier)
        v = candidates[int(rng.integers(len(candidates)))]
        order.append(v)
        in_prefix.add(v)
        frontier.discard(v)
        for w in g.adjacency[v]:
            if w in inside and w not in in_prefix:
                frontier.add(w)
    if len(order) < len(keep):
        missing = min(v for v in keep if v not in in_prefix)
        raise InputError(
            f"graph is disconnected: vertex {missing} is unreachable from vertex {start}"
        )
    return tuple(order)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def torus_grid(rows: int, cols: int) -> Graph:
    """Grid with periodic wraparound in both directions; needs rows, cols >= 3."""
    if rows < 3 or cols < 3:
        raise InputError("torus grid needs rows >= 3 and cols >= 3")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return build_graph(rows * cols, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """Open (non-periodic) grid."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return build_graph(rows * cols, edges)


def random_regular_graph(n: int, degree: int, seed: int, *path: int) -> Graph:
    """Uniform-ish random ``degree``-regular simple graph via the pairing model,
    drawn from the substream (seed, GENERATOR, *path).

    Rejects pairings with self-loops or parallel edges and retries, up to
    PAIRING_TRIES times.
    """
    if degree < 0 or degree >= n:
        raise InputError("need 0 <= degree < n")
    if (n * degree) % 2 != 0:
        raise InputError("n * degree must be even")
    rng = substream(seed, GENERATOR, *path)
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(PAIRING_TRIES):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if (pairs[:, 0] == pairs[:, 1]).any():
            continue
        norm = np.sort(pairs, axis=1)
        keys = norm[:, 0] * n + norm[:, 1]
        if len(np.unique(keys)) != len(keys):
            continue
        return build_graph(n, [tuple(p) for p in norm])
    raise InputError(f"no simple {degree}-regular pairing found in {PAIRING_TRIES} tries")


def tree3(depth: int) -> Graph:
    """Tree whose internal vertices have degree 3 (root has 3 children, then 2 each)."""
    if depth < 0:
        raise InputError("depth must be nonnegative")
    edges = []
    next_id = 1
    frontier = [0]
    for level in range(depth):
        new_frontier = []
        for v in frontier:
            kids = 3 if level == 0 else 2
            for _ in range(kids):
                edges.append((v, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return build_graph(next_id if edges else 1, edges)


# ---------------------------------------------------------------------------
# I/O: edge-list text ("n m" then one "u v" line per edge) and JSON
# ---------------------------------------------------------------------------

def graph_to_edgelist_text(g: Graph) -> str:
    lines = [f"{g.num_vertices} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_from_edgelist_text(text: str) -> Graph:
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise InputError("edge-list text must start with a 'n m' header line")
    n, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 != m:
        raise InputError(f"header promises {m} edges but {len(rows) - 1} lines follow")
    return build_graph(n, [(int(r[0]), int(r[1])) for r in rows[1:]])


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.num_vertices, "edges": [[u, v] for u, v in g.edges]}


def graph_from_json_dict(d: dict) -> Graph:
    try:
        return build_graph(int(d["n"]), d["edges"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad graph JSON: {exc}") from exc


def graph_from_json_text(text: str) -> Graph:
    return graph_from_json_dict(json.loads(text))
