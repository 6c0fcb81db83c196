"""Ising models with quenched random fields: conventions, pinnings, tilts.

The measure is mu(sigma) proportional to exp(H(sigma)) with
H(sigma) = sum_e c_e * sigma_u sigma_v + sum_u h_u sigma_u, either over
sigma in {-1,+1}^V (convention "pm") or {0,1}^V (convention "01").  Pinning
lives in the model, not in configurations: a conditional measure is just the
same model with a larger pinning (``with_pinning``).  The grand coupling, the
revelation posterior ``edge_tilt(m, t).with_pinning(p)`` and the WSM boundary
ring all condition this way.  ``_check_spins`` is the one test of the spin
value set: ``SpinConfiguration`` calls it, and so does
``IsingModel.check_values``, which every chain start and table lookup goes
through and which also checks the length and the pins.  A start that breaks
them is rejected, never repaired.  Models and fields are immutable value
objects; field sampling takes an explicit seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property

import numpy as np
from scipy import special

from .errors import InputError
from .graphs import Graph, build_graph, graph_from_json_dict, graph_to_json_dict
from .rng import FIELD, substream

PM = "pm"
ZERO_ONE = "01"

# The ('one', 'zero') spin values of each convention.
SPIN_VALUES = {PM: (1, -1), ZERO_ONE: (1, 0)}


def _check_spins(values: np.ndarray, convention: str) -> None:
    """Raise InputError unless every entry of ``values`` is a spin of ``convention``."""
    if convention not in SPIN_VALUES:
        raise InputError(f"unknown convention {convention!r}")
    one, zero = SPIN_VALUES[convention]
    if not ((values == one) | (values == zero)).all():
        raise InputError(f"{convention} spin values must be {one} or {zero}")


class SpinConfiguration:
    """A spin vector in a fixed convention, held as one read-only int8 array."""

    __slots__ = ("_values", "convention")

    def __init__(self, values, convention: str):
        vals = np.asarray(values)
        _check_spins(vals, convention)
        self._values = vals.astype(np.int8)
        self._values.flags.writeable = False
        self.convention = convention

    @property
    def n(self) -> int:
        return len(self._values)

    def values(self) -> np.ndarray:
        return self._values.copy()

    def to_convention(self, convention: str) -> "SpinConfiguration":
        if convention == self.convention:
            return self
        is_one = self._values == SPIN_VALUES[self.convention][0]
        return SpinConfiguration(np.where(is_one, *SPIN_VALUES[convention]), convention)

    def __eq__(self, other):
        return (
            isinstance(other, SpinConfiguration)
            and self.convention == other.convention
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self):
        return hash((self.convention, self._values.tobytes()))

    def __repr__(self):
        return f"SpinConfiguration({self._values.tolist()}, {self.convention!r})"


# ---------------------------------------------------------------------------
# Quenched field distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDistribution:
    """One of: gaussian(sigma), uniform_symmetric(M), two_point(a), shifted(base, offsets)."""

    kind: str
    sigma: float = 0.0
    half_width: float = 0.0
    atom: float = 0.0
    base: "FieldDistribution | None" = None
    offsets: tuple[float, ...] = ()

    @classmethod
    def gaussian(cls, sigma: float) -> "FieldDistribution":
        if sigma <= 0:
            raise InputError("gaussian sigma must be positive")
        return cls(kind="gaussian", sigma=float(sigma))

    @classmethod
    def uniform_symmetric(cls, m: float) -> "FieldDistribution":
        if m <= 0:
            raise InputError("uniform half-width must be positive")
        return cls(kind="uniform_symmetric", half_width=float(m))

    @classmethod
    def two_point(cls, a: float) -> "FieldDistribution":
        if a < 0:
            raise InputError("two_point atom must be nonnegative")
        return cls(kind="two_point", atom=float(a))

    @classmethod
    def shifted(cls, base: "FieldDistribution", offsets) -> "FieldDistribution":
        if base.kind == "shifted":
            raise InputError("shifted base must be a simple distribution")
        return cls(kind="shifted", base=base, offsets=tuple(float(x) for x in offsets))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, size=n)
        if self.kind == "uniform_symmetric":
            return rng.uniform(-self.half_width, self.half_width, size=n)
        if self.kind == "two_point":
            signs = rng.integers(0, 2, size=n) * 2 - 1
            return signs * self.atom
        if self.kind == "shifted":
            if len(self.offsets) != n:
                raise InputError("shifted offsets length must equal n")
            return self.base.sample(n, rng) + np.asarray(self.offsets)
        raise InputError(f"unknown field kind {self.kind!r}")

    def mass_within(self, k: float) -> float:
        """P(|h| <= k); for the shifted kind, the worst (largest) per-vertex mass."""
        if k < 0:
            raise InputError("threshold must be nonnegative")
        if self.kind == "shifted":
            return max(self.base._mass_shifted(k, c) for c in self.offsets)
        return self._mass_shifted(k, 0.0)

    def _mass_shifted(self, k: float, c: float) -> float:
        # P(|X + c| <= k) for X from this simple kind.
        lo, hi = -k - c, k - c
        if self.kind == "gaussian":
            return float(special.ndtr(hi / self.sigma) - special.ndtr(lo / self.sigma))
        if self.kind == "uniform_symmetric":
            m = self.half_width
            return float(max(0.0, min(hi, m) - max(lo, -m)) / (2 * m))
        if self.kind == "two_point":
            return 0.5 * (float(lo <= self.atom <= hi) + float(lo <= -self.atom <= hi))
        raise InputError(f"unsupported field kind {self.kind!r}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "FieldDistribution":
        kind = d.get("kind")
        if kind == "gaussian":
            return cls.gaussian(d["sigma"])
        if kind == "uniform_symmetric":
            return cls.uniform_symmetric(d["half_width"])
        if kind == "two_point":
            return cls.two_point(d["atom"])
        if kind == "shifted":
            return cls.shifted(cls.from_json_dict(d["base"]), d["offsets"])
        raise InputError(f"unknown field kind {kind!r}")


@dataclass(frozen=True)
class QuenchedField:
    """A fixed realization of the random external field."""

    values: np.ndarray
    distribution_spec: FieldDistribution
    seed: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if not np.isfinite(vals).all():
            raise InputError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def sample_field(dist: FieldDistribution, n: int, seed: int) -> QuenchedField:
    """n i.i.d. draws from ``dist``, reproducible per seed."""
    if n < 0:
        raise InputError("n must be nonnegative")
    rng = substream(seed, FIELD)
    return QuenchedField(values=dist.sample(n, rng), distribution_spec=dist, seed=int(seed))


# ---------------------------------------------------------------------------
# The Ising model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsingModel:
    """Graph + per-edge couplings + per-vertex field + convention + pinning.

    ``pinning`` maps vertex -> spin value in the model's convention.  Treat
    instances (including the pinning dict) as immutable.
    """

    graph: Graph
    couplings: np.ndarray
    field: np.ndarray
    convention: str = PM
    pinning: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        _check_spins(np.array(list(self.pinning.values())), self.convention)
        pin = {int(v): int(s) for v, s in self.pinning.items()}
        c = np.asarray(self.couplings, dtype=np.float64)
        h = np.asarray(self.field, dtype=np.float64)
        if c.shape != (self.graph.num_edges,):
            raise InputError("couplings must align with graph.edges")
        if h.shape != (self.graph.num_vertices,):
            raise InputError("field must have one entry per vertex")
        if not (np.isfinite(c).all() and np.isfinite(h).all()):
            raise InputError("couplings and field must be finite")
        c.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "couplings", c)
        object.__setattr__(self, "field", h)
        for v in pin:
            if not 0 <= v < self.graph.num_vertices:
                raise InputError(f"pinned vertex {v} out of range")
        object.__setattr__(self, "pinning", pin)

    @classmethod
    def uniform(cls, graph: Graph, beta: float, field, convention: str = PM) -> "IsingModel":
        return cls(graph=graph, couplings=np.full(graph.num_edges, float(beta)),
                   field=np.asarray(field, dtype=np.float64), convention=convention)

    @property
    def n(self) -> int:
        return self.graph.num_vertices

    @property
    def ferromagnetic(self) -> bool:
        return bool((self.couplings >= 0).all())

    @cached_property
    def neighbour_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(n, max_degree)`` neighbour indices and couplings, built once per model.

        Row v holds v's neighbours in ascending order and the couplings of the
        joining edges.  A row shorter than the maximal degree is padded with
        slots naming v itself with coupling 0, which add nothing to a local field.
        """
        n = self.n
        ends = self.graph.endpoints
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        arcs = np.lexsort((dst, src))  # grouped by source, neighbours ascending
        src, dst = src[arcs], dst[arcs]
        degree = np.bincount(src, minlength=n)
        width = int(degree.max(initial=0))
        slot = np.arange(len(src)) - np.repeat(np.cumsum(degree) - degree, degree)
        nbr = np.repeat(np.arange(n, dtype=np.int64), width).reshape(n, width)
        nbr[src, slot] = dst
        cpl = np.zeros((n, width))
        cpl[src, slot] = np.tile(self.couplings, 2)[arcs]
        nbr.flags.writeable = cpl.flags.writeable = False
        return nbr, cpl

    @cached_property
    def free_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if v not in self.pinning)

    def with_pinning(self, extra: dict) -> "IsingModel":
        merged = dict(self.pinning)
        for v, s in extra.items():
            v = int(v)
            if v in merged and merged[v] != s:
                raise InputError(f"conflicting pinning at vertex {v}")
            merged[v] = s
        return replace(self, pinning=merged)

    def check_values(self, values) -> np.ndarray:
        """``values`` as an array, checked to hold n spins of the model's convention
        along its last axis and the pinned value at every pinned vertex; raises
        InputError otherwise."""
        vals = np.asarray(values)
        if vals.ndim == 0 or vals.shape[-1] != self.n:
            raise InputError(f"values must have {self.n} entries along their last axis")
        _check_spins(vals, self.convention)
        for v, s in self.pinning.items():
            if (vals[..., v] != s).any():
                raise InputError(f"value at vertex {v} conflicts with pinning")
        return vals

    def full_values(self, free_values: np.ndarray | float) -> np.ndarray:
        """Assemble a full spin vector from values on the free vertices (a scalar fills them all)."""
        out = np.zeros(self.n, dtype=np.float64)
        out[list(self.free_vertices)] = free_values
        out[list(self.pinning)] = list(self.pinning.values())
        return out


def _config_values(model: IsingModel, config: SpinConfiguration) -> np.ndarray:
    """The spin vector of ``config``: its convention is checked first, then ``check_values``."""
    if config.convention != model.convention:
        raise InputError(f"convention {config.convention!r} != model {model.convention!r}")
    return model.check_values(config.values())


def hamiltonian(model: IsingModel, sigma: SpinConfiguration) -> float:
    """Energy sum_e c_e sigma_u sigma_v + sum_u h_u sigma_u in the model's convention."""
    return array_energy(model, _config_values(model, sigma).astype(np.float64))


def array_energy(model: IsingModel, values: np.ndarray) -> float:
    """H of a full float spin vector, unchecked: the field term, then each edge
    term in edge order, summed left to right."""
    ends = model.graph.endpoints
    terms = model.couplings * values[ends[:, 0]] * values[ends[:, 1]]
    return float(np.add.accumulate(np.concatenate(([model.field @ values], terms)))[-1])


def to_zero_one(model: IsingModel) -> IsingModel:
    """Re-coordinate a +-1 model onto {0,1}^V with the same Gibbs measure.

    Couplings quadruple and the field at u becomes 2 h_u - 2 sum_{v~u} c_uv;
    the shift is deterministic per vertex, so independence of the quenched
    field survives.  Pinned values map through s -> (s+1)/2.
    """
    if model.convention != PM:
        raise InputError("to_zero_one expects a pm-convention model")
    coupling_sum = np.zeros(model.n)
    for (u, v), c in zip(model.graph.edges, model.couplings):
        coupling_sum[u] += c
        coupling_sum[v] += c
    return IsingModel(
        graph=model.graph,
        couplings=4.0 * model.couplings,
        field=2.0 * model.field - 2.0 * coupling_sum,
        convention=ZERO_ONE,
        pinning={v: (s + 1) // 2 for v, s in model.pinning.items()},
    )


def theta_star(beta: float) -> float:
    """Terminal tilt 1 - exp(-4 beta) of a pm model at inverse temperature beta:
    the free-edge couplings 4 beta of its 01 re-coordination vanish there."""
    return 1.0 - math.exp(-4.0 * float(beta))


def edge_tilt(model01: IsingModel, theta: float) -> IsingModel:
    """Tilt every edge coupling by ln(1-theta); pinning and fields are kept.

    On edges with both endpoints free this turns c_e into c_e + ln(1-theta);
    once an endpoint is pinned to 1 (``edge_tilt(m, theta).with_pinning(p)``)
    the same term acts as a field shift on the free endpoint, which is exactly
    what the revelation posterior mu(sigma) (1-theta)^{#(1,1)-edges} demands.
    """
    if model01.convention != ZERO_ONE:
        raise InputError("edge_tilt expects a 01-convention model")
    if not 0.0 <= theta < 1.0:
        raise InputError("theta must lie in [0, 1)")
    return replace(model01, couplings=model01.couplings + math.log1p(-theta))


# ---------------------------------------------------------------------------
# Anti-concentration parameter algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionParams:
    """Derived anti-concentration constants for a (p0, K, beta, max-degree) choice."""

    p0: float
    k: float
    beta: float
    delta: int
    rho: float
    xi_star: float
    alpha_star: float
    gamma_star: float
    valid: bool


def xi_star_value(p0: float, delta: int) -> float:
    """log[(D-2)^(D-2) / (p0 (D-1)^(D-1) (1-p0)^(D-2))] for D = delta >= 3."""
    d = delta
    return (
        (d - 2) * math.log(d - 2)
        - math.log(p0)
        - (d - 1) * math.log(d - 1)
        - (d - 2) * math.log(1 - p0)
    )


def alpha_star_value(p0: float, delta: int) -> float:
    """alpha* = xi* / 2."""
    return 0.5 * xi_star_value(p0, delta)


def exp_gamma_star(p0: float, delta: int) -> float:
    """e^{gamma*} = (1-p0) / (p0 (D-2))."""
    return (1 - p0) / (p0 * (delta - 2))


def gamma_star_value(p0: float, delta: int) -> float:
    """gamma* = log[(1-p0) / (p0 (D-2))]."""
    return math.log(exp_gamma_star(p0, delta))


def assumption_params(p0: float, k: float, beta: float, delta: int) -> AssumptionParams:
    """Compute rho, xi*, alpha*, gamma* and the validity flag."""
    if delta < 3:
        raise InputError("max degree must be >= 3")
    if not (0.0 < p0 < 1.0):
        raise InputError("p0 must lie in (0, 1)")
    if beta <= 0 or k <= 0:
        raise InputError("beta and K must be positive")
    rho = float(special.expit(2.0 * (delta * beta - k)))
    valid = (p0 * (delta - 1) < 1.0) and (rho < p0 / 4.0)
    return AssumptionParams(
        p0=float(p0), k=float(k), beta=float(beta), delta=int(delta), rho=rho,
        xi_star=xi_star_value(p0, delta), alpha_star=alpha_star_value(p0, delta),
        gamma_star=gamma_star_value(p0, delta), valid=valid,
    )


def check_field_assumption(dist: FieldDistribution, p0: float, k: float) -> tuple[bool, float]:
    """Closed-form P(|h| <= K) compared against p0/2."""
    if not (0.0 < p0 < 1.0):
        raise InputError("p0 must lie in (0, 1)")
    mass = dist.mass_within(k)
    return mass < p0 / 2.0, mass


# ---------------------------------------------------------------------------
# Submodels and JSON
# ---------------------------------------------------------------------------

def induced_model(model: IsingModel, vertices) -> IsingModel:
    """Model induced on a vertex subset, relabeled to 0..k-1 (sorted order).

    Keeps couplings/field/pinning of the retained vertices; edges leaving the
    subset are dropped, and the kept edges stay in the parent's edge order.
    Reads the kept vertices' ``neighbour_table`` rows, so it costs
    O(k * max degree) however large the parent.
    """
    keep = sorted(int(v) for v in set(vertices))
    for v in keep:
        if not 0 <= v < model.n:
            raise InputError(f"vertex {v} out of range")
    relabel = {v: i for i, v in enumerate(keep)}
    position = model.graph.edge_index()
    nbr, cpl = model.neighbour_table
    found = []
    for v, row, crow in zip(keep, nbr[keep].tolist(), cpl[keep].tolist()):
        for w, c in zip(row, crow):
            if w > v and w in relabel:  # each edge once; padding slots name v itself
                found.append((position[v, w], relabel[v], relabel[w], c))
    found.sort()
    return IsingModel(
        graph=build_graph(len(keep), [(u, w) for _, u, w, _ in found]),
        couplings=np.array([c for *_, c in found], dtype=np.float64),
        field=model.field[keep],
        convention=model.convention,
        pinning={i: model.pinning[v] for i, v in enumerate(keep) if v in model.pinning},
    )


def model_to_json_dict(model: IsingModel) -> dict:
    d = {
        "graph": graph_to_json_dict(model.graph),
        "field": model.field.tolist(),
        "convention": model.convention,
        "pinning": {str(v): s for v, s in sorted(model.pinning.items())},
    }
    c = model.couplings
    if len(c) > 0 and np.all(c == c[0]):
        d["beta"] = float(c[0])
    else:
        d["edge_couplings"] = c.tolist()
    return d


def model_from_json_dict(d: dict) -> IsingModel:
    try:
        graph = graph_from_json_dict(d["graph"])
        if "edge_couplings" in d:
            couplings = np.asarray(d["edge_couplings"], dtype=np.float64)
        else:
            couplings = np.full(graph.num_edges, float(d.get("beta", 0.0)))
        return IsingModel(
            graph=graph,
            couplings=couplings,
            field=np.asarray(d["field"], dtype=np.float64),
            convention=d.get("convention", PM),
            pinning={int(v): int(s) for v, s in d.get("pinning", {}).items()},
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad model JSON: {exc}") from exc


def model_from_json_text(text: str) -> IsingModel:
    return model_from_json_dict(json.loads(text))
