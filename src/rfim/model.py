"""Ising models with quenched random fields: conventions, pinnings, tilts.

The measure is mu(sigma) proportional to exp(H(sigma)) with
H(sigma) = sum_e c_e * sigma_u sigma_v + sum_u h_u sigma_u, either over
sigma in {-1,+1}^V (convention "pm") or {0,1}^V (convention "01").  Pinning
lives in the model, not in configurations: a conditional measure is just the
same model with a larger pinning.  Models and fields are immutable value
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


class SpinConfiguration:
    """Bit-packed assignment of spins to vertices in a fixed convention."""

    __slots__ = ("_bits", "n", "convention")

    def __init__(self, values, convention: str):
        if convention not in (PM, ZERO_ONE):
            raise InputError(f"unknown convention {convention!r}")
        vals = np.asarray(values)
        if convention == PM:
            if not np.isin(vals, (-1, 1)).all():
                raise InputError("pm configurations must be +-1 valued")
            bits = (vals > 0).astype(np.uint8)
        else:
            if not np.isin(vals, (0, 1)).all():
                raise InputError("01 configurations must be 0/1 valued")
            bits = vals.astype(np.uint8)
        self.n = int(len(bits))
        self.convention = convention
        self._bits = np.packbits(bits)
        self._bits.flags.writeable = False

    def values(self) -> np.ndarray:
        bits = np.unpackbits(self._bits, count=self.n).astype(np.int8)
        if self.convention == PM:
            return (2 * bits - 1).astype(np.int8)
        return bits

    def to_convention(self, convention: str) -> "SpinConfiguration":
        if convention == self.convention:
            return self
        bits = np.unpackbits(self._bits, count=self.n)
        if convention == PM:
            return SpinConfiguration(2 * bits.astype(np.int8) - 1, PM)
        return SpinConfiguration(bits, ZERO_ONE)

    @classmethod
    def constant(cls, n: int, value: int, convention: str) -> "SpinConfiguration":
        return cls(np.full(n, value, dtype=np.int8), convention)

    def __eq__(self, other):
        return (
            isinstance(other, SpinConfiguration)
            and self.n == other.n
            and self.convention == other.convention
            and np.array_equal(self._bits, other._bits)
        )

    def __hash__(self):
        return hash((self.n, self.convention, self._bits.tobytes()))

    def __repr__(self):
        return f"SpinConfiguration({self.values().tolist()}, {self.convention!r})"


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
            return max(self._mass_shifted(k, c) for c in self.offsets)
        return self._mass_shifted(k, 0.0)

    def _mass_shifted(self, k: float, c: float) -> float:
        # P(|X + c| <= k) for X from the base kind.
        lo, hi = -k - c, k - c
        if self.kind == "gaussian" or (self.kind == "shifted" and self.base.kind == "gaussian"):
            sigma = self.sigma if self.kind == "gaussian" else self.base.sigma
            return float(special.ndtr(hi / sigma) - special.ndtr(lo / sigma))
        if self.kind == "uniform_symmetric" or (
            self.kind == "shifted" and self.base.kind == "uniform_symmetric"
        ):
            m = self.half_width if self.kind == "uniform_symmetric" else self.base.half_width
            overlap = min(hi, m) - max(lo, -m)
            return float(max(0.0, overlap) / (2 * m))
        if self.kind == "two_point" or (self.kind == "shifted" and self.base.kind == "two_point"):
            a = self.atom if self.kind == "two_point" else self.base.atom
            return 0.5 * (float(lo <= a <= hi) + float(lo <= -a <= hi))
        raise InputError(f"unsupported field kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "gaussian":
            d["sigma"] = self.sigma
        elif self.kind == "uniform_symmetric":
            d["half_width"] = self.half_width
        elif self.kind == "two_point":
            d["atom"] = self.atom
        elif self.kind == "shifted":
            d["base"] = self.base.to_json_dict()
            d["offsets"] = list(self.offsets)
        return d

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
        if self.convention not in (PM, ZERO_ONE):
            raise InputError(f"unknown convention {self.convention!r}")
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
        pin = {}
        allowed = SPIN_VALUES[self.convention]
        for v, s in self.pinning.items():
            v = int(v)
            if not 0 <= v < self.graph.num_vertices:
                raise InputError(f"pinned vertex {v} out of range")
            if int(s) not in allowed:
                raise InputError(f"pinned value {s} invalid for convention {self.convention}")
            pin[v] = int(s)
        object.__setattr__(self, "pinning", pin)

    @classmethod
    def uniform(cls, graph: Graph, beta: float, field, convention: str = PM,
                pinning: dict | None = None) -> "IsingModel":
        return cls(
            graph=graph,
            couplings=np.full(graph.num_edges, float(beta)),
            field=np.asarray(field, dtype=np.float64),
            convention=convention,
            pinning=dict(pinning or {}),
        )

    @property
    def n(self) -> int:
        return self.graph.num_vertices

    @property
    def beta_max(self) -> float:
        return float(np.abs(self.couplings).max(initial=0.0))

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
        ends = np.array(self.graph.edges, dtype=np.int64).reshape(-1, 2)
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
            v, s = int(v), int(s)
            if v in merged and merged[v] != s:
                raise InputError(f"conflicting pinning at vertex {v}")
            merged[v] = s
        return replace(self, pinning=merged)

    def full_values(self, free_values: np.ndarray) -> np.ndarray:
        """Assemble a full spin vector from values on the free vertices."""
        out = np.zeros(self.n, dtype=np.float64)
        out[list(self.free_vertices)] = free_values
        for v, s in self.pinning.items():
            out[v] = s
        return out


def hamiltonian(model: IsingModel, sigma: SpinConfiguration) -> float:
    """Energy sum_e c_e sigma_u sigma_v + sum_u h_u sigma_u in the model's convention."""
    if sigma.convention != model.convention:
        raise InputError(
            f"configuration convention {sigma.convention!r} != model {model.convention!r}"
        )
    if sigma.n != model.n:
        raise InputError("configuration length does not match model")
    vals = sigma.values().astype(np.float64)
    for v, s in model.pinning.items():
        if vals[v] != s:
            raise InputError(f"configuration conflicts with pinning at vertex {v}")
    e = 0.0
    for (u, v), c in zip(model.graph.edges, model.couplings):
        e += c * vals[u] * vals[v]
    return float(e + model.field @ vals)


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


def theta_star(model_or_beta) -> float:
    """Terminal tilt 1 - exp(-c_max): the free-edge couplings vanish there.

    Accepts a 01-convention model (c_max = max coupling) or a pm-convention
    inverse temperature beta (c_max = 4 beta).
    """
    if isinstance(model_or_beta, IsingModel):
        c = model_or_beta.beta_max
        if model_or_beta.convention == PM:
            c = 4.0 * c
    else:
        c = 4.0 * float(model_or_beta)
    return 1.0 - math.exp(-c)


def edge_tilt(model01: IsingModel, theta: float, pinning: dict | None = None) -> IsingModel:
    """Tilt every edge coupling by ln(1-theta) and apply ``pinning``.

    On edges with both endpoints free this turns c_e into c_e + ln(1-theta);
    on edges with a pinned-to-1 endpoint the same term acts as a field shift
    on the free endpoint, which is exactly what the revelation posterior
    mu(sigma) (1-theta)^{#(1,1)-edges} demands.  Fields are not touched.
    """
    if model01.convention != ZERO_ONE:
        raise InputError("edge_tilt expects a 01-convention model")
    if not theta < 1.0:
        raise InputError("theta must be < 1")
    if theta < 0.0:
        raise InputError("theta must be >= 0")
    tilted = replace(model01, couplings=model01.couplings + math.log1p(-theta))
    return tilted.with_pinning(pinning or {})


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


def assumption_params(p0: float, k: float, beta: float, delta: int) -> AssumptionParams:
    """Compute rho, xi*, alpha*, gamma* and the validity flag."""
    if delta < 3:
        raise InputError("max degree must be >= 3")
    if not (0.0 < p0 < 1.0):
        raise InputError("p0 must lie in (0, 1)")
    if beta <= 0 or k <= 0:
        raise InputError("beta and K must be positive")
    rho = float(special.expit(2.0 * (delta * beta - k)))
    xi = xi_star_value(p0, delta)
    alpha = 0.5 * xi
    gamma = math.log((1 - p0) / (p0 * (delta - 2)))
    valid = (p0 * (delta - 1) < 1.0) and (rho < p0 / 4.0)
    return AssumptionParams(
        p0=float(p0), k=float(k), beta=float(beta), delta=int(delta),
        rho=rho, xi_star=xi, alpha_star=alpha, gamma_star=gamma, valid=valid,
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

def induced_model(model: IsingModel, vertices, extra_pinning: dict | None = None) -> IsingModel:
    """Model induced on a vertex subset, relabeled to 0..k-1 (sorted order).

    Keeps couplings/field/pinning of the retained vertices; ``extra_pinning``
    (in original labels) overrides the inherited pinning.  Edges leaving the
    subset are dropped.
    """
    keep = sorted(int(v) for v in set(vertices))
    for v in keep:
        if not 0 <= v < model.n:
            raise InputError(f"vertex {v} out of range")
    relabel = {v: i for i, v in enumerate(keep)}
    edges = []
    couplings = []
    for (u, v), c in zip(model.graph.edges, model.couplings):
        if u in relabel and v in relabel:
            edges.append((relabel[u], relabel[v]))
            couplings.append(c)
    g = build_graph(len(keep), edges)
    pin = {relabel[v]: s for v, s in model.pinning.items() if v in relabel}
    for v, s in (extra_pinning or {}).items():
        v = int(v)
        if v in relabel:
            pin[relabel[v]] = int(s)
    return IsingModel(
        graph=g,
        couplings=np.asarray(couplings, dtype=np.float64),
        field=model.field[keep],
        convention=model.convention,
        pinning=pin,
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
