"""Ising models with quenched random fields: conventions, pinnings, tilts.

The measure is mu(sigma) proportional to exp(H(sigma)) with
H(sigma) = sum_e c_e * sigma_u sigma_v + sum_u h_u sigma_u, either over
sigma in {-1,+1}^V (convention "pm") or {0,1}^V (convention "01").  Pinning
lives in the model, not in configurations: a conditional measure is just the
same model with a larger pinning (``with_pinning``).  The grand coupling and
the revelation posterior ``edge_tilt(m, t).with_pinning(p)`` condition this
way.  The WSM boundary ring does not: ``slwsm.wsm_delta`` adds the ring's
pull on each ball vertex to its field, a field row per sign, and the model
with the ring pinned is the tests' reference for it.  ``_check_spins`` is the
one test of the spin value set: ``SpinConfiguration`` calls it, and so does
``IsingModel.check_values``, which every chain start and table lookup goes
through and which also checks the length and the pins.  A start that breaks
them is rejected, never repaired.  A model builds two tables once and keeps
them: ``neighbour_table``, its padded neighbour rows, and ``heat_bath_table``,
the heat-bath probability of each vertex under each pattern of its neighbour
spins, which scalar Glauber chains look up.  Models and fields are immutable
value objects; a field records the seed and path it is drawn at.  Each heat-bath
probability, table entry, replica kernel or first sampled spin, comes from
one rule, ``_heat_bath_probability``, so equal spins give equal floats.  The
rule is a numpy tanh, so this module loads no scipy: ``scipy.special`` is
imported by the two closed forms that use it, the Gaussian mass of
``FieldDistribution.mass_within`` and the rho of ``assumption_params``, when
they are first called.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property

import numpy as np

from .errors import CapacityError, InputError
from .graphs import Graph, graph_from_json_dict, graph_to_json_dict
from .rng import FIELD, substream

PM = "pm"
ZERO_ONE = "01"

# The ('one', 'zero') spin values of each convention.
SPIN_VALUES = {PM: (1, -1), ZERO_ONE: (1, 0)}

# Entries of a model's heat-bath table, sum over v of 2^deg(v).  At the cap
# the probabilities take 8 MiB; a 256x256 torus fills it and holds 37 MiB with
# its flip lists, 51 MiB at the peak of the build (tracemalloc).  A vertex of
# degree 20 or more exceeds it alone.
HEAT_BATH_TABLE_CAP = 1 << 20


def _heat_bath_probability(convention: str, field, terms=()):
    """Heat-bath P(spin = 'one'): logistic(2s) in pm, logistic(s) in 01, where
    s = h + c_0 x_0 + c_1 x_1 + ... adds the slot-major ``terms`` c_j x_j, each
    shaped like the fresh array ``field`` = h, into it left to right, in place.

    The logistic is written as 0.5 + 0.5 tanh(s) in pm and 0.5 + 0.5 tanh(s/2)
    in 01, in numpy: tanh saturates at +-1 and never overflows, so no finite
    field warns, P(one) lies in [0, 1] and does not decrease as s grows.  On
    10^7 arguments it was within 2^-52 (2.2e-16) of ``scipy.special.expit``,
    and about half of them differed from it in the last bit; a chain's decision
    changes only if its uniform falls between the two.  The precision is
    absolute, not relative: below 1/4, P(one) is a multiple of 2^-54, and it
    reads 0 once s < -19.0 in pm (-38.0 in 01), where expit still gives
    about 3e-17.  Writing it in numpy keeps scipy out of ``import rfim`` and
    of every chain, sampler and table call; scipy.special cost about 0.3 s
    and 20 MB of each fresh process.
    """
    for term in terms:
        field += term
    return 0.5 + 0.5 * np.tanh(field if convention == PM else 0.5 * field)


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

def _finite(name: str, value) -> float:
    """``value`` as a float; raises InputError unless it is a finite real number."""
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise InputError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class FieldDistribution:
    """The law of each vertex's field, drawn i.i.d.: gaussian(sigma), uniform_symmetric(M)
    or two_point(a)."""

    kind: str
    sigma: float = 0.0
    half_width: float = 0.0
    atom: float = 0.0

    @classmethod
    def gaussian(cls, sigma: float) -> "FieldDistribution":
        if _finite("gaussian sigma", sigma) <= 0:
            raise InputError("gaussian sigma must be positive")
        return cls(kind="gaussian", sigma=float(sigma))

    @classmethod
    def uniform_symmetric(cls, m: float) -> "FieldDistribution":
        if _finite("uniform half-width", m) <= 0:
            raise InputError("uniform half-width must be positive")
        return cls(kind="uniform_symmetric", half_width=float(m))

    @classmethod
    def two_point(cls, a: float) -> "FieldDistribution":
        if _finite("two_point atom", a) < 0:
            raise InputError("two_point atom must be nonnegative")
        return cls(kind="two_point", atom=float(a))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, size=n)
        if self.kind == "uniform_symmetric":
            return rng.uniform(-self.half_width, self.half_width, size=n)
        if self.kind == "two_point":
            signs = rng.integers(0, 2, size=n) * 2 - 1
            return signs * self.atom
        raise InputError(f"unknown field kind {self.kind!r}")

    def mass_within(self, k: float) -> float:
        """P(|h| <= k) for one vertex's field h."""
        if _finite("threshold", k) < 0:
            raise InputError("threshold must be nonnegative")
        if self.kind == "gaussian":
            from scipy import special

            return float(special.ndtr(k / self.sigma) - special.ndtr(-k / self.sigma))
        if self.kind == "uniform_symmetric":
            return float(min(k, self.half_width) / self.half_width)
        if self.kind == "two_point":
            return float(self.atom <= k)
        raise InputError(f"unsupported field kind {self.kind!r}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "FieldDistribution":
        """The distribution the JSON object ``d`` names; raises InputError for an
        unknown kind or a missing, non-numeric or non-finite parameter."""
        kind = d.get("kind") if isinstance(d, dict) else None
        try:
            if kind == "gaussian":
                return cls.gaussian(d["sigma"])
            if kind == "uniform_symmetric":
                return cls.uniform_symmetric(d["half_width"])
            if kind == "two_point":
                return cls.two_point(d["atom"])
        except KeyError as exc:
            raise InputError(f"a {kind} field needs {exc}") from None
        raise InputError(f"unknown field kind {kind!r}")


@dataclass(frozen=True)
class QuenchedField:
    """A fixed realization of the random external field, drawn at (seed, FIELD, *path)."""

    values: np.ndarray
    distribution_spec: FieldDistribution
    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if not np.isfinite(vals).all():
            raise InputError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def sample_field(dist: FieldDistribution, n: int, seed: int, *path: int) -> QuenchedField:
    """n i.i.d. draws from ``dist`` at the substream (seed, FIELD, *path), which the
    field records."""
    if n < 0:
        raise InputError("n must be nonnegative")
    rng = substream(seed, FIELD, *path)
    return QuenchedField(values=dist.sample(n, rng), distribution_spec=dist, seed=int(seed),
                         path=tuple(map(int, path)))


# ---------------------------------------------------------------------------
# The Ising model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatBathTable:
    """Heat-bath P(spin v = 'one') for every vertex v and pattern of its neighbours.

    The key of v is ``offset[v]`` plus bit j for each real slot j of v's
    ``neighbour_table`` row whose neighbour holds 'one' (``weight[v, j]`` is
    that bit, 0 on padding slots); ``probs[key]`` is v's probability.  Blocks
    are laid out by descending degree, so each starts at a multiple of its
    size 2^deg(v), and XOR-ing a slot bit into a key stays inside v's block.
    ``flips[v]`` lists the (w, bit) of every slot naming v, the keys that
    change when v flips.
    """

    probs: np.ndarray
    offset: np.ndarray
    weight: np.ndarray
    flips: tuple[tuple[tuple[int, int], ...], ...]


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
    def heat_bath_table(self) -> HeatBathTable:
        """The model's ``HeatBathTable``, built once; raises CapacityError, before
        building anything, above ``HEAT_BATH_TABLE_CAP`` entries.

        Entry (v, pattern) is ``_heat_bath_probability`` of h_v and the terms
        c_j x_j over v's real slots, x_j the pattern's spin at slot j.
        """
        nbr, cpl = self.neighbour_table
        n, width = nbr.shape
        real = nbr != np.arange(n)[:, None]
        degree = real.sum(axis=1)
        counts = np.bincount(degree)
        size = sum(int(c) << d for d, c in enumerate(counts))
        if size > HEAT_BATH_TABLE_CAP:
            raise CapacityError(f"a heat-bath table of {size} entries exceeds the cap "
                                f"{HEAT_BATH_TABLE_CAP}")
        one, zero = SPIN_VALUES[self.convention]
        probs = np.empty(size)
        offset = np.empty(n, dtype=np.int64)
        start = 0
        for d in range(len(counts) - 1, -1, -1):
            vs = np.flatnonzero(degree == d)
            offset[vs] = start + (np.arange(len(vs)) << d)
            pattern = np.arange(1 << d)
            terms = (cpl[vs, j, None] * np.where(pattern >> j & 1, float(one), float(zero))
                     for j in range(d))  # one (len(vs), 2^d) term alive at a time
            probs[start:start + (len(vs) << d)] = _heat_bath_probability(
                self.convention, np.repeat(self.field[vs, None], 1 << d, axis=1), terms).ravel()
            start += len(vs) << d
        rows, slots = np.nonzero(real)
        named = nbr[rows, slots]
        order = np.argsort(named, kind="stable")
        pairs = list(zip(rows[order].tolist(), (1 << slots[order]).tolist()))
        ends = np.cumsum(np.bincount(named, minlength=n)).tolist()
        flips = tuple(tuple(pairs[a:b]) for a, b in zip([0] + ends[:-1], ends))
        weight = np.where(real, 1 << np.arange(width), 0)
        for a in (probs, offset, weight):
            a.flags.writeable = False
        return HeatBathTable(probs=probs, offset=offset, weight=weight, flips=flips)

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
    field survives.  Each vertex's couplings are summed in edge order.
    Pinned values map through s -> (s+1)/2.
    """
    if model.convention != PM:
        raise InputError("to_zero_one expects a pm-convention model")
    coupling_sum = np.bincount(model.graph.endpoints.ravel(), np.repeat(model.couplings, 2),
                               minlength=model.n)
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
    """Compute rho, xi*, alpha*, gamma* and the validity flag.

    Raises InputError unless p0, K and beta are finite numbers in range."""
    if delta < 3:
        raise InputError("max degree must be >= 3")
    if not (0.0 < _finite("p0", p0) < 1.0):
        raise InputError("p0 must lie in (0, 1)")
    if _finite("beta", beta) <= 0 or _finite("K", k) <= 0:
        raise InputError("beta and K must be positive")
    from scipy import special

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
# JSON
# ---------------------------------------------------------------------------

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
