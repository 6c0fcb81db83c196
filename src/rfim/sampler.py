"""Incremental warm-start sampling and experiment orchestration.

The sampler fixes a prefix-connected vertex ordering, draws the first spin
exactly from its single-site law, and then for each later vertex concatenates
an independent single-site draw and runs k* = ceil(n^{C*}) heat-bath updates
on the model induced by the current prefix.  Later vertices are absent, not
pinned: they hold 0 in the model's one (replicas, n) state matrix, which adds
nothing to a local field in either convention, and each stage updates only
the staged vertices, so no induced model is built.  Stage 1 is exact; every
other stage is a chain from a warm start.  Disconnected graphs are staged one
component at a time in the same matrix; no edge joins two components.
Component ci reads one substream, (seed, SAMPLER, ci): each stage draws its
new vertex's R uniforms from it, then its k* updates in the blocks of
``dynamics._draws``, so a stage makes one RNG call for the new vertex and
one per block of updates.

While a component's prefix is small for the stage's work (``_codes_fit``),
its stages keep each replica's prefix spins as one int64 code, bit i the
spin of the i-th staged vertex in ascending order, as in a Gibbs table
index: a stage opens bit i at the new vertex's rank i among the staged
ones, shifting the bits above it up, builds the prefix's P(one) table and
runs k* coded steps, bit-identical to the float kernel.  The codes are
decoded into the matrix once, at the end of the component or at the one
stage from which its tables would be too large.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import InputError, ValidationFailure
from .graphs import connected_components, connected_ordering, random_regular_graph
from .model import (
    PM,
    SPIN_VALUES,
    FieldDistribution,
    IsingModel,
    _heat_bath_probability,
    model_from_json_dict,
    model_to_json_dict,
    sample_field,
)
from .dynamics import _code_table, _coded_steps, _codes_fit, _draws, _float_steps
from .oracle import _decode, _encode, empirical_tv, gibbs_table
from .percolation import gap_certificate
from .rng import PIPELINE, SAMPLER, substream


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of one incremental-sampling run."""

    c_star: float
    seed: int
    ordering_seed: int = 0
    validate: bool = False

    def __post_init__(self):
        if not 0 < self.c_star < math.inf:  # NaN fails too
            raise InputError(f"c_star must be positive and finite, not {self.c_star!r}")

    def k_star(self, n: int) -> int:
        try:
            return int(math.ceil(n**self.c_star))
        except OverflowError:
            raise InputError(f"k* = ceil(n^c*) overflows at n={n}, c*={self.c_star!r}") from None


@dataclass(frozen=True)
class RunReport:
    """Accounting of one (possibly replicated) sampling run."""

    stage_steps: tuple[int, ...]
    total_updates: int
    wall_time: float
    ordering: tuple[int, ...]
    tv_vs_oracle: float | None = None
    replicas: int = 1


def incremental_sample_batch(model: IsingModel, config: SamplerConfig, replicas: int):
    """Many independent runs advanced in lockstep; rows are final configurations."""
    if model.pinning:
        raise InputError("the incremental sampler expects an unpinned model")
    if replicas < 0:
        raise InputError("replicas must be nonnegative")
    start = time.perf_counter()
    k = config.k_star(model.n)  # every stage's step count comes from the whole graph
    one, zero = SPIN_VALUES[model.convention]
    state = np.zeros((replicas, model.n))  # vertices not yet staged hold 0
    absent = np.zeros(model.n)
    stage_steps: list[int] = []
    full_order: list[int] = []
    for ci, comp in enumerate(connected_components(model.graph)):
        path = (ci,) if ci else ()  # component 0 is ordered at the seed's own address
        order = np.array(connected_ordering(model.graph, config.ordering_seed, comp, *path))
        full_order.extend(order.tolist())
        rng = substream(config.seed, SAMPLER, ci)
        codes = None  # while the prefix is small, bit i holds the spin of staged[i]
        for stage, v_new in enumerate(order.tolist(), start=1):
            p_one = _heat_bath_probability(model.convention, model.field[v_new])
            new = rng.random(replicas) <= p_one
            staged = np.sort(order[:stage])
            if codes is None:
                state[:, v_new] = np.where(new, one, zero)
            else:  # open bit i at v_new's rank i
                i = int(staged.searchsorted(v_new))
                codes = (codes >> i << i + 1) | (codes & (1 << i) - 1) | new.astype(np.int64) << i
            if stage == 1:
                stage_steps.append(0)  # the first spin is an exact sample
                continue
            fits = _codes_fit(stage, replicas * k)  # false from some stage on, if ever
            if codes is None and fits:
                codes = _encode(state, staged, one)
            elif codes is not None and not fits:
                _decode(codes, staged, state, one, zero)
                codes = None
            blocks = _draws(rng, stage, replicas, k)
            deque(_float_steps(model, state, staged, blocks) if codes is None
                  else _coded_steps(_code_table(model, staged, absent), codes, blocks), maxlen=0)
            stage_steps.append(k)
        if codes is not None:
            _decode(codes, staged, state, one, zero)
    report = RunReport(stage_steps=tuple(stage_steps), total_updates=int(sum(stage_steps)),
                       wall_time=time.perf_counter() - start, ordering=tuple(full_order),
                       replicas=replicas)
    return state, report


def validated_incremental_sample(model: IsingModel, config: SamplerConfig, replicas: int,
                                 eps: float):
    """Batch run plus an exact TV validation against the enumerated table.

    Raises ValidationFailure when the empirical TV exceeds eps.
    """
    values, report = incremental_sample_batch(model, config, replicas)
    tv = empirical_tv(gibbs_table(model), values)
    report = replace(report, tv_vs_oracle=tv)
    if tv > eps:
        raise ValidationFailure(f"empirical TV {tv:.4f} exceeds eps {eps}")
    return values, report


def warm_start_density_bound(beta: float, c_alpha: float) -> float:
    """Density bound exp(4 beta e^{C_alpha}) of the staged warm start."""
    return math.exp(4.0 * beta * math.exp(c_alpha))


def warm_start_tv_bound(m_warm: float, a: float, p: float, k: int) -> float:
    """Weak-conductance convergence bound M (A^{2p} log k / k)^{1/(2p-1)}.

    Preconditions p >= 1, A^p >= 2/4^{p-1} and k >= 2 are flagged with a
    warning when violated; the value is still returned.
    """
    import warnings

    if p < 1:
        warnings.warn("exponent p below 1; the bound is outside its stated domain")
    if a**p < 2.0 / 4.0 ** (p - 1.0):
        warnings.warn("A^p below 2/4^(p-1); the bound is outside its stated domain")
    if k < 2:
        warnings.warn("k below 2; the bound is outside its stated domain")
    if p == 0.5:
        raise InputError("p = 1/2 makes the exponent 1/(2p-1) undefined")
    return m_warm * (a ** (2.0 * p) * math.log(k) / k) ** (1.0 / (2.0 * p - 1.0))


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["pipeline"],
    "properties": {
        "seed": {"type": "integer"},
        "pipeline": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind"],
                "properties": {"kind": {"type": "string"}},
            },
        },
    },
}

STEP_SCHEMAS = {
    "gap_vs_exact": {
        "type": "object",
        "required": ["kind", "count", "n", "beta", "degree", "p0", "k", "field"],
        "properties": {
            "kind": {"const": "gap_vs_exact"},
            "count": {"type": "integer", "minimum": 1},
            "n": {"type": "integer", "minimum": 2},
            "beta": {"type": "number", "exclusiveMinimum": 0},
            "degree": {"type": "integer", "minimum": 3},
            "p0": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "k": {"type": "number", "exclusiveMinimum": 0},
            "field": {"type": "object"},
        },
    },
    "sample": {
        "type": "object",
        "required": ["kind", "model", "c_star", "replicas"],
        "properties": {
            "kind": {"const": "sample"},
            "model": {"type": "object"},
            "c_star": {"type": "number", "exclusiveMinimum": 0},
            "replicas": {"type": "integer", "minimum": 1},
            "validate": {"type": "boolean"},
            "eps": {"type": "number", "exclusiveMinimum": 0},
        },
    },
}


@cache
def _validator(kind: str | None):
    """The validator of step ``kind``, or of the config for None, checked and built on first use.

    jsonschema is imported here, not with the module: only ``run_experiment``
    validates a schema.
    """
    import jsonschema

    schema = CONFIG_SCHEMA if kind is None else STEP_SCHEMAS[kind]
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def _validate_config(config: dict) -> None:
    import jsonschema

    def check(kind, instance):  # raise what jsonschema.validate would: the best match
        error = jsonschema.exceptions.best_match(_validator(kind).iter_errors(instance))
        if error is not None:
            raise error

    try:
        check(None, config)
        for i, step in enumerate(config["pipeline"]):
            kind = step.get("kind")
            if kind not in STEP_SCHEMAS:
                raise InputError(f"pipeline[{i}].kind: unknown step kind {kind!r}")
            check(kind, step)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path)
        raise InputError(f"config schema violation at '{path}': {exc.message}") from exc


def run_experiment(config: dict, output_dir=None) -> dict:
    """Run a declared pipeline and return (and optionally write) its reports.

    The manifest records seeds, versions and per-step outputs; report payloads
    are deterministic given the config, the manifest timestamp aside.  Step i
    reads its randomness below the address (seed, PIPELINE, i), as the table
    in ``rfim.rng`` lists.  ``output_dir`` receives ``manifest.json``,
    ``reports.json``, ``report.csv`` when some step has rows, and
    ``final_state_<i>.json`` for each sample step i.
    """
    from pathlib import Path

    import rfim

    _validate_config(config)
    seed = int(config.get("seed", 0))
    manifest = {
        "seed": seed,
        "version": rfim.__version__,
        "numpy": np.__version__,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "steps": [],
    }
    reports = []
    for i, step in enumerate(config["pipeline"]):
        kind = step["kind"]
        if kind == "gap_vs_exact":
            report = _gap_vs_exact_step(step, seed, i)
        elif kind == "sample":
            report = _sample_step(step, seed, i)
        manifest["steps"].append({"index": i, "kind": kind})
        reports.append(report)
    bundle = {"manifest": manifest, "reports": reports}
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
        (out / "reports.json").write_text(json.dumps(reports, indent=2))
        csv_rows = [r for rep in reports for r in rep.get("csv_rows", [])]
        if csv_rows:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=sorted({k for r in csv_rows for k in r}))
            writer.writeheader()
            writer.writerows(csv_rows)
            (out / "report.csv").write_text(buf.getvalue())
        for i, rep in enumerate(reports):
            if "final_state" in rep:
                (out / f"final_state_{i}.json").write_text(json.dumps(rep["final_state"]))
    return bundle


def _gap_vs_exact_step(step: dict, seed: int, index: int) -> dict:
    from .model import assumption_params
    from .oracle import glauber_gap

    dist = FieldDistribution.from_json_dict(step["field"])
    params = assumption_params(step["p0"], step["k"], step["beta"], step["degree"])
    rows = []
    for i in range(step["count"]):
        g = random_regular_graph(step["n"], step["degree"], seed, PIPELINE, index, i)
        field = sample_field(dist, step["n"], seed, PIPELINE, index, i)
        model = IsingModel.uniform(g, step["beta"], field.values, convention=PM)
        exact = glauber_gap(model).gap
        cert = gap_certificate(step["n"], step["beta"], step["degree"], params.alpha_star)
        rows.append({
            "model_index": i,
            "exact_gap": exact,
            "certificate_log_gap_lower": cert.log_gap_lower,
            "certificate_holds": bool(math.log(exact) >= cert.log_gap_lower),
        })
    return {
        "kind": "gap_vs_exact",
        "assumption_valid": params.valid,
        "alpha_star": params.alpha_star,
        "csv_rows": rows,
        "holds_fraction": float(np.mean([r["certificate_holds"] for r in rows])),
    }


def _sample_step(step: dict, seed: int, index: int) -> dict:
    model = model_from_json_dict(step["model"])
    sampler_seed, ordering_seed = substream(seed, PIPELINE, index).integers(2**63, size=2)
    config = SamplerConfig(c_star=step["c_star"], seed=int(sampler_seed),
                           ordering_seed=int(ordering_seed), validate=step.get("validate", False))
    replicas = step["replicas"]
    if config.validate:
        values, report = validated_incremental_sample(
            model, config, replicas, step.get("eps", 0.05))
    else:
        values, report = incremental_sample_batch(model, config, replicas)
    return {
        "kind": "sample",
        "stage_steps": list(report.stage_steps),
        "total_updates": report.total_updates,
        "tv_vs_oracle": report.tv_vs_oracle,
        "final_state": {
            "model": model_to_json_dict(model),
            "first_replica": values[0].astype(int).tolist(),
        },
        "csv_rows": [{"stage": i + 1, "steps": s} for i, s in enumerate(report.stage_steps)],
    }
