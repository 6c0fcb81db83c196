"""The benchmark's workloads: job inputs, the timed calls into rfim, and checks.

Every job draws its inputs from the substream at ``(seed, BENCH, workload,
role, job)``, so the same seed gives the same jobs and jobs differ from one
another while keeping their sizes.  The calls go through module attributes
(``sampler.incremental_sample_batch``), so a tracer that patches those
attributes sees them.

The checks depend on no RNG stream or bit pattern: they test value sets,
shapes, exact identities, the package's own cross-checks, and statistical
distances against a bound taken from the multinomial noise floor, so a
bit-identical rewrite and a change of random streams both pass them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rfim import cli, dynamics, graphs, localization, model, oracle, percolation, sampler, slwsm
from rfim.rng import substream

BENCH = 1000  # domain tag of the benchmark's own substreams
JOB, WARMUP = 0, 1  # roles within a workload's substreams

BETA = 0.3
FIELD = model.FieldDistribution.gaussian(0.5)

# Chance that an exact sample's empirical TV exceeds ``tv_bound``.
TV_MISS = 1e-9


class CheckFailed(Exception):
    """A call returned an output that breaks one of the benchmark's checks."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Call:
    """One timed call of a job and the check of its output.

    ``bound`` names what the call's time mostly goes to: "interpreter",
    "memory" (streaming large arrays) or "blas" (dense linear algebra).  The
    runner divides the call's time by the matching part of its reference work.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    bound: str = "interpreter"


def tv_bound(probs, samples: int) -> float:
    """A TV that an empirical law of ``samples`` exact draws from ``probs`` exceeds
    with chance at most TV_MISS.

    The mean is at most the noise floor 0.5 * sum sqrt(p (1-p) / m) (Jensen), and
    one draw moves the TV by at most 1/m, so McDiarmid adds sqrt(ln(1/miss) / 2m).
    """
    p = np.asarray(probs)
    floor = 0.5 * float(np.sqrt(p * (1.0 - p) / samples).sum())
    return floor + math.sqrt(math.log(1.0 / TV_MISS) / (2.0 * samples))


def sampler_law(m, ordering, steps: int) -> np.ndarray:
    """Exact law of the staged sampler's output, indexed like ``oracle.gibbs_table``.

    Stage 1 draws ``ordering[0]`` from its single-site law; stage s appends an
    independent single-site draw of ``ordering[s-1]`` and runs ``steps``
    random-scan heat-bath updates on the model induced by the prefix.  The law
    is carried over prefix configurations, bit i being the spin of ``ordering[i]``.
    """
    pm = m.convention == model.PM
    one, zero = (1.0, -1.0) if pm else (1.0, 0.0)
    n = m.n
    coupling = np.zeros((n, n))
    for (u, v), c in zip(m.graph.edges, m.couplings):
        coupling[u, v] += c
        coupling[v, u] += c

    def p_one(local):
        return 1.0 / (1.0 + np.exp(-(2.0 * local if pm else local)))

    law = np.ones(1)
    for s, v_new in enumerate(ordering, start=1):
        p = p_one(m.field[v_new])
        law = np.concatenate([law * (1.0 - p), law * p])
        if s == 1:
            continue
        prefix = list(ordering[:s])
        bits = (np.arange(2**s)[:, None] >> np.arange(s)) & 1
        spins = np.where(bits == 1, one, zero)
        local = spins @ coupling[np.ix_(prefix, prefix)] + m.field[prefix]
        # cond[x, i]: probability of x_i given the rest of x, under heat-bath at i.
        cond = np.where(bits == 1, p_one(local), 1.0 - p_one(local))
        for _ in range(steps):
            new = np.zeros_like(law)
            for i in range(s):
                pairs = law.reshape(-1, 2, 2**i)
                marginal = pairs.sum(axis=1, keepdims=True)
                new += (np.broadcast_to(marginal, pairs.shape)
                        * cond[:, i].reshape(pairs.shape)).ravel()
            law = new / s
    # Re-index from ordering positions to the table's ascending vertex bits.
    index = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1) @ (1 << np.asarray(ordering))
    out = np.zeros(2**n)
    out[index] = law
    return out


def empirical_law(values, size: int) -> np.ndarray:
    """Empirical law of sample rows, indexed like ``oracle.gibbs_table``."""
    bits = (np.asarray(values) == 1).astype(np.int64)
    idx = bits @ (1 << np.arange(bits.shape[1]))
    return np.bincount(idx, minlength=size) / len(bits)


def tv(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def draw_seed(rng) -> int:
    return int(rng.integers(2**31))


def random_field_model(g, rng, convention=model.PM):
    m = model.IsingModel.uniform(g, BETA, FIELD.sample(g.num_vertices, rng))
    return model.to_zero_one(m) if convention == model.ZERO_ONE else m


def check_spins(values, allowed, shape=None) -> None:
    values = np.asarray(values)
    if shape is not None:
        expect(values.shape == shape, f"shape {values.shape} != {shape}")
    expect(np.isin(values, allowed).all(), f"spins outside {allowed}")


def check_stage_steps(report, n: int, c_star: float, replicas: int) -> None:
    k_star = math.ceil(n**c_star)
    steps = tuple(report.stage_steps)
    expect(len(steps) == n, f"{len(steps)} stages for {n} vertices")
    expect(steps[0] == 0 and all(s == k_star for s in steps[1:]),
           f"stage steps {steps[:4]}... are not (0, {k_star}, ...)")
    expect(report.total_updates == sum(steps), "total_updates is not the sum of stage steps")
    expect(report.replicas == replicas, "report replica count")


def check_ordering(g, ordering) -> None:
    """A permutation of the vertices whose every prefix is connected."""
    expect(sorted(ordering) == list(range(g.num_vertices)), "ordering is not a permutation")
    for i, v in enumerate(ordering[1:], start=1):
        expect(not set(g.adjacency[v]).isdisjoint(ordering[:i]), f"prefix {i} is not connected")


def check_table(m, table, rng) -> None:
    """Probabilities sum to 1 and log p(x) = H(x) - log Z on a few configurations."""
    expect(abs(float(table.probs.sum()) - 1.0) < 1e-9, "table probabilities do not sum to 1")
    for idx in rng.integers(len(table.probs), size=3):
        a = table.assignment(int(idx))
        sigma = model.SpinConfiguration([a[v] for v in range(m.n)], m.convention)
        want = model.hamiltonian(m, sigma) - table.log_partition
        got = math.log(table.probs[int(idx)])
        expect(abs(got - want) < 1e-8 * max(1.0, abs(want)),
               f"log p = {got} but H - log Z = {want} at config {int(idx)}")


class Workload:
    """Shared inputs of one workload; ``small`` builds the warm-up sizes."""

    name = ""
    stream = 0  # the workload's index in its substream addresses

    def __init__(self, small: bool, workdir: Path):
        self.workdir = workdir

    def job(self, seed: int, role: int, number: int) -> list[Call]:
        return self.calls(substream(seed, BENCH, self.stream, role, number))

    def calls(self, rng) -> list[Call]:
        raise NotImplementedError

    def rates(self) -> dict[str, tuple[str, int]]:
        """Call kind -> (rate name, units of work per call), for calls reported as rates."""
        return {}


class SampleGrid(Workload):
    """The staged sampler: per-stage overhead on tiny, growing prefix models."""

    name = "sample-grid"
    stream = 0

    def __init__(self, small, workdir):
        super().__init__(small, workdir)
        self.grid = graphs.grid_graph(3, 3) if small else graphs.grid_graph(12, 12)
        self.replicas = 4 if small else 64
        self.validate_grid = graphs.grid_graph(2, 2) if small else graphs.grid_graph(3, 4)
        self.validate_replicas = 500 if small else 20_000

    def calls(self, rng):
        m = random_field_model(self.grid, rng)
        cfg = sampler.SamplerConfig(c_star=0.5, seed=draw_seed(rng), ordering_seed=draw_seed(rng))
        vm = random_field_model(self.validate_grid, rng)
        vcfg = sampler.SamplerConfig(c_star=0.8, seed=draw_seed(rng),
                                     ordering_seed=draw_seed(rng), validate=True)
        # The sampler is not exact at c* = 0.8: its output law has a bias that
        # depends on the field.  The TV it reports is bounded by that bias plus
        # the sampling noise; both are computed here, outside the timed call.
        k_star = math.ceil(vm.n**vcfg.c_star)
        gibbs = oracle.gibbs_table(vm).probs
        ordering = graphs.connected_ordering(vm.graph, vcfg.ordering_seed)
        law = sampler_law(vm, ordering, k_star)
        eps = tv(law, gibbs) + tv_bound(law, self.validate_replicas)

        def check_sample(out):
            values, report = out
            check_spins(values, (-1, 1), (self.replicas, m.n))
            check_stage_steps(report, m.n, cfg.c_star, self.replicas)

        def check_validated(out):
            values, report = out
            check_spins(values, (-1, 1), (self.validate_replicas, vm.n))
            check_stage_steps(report, vm.n, vcfg.c_star, self.validate_replicas)
            check_ordering(vm.graph, report.ordering)
            emp = empirical_law(values, len(gibbs))
            expect(abs(report.tv_vs_oracle - tv(emp, gibbs)) < 1e-9, "reported TV")
            own = law if tuple(report.ordering) == ordering else sampler_law(
                vm, report.ordering, k_star)
            bound = tv_bound(own, self.validate_replicas)
            expect(tv(emp, own) <= bound,
                   f"TV {tv(emp, own)} to the sampler's exact law > bound {bound}")

        return [
            Call("sample_s", lambda: sampler.incremental_sample_batch(m, cfg, self.replicas),
                 check_sample),
            Call("validate_s", lambda: sampler.validated_incremental_sample(
                vm, vcfg, self.validate_replicas, eps), check_validated),
        ]


class MixTorus(Workload):
    """Long chains on a large torus, where the per-step cost of the kernels rules."""

    name = "mix-torus"
    stream = 1

    def __init__(self, small, workdir):
        super().__init__(small, workdir)
        self.torus = graphs.torus_grid(5, 5) if small else graphs.torus_grid(50, 50)
        self.batch = (8, 10) if small else (256, 100)  # (replicas, steps)
        self.coupled = (4, 20) if small else (64, 200)
        self.chain_steps = 500 if small else 50_000

    def rates(self):
        # Replica-updates, counting both chains of a coupled pair.
        return {"batch_s": ("batch_updates_per_s", self.batch[0] * self.batch[1]),
                "coupled_s": ("coupled_updates_per_s", 2 * self.coupled[0] * self.coupled[1]),
                "chain_s": ("chain_updates_per_s", self.chain_steps)}

    def calls(self, rng):
        m = random_field_model(self.torus, rng)
        n = m.n
        replicas, steps = self.batch
        init = np.where(rng.random((replicas, n)) < 0.5, -1.0, 1.0)
        batch_seed = draw_seed(rng)
        runs, coupled_steps = self.coupled
        coupled_seed = draw_seed(rng)
        start = model.SpinConfiguration(np.where(rng.random(n) < 0.5, -1, 1), model.PM)
        chain_seed = draw_seed(rng)

        def check_batch(out):
            values, _ = out
            check_spins(values, (-1, 1), (replicas, n))

        def check_coupled(out):
            expect(out["runs"] == runs and out["steps"] == coupled_steps, "run/step counts")
            at = np.asarray(out["coalesced_at"])
            expect(((at == -1) | ((at >= 1) & (at <= coupled_steps))).all(),
                   "coalescence step out of range")
            expect(out["coalesced"] == int((at >= 1).sum()), "coalesced count")
            # Coupled chains that met stay together, so the rest still differ.
            expect(out["final_disagreements"] == runs - out["coalesced"],
                   "coalesced pairs disagree at the end")

        def check_chain(out):
            state, _ = out
            expect(state.step == self.chain_steps, "chain step count")
            check_spins(state.config.values(), (-1, 1), (n,))

        return [
            Call("batch_s", lambda: dynamics.run_chains_batch(m, init, steps, batch_seed),
                 check_batch, bound="memory"),
            Call("coupled_s", lambda: dynamics.monotone_coupled_batch(
                m, coupled_steps, runs, coupled_seed),
                 check_coupled, bound="memory"),
            Call("chain_s", lambda: dynamics.run_chain(m, start, self.chain_steps, chain_seed),
                 check_chain),
        ]


class OracleExact(Workload):
    """Exact enumeration, spectra and the Cor2 sweep, plus the CLI pipeline; no dynamics."""

    name = "oracle-exact"
    stream = 2

    def __init__(self, small, workdir):
        super().__init__(small, workdir)
        self.sizes = (8, 4, 4, 4) if small else (20, 10, 8, 10)  # table, gap, sweep, pipeline

    def calls(self, rng):
        n_table, n_gap, n_sweep, n_pipe = self.sizes
        table_model = random_field_model(graphs.random_regular_graph(n_table, 3, draw_seed(rng)), rng)
        gap_model = random_field_model(graphs.random_regular_graph(n_gap, 3, draw_seed(rng)), rng)
        sweep_model = random_field_model(
            graphs.random_regular_graph(n_sweep, 3, draw_seed(rng)), rng, model.ZERO_ONE)
        theta = 0.5 * model.theta_star(BETA)
        check_rng = substream(draw_seed(rng), BENCH)

        # An edgeless model: the sample step runs the pipeline without dynamics.
        free4 = model.IsingModel.uniform(graphs.build_graph(4, []), BETA, FIELD.sample(4, rng))
        sample_replicas = 2000
        # Each vertex is its own component, drawn exactly: the TV is noise alone.
        sample_eps = tv_bound(oracle.gibbs_table(free4).probs, sample_replicas)
        config = {
            "seed": draw_seed(rng),
            "pipeline": [
                {"kind": "gap_vs_exact", "count": 2, "n": n_pipe, "beta": 0.5, "degree": 3,
                 "p0": 0.05, "k": 4.5, "field": {"kind": "two_point", "atom": 5.0}},
                {"kind": "sample", "model": model.model_to_json_dict(free4), "c_star": 1.0,
                 "replicas": sample_replicas, "validate": True, "eps": sample_eps},
            ],
        }

        def check_enumeration(out):
            check_table(table_model, out, check_rng)

        def check_gap(out):
            expect(0.0 < out.gap <= 1.0 + 1e-12, f"gap {out.gap} outside (0, 1]")
            expect("rayleigh=" in out.notes, "gap was not cross-validated")

        def check_sweep(out):
            expect(out.interpolation_ok, "operator-norm interpolation bound failed")
            expect(out.matrices_checked == 3**n_sweep, "sweep did not cover every pinning")

        def check_pipeline(out):
            code, text = out
            expect(code == 0, f"CLI exit code {code}")
            reports = json.loads(text)["reports"]
            expect([r["kind"] for r in reports] == ["gap_vs_exact", "sample"], "pipeline steps")
            expect(all(0.0 < row["exact_gap"] <= 1.0 + 1e-12 for row in reports[0]["csv_rows"]),
                   "pipeline gap outside (0, 1]")
            expect(reports[1]["stage_steps"] == [0, 0, 0, 0], "edgeless stages ran updates")
            expect(reports[1]["tv_vs_oracle"] <= sample_eps, "pipeline sample TV")

        return [
            Call("table_s", lambda: oracle.gibbs_table(table_model), check_enumeration,
                 bound="memory"),
            Call("gap_s", lambda: oracle.glauber_gap(gap_model, cross_validate=True), check_gap,
                 bound="blas"),
            Call("sweep_s", lambda: oracle.sup_cor2_over_pinnings(sweep_model, [theta]),
                 check_sweep),
            Call("pipeline_s", lambda: self.run_cli(config), check_pipeline, bound="blas"),
        ]

    def run_cli(self, config: dict):
        """``rfim sample experiment --config FILE`` in process; returns (exit code, stdout)."""
        path = self.workdir / "experiment.json"
        path.write_text(json.dumps(config))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["sample", "experiment", "--config", str(path)])
        return code, out.getvalue()


class LocalizeWsm(Workload):
    """Many small exact tables and single chains, where per-call cost rules."""

    name = "localize-wsm"
    stream = 3

    def __init__(self, small, workdir):
        super().__init__(small, workdir)
        self.grid = graphs.grid_graph(2, 3) if small else graphs.grid_graph(3, 4)
        self.traces = 2000 if small else 50_000
        self.boosts, self.burn = (2, 50) if small else (50, 2000)
        self.wsm_torus = graphs.torus_grid(4, 4) if small else graphs.torus_grid(12, 12)
        self.wsm_vertices, self.wsm_trials = (2, 1) if small else (40, 2)
        self.perc_torus = graphs.torus_grid(5, 5) if small else graphs.torus_grid(50, 50)
        self.cluster_edges = 5 if small else 200

    def calls(self, rng):
        t = 0.5
        pm_model = random_field_model(self.grid, rng)
        model01 = model.to_zero_one(pm_model)
        posterior_seed = draw_seed(rng)
        boost_seed = draw_seed(rng)
        wsm_seed = draw_seed(rng)
        wsm_vertices = sorted(int(v) for v in rng.choice(
            self.wsm_torus.num_vertices, self.wsm_vertices, replace=False))
        g = self.perc_torus
        field = model.QuenchedField(FIELD.sample(g.num_vertices, rng), FIELD, 0)
        perc_seed = draw_seed(rng)
        edges = [g.edges[int(i)] for i in rng.choice(g.num_edges, self.cluster_edges,
                                                     replace=False)]

        def boost():
            traces = [localization.sample_noising_trace(
                model01, boost_seed, sampler="glauber", burn_steps=self.burn, trace_index=i)
                for i in range(self.boosts)]
            boosts = [slwsm.sl_boost(pm_model, t, boost_seed, sampler="glauber",
                                     burn_steps=self.burn, index=i)
                      for i in range(self.boosts)]
            return traces, boosts

        def clusters():
            realization = percolation.percolate(g, field, 0.1, 0.05, perc_seed)
            return realization, [percolation.cluster_of_edge(realization, e) for e in edges]

        def check_posterior(rep):
            # A field can spread the traces so thin that no revealed set reaches
            # min_hits; the report then has no buckets, which is not an error.
            for revealed, hits, got in rep.buckets:
                expect(hits >= rep.min_hits, f"bucket with {hits} < min_hits traces")
                post = oracle.gibbs_table(localization.posterior_model(model01, t, revealed))
                bound = tv_bound(post.probs, hits)
                expect(got <= bound, f"posterior TV {got} > bound {bound} ({hits} hits)")
            expect(rep.max_tv == max((b[2] for b in rep.buckets), default=0.0), "max_tv")

        def check_boost(out):
            traces, boosts = out
            for tr in traces:
                check_spins(tr.x_sample.values(), (0, 1), (model01.n,))
                u = tr.edge_uniforms
                expect(u.shape == (model01.graph.num_edges,) and ((u >= 0) & (u < 1)).all(),
                       "edge uniforms")
            for b in boosts:
                star = b.sigma_star.values()
                check_spins(star, (-1, 1), (pm_model.n,))
                expect(np.allclose(b.y, t * star + b.noise), "y != t sigma* + noise")
                expect(np.allclose(b.boosted_model.field, pm_model.field + b.y), "boosted field")

        def check_wsm(rep):
            d = rep.mean_delta
            expect(d.shape == (len(wsm_vertices), 2), "WSM grid shape")
            expect(np.isfinite(d).all() and (d >= 0).all() and (d <= 1).all(),
                   "WSM deltas outside [0, 1]")

        def check_clusters(out):
            realization, found = out
            opened = realization.open_set
            for (u, v), c in zip(edges, found):
                expect(u in c and v in c, f"cluster of edge ({u}, {v}) misses an endpoint")
                expect(c <= opened | {u, v}, "cluster holds a closed site")

        return [
            Call("posterior_s", lambda: localization.verify_posterior_by_simulation(
                model01, t, self.traces, posterior_seed), check_posterior),
            Call("boost_s", boost, check_boost),
            Call("wsm_s", lambda: slwsm.estimate_wsm(
                self.wsm_torus, BETA, FIELD, (1, 2), self.wsm_trials, wsm_seed,
                vertices=wsm_vertices), check_wsm),
            Call("cluster_s", clusters, check_clusters),
        ]


WORKLOADS = {cls.name: cls for cls in (SampleGrid, MixTorus, OracleExact, LocalizeWsm)}
