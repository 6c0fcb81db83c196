"""Command-line interface.

Thin wrappers over the library: subcommand groups graph / model / oracle /
mix / localize / certify / sl / sample, JSON on stdout or to files.  Exit
codes: 0 success, 2 validation failure, 3 capacity, 4 input error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import CapacityError, InputError, ValidationFailure
from . import graphs as G
from . import model as M
from . import oracle as O
from . import dynamics as D
from . import localization as L
from . import percolation as P
from . import slwsm as S
from . import sampler as SA


def _emit(payload, output: str | None) -> None:
    text = json.dumps(payload, indent=2, default=_jsonify)
    if output:
        Path(output).write_text(text + "\n")
    else:
        click.echo(text)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _load_model(path: str) -> M.IsingModel:
    return M.model_from_json_text(Path(path).read_text())


def _load_graph(path: str) -> G.Graph:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return G.graph_from_json_text(text)
    return G.graph_from_edgelist_text(text)


def _parse_field(kind: str, param: float, n: int) -> M.FieldDistribution:
    if kind == "gaussian":
        return M.FieldDistribution.gaussian(param)
    if kind == "uniform":
        return M.FieldDistribution.uniform_symmetric(param)
    if kind == "two_point":
        return M.FieldDistribution.two_point(param)
    raise InputError(f"unknown field kind {kind!r} (try gaussian/uniform/two_point)")


@click.group()
@click.version_option(__version__)
def cli():
    """Random-field Ising model toolkit."""


# ----------------------------------------------------------------- graph ---

@cli.group()
def graph():
    """Graph generation and inspection."""


@graph.command("gen")
@click.option("--kind", type=click.Choice(["path", "cycle", "torus", "regular", "tree3", "grid"]),
              required=True)
@click.option("--n", type=int, default=0, help="vertex count (path/cycle/regular)")
@click.option("--rows", type=int, default=0)
@click.option("--cols", type=int, default=0)
@click.option("--degree", type=int, default=3)
@click.option("--depth", type=int, default=3)
@click.option("--seed", type=int, default=0)
@click.option("--format", "fmt", type=click.Choice(["edgelist", "json"]), default="edgelist")
@click.option("-o", "--output", type=str, default=None)
def graph_gen(kind, n, rows, cols, degree, depth, seed, fmt, output):
    """Generate a named graph family member."""
    if kind == "path":
        g = G.path_graph(n)
    elif kind == "cycle":
        g = G.cycle_graph(n)
    elif kind == "torus":
        g = G.torus_grid(rows, cols)
    elif kind == "grid":
        g = G.grid_graph(rows, cols)
    elif kind == "regular":
        g = G.random_regular_graph(n, degree, seed)
    else:
        g = G.tree3(depth)
    if fmt == "edgelist":
        text = G.graph_to_edgelist_text(g)
        if output:
            Path(output).write_text(text)
        else:
            click.echo(text, nl=False)
    else:
        _emit(G.graph_to_json_dict(g), output)


@graph.command("info")
@click.argument("path")
def graph_info(path):
    g = _load_graph(path)
    _emit({
        "n": g.num_vertices,
        "edges": g.num_edges,
        "max_degree": g.max_degree(),
        "connected": G.is_connected(g),
    }, None)


# ----------------------------------------------------------------- model ---

@cli.group()
def model():
    """Model construction, tilting and parameter checks."""


@model.command("make")
@click.option("--graph", "graph_path", required=True)
@click.option("--beta", type=float, required=True)
@click.option("--field-kind", default="two_point")
@click.option("--field-param", type=float, default=1.0)
@click.option("--seed", type=int, default=0)
@click.option("--convention", type=click.Choice([M.PM, M.ZERO_ONE]), default=M.PM)
@click.option("-o", "--output", type=str, default=None)
def model_make(graph_path, beta, field_kind, field_param, seed, convention, output):
    g = _load_graph(graph_path)
    dist = _parse_field(field_kind, field_param, g.num_vertices)
    field = M.sample_field(dist, g.num_vertices, seed)
    m = M.IsingModel.uniform(g, beta, field.values, convention=M.PM)
    if convention == M.ZERO_ONE:
        m = M.to_zero_one(m)
    _emit(M.model_to_json_dict(m), output)


@model.command("tilt")
@click.option("--model", "model_path", required=True)
@click.option("--theta", type=float, required=True)
@click.option("--pin", multiple=True, help="vertex=value, repeatable")
@click.option("-o", "--output", type=str, default=None)
def model_tilt(model_path, theta, pin, output):
    m = _load_model(model_path)
    pinning = {}
    for item in pin:
        v, s = item.split("=")
        pinning[int(v)] = int(s)
    _emit(M.model_to_json_dict(M.edge_tilt(m, theta, pinning)), output)


@model.command("assume")
@click.option("--p0", type=float, required=True)
@click.option("--k", type=float, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--delta", type=int, required=True)
def model_assume(p0, k, beta, delta):
    params = M.assumption_params(p0, k, beta, delta)
    _emit(vars(params), None)


# ---------------------------------------------------------------- oracle ---

@cli.group()
def oracle():
    """Exact small-model enumeration."""


@oracle.command("table")
@click.option("--model", "model_path", required=True)
@click.option("--binary", type=str, default=None, help="also write the binary table here")
@click.option("-o", "--output", type=str, default=None)
def oracle_table(model_path, binary, output):
    table = O.gibbs_table(_load_model(model_path))
    if binary:
        Path(binary).write_bytes(O.table_to_binary(table))
    _emit(O.table_to_json_dict(table), output)


@oracle.command("gap")
@click.option("--model", "model_path", required=True)
def oracle_gap(model_path):
    m = _load_model(model_path)
    report = O.glauber_gap(m)
    at = O.at_variance_constant(m)
    _emit({"gap": report.gap, "at_variance_constant": at,
           "free_vertices": len(m.free_vertices), "notes": report.notes}, None)


@oracle.command("cor2")
@click.option("--model", "model_path", required=True)
def oracle_cor2(model_path):
    m = _load_model(model_path)
    table = O.gibbs_table(m)
    _emit({"edges": [list(e) for e in m.graph.edges],
           "cor2": O.cor2_matrix(table)}, None)


@oracle.command("sweep")
@click.option("--model", "model_path", required=True)
@click.option("--thetas", default="0.0", help="comma-separated tilt grid")
def oracle_sweep(model_path, thetas):
    m = _load_model(model_path)
    grid = [float(x) for x in thetas.split(",")]
    rep = O.sup_cor2_over_pinnings(m, grid)
    _emit({
        "max_row_sum": rep.max_row_sum,
        "max_col_sum": rep.max_col_sum,
        "max_opnorm": rep.max_opnorm,
        "argmax_row": rep.argmax_row,
        "argmax_col": rep.argmax_col,
        "argmax_opnorm": rep.argmax_opnorm,
        "interpolation_ok": rep.interpolation_ok,
        "matrices_checked": rep.matrices_checked,
        "mode": rep.mode,
    }, None)


# ------------------------------------------------------------------- mix ---

@cli.group()
def mix():
    """Glauber dynamics runs, couplings and TV curves."""


@mix.command("run")
@click.option("--model", "model_path", required=True)
@click.option("--steps", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--init", type=click.Choice(["plus", "minus"]), default="plus")
@click.option("--trace", type=str, default=None, help="CSV of (step, magnetization, energy)")
def mix_run(model_path, steps, seed, init, trace):
    m = _load_model(model_path)
    one, zero = M.SPIN_VALUES[m.convention]
    vals = np.full(m.n, one if init == "plus" else zero, dtype=np.int8)
    for v, s in m.pinning.items():
        vals[v] = s
    state, trajectory = D.run_chain(
        m, M.SpinConfiguration(vals, m.convention), steps, seed,
        record_every=max(1, steps // 100) if trace else None)
    if trace:
        lines = ["step,magnetization,energy"]
        lines += [f"{s},{mag},{e}" for s, mag, e in trajectory]
        Path(trace).write_text("\n".join(lines) + "\n")
    _emit({"final": state.config.values().tolist(), "steps": state.step}, None)


@mix.command("couple")
@click.option("--model", "model_path", required=True)
@click.option("--steps", type=int, required=True)
@click.option("--seed", type=int, default=0)
def mix_couple(model_path, steps, seed):
    m = _load_model(model_path)
    one, zero = M.SPIN_VALUES[m.convention]
    lo = np.full(m.n, zero, dtype=np.int8)
    hi = np.full(m.n, one, dtype=np.int8)
    for v, s in m.pinning.items():
        lo[v] = hi[v] = s
    trace = D.monotone_coupled_run(
        m, M.SpinConfiguration(lo, m.convention), M.SpinConfiguration(hi, m.convention),
        steps, seed)
    _emit({
        "coalescence_step": trace.coalescence_step,
        "disagreements": sorted(trace.disagreement_set),
    }, None)


@mix.command("tvcurve")
@click.option("--model", "model_path", required=True)
@click.option("--steps", default="0,10,100", help="comma-separated step grid")
@click.option("--replicas", type=int, default=1000)
@click.option("--seed", type=int, default=0)
def mix_tvcurve(model_path, steps, replicas, seed):
    m = _load_model(model_path)
    one = 1
    vals = np.full(m.n, one, dtype=np.int8)
    for v, s in m.pinning.items():
        vals[v] = s
    grid = [int(x) for x in steps.split(",")]
    rows = D.empirical_tv_curve(m, M.SpinConfiguration(vals, m.convention), grid, replicas, seed)
    _emit(rows, None)


# -------------------------------------------------------------- localize ---

@cli.group()
def localize():
    """Edge-event noising traces, posteriors and conservation certificates."""


@localize.command("trace")
@click.option("--model", "model_path", required=True)
@click.option("--t", type=float, required=True)
@click.option("--seed", type=int, default=0)
def localize_trace(model_path, t, seed):
    m = _load_model(model_path)
    tr = L.sample_noising_trace(m, seed)
    _emit({
        "x": tr.x_sample.values().tolist(),
        "edge_uniforms": tr.edge_uniforms,
        "revealed": sorted(tr.revealed(t)),
    }, None)


@localize.command("posterior")
@click.option("--model", "model_path", required=True)
@click.option("--t", type=float, required=True)
@click.option("--revealed", default="", help="comma-separated edge indices")
@click.option("-o", "--output", type=str, default=None)
def localize_posterior(model_path, t, revealed, output):
    m = _load_model(model_path)
    edges = [int(x) for x in revealed.split(",") if x.strip() != ""]
    _emit(M.model_to_json_dict(L.posterior_model(m, t, edges)), output)


@localize.command("verify")
@click.option("--model", "model_path", required=True)
@click.option("--t", type=float, required=True)
@click.option("--traces", type=int, default=100000)
@click.option("--seed", type=int, default=0)
def localize_verify(model_path, t, traces, seed):
    m = _load_model(model_path)
    rep = L.verify_posterior_by_simulation(m, t, traces, seed)
    _emit({
        "max_tv": rep.max_tv,
        "buckets": [{"revealed": sorted(s), "hits": h, "tv": tv} for s, h, tv in rep.buckets],
    }, None)


@localize.command("certificate")
@click.option("--kind", type=click.Choice(["variance", "entropy"]), required=True)
@click.option("--theta", type=float, required=True)
@click.option("--rate-c", type=float, default=None, help="variance kind: the stability rate C")
@click.option("--eta-op", type=float, default=None)
@click.option("--k-low", type=float, default=None)
def localize_certificate(kind, theta, rate_c, eta_op, k_low):
    if kind == "variance":
        if rate_c is None:
            raise InputError("variance certificates need --rate-c")
        cert = L.variance_conservation_R(rate_c, theta)
    else:
        if eta_op is None or k_low is None:
            raise InputError("entropy certificates need --eta-op and --k-low")
        cert = L.entropy_conservation_R(eta_op, k_low, theta)
    _emit(vars(cert), None)


# --------------------------------------------------------------- certify ---

@cli.group()
def certify():
    """Percolation-backed certificates and tail reports."""


@certify.command("gap")
@click.option("--n", type=int, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--delta", type=int, required=True)
@click.option("--alpha-star", type=float, required=True)
@click.option("--eps", type=float, default=0.01)
@click.option("--field-l1", type=float, default=0.0)
def certify_gap(n, beta, delta, alpha_star, eps, field_l1):
    cert = P.gap_certificate(n, beta, delta, alpha_star)
    _emit({
        "gap_lower": cert.gap_lower,
        "log_gap_lower": cert.log_gap_lower,
        "tmix_upper": cert.tmix_upper(eps, field_l1),
        "failure_probability_note": cert.failure_probability_note,
    }, None)


@certify.command("mlsi")
@click.option("--n", type=int, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--delta", type=int, required=True)
@click.option("--alpha-star", type=float, required=True)
@click.option("--m-bound", type=float, required=True)
def certify_mlsi(n, beta, delta, alpha_star, m_bound):
    cert = P.mlsi_certificate(n, beta, delta, alpha_star, m_bound)
    _emit({"rho_lower": cert.rho_lower, "log_rho_lower": cert.log_rho_lower,
           "k_constant": cert.k_constant}, None)


@certify.command("tails")
@click.option("--graph", "graph_path", required=True)
@click.option("--beta", type=float, required=True)
@click.option("--p0", type=float, required=True)
@click.option("--k", type=float, required=True)
@click.option("--field-kind", default="two_point")
@click.option("--field-param", type=float, default=5.0)
@click.option("--trials", type=int, default=100)
@click.option("--seed", type=int, default=0)
@click.option("--m-grid", default="1,2,4,8")
@click.option("--thetas", default=None, help="defaults to the theta* grid")
def certify_tails(graph_path, beta, p0, k, field_kind, field_param, trials, seed, m_grid, thetas):
    g = _load_graph(graph_path)
    dist = _parse_field(field_kind, field_param, g.num_vertices)
    if thetas is None:
        grid = L.default_theta_grid(M.theta_star(beta))[:-1]
    else:
        grid = [float(x) for x in thetas.split(",")]
    rep = P.row_sum_tail_report(g, beta, grid, dist, k, p0, trials, seed,
                                [float(x) for x in m_grid.split(",")])
    _emit({
        "mode": rep.mode,
        "trials": rep.trials,
        "rows": [{
            "m": r.m, "bound": r.bound,
            "max_row_exceed_freq": float(r.row_exceed_freq.max(initial=0.0)),
            "max_col_exceed_freq": float(r.col_exceed_freq.max(initial=0.0)),
        } for r in rep.rows],
    }, None)


@certify.command("norm")
@click.option("--matrix", "matrix_path", required=True,
              help="JSON file holding a square matrix as nested lists")
def certify_norm(matrix_path):
    a = json.loads(Path(matrix_path).read_text())
    _emit(vars(P.norm_interpolation_check(a)), None)


@certify.command("percolate")
@click.option("--graph", "graph_path", required=True)
@click.option("--field-kind", default="two_point")
@click.option("--field-param", type=float, default=5.0)
@click.option("--field-seed", type=int, default=0)
@click.option("--k", type=float, required=True)
@click.option("--p0", type=float, required=True)
@click.option("--seed", type=int, default=0)
def certify_percolate(graph_path, field_kind, field_param, field_seed, k, p0, seed):
    g = _load_graph(graph_path)
    dist = _parse_field(field_kind, field_param, g.num_vertices)
    field = M.sample_field(dist, g.num_vertices, field_seed)
    real = P.percolate(g, field, k, p0, seed)
    _emit({"open": sorted(real.open_set),
           "provenance": real.provenance.tolist()}, None)


# -------------------------------------------------------------------- sl ---

@cli.group()
def sl():
    """Field boosting, WSM estimation, separation plans, probes."""


@sl.command("boost")
@click.option("--model", "model_path", required=True)
@click.option("--t", type=float, required=True)
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output", type=str, default=None)
def sl_boost_cmd(model_path, t, seed, output):
    real = S.sl_boost(_load_model(model_path), t, seed)
    _emit({
        "sigma_star": real.sigma_star.values().tolist(),
        "y": real.y,
        "boosted_model": M.model_to_json_dict(real.boosted_model),
    }, output)


@sl.command("wsm")
@click.option("--graph", "graph_path", required=True)
@click.option("--beta", type=float, required=True)
@click.option("--field-kind", default="two_point")
@click.option("--field-param", type=float, default=5.0)
@click.option("--radii", default="1,2,3")
@click.option("--trials", type=int, default=50)
@click.option("--seed", type=int, default=0)
@click.option("--vertices", default=None, help="defaults to all vertices")
@click.option("--csv", "csv_path", default=None)
def sl_wsm(graph_path, beta, field_kind, field_param, radii, trials, seed, vertices, csv_path):
    g = _load_graph(graph_path)
    dist = _parse_field(field_kind, field_param, g.num_vertices)
    verts = [int(x) for x in vertices.split(",")] if vertices else None
    rep = S.estimate_wsm(g, beta, dist, [int(x) for x in radii.split(",")], trials, seed,
                         vertices=verts)
    if csv_path:
        lines = ["vertex,radius,mean_delta,stderr"]
        for i, v in enumerate(rep.vertices):
            for j, r in enumerate(rep.radii):
                lines.append(f"{v},{r},{rep.mean_delta[i, j]},{rep.stderr[i, j]}")
        Path(csv_path).write_text("\n".join(lines) + "\n")
    _emit({"fitted_c": rep.fitted_c,
           "mean_delta": rep.mean_delta,
           "satisfied_at_fit": rep.satisfied(rep.fitted_c) if rep.fitted_c > 0 else None},
          None)


@sl.command("plan")
@click.option("--graph", "graph_path", required=True)
@click.option("--points", required=True, help="comma-separated vertex tuple")
def sl_plan(graph_path, points):
    g = _load_graph(graph_path)
    plan = S.build_separation_plan(g, [int(x) for x in points.split(",")])
    _emit({
        "points": list(plan.points),
        "r": list(plan.r),
        "nearest_earlier": [j if j is not None else None for j in plan.j],
        "k_star": plan.k_star,
        "selected": sorted(plan.a_set),
        "ell": {str(k): v for k, v in sorted(plan.ell.items())},
    }, None)


@sl.command("probe")
@click.option("--model", "model_path", required=True)
@click.option("--p", type=int, default=2)
@click.option("--t-grid", default="0,1,5")
@click.option("--realizations", type=int, default=500)
@click.option("--seed", type=int, default=0)
def sl_probe(model_path, p, t_grid, realizations, seed):
    m = _load_model(model_path)
    rep = S.trace_moment_probe(m, p, [float(x) for x in t_grid.split(",")], realizations, seed)
    _emit({"p": rep.p, "rows": list(rep.rows), "sup_mean": rep.sup_mean,
           "c0_fit": rep.c0_fit, "label": "fitted"}, None)


# ---------------------------------------------------------------- sample ---

@cli.group()
def sample():
    """Incremental warm-start sampling and experiment pipelines."""


@sample.command("incremental")
@click.option("--model", "model_path", required=True)
@click.option("--cstar", type=float, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--ordering-seed", type=int, default=0)
@click.option("--validate", is_flag=True, default=False)
@click.option("--replicas", type=int, default=1, help="replicas for --validate")
@click.option("--eps", type=float, default=0.05)
@click.option("--outdir", type=str, default=None)
def sample_incremental(model_path, cstar, seed, ordering_seed, validate, replicas, eps, outdir):
    m = _load_model(model_path)
    config = SA.SamplerConfig(c_star=cstar, seed=seed, ordering_seed=ordering_seed,
                              validate=validate)
    if validate:
        values, report = SA.validated_incremental_sample(m, config, replicas, eps)
        final = values[0]
    else:
        cfg, report0 = SA.incremental_sample(m, config)
        final, report = cfg.values(), report0
    payload = {
        "final": np.asarray(final).astype(int).tolist(),
        "ordering": list(report.ordering),
        "stage_steps": list(report.stage_steps),
        "total_updates": report.total_updates,
        "tv_vs_oracle": report.tv_vs_oracle,
    }
    if outdir:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "final_state.json").write_text(json.dumps(payload, indent=2))
    _emit(payload, None)


@sample.command("experiment")
@click.option("--config", "config_path", required=True)
@click.option("--outdir", type=str, default=None)
def sample_experiment(config_path, outdir):
    config = json.loads(Path(config_path).read_text())
    bundle = SA.run_experiment(config, output_dir=outdir)
    _emit(bundle, None)


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except ValidationFailure as exc:
        click.echo(f"validation failure: {exc}", err=True)
        return 2
    except CapacityError as exc:
        click.echo(f"capacity error: {exc}", err=True)
        return 3
    except (InputError, click.UsageError, OSError, json.JSONDecodeError, ValueError) as exc:
        click.echo(f"input error: {exc}", err=True)
        return 4
    except click.exceptions.Exit as exc:
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
