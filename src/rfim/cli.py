"""Command-line interface.

Thin wrappers over the library: subcommand groups graph / model / oracle /
mix / localize / certify / sl / sample, JSON on stdout or to files.  Exit
codes: 0 success, 2 validation failure, 3 capacity, 4 input error.

Every input is read by its click parameter type before a command runs, so
a bad one exits 4 without any work done:

- files: ``MODEL`` (``--model``, a model JSON), ``GRAPH`` (``--graph`` and
  ``graph info``'s path, JSON when the text starts with ``{``, else an edge
  list) and ``JSON`` (``--config``, ``--matrix``);
- lists: ``FLOATS`` and ``INTS`` read comma-separated items, each parsed
  strictly by ``float`` or ``int``; the empty string is the empty list;
- field kinds: ``--field-kind`` is one of ``FIELDS``, gaussian, uniform or
  two_point, each a ``FieldDistribution`` constructor of ``--field-param``;
- pins: ``PIN`` reads each ``--pin vertex=value`` of ``model tilt`` as a
  pair of ints.
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
    text = json.dumps(payload, indent=2, default=_jsonify, allow_nan=False)
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


class _File(click.ParamType):
    """A path option whose value is ``read`` applied to the file's text."""

    def __init__(self, name: str, read):
        self.name, self.read = name, read

    def convert(self, value, param, ctx):
        return self.read(Path(value).read_text())


class _List(_File):
    """A comma-separated option whose value is ``read`` applied to each item.

    It shares only the constructor of ``_File``: no file is read.  The empty
    string is the empty list; any other empty item fails ``read``.
    """

    def convert(self, value, param, ctx):
        return [self.read(x) for x in value.split(",")] if value else []


class _Pin(click.ParamType):
    """A ``vertex=value`` option whose value is the pair ``(vertex, value)`` of ints."""

    name = "pin"

    def convert(self, value, param, ctx):
        v, _, s = value.partition("=")
        try:
            return int(v), int(s)
        except ValueError:
            raise InputError(f"pin {value!r} is not of the form vertex=value") from None


def _graph_from_text(text: str) -> G.Graph:
    if text.lstrip().startswith("{"):
        return G.graph_from_json_text(text)
    return G.graph_from_edgelist_text(text)


MODEL = _File("model", M.model_from_json_text)
GRAPH = _File("graph", _graph_from_text)
JSON = _File("json", json.loads)
FLOATS, INTS = _List("floats", float), _List("ints", int)
PIN = _Pin()

FIELDS = {"gaussian": M.FieldDistribution.gaussian,
          "uniform": M.FieldDistribution.uniform_symmetric,
          "two_point": M.FieldDistribution.two_point}
FIELD_KIND = click.Choice(list(FIELDS))


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
    g = {"path": lambda: G.path_graph(n), "cycle": lambda: G.cycle_graph(n),
         "torus": lambda: G.torus_grid(rows, cols), "grid": lambda: G.grid_graph(rows, cols),
         "regular": lambda: G.random_regular_graph(n, degree, seed),
         "tree3": lambda: G.tree3(depth)}[kind]()
    if fmt == "edgelist":
        text = G.graph_to_edgelist_text(g)
        if output:
            Path(output).write_text(text)
        else:
            click.echo(text, nl=False)
    else:
        _emit(G.graph_to_json_dict(g), output)


@graph.command("info")
@click.argument("path", type=GRAPH)
def graph_info(path: G.Graph):
    _emit({
        "n": path.num_vertices,
        "edges": path.num_edges,
        "max_degree": path.max_degree(),
        "connected": G.is_connected(path),
    }, None)


# ----------------------------------------------------------------- model ---

@cli.group()
def model():
    """Model construction, tilting and parameter checks."""


@model.command("make")
@click.option("--graph", "g", type=GRAPH, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--field-kind", type=FIELD_KIND, default="two_point")
@click.option("--field-param", type=float, default=1.0)
@click.option("--seed", type=int, default=0)
@click.option("--convention", type=click.Choice([M.PM, M.ZERO_ONE]), default=M.PM)
@click.option("-o", "--output", type=str, default=None)
def model_make(g, beta, field_kind, field_param, seed, convention, output):
    dist = FIELDS[field_kind](field_param)
    field = M.sample_field(dist, g.num_vertices, seed)
    m = M.IsingModel.uniform(g, beta, field.values, convention=M.PM)
    if convention == M.ZERO_ONE:
        m = M.to_zero_one(m)
    _emit(M.model_to_json_dict(m), output)


@model.command("tilt")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--theta", type=float, required=True)
@click.option("--pin", type=PIN, multiple=True, help="vertex=value, repeatable")
@click.option("-o", "--output", type=str, default=None)
def model_tilt(m, theta, pin, output):
    _emit(M.model_to_json_dict(M.edge_tilt(m, theta).with_pinning(dict(pin))), output)


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
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--binary", type=str, default=None, help="also write the binary table here")
@click.option("-o", "--output", type=str, default=None)
def oracle_table(m, binary, output):
    table = O.gibbs_table(m)
    if binary:
        Path(binary).write_bytes(O.table_to_binary(table))
    _emit(O.table_to_json_dict(table), output)


@oracle.command("gap")
@click.option("--model", "m", type=MODEL, required=True)
def oracle_gap(m):
    report = O.glauber_gap(m)
    _emit({"gap": report.gap, "at_variance_constant": report.at_variance_constant,
           "free_vertices": len(m.free_vertices), "notes": report.notes}, None)


@oracle.command("cor2")
@click.option("--model", "m", type=MODEL, required=True)
def oracle_cor2(m):
    table = O.gibbs_table(m)
    _emit({"edges": [list(e) for e in m.graph.edges],
           "cor2": O.cor2_matrix(table)}, None)


@oracle.command("sweep")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--thetas", type=FLOATS, default="0.0", help="comma-separated tilt grid")
def oracle_sweep(m, thetas):
    rep = O.sup_cor2_over_pinnings(m, thetas)
    _emit({k: v for k, v in vars(rep).items()
           if k not in ("per_edge_row_max", "per_edge_col_max")}, None)


# ------------------------------------------------------------------- mix ---

@cli.group()
def mix():
    """Glauber dynamics runs, couplings and TV curves."""


def _start(m, value):
    """Start state: every free vertex at ``value``, pinned vertices at their pins."""
    return M.SpinConfiguration(m.full_values(value), m.convention)


@mix.command("run")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--steps", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--init", type=click.Choice(["plus", "minus"]), default="plus")
@click.option("--trace", type=str, default=None, help="CSV of (step, magnetization, energy)")
def mix_run(m, steps, seed, init, trace):
    one, zero = M.SPIN_VALUES[m.convention]
    state, trajectory = D.run_chain(
        m, _start(m, one if init == "plus" else zero), steps, seed,
        record_every=max(1, steps // 100) if trace else None)
    if trace:
        lines = ["step,magnetization,energy"]
        lines += [f"{s},{mag},{e}" for s, mag, e in trajectory]
        Path(trace).write_text("\n".join(lines) + "\n")
    _emit({"final": state.config.values().tolist(), "steps": state.step}, None)


@mix.command("couple")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--steps", type=int, required=True)
@click.option("--seed", type=int, default=0)
def mix_couple(m, steps, seed):
    one, zero = M.SPIN_VALUES[m.convention]
    trace = D.monotone_coupled_run(m, _start(m, zero), _start(m, one), steps, seed)
    _emit({
        "coalescence_step": trace.coalescence_step,
        "disagreements": sorted(trace.disagreement_set),
    }, None)


@mix.command("tvcurve")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--steps", type=INTS, default="0,10,100", help="comma-separated step grid")
@click.option("--replicas", type=int, default=1000)
@click.option("--seed", type=int, default=0)
def mix_tvcurve(m, steps, replicas, seed):
    rows = D.empirical_tv_curve(m, _start(m, 1), steps, replicas, seed)
    _emit(rows, None)


# -------------------------------------------------------------- localize ---

@cli.group()
def localize():
    """Edge-event noising traces, posteriors and conservation certificates."""


@localize.command("trace")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--t", type=float, required=True)
@click.option("--seed", type=int, default=0)
def localize_trace(m, t, seed):
    tr = L.sample_noising_trace(m, seed)
    _emit({
        "x": tr.x_sample.values().tolist(),
        "edge_uniforms": tr.edge_uniforms,
        "revealed": sorted(tr.revealed(t)),
    }, None)


@localize.command("posterior")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--t", type=float, required=True)
@click.option("--revealed", type=INTS, default="", help="comma-separated edge indices")
@click.option("-o", "--output", type=str, default=None)
def localize_posterior(m, t, revealed, output):
    _emit(M.model_to_json_dict(L.posterior_model(m, t, revealed)), output)


@localize.command("verify")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--t", type=float, required=True)
@click.option("--traces", type=int, default=100000)
@click.option("--seed", type=int, default=0)
def localize_verify(m, t, traces, seed):
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
@click.option("--graph", "g", type=GRAPH, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--p0", type=float, required=True)
@click.option("--k", type=float, required=True)
@click.option("--field-kind", type=FIELD_KIND, default="two_point")
@click.option("--field-param", type=float, default=5.0)
@click.option("--trials", type=int, default=100)
@click.option("--seed", type=int, default=0)
@click.option("--m-grid", type=FLOATS, default="1,2,4,8")
@click.option("--thetas", type=FLOATS, default=None, help="defaults to the theta* grid")
def certify_tails(g, beta, p0, k, field_kind, field_param, trials, seed, m_grid, thetas):
    dist = FIELDS[field_kind](field_param)
    if thetas is None:
        thetas = L.default_theta_grid(M.theta_star(beta))[:-1]
    rep = P.row_sum_tail_report(g, beta, thetas, dist, k, p0, trials, seed, m_grid)
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
@click.option("--matrix", "a", type=JSON, required=True,
              help="JSON file holding a square matrix as nested lists")
def certify_norm(a):
    _emit(vars(P.norm_interpolation_check(a)), None)


@certify.command("percolate")
@click.option("--graph", "g", type=GRAPH, required=True)
@click.option("--field-kind", type=FIELD_KIND, default="two_point")
@click.option("--field-param", type=float, default=5.0)
@click.option("--field-seed", type=int, default=0)
@click.option("--k", type=float, required=True)
@click.option("--p0", type=float, required=True)
@click.option("--seed", type=int, default=0)
def certify_percolate(g, field_kind, field_param, field_seed, k, p0, seed):
    dist = FIELDS[field_kind](field_param)
    field = M.sample_field(dist, g.num_vertices, field_seed)
    real = P.percolate(g, field, k, p0, seed)
    _emit({"open": sorted(real.open_set),
           "provenance": real.provenance.tolist()}, None)


# -------------------------------------------------------------------- sl ---

@cli.group()
def sl():
    """Field boosting, WSM estimation, separation plans, probes."""


@sl.command("boost")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--t", type=float, required=True)
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output", type=str, default=None)
def sl_boost_cmd(m, t, seed, output):
    real = S.sl_boost(m, t, seed)
    _emit({
        "sigma_star": real.sigma_star.values().tolist(),
        "y": real.y,
        "boosted_model": M.model_to_json_dict(real.boosted_model),
    }, output)


@sl.command("wsm")
@click.option("--graph", "g", type=GRAPH, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--field-kind", type=FIELD_KIND, default="two_point")
@click.option("--field-param", type=float, default=5.0)
@click.option("--radii", type=INTS, default="1,2,3")
@click.option("--trials", type=int, default=50)
@click.option("--seed", type=int, default=0)
@click.option("--vertices", type=INTS, default=None, help="defaults to all vertices")
@click.option("--csv", "csv_path", default=None)
def sl_wsm(g, beta, field_kind, field_param, radii, trials, seed, vertices, csv_path):
    dist = FIELDS[field_kind](field_param)
    rep = S.estimate_wsm(g, beta, dist, radii, trials, seed, vertices=vertices or None)
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
@click.option("--graph", "g", type=GRAPH, required=True)
@click.option("--points", type=INTS, required=True, help="comma-separated vertex tuple")
def sl_plan(g, points):
    plan = S.build_separation_plan(g, points)
    _emit({
        "points": list(plan.points),
        "r": list(plan.r),
        "nearest_earlier": [j if j is not None else None for j in plan.j],
        "k_star": plan.k_star,
        "selected": sorted(plan.a_set),
        "ell": {str(k): v for k, v in sorted(plan.ell.items())},
    }, None)


@sl.command("probe")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--p", type=int, default=2)
@click.option("--t-grid", type=FLOATS, default="0,1,5")
@click.option("--realizations", type=int, default=500)
@click.option("--seed", type=int, default=0)
def sl_probe(m, p, t_grid, realizations, seed):
    rep = S.trace_moment_probe(m, p, t_grid, realizations, seed)
    _emit({"p": rep.p, "rows": list(rep.rows), "sup_mean": rep.sup_mean,
           "c0_fit": rep.c0_fit, "label": "fitted"}, None)


# ---------------------------------------------------------------- sample ---

@cli.group()
def sample():
    """Incremental warm-start sampling and experiment pipelines."""


@sample.command("incremental")
@click.option("--model", "m", type=MODEL, required=True)
@click.option("--cstar", type=float, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--ordering-seed", type=int, default=0)
@click.option("--validate", is_flag=True, default=False)
@click.option("--replicas", type=int, default=1, help="replicas for --validate")
@click.option("--eps", type=float, default=0.05)
@click.option("--outdir", type=str, default=None)
def sample_incremental(m, cstar, seed, ordering_seed, validate, replicas, eps, outdir):
    config = SA.SamplerConfig(c_star=cstar, seed=seed, ordering_seed=ordering_seed,
                              validate=validate)
    if validate:
        values, report = SA.validated_incremental_sample(m, config, replicas, eps)
    else:
        values, report = SA.incremental_sample_batch(m, config, 1)
    payload = {
        "final": values[0].astype(int).tolist(),
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
@click.option("--config", type=JSON, required=True)
@click.option("--outdir", type=str, default=None)
def sample_experiment(config, outdir):
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
