"""Per-layer tracing for the benchmark, done from outside the package.

A ``Tracer`` replaces functions of the ``rfim`` modules (the layers) with
wrappers that time each call.  While installed it patches every binding of a
target function in every loaded ``rfim`` module, so a call made from another
module through ``from .x import f`` is charged to the layer that defines
``f``.  Self time is a span's duration minus the time its child spans cover.

Targets are every public function a layer module defines, plus the few
private or method targets in ``EXTRA``.  A target that no longer exists is
skipped and one that is never called reports zero, so the benchmark keeps
working while later changes delete or stop calling functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("graphs", "model", "oracle", "dynamics", "sampler", "localization", "slwsm",
          "percolation", "cli")

# Non-public targets traced beside the public functions: (layer, attribute path).
EXTRA = (("graphs", "Graph.has_edge"), ("dynamics", "_dense_coupling"))

# Work counted per call, in model units:
# span -> (work name, rate name, count(bound arguments, result)).
WORK = {
    "dynamics.run_chains_batch": (
        "replica_updates", "updates_per_s", lambda a, r: len(a["init_values"]) * a["steps"]),
    "dynamics.monotone_coupled_batch": (
        "replica_updates", "updates_per_s", lambda a, r: 2 * a["runs"] * a["steps"]),
    "dynamics.run_chain": ("updates", "updates_per_s", lambda a, r: a["steps"]),
    "oracle.gibbs_table": ("configs", "configs_per_s", lambda a, r: len(r.probs)),
    "oracle.sup_cor2_over_pinnings": (
        "matrices", "matrices_per_s", lambda a, r: r.matrices_checked),
    "sampler.incremental_sample_batch": (
        "stages", "stages_per_s", lambda a, r: len(r[1].stage_steps)),
}

# Per-layer metric names that are not of the form <layer>.<function>.<field>.
ALIASES = {
    "sampler.stages": ("sampler.incremental_sample_batch", "stages"),
    "sampler.stage_s": ("sampler.incremental_sample_batch", "s_per_work"),
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    work_errors: int = 0


def _targets() -> dict:
    """Span name -> (holder of the attribute, attribute name, original function)."""
    out = {}
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"rfim.{layer}")
        except ImportError:
            continue
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                out[f"{layer}.{name}"] = (mod, name, obj)
    for layer, path in EXTRA:
        holder = sys.modules.get(f"rfim.{layer}")
        *owners, attr = path.split(".")
        for owner in owners:
            holder = getattr(holder, owner, None)
        fn = getattr(holder, attr, None)
        if inspect.isfunction(fn):
            out[f"{layer}.{attr}"] = (holder, attr, fn)
    return out


class Tracer:
    """Context manager that traces rfim calls while it is entered.

    Statistics accumulate over every entry, so one tracer can cover many
    jobs; ``value`` divides them by the number of traced jobs.
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for span, (holder, attr, fn) in _targets().items():
            wrapper = self._wrap(span, fn)
            # Every other rfim binding of the same function object gets the wrapper too.
            bindings = {(id(holder), attr): (holder, attr)}
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "rfim" or mod_name.startswith("rfim.")):
                    continue
                for name, value in vars(mod).items():
                    if value is fn:
                        bindings[(id(mod), name)] = (mod, name)
            for target, name in bindings.values():
                self._patches.append((target, name, fn, wrapper))

    def __enter__(self):
        for holder, name, _, wrapper in self._patches:
            setattr(holder, name, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, name, original, _ in self._patches:
            setattr(holder, name, original)
        return False

    def _wrap(self, span: str, fn):
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack
        work = WORK.get(span)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if work is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    stats.work += int(work[2](bound.arguments, result))
                except (TypeError, AttributeError, KeyError, IndexError, ValueError):
                    # A changed signature or result type must not break the run.
                    stats.work_errors += 1
            return result

        return traced

    def value(self, metric: str, jobs: int) -> float:
        """One per-layer metric; counts and times are per traced job."""
        jobs = max(jobs, 1)
        if metric in ALIASES:
            span, field = ALIASES[metric]
        else:
            parts = metric.split(".")
            if len(parts) == 2:
                return self._layer_total(parts[0], parts[1]) / jobs
            if len(parts) != 3:
                raise KeyError(f"unknown per-layer metric {metric!r}")
            span, field = f"{parts[0]}.{parts[1]}", parts[2]
        s = self.stats.get(span, SpanStats())
        work_name, rate_name, _ = WORK.get(span, (None, None, None))
        if field in ("calls", "total_s", "self_s"):
            return getattr(s, field) / jobs
        if field == work_name:
            return s.work / jobs
        if field == rate_name:
            return s.work / s.total_s if s.total_s > 0 else 0.0
        if field == "s_per_work" and work_name:
            return s.total_s / s.work if s.work > 0 else 0.0
        raise KeyError(f"unknown per-layer metric {metric!r}")

    def _layer_total(self, layer: str, field: str) -> float:
        if field not in ("calls", "self_s"):
            raise KeyError(f"unknown layer field {field!r}")
        return sum(getattr(s, field) for span, s in self.stats.items()
                   if span.split(".")[0] == layer)

    def table(self, jobs: int, top: int = 25) -> list[dict]:
        """The spans with the largest self time, per traced job."""
        jobs = max(jobs, 1)
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1].self_s)
        return [{"span": span, "calls": s.calls / jobs, "self_s": s.self_s / jobs,
                 "total_s": s.total_s / jobs, "work": s.work / jobs,
                 "work_errors": s.work_errors}
                for span, s in rows[:top] if s.calls]
