"""Benchmark of the rfim package, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports ``rfim`` from ``src/`` of the checkout, sets up the workload, then
runs jobs for S seconds and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are its per-layer metrics, from jobs run alternately without and with
the tracer on the same inputs.  A line before it holds the per-call medians,
the trace table and the machine facts.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # pinned at or below nproc, before numpy loads
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used to repeat set-up)")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_lib,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def summary(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 20:
        q = int(100 * (1 - 10 / len(values)))
        out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    return out


class Reference:
    """Fixed reference work, timed around every call on the same core.

    The cores of a shared machine change speed by tens of percent between and
    within runs, and a process keeps its core for long stretches.  The
    end-to-end job metric divides each call's time by the reference time
    measured just before and after it, which cancels much of that drift.
    Contention slows interpreter-bound, memory-bound and BLAS-bound code by
    different factors, so the reference has one part of each kind, and a
    call is divided by the part named by its ``Call.bound``.
    """

    PARTS = ("interpreter", "memory", "blas")

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.vector = rng.random(64)
        self.big = rng.random(2_000_000)
        self.square = rng.random((256, 256))

    def seconds(self) -> dict[str, float]:
        """Seconds taken by each part."""
        import numpy as np

        marks = [time.perf_counter()]
        acc = 0
        for i in range(20_000):
            acc += i * i
        pairs = {}
        for i in range(3000):
            pairs[(min(i, 3000 - i), max(i, 3000 - i))] = len(pairs)
        sorted(pairs.items(), key=lambda kv: kv[1] % 97)
        x = self.vector
        for _ in range(300):
            np.where(x < 0.5, np.exp(-x), 1.0 - x).sum()
        marks.append(time.perf_counter())
        for _ in range(4):
            self.big.sum()
        marks.append(time.perf_counter())
        for _ in range(4):
            self.square @ self.square
        marks.append(time.perf_counter())
        return {part: marks[i + 1] - marks[i] for i, part in enumerate(self.PARTS)}


def run_job(calls, reference, tracer=None):
    """Run one job's calls, then check them.

    Returns the seconds of each passing call, each call's seconds over the
    mean of the matching reference part around it, and the failures.
    """
    from workloads import CheckFailed

    times, ratios, results, failures = {}, {}, [], []
    before = reference.seconds()
    for call in calls:
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = call.run()
            except Exception:  # a failing call is counted, and the run goes on
                failures.append(f"{call.kind}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                seconds = time.perf_counter() - start
        after = reference.seconds()
        times[call.kind] = seconds
        ratios[call.kind] = seconds / (0.5 * (before[call.bound] + after[call.bound]))
        before = after
        results.append((call, result))
    for call, result in results:
        try:
            call.check(result)
        except CheckFailed as exc:
            failures.append(f"{call.kind}: {exc}")
            del times[call.kind], ratios[call.kind]
    return times, ratios, failures


def set_up(name: str, seed: int, workdir: Path):
    """Build the workload's inputs and warm every call path on small inputs."""
    from workloads import WARMUP, WORKLOADS

    cls = WORKLOADS[name]
    for call in cls(small=True, workdir=workdir).job(seed, WARMUP, 0):
        call.run()
    return cls(small=False, workdir=workdir)


def fresh_setup_s(args) -> float:
    """Set-up time of a fresh interpreter, run to completion."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rfim
    except ImportError as exc:
        print(f"cannot import rfim from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(rfim.__file__).resolve().is_relative_to(src):
        print(f"rfim was imported from {rfim.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    from tracer import Tracer

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        wl = set_up(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        facts = machine_facts(args.seed)
        if args.trace:
            return measure_traced(args, spec, wl, facts, Tracer())
        return measure(args, spec, wl, facts, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still has its directory there
            pass


def run_jobs(args, wl, reference, tracers):
    """Run jobs until the time is up, each once per entry of ``tracers`` on the same inputs.

    Returns, per tracer entry, the seconds and reference ratios of each call
    kind, plus the number of jobs, calls attempted and failures.
    """
    from workloads import JOB

    runs = [({}, {}) for _ in tracers]
    failures: list[str] = []
    attempted = 0
    job = 0
    start = time.perf_counter()
    while job == 0 or time.perf_counter() - start < args.seconds:
        # Alternate which entry goes first, so neither always runs on a warm cache.
        order = list(zip(tracers, runs))[::-1 if job % 2 else 1]
        for tracer, (times, ratios) in order:
            calls = wl.job(args.seed, JOB, job)
            attempted += len(calls)
            got, got_ratios, failed = run_job(calls, reference, tracer)
            failures += failed
            for kind in got:
                times.setdefault(kind, []).append(got[kind])
                ratios.setdefault(kind, []).append(got_ratios[kind])
        job += 1
    return runs, job, attempted, failures


def job_ref(ratios: dict) -> float:
    """Job time in reference units: the sum over call kinds of the median ratio."""
    return sum(statistics.median(values) for values in ratios.values())


def measure(args, spec, wl, facts, setup_s) -> int:
    # Set-up runs three times: here, in a fresh interpreter before the jobs
    # and in another after them, so that one slow moment does not set the median.
    setups = [setup_s, fresh_setup_s(args)]
    [(times, ratios)], jobs, attempted, failures = run_jobs(args, wl, Reference(), [None])
    setups.append(fresh_setup_s(args))
    calls = {kind: summary(values) for kind, values in times.items()}
    named = {kind: s["median"] for kind, s in calls.items()}
    for kind, (rate_name, work) in wl.rates().items():
        if kind in named:
            named[rate_name] = work / named[kind]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_ref": job_ref(ratios),
    }
    detail = {"workload": args.workload, "jobs": jobs, "calls_s": calls, "named": named,
              "calls_ref": {kind: statistics.median(v) for kind, v in ratios.items()},
              "setup_runs_s": setups, "facts": facts, "failures": failures[:5]}
    return emit(spec["end_to_end"], values, attempted, len(failures), detail)


def measure_traced(args, spec, wl, facts, tracer) -> int:
    """Run each job without and with the tracer; per-layer numbers come from the latter."""
    names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_frac"]
    for name in names:  # fail before measuring if a declared metric is unknown
        tracer.value(name, 1)
    runs, jobs, attempted, failures = run_jobs(args, wl, Reference(), [None, tracer])
    (plain_s, plain), (traced_s, traced) = runs
    values = {name: tracer.value(name, jobs) for name in names}
    values["trace.overhead_frac"] = job_ref(traced) / job_ref(plain) - 1.0
    detail = {"workload": args.workload, "jobs": jobs,
              "untraced_calls_s": {k: statistics.median(v) for k, v in plain_s.items()},
              "traced_calls_s": {k: statistics.median(v) for k, v in traced_s.items()},
              "spans": tracer.table(jobs), "facts": facts, "failures": failures[:5]}
    return emit(spec["per_layer"], values, attempted, len(failures), detail)


def emit(declared, values, attempted, failed, detail) -> int:
    print(json.dumps({"detail": detail}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
