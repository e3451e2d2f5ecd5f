"""triadeform benchmark: seeded closed-loop job streams, one per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process sends one job at a time; the next job starts when
the previous one returns.  A job is a call (or a short sequence of calls)
into the public API of the library in `src/`, timed from outside.  Before
each execution, a workload's `prepare` (if it has one) builds the fresh
library state the job starts from, outside the timed span.  Each result is
checked by an oracle restated in `perfbench/oracles.py` or in the workload
file, also outside the timed span; every mismatch or exception counts as a
failed job.  Jobs come in rounds that hold a fixed multiset of job kinds.  A
run makes PASSES passes over the same jobs: the first pass takes whole
rounds until it has used its share of `--seconds` of wall time and at least
MIN_JOBS jobs ran (so that ten samples lie beyond the 90th percentile).
The speed of the shared machine drifts by up to two times over seconds to
minutes, so each round also times a fixed reference computation
(`calibrate.py`) at its start and every REF_EVERY_S between jobs, and scales
its latencies to the nominal speed by the round's median reference time.  A
job's latency is the median of its scaled executions, and the percentiles
are Harrell-Davis estimates (`quantile`).

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the first
rounds of the same stream once untraced and once with every public entry
point of every module wrapped (`trace_layers.py`), then times the cli layer
on the first rounds of the `cli` stream in a child process, and prints the
per-layer metrics.  Spans and per-job aggregates are written to
`perfbench/out/`.  `BENCHMARK.json` lists every workload but `cli`, whose
cold calls are too few per run to be steady; run that one by hand.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it carries
the run's context (machine, versions, stream digest, job counts per kind,
percentile sample counts, error ratio).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = {
    "normal-form": "wl_normal_form",
    "finite-fo": "wl_finite_fo",
    "cocycle-calculus": "wl_cocycle",
    "cli": "wl_cli",
}
DEV_SEED = 1
HELD_OUT_SEED = 20261017  # reserved for confirming claims; never tune on it
MIN_JOBS = 100
PASSES = 6  # a job's latency is the median of this many executions, one pass apart
REF_EVERY_S = 0.02  # how often run_round times the reference computation
SETUP_REPEATS = 5
SETUP_REFS = 5  # reference timings before each build of the inputs
GENERATED_ROUNDS = 48
WALL_LIMIT_S = 140.0
IMPORT_PROBE = "import time; t = time.perf_counter(); import triadeform.cli; print(time.perf_counter() - t)"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_probe() -> tuple[float, float]:
    """(wall seconds from process start to exit, in-child import seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"importing triadeform in a child failed: {proc.stderr.strip()[-500:]}")
    return wall, float(proc.stdout.strip())


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th quantile: the mean of all order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) density over each
    one's share of [0, 1].  Where job kinds of different cost meet near the
    quantile, one order statistic jumps from one kind to the other as noise
    or the seed reorders a few jobs; the weighted mean moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 8  # midpoint rule, steps points per order statistic
    logs = [
        (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
        for x in ((i + 0.5) / (n * steps) for i in range(n * steps))
    ]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps : (i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def stream_digest(rounds) -> str:
    # descriptors are tuples, dicts, ints, Fractions and strings, all with a
    # deterministic repr, and generation fills dicts in a fixed order
    return hashlib.sha256(repr(rounds).encode()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "triadeform").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def context_info(args) -> dict:
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": sympy_version,
        "commit": commit(),
        "source_digest": source_digest(),
        "closed_loop": {"clients": 1, "threads": 1},
    }


# ---------------------------------------------------------------------------
# running jobs


class Outcome:
    """Per job of a run: its kind, the latency of each of its executions
    (scaled and as measured), and whether every execution passed its
    oracle."""

    def __init__(self):
        self.kinds: list[str] = []
        self.times: list[list[float]] = []  # scaled to the nominal speed
        self.raw_times: list[list[float]] = []  # as measured
        self.refs: list[float] = []  # reference times taken between jobs
        self.ok: list[bool] = []
        self.executions = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pass_busy: list[float] = []

    def record(self, j: int, kind: str, raw: float, scaled: float, ok: bool, why: str | None) -> None:
        self.executions += 1
        if j == len(self.times):
            self.kinds.append(kind)
            self.times.append([scaled])
            self.raw_times.append([raw])
            self.ok.append(ok)
        else:
            self.times[j].append(scaled)
            self.raw_times[j].append(raw)
            self.ok[j] = self.ok[j] and ok
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{kind}: {why}")

    @property
    def latencies(self) -> list[float]:
        """Each job's median execution latency, at the nominal speed."""
        return [statistics.median(t) for t in self.times]

    @property
    def raw_latencies(self) -> list[float]:
        """Each job's median execution latency, as measured."""
        return [statistics.median(t) for t in self.raw_times]

    def per_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for k in self.kinds:
            out[k] = out.get(k, 0) + 1
        return dict(sorted(out.items()))

    def kind_p50_ms(self) -> dict[str, float]:
        by_kind: dict[str, list[float]] = {}
        for k, t in zip(self.kinds, self.latencies):
            by_kind.setdefault(k, []).append(t)
        return {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())}

    def kinds_at(self, q: float) -> list[str]:
        """The kinds of the two jobs around the q-th percentile's rank."""
        order = sorted(range(len(self.latencies)), key=self.latencies.__getitem__)
        pos = q * (len(order) - 1)
        return [self.kinds[order[int(pos)]], self.kinds[order[min(int(pos) + 1, len(order) - 1)]]]


def execute(wl, ctx, job, tracer=None, tag=None) -> tuple[float, bool, str | None]:
    """Prepare one job's state, time the job, then check it; only the job
    itself is inside the timed span.  `tag` names the job in the trace."""
    if tracer is not None:
        tracer.job = "setup"
    try:
        fresh = wl.prepare(ctx, job) if hasattr(wl, "prepare") else None
    except Exception as exc:
        return 0.0, False, f"prepare raised {type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.job = tag
    err = None
    t0 = time.perf_counter()
    try:
        result = wl.run(ctx, job, fresh) if hasattr(wl, "prepare") else wl.run(ctx, job)
    except Exception as exc:  # a raising job is a failed job, never a crash
        result, err = None, exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.job = "oracle"
    if err is not None:
        return dt, False, f"raised {type(err).__name__}: {err}"
    try:
        ok = bool(wl.check(ctx, job, result))
    except Exception as exc:
        return dt, False, f"oracle raised {type(exc).__name__}: {exc}"
    return dt, ok, None if ok else "oracle mismatch"


def run_round(wl, ctx, jobs, out: Outcome, j0: int, tracer=None) -> float:
    """Run one round's jobs as jobs j0, j0 + 1, ... of `out`, timing the
    reference computation at its start and every REF_EVERY_S between jobs;
    returns the round's busy time.  Each latency is recorded as measured and
    scaled to the nominal speed by the round's median reference time."""
    refs = [calibrate.sample()]
    last = time.perf_counter()
    ran = []
    for j, job in enumerate(jobs, j0):
        if time.perf_counter() - last >= REF_EVERY_S:
            refs.append(calibrate.sample())
            last = time.perf_counter()
        ran.append((j, job[0], *execute(wl, ctx, job, tracer, j)))
    scale = calibrate.NOMINAL_S / statistics.median(refs)
    out.refs.extend(refs)
    busy = 0.0
    for j, kind, dt, ok, why in ran:
        out.record(j, kind, dt, dt * scale, ok, why)
        busy += dt
    return busy


def pin(cpus: list[int], k: int) -> None:
    """Run pass k on one CPU, taking the CPUs in turn.  On a shared host one
    CPU can run slower than another for seconds at a time, because of what
    its neighbours do; with passes on every CPU, a job's median execution
    does not depend on one CPU's neighbours."""
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def timed_loop(wl, ctx, rounds, seconds: float, started: float, between) -> tuple[Outcome, int]:
    """The first pass runs whole rounds until it has used its share of the
    wall time and MIN_JOBS jobs; the other passes rerun exactly those rounds.
    `between()` runs after each pass, on that pass's CPU."""
    passes = getattr(wl, "PASSES", PASSES)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    out = Outcome()
    done: list[list] = []
    n = 0
    busy = 0.0
    pin(cpus, 0)
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds / passes or n < MIN_JOBS:
        jobs = rounds[len(done) % len(rounds)]
        busy += run_round(wl, ctx, jobs, out, n)
        done.append(jobs)
        n += len(jobs)
        if time.perf_counter() - started > WALL_LIMIT_S:
            break
    out.pass_busy.append(busy)
    between()
    for k in range(1, passes):
        if time.perf_counter() - started > WALL_LIMIT_S:
            break
        pin(cpus, k)
        busy = 0.0
        n = 0
        for jobs in done:
            busy += run_round(wl, ctx, jobs, out, n)
            n += len(jobs)
        out.pass_busy.append(busy)
        between()
    if len(cpus) > 1:
        os.sched_setaffinity(0, set(cpus))
    return out, len(done)


def close(wl, ctx) -> None:
    if ctx is not None and hasattr(wl, "teardown"):
        wl.teardown(ctx)


def build_setup(wl, T, seed: int):
    t0 = time.perf_counter()
    rounds = wl.generate(seed, GENERATED_ROUNDS)
    ctx = wl.setup(T, rounds)
    return rounds, ctx, time.perf_counter() - t0


def end_to_end(args, wl, T, info, started) -> dict:
    # Import probes run once before the timed loop and once after each pass,
    # so they sample the machine over the whole run.  The in-process builds
    # are scaled to the nominal speed like job latencies, by reference
    # timings taken before each build.
    probes = [import_probe()]
    refs = []
    builds = []
    ctx = rounds = None
    for _ in range(SETUP_REPEATS):
        close(wl, ctx)
        ctx = rounds = None
        gc.collect()
        refs.extend(calibrate.sample() for _ in range(SETUP_REFS))
        rounds, ctx, elapsed = build_setup(wl, T, args.seed)
        builds.append(elapsed)
    build_scale = calibrate.NOMINAL_S / statistics.median(refs)
    info["stream_digest"] = stream_digest(rounds)
    try:
        out, n_rounds = timed_loop(wl, ctx, rounds, args.seconds, started, lambda: probes.append(import_probe()))
    finally:
        close(wl, ctx)
    import_wall = statistics.median(p[0] for p in probes)
    setup_s = import_wall + statistics.median(builds) * build_scale
    lat, raw = out.latencies, out.raw_latencies
    p90 = quantile(lat, 0.9)
    rss_kind = resource.RUSAGE_CHILDREN if getattr(wl, "RSS_OF_CHILDREN", False) else resource.RUSAGE_SELF
    info.update(
        {
            "rounds": n_rounds,
            "passes": len(out.pass_busy),
            "pass_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "pass_busy_s": out.pass_busy,
            "jobs_per_kind": out.per_kind(),
            "kind_p50_ms": out.kind_p50_ms(),
            "kinds_at": {"job_p50_ms": out.kinds_at(0.5), "job_p90_ms": out.kinds_at(0.9)},
            "samples": {"job_p50_ms": len(lat), "job_p90_ms": len(lat), "beyond_p90": sum(1 for v in lat if v > p90)},
            "error_ratio": {"value": out.failed / out.executions, "unit": "ratio"},
            "reference_ms": {
                "nominal": calibrate.NOMINAL_S * 1e3,
                "median": statistics.median(out.refs) * 1e3,
                "quartiles": [q * 1e3 for q in statistics.quantiles(out.refs, n=4)],
                "samples": len(out.refs),
            },
            "as_measured": {
                "setup_s": import_wall + statistics.median(builds),
                "jobs_per_s": out.ok.count(True) / sum(raw),
                "job_p50_ms": quantile(raw, 0.5) * 1e3,
                "job_p90_ms": quantile(raw, 0.9) * 1e3,
            },
            "failures": out.failures,
            "setup_parts_s": {"process_and_import": [p[0] for p in probes], "inputs_and_tables": builds},
            "peak_rss_of": "children" if rss_kind == resource.RUSAGE_CHILDREN else "self",
        }
    )
    metrics = {
        "jobs_per_s": {"value": out.ok.count(True) / sum(lat), "unit": "jobs/s"},
        "job_p50_ms": {"value": quantile(lat, 0.5) * 1e3, "unit": "ms"},
        "job_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(rss_kind).ru_maxrss / 1024.0, "unit": "MB"},
    }
    return {"attempted": out.executions, "failed": out.failed, "metrics": metrics}


def cli_layer(args, import_s: float) -> dict:
    """The cli layer for a workload that makes no cli calls: the first rounds
    of the cli job stream, each called in-process in a child process."""
    import wl_cli

    rounds = wl_cli.generate(args.seed, wl_cli.TRACE_ROUNDS)
    jobs = [job for rnd in rounds for job in rnd]
    trace_file = OUT_DIR / f"trace-{args.workload}-cli-seed{args.seed}.json"
    return wl_cli.traced_layers(rounds, jobs, import_s, trace_file, {})


def traced(args, wl, T, info) -> dict:
    from trace_layers import Tracer, layer_metrics

    rounds = wl.generate(args.seed, GENERATED_ROUNDS)
    info["stream_digest"] = stream_digest(rounds)
    jobs = [job for rnd in rounds[: wl.TRACE_ROUNDS] for job in rnd]
    import_s = statistics.median(import_probe()[1] for _ in range(SETUP_REPEATS))
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    info["trace_file"] = str(trace_file.relative_to(ROOT))
    if hasattr(wl, "traced_layers"):
        return wl.traced_layers(rounds, jobs, import_s, trace_file, info)

    plain, traced_out = Outcome(), Outcome()
    ctx = wl.setup(T, rounds)
    n = 0
    for rnd in rounds[: wl.TRACE_ROUNDS]:
        run_round(wl, ctx, rnd, plain, n)
        n += len(rnd)
    close(wl, ctx)
    ctx = None
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        ctx = wl.setup(T, rounds)
        n = 0
        for rnd in rounds[: wl.TRACE_ROUNDS]:
            run_round(wl, ctx, rnd, traced_out, n, tracer)
            n += len(rnd)
    finally:
        tracer.uninstall()
        close(wl, ctx)
    cli = cli_layer(args, import_s)
    metrics = layer_metrics(
        tracer, plain.latencies, traced_out.latencies, import_s, cli["metrics"]["cli.main_s"]["value"]
    )
    info.update(
        {
            "traced_jobs": len(jobs),
            "jobs_per_kind": traced_out.per_kind(),
            "exact_counts": {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"},
            "failures": plain.failures + traced_out.failures,
            "cli_layer": {"attempted": cli["attempted"], "failed": cli["failed"]},
        }
    )
    tracer.dump(trace_file, {"info": info})
    return {
        "attempted": plain.executions + traced_out.executions + cli["attempted"],
        "failed": plain.failed + traced_out.failed + cli["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "triadeform" / "__init__.py").is_file():
        fail(f"no library source at {SRC / 'triadeform'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    T = importlib.import_module("triadeform")
    if Path(T.__file__).resolve().parent != (SRC / "triadeform").resolve():
        fail(f"imported triadeform from {T.__file__}, not from {SRC}")
    wl = importlib.import_module(WORKLOADS[args.workload])

    info = context_info(args)
    result = traced(args, wl, T, info) if args.trace else end_to_end(args, wl, T, info, started)
    info["wall_s"] = time.perf_counter() - started
    named = dict(result["metrics"])
    if "error_ratio" in info:  # printed by name, but kept out of the result's metrics
        named["error_ratio"] = info["error_ratio"]
    for name, m in named.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"info": info}, default=str, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
