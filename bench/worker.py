"""One benchmark worker process: set up a workload, measure it, check it.

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                           [--size full|tiny] [--role setup|measure]

Set-up is everything before the first timed op: interpreter start,
``import polspin`` (through ``workloads``), seeded input generation and,
except on cli_cold, one untimed warm-up run of the first op.  A ``setup``
worker stops there; a ``measure`` worker then runs the op list in a closed
loop with one client, cycling through the ops until ``--seconds`` have
passed, at least one whole pass is done and, untraced, at least
MIN_SAMPLES ops were timed.  With ``--trace 1`` half the time runs
untraced and half under the layer wrappers of ``tracing.py``.

Output checks run after the timed loop.  The first output of every op is
checked; every later execution must reproduce its bytes exactly.

The worker prints one JSON object on stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 20
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
PROBES = 3  # fresh processes per import / spawn probe


class Runner:
    """Runs ops, keeps latencies, first outputs and failure counts."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.first: dict[str, workloads.Output] = {}
        self.digests: dict[str, dict[str, str]] = {}
        self.failed_runs: dict[str, int] = {op.name: 0 for op in wl.ops}
        self.runs: dict[str, int] = {op.name: 0 for op in wl.ops}
        self.problems: list[str] = []
        self.spans: dict[str, list] = {}  # raw spans of each op's first traced run

    def phase(self, seconds: float, min_samples: int, tracer: tracing.Tracer | None = None):
        """Cycle through the ops; returns (latencies per op, per-op layer stats)."""
        ops = self.wl.ops
        lat = {op.name: [] for op in ops}
        stats = {op.name: [] for op in ops}
        if self.wl.cli is not None:
            self.wl.cli.tracer = tracer
        start = time.monotonic()
        n = 0
        while True:
            op = ops[n % len(ops)]
            n += 1
            t0 = perf_counter()
            try:
                raw = tracer.call(op.name, op.run) if tracer else op.run()
                err = None
            except Exception:  # an op that raises is a failed op, not a benchmark crash
                err = traceback.format_exc(limit=4)
            lat[op.name].append(perf_counter() - t0)
            self._account(op, raw if err is None else None, err)
            if tracer is not None:
                layer_stats, spans = tracer.drain()
                stats[op.name].append(layer_stats)
                if len(stats[op.name]) == 1:
                    self.spans[op.name] = spans
            if n >= len(ops) and n >= min_samples and time.monotonic() - start >= seconds:
                break
        if self.wl.cli is not None:
            self.wl.cli.tracer = None
        return lat, stats

    def _account(self, op: workloads.Op, raw, err: str | None) -> None:
        self.runs[op.name] += 1
        if err is None:
            try:
                out = op.collect(raw)
            except Exception:
                err = traceback.format_exc(limit=4)
        if err is not None:
            self.failed_runs[op.name] += 1
            self.problems.append(f"{op.name}: {err.strip().splitlines()[-1]}")
            return
        digests = out.digests()
        if op.name not in self.first:
            self.first[op.name] = out
            self.digests[op.name] = digests
        elif out.problems or digests != self.digests[op.name]:
            self.failed_runs[op.name] += 1
            self.problems.extend(out.problems or [f"{op.name}: output differs from its first run"])

    def check(self, seed: int) -> None:
        """Check every op's first output; a wrong output fails all its runs."""
        for op in self.wl.ops:
            out = self.first.get(op.name)
            if out is None:
                continue
            try:
                problems = workloads.check(op.name, out, seed)
            except Exception:
                problems = [f"{op.name}: check raised {traceback.format_exc(limit=4)}"]
            if problems:
                self.problems.extend(problems)
                self.failed_runs[op.name] = self.runs[op.name]

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.failed_runs.values())


def per_pass(lat: dict[str, list[float]]) -> float:
    """Wall time of one pass of the op list: the sum of each op's median."""
    return sum(statistics.median(v) for v in lat.values())


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    p = max([q for q in PERCENTILES if n * (100.0 - q) / 100.0 >= 10.0], default=PERCENTILES[0])
    return p, float(np.percentile(samples, p))


def end_to_end(runner: Runner, lat: dict[str, list[float]], tail_s: float, rss_kb: int) -> dict:
    """op_p50_ms is the median over the op list of each op's median
    latency: pooled samples of neighbouring ops overlap under host noise,
    and their pooled median swings between the two."""
    theta = sum(out.theta_samples for out in runner.first.values())
    wall = per_pass(lat)
    return {
        "wall_s": wall,
        "op_p50_ms": 1e3 * statistics.median(statistics.median(v) for v in lat.values()),
        "op_tail_ms": 1e3 * tail_s,
        "theta_per_s": theta / wall,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _spawn(code: str) -> tuple[float, str]:
    """Wall time and stdout of a fresh interpreter running code."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=workloads.cli_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return perf_counter() - t0, proc.stdout


def per_layer(runner: Runner, traced_lat, stats, untraced_wall: float) -> dict:
    """Per-pass layer metrics: for every op the median over its traced runs, summed."""
    layers = list(tracing.LAYERS) + [tracing.IMPORT_LAYER, tracing.ROOT_LAYER]
    keys = ("calls", "busy_s", "self_s") + tracing.COUNT_KEYS
    out = {f"{layer}.{k}": 0.0 for layer in layers for k in keys}
    for runs in stats.values():
        for layer in layers:
            for k in keys:
                out[f"{layer}.{k}"] += statistics.median(r.get(layer, {}).get(k, 0) for r in runs)
    fits = [o for o in runner.first.values() if o.fits]
    attempted = sum(len(o.fits) for o in fits)
    ok = sum(workloads.fits_within_tolerance(o) for o in fits)
    out["fitting.converged_ratio"] = ok / attempted if attempted else 0.0
    wall = per_pass(traced_lat)
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - untraced_wall
    out["trace.accounted_share"] = sum(
        out[f"{layer}.self_s"] for layer in layers if layer != tracing.ROOT_LAYER) / wall
    code = ("import sys, time; t = time.perf_counter(); import polspin; "
            "print(time.perf_counter() - t, int('scipy' in sys.modules))")
    probes = [_spawn(code)[1].split() for _ in range(PROBES)]
    out["import.polspin_s"] = statistics.median(float(p[0]) for p in probes)
    out["import.scipy_loaded"] = int(probes[-1][1])
    out["process.spawn_s"] = statistics.median(_spawn("pass")[0] for _ in range(PROBES))
    return out


def environment() -> dict:
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--role", choices=("setup", "measure"), default="measure")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, args.size)
    try:
        if wl.warm_up:
            op = wl.ops[0]
            try:
                op.collect(op.run())
            except Exception:  # the timed runs of this op will count the failure
                pass
        t_ready = time.monotonic()
        if args.role == "setup":
            print(json.dumps({"t_ready": t_ready}))
            return 0
        result = measure(wl, args)
        result["t_ready"] = t_ready
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


def measure(wl: workloads.Workload, args) -> dict:
    runner = Runner(wl)
    if args.trace:
        lat, _ = runner.phase(args.seconds / 2.0, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_lat, stats = runner.phase(args.seconds / 2.0, 0, tracer)
        finally:
            tracer.uninstall()
    else:
        lat, _ = runner.phase(args.seconds, MIN_SAMPLES)
    who = resource.RUSAGE_CHILDREN if wl.cli is not None else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    runner.check(args.seed)
    every = [x for v in lat.values() for x in v]
    percentile, tail_s = tail(every)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:50],
        "end_to_end": end_to_end(runner, lat, tail_s, rss_kb),
        "op_tail_percentile": percentile,
        "op_samples": len(every),
        "inputs_sha256": wl.inputs_sha256,
        "ops": [
            {"name": op.name, "runs": runner.runs[op.name], "failed": runner.failed_runs[op.name],
             "median_ms": 1e3 * statistics.median(lat[op.name]),
             "latencies_ms": [1e3 * x for x in lat[op.name]],
             "theta_samples": runner.first[op.name].theta_samples if op.name in runner.first else 0,
             "outputs_sha256": runner.digests.get(op.name, {})}
            for op in wl.ops
        ],
        "env": environment(),
    }
    if args.trace:
        result["per_layer"] = per_layer(runner, traced_lat, stats, per_pass(lat))
        result["traced_ops"] = [
            {"name": op.name, "median_ms": 1e3 * statistics.median(traced_lat[op.name]),
             "layers": stats[op.name][0]} for op in wl.ops
        ]
        result["spans"] = runner.spans
    return result


if __name__ == "__main__":
    sys.exit(main())
