"""polspin benchmark: one workload (or all of them) for one seed.

    python3 bench/run.py --workload NAME|all --seed N [--seconds S] [--trace 0|1]

Run from the repository root.  Workload names, metric names and units live
in BENCHMARK.json.  Every workload starts SETUPS fresh worker processes
(bench/worker.py) one after another; the median of their set-up times is
``setup_s`` and the middle one measures, so that the set-ups sample the
host before and after the measurement.  Workers import polspin from
``src/`` and run with one BLAS thread (the OpenBLAS build allows 64): no op
gains from a second one, and a second thread spinning on a shared host
makes the timings depend on what else runs there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
A readable table goes to standard error, and the full record (environment,
op list, per-op latencies, output digests, failures, spans) is written to
bench/out/<workload>-seed<N>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUPS = 5
DEADLINE_S = 175  # a run must end within 180 s


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], env: dict[str, str], deadline: float) -> tuple[float, dict]:
    """Launch one worker; returns (launch time, its JSON result)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    t_launch = time.monotonic()
    # own process group, so that a timeout also stops the worker's CLI children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_launch))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return t_launch, json.loads(out.strip().splitlines()[-1])


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    env = worker_env()
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(trace), "--size", size]
    setups = []
    for k in range(SETUPS):
        role = "measure" if k == SETUPS // 2 else "setup"
        t_launch, out = _worker([*base, "--role", role], env, deadline)
        setups.append(out["t_ready"] - t_launch)
        if role == "measure":
            res = out
    res["end_to_end"]["setup_s"] = statistics.median(setups)
    res["setup_runs_s"] = setups
    res["fail_ratio"] = res["failed"] / res["attempted"]

    section, computed = ("per_layer", res.get("per_layer", {})) if trace else ("end_to_end", res["end_to_end"])
    metrics = {}
    for m in spec[section]:
        if m["name"] not in computed:
            raise BenchError(f"{name}: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics, "_record": res}


def _table(name: str, result: dict) -> str:
    rec = result["_record"]
    lines = [f"{name}: attempted {result['attempted']}, failed {result['failed']} "
             f"(fail_ratio {rec['fail_ratio']:g}), op samples {rec['op_samples']}, "
             f"op_tail_ms is p{rec['op_tail_percentile']:g}"]
    lines += [f"  {k:32s} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    lines += [f"  problem: {p}" for p in rec["problems"][:10]]
    return "\n".join(lines)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="polspin benchmark")
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every grid; for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polspin" / "__init__.py").is_file():
        print(f"error: no polspin package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    targets = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(spec, w, args.seed, args.seconds, args.trace, args.size)
                   for w in targets}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w, r in results.items():
        print(_table(w, r), file=sys.stderr)
    if len(results) == 1:
        final = {k: v for k, v in next(iter(results.values())).items() if not k.startswith("_")}
    else:
        for w, r in results.items():
            print(json.dumps({"workload": w, **{k: v for k, v in r.items() if not k.startswith("_")}}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
