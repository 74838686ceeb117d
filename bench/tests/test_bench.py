"""Tests of the benchmark itself: metrics, tracing, seeding and checks.

Run from the repository root with ``python -m pytest bench/tests``.
"""
from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
IN_PROCESS = ("sweeps", "trace_fit")


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@functools.cache
def _worker(name: str, seed: int, trace: int) -> dict:
    """Record of one pass of a tiny workload in a fresh worker process."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", "0", "--size", "tiny",
            "--trace", str(trace)]
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
                          env=workloads.cli_env(), capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload_builder():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_named_metric_with_its_unit(trace, section):
    proc = _run("--workload", "trace_fit", "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["import.scipy_loaded"]["value"] == 1
        assert result["metrics"]["fitting.converged_ratio"]["value"] == 1.0


@pytest.mark.parametrize("name", IN_PROCESS)
def test_traced_and_untraced_runs_execute_the_same_ops_and_bytes(name):
    plain, traced = _worker(name, 5, 0), _worker(name, 5, 1)
    assert plain["failed"] == traced["failed"] == 0, plain["problems"] + traced["problems"]
    assert [o["name"] for o in plain["ops"]] == [o["name"] for o in traced["ops"]]
    assert [o["name"] for o in traced["traced_ops"]] == [o["name"] for o in plain["ops"]]
    assert [o["outputs_sha256"] for o in plain["ops"]] == [o["outputs_sha256"] for o in traced["ops"]]
    # layer self times account for the traced wall time of an in-process op
    assert traced["per_layer"]["trace.accounted_share"] > 0.9


def test_traced_cli_ops_write_the_same_bytes():
    wl = workloads.build("cli_cold", 5, "tiny")
    try:
        ops = [op for op in wl.ops if op.name in ("trace_master", "fit_sine")]
        plain = [op.collect(op.run()) for op in ops]
        tracer = tracing.Tracer()
        wl.cli.tracer = tracer
        traced = [op.collect(tracer.call(op.name, op.run)) for op in ops]
        stats, _ = tracer.drain()
    finally:
        wl.close()
    assert [o.problems for o in plain + traced] == [[]] * 4
    assert [o.digests() for o in plain] == [o.digests() for o in traced]
    assert stats["cli"]["calls"] == 2
    assert stats["dynamics.master"]["calls"] == 1
    assert stats["fitting"]["calls"] == 1


COUNTS = ("calls", "samples", "matvecs", "rows", "cells")


def test_seed_changes_inputs_but_not_op_counts():
    for name in workloads.BUILDERS:
        a, b = workloads.build(name, 0, "tiny"), workloads.build(name, 1, "tiny")
        a.close(), b.close()
        assert a.inputs_sha256 != b.inputs_sha256, name
        assert [op.name for op in a.ops] == [op.name for op in b.ops], name
    one, two = _worker("sweeps", 5, 1), _worker("sweeps", 6, 1)
    assert one["inputs_sha256"] != two["inputs_sha256"]
    counts = [k for k in one["per_layer"] if k.rsplit(".", 1)[1] in COUNTS]
    assert counts
    assert {k: one["per_layer"][k] for k in counts} == {k: two["per_layer"][k] for k in counts}
    assert [o["theta_samples"] for o in one["ops"]] == [o["theta_samples"] for o in two["ops"]]


def _first_output(name: str, op_name: str):
    wl = workloads.build(name, 7, "tiny")
    op = next(op for op in wl.ops if op.name == op_name)
    return op.collect(op.run())


def test_checks_pass_on_true_outputs_and_catch_wrong_ones():
    out = _first_output("sweeps", "closed_phase")
    assert workloads.check("phase", out, 7) == []
    out.datasets[0].rows = out.datasets[0].rows + 1e-6
    assert any("engine deviation" in p for p in workloads.check("phase", out, 7))

    out = _first_output("sweeps", "master_field")
    name = next(iter(out.files))
    out.files[name] += "1,NaN\n"
    assert any("non-finite" in p for p in workloads.check("field", out, 7))

    out = _first_output("trace_fit", "s0_trace_closed_fit")
    assert workloads.check("fit", out, 7) == []
    got, truth = out.fits[0]
    got["tau_ps"] *= 1.05
    assert any("tau_ps" in p for p in workloads.check("fit", out, 7))


def test_span_aggregation_splits_self_and_busy_time():
    spans = [
        ["bench", "op", 0.0, 10.0, -1, True, None],
        ["experiment.emit", "emit_csv", 1.0, 5.0, 0, True, None],
        ["experiment.emit", "csv_text", 1.5, 4.5, 1, False, {"bytes": 7}],
        ["fitting", "fit_damped_sine", 6.0, 9.0, 0, True, None],
    ]
    stats = tracing.aggregate(spans)
    assert stats["bench"]["self_s"] == 3.0
    assert stats["experiment.emit"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0, "bytes": 7}
    assert sum(s["self_s"] for s in stats.values()) == 10.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "trace_fit", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    import worker

    assert worker.tail(list(np.arange(20.0)))[0] == 50.0
    assert worker.tail(list(np.arange(100.0)))[0] == 90.0
    assert worker.tail(list(np.arange(1000.0)))[0] == 99.0
