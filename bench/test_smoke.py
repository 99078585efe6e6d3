"""Smoke test of the benchmark at tiny size.

    python3 -m pytest bench/test_smoke.py

Runs the traverse and extract workloads with --size tiny in both trace
modes and checks their result lines against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))


def run_bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run_bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def result_of(workload: str, trace: int):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_declared_workloads_and_metrics():
    assert [w["name"] for w in DECLARED["workloads"]] == ["demo", "traverse", "extract"]
    for section in ("end_to_end", "per_layer"):
        for metric in DECLARED[section]:
            assert metric["unit"] and metric["better"] in ("lower", "higher"), metric
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    assert setup in DECLARED["end_to_end"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["traverse", "extract"])
def test_result_line_carries_every_metric(workload, trace):
    record, result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["machine"]["blas_threads_pinned"] >= 1
    if trace:
        assert record["absent"] == [] and record["counts_repeat"]


def test_traced_counts_repeat_across_runs():
    first, _ = result_of("traverse", 1)
    second, _ = result_of("traverse", 1)
    assert first["traced_counts"] == second["traced_counts"]
    assert first["traced_counts"]["optim.solves"] == 7
    assert first["traced_counts"]["mmd.witness_calls"] > 0


def test_absent_target_is_reported_not_fatal(monkeypatch):
    import tracing

    monkeypatch.setattr(
        tracing, "TARGETS",
        (("dmtrav.features", "no_such_function"), ("dmtrav.no_such_module", "f"),
         ("dmtrav.optim", "minimize")),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from dmtrav import optim

        optim.minimize(lambda x: float(x @ x), lambda x: 2 * x, [1.0, -2.0])
    finally:
        tracer.uninstall()
    assert tracer.absent == ["dmtrav.features.no_such_function", "dmtrav.no_such_module.f"]
    metrics = tracing.module_metrics(tracer.end_op())
    assert metrics["optim.solves"] == 1 and metrics["optim.fun_evals"] >= 1
    assert metrics["features.forward_passes"] == 0


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("traverse", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
