"""The benchmark's view of the program: its inputs, CLI calls and output checks.

bench/ builds its inputs through the public formats and features API,
drives `dmtrav.cli.main` with the argument lists below and judges each
output tree with its own checks. These tests run the same steps at a
small size, so a change to src/ that breaks the benchmark fails here.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from dmtrav import cli, formats
from dmtrav.mmd import PANEL_ROWS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import inputs  # noqa: E402


@pytest.fixture(scope="module")
def bench_extractor():
    """The spec and weights the benchmark checks against, built as it builds them."""
    run = cli.RunConfig()
    spec = run.resolve_spec()
    return spec, run.resolve_weights(spec)


def traverse_and_check(path, lambdas, out):
    lam_args = [a for lam in lambdas for a in ("--lambda", repr(lam))]
    argv = ["traverse", str(path), *lam_args, "--sigma", "median", "--out", str(out), "--quiet"]
    assert cli.main(argv) == 0
    problems, quality = checks.check_traverse(out, path, lambdas)
    assert problems == []
    assert quality["traverse_objective"] > 0


def test_traverse_output_passes_the_benchmark_check(tmp_path, bench_extractor):
    path, lambdas = inputs.write_traverse_file(
        3, tmp_path / "input", 8, (1e-2, 1e-3, 1e-4), *bench_extractor
    )
    traverse_and_check(path, lambdas, tmp_path / "out")


def test_traverse_output_with_a_duplicate_row_passes_the_benchmark_check(
    tmp_path, bench_extractor
):
    # a singular Gram: the sweep runs on its eigenvector embedding
    path, lambdas = inputs.write_traverse_file(
        3, tmp_path / "input", 8, (1e-2, 1e-3, 1e-4), *bench_extractor
    )
    ff = formats.read_feature_file(path)
    ff.V[5] = ff.V[2]
    formats.write_feature_file(path, ff.V, ff.m, ff.n)
    formats.append_gram(path)
    traverse_and_check(path, lambdas, tmp_path / "out")


def test_extract_then_gram_output_passes_the_benchmark_check(tmp_path, bench_extractor):
    manifest = inputs.write_image_set(3, tmp_path / "input", 3, 2)
    rows = inputs.manifest_rows(manifest)
    out = tmp_path / "out"
    assert cli.main(["extract", str(manifest), "--out", str(out), "--quiet"]) == 0
    assert cli.main(["gram", str(out / "features.dmtv"), "--quiet"]) == 0
    problems, _ = checks.check_extract(out, rows, 3, len(rows), *bench_extractor)
    assert problems == []


def test_extract_then_gram_over_two_panels_passes_the_benchmark_check(tmp_path, bench_extractor):
    # 601 rows: two Gram panels, of 301 and 300 rows; the second meets a full block and one of 45
    n = PANEL_ROWS // 2 + 44
    manifest = inputs.write_image_set(4, tmp_path / "input", n, n)
    rows = inputs.manifest_rows(manifest)
    assert len(rows) > PANEL_ROWS and len(rows) % PANEL_ROWS
    out = tmp_path / "out"
    assert cli.main(["extract", str(manifest), "--out", str(out), "--quiet"]) == 0
    assert cli.main(["gram", str(out / "features.dmtv"), "--quiet"]) == 0
    problems, _ = checks.check_extract(out, rows, 4, 16, *bench_extractor)
    assert problems == []


def test_demo_output_passes_the_benchmark_check(demo_runs, bench_extractor):
    problems, _ = checks.check_demo(demo_runs[1], *bench_extractor)
    assert problems == []


def test_worker_answers_every_command(tmp_path, bench_extractor):
    # started as the benchmark starts it; its layers and d16 commands call the library directly
    path, lambdas = inputs.write_traverse_file(
        3, tmp_path / "input", 8, (1e-2, 1e-3, 1e-4), *bench_extractor
    )
    lam_args = [a for lam in lambdas for a in ("--lambda", repr(lam))]
    argv = ["traverse", str(path), *lam_args, "--out", str(tmp_path / "out"), "--quiet"]
    commands = [
        {"layers": {"seed": 0, "calls": 1}},
        {"d16": {"feature_file": str(path), "scales": [1e-2, 1e-3], "seconds": 0}},
        {"op": [argv], "traced": False},
        {"quit": True},
    ]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(ROOT), str(tmp_path / "spans")],
        input="".join(json.dumps(c) + "\n" for c in commands),
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ready, layers, d16, op, quit_reply = map(json.loads, proc.stdout.splitlines())
    assert ready == {"ready": True}
    assert layers["metrics"] and all(
        math.isfinite(us) and us > 0 for us in layers["metrics"].values()
    )
    assert d16["ratio"] > 0
    assert op["codes"] == [0]
    assert quit_reply["peak_rss_mb"] > 0
