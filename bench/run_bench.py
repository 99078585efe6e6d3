"""dmtrav benchmark: three workloads through the `dmtrav.cli.main` entry point.

    python3 bench/run_bench.py --workload demo|traverse|extract \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere inside a source checkout; dmtrav is imported from its
`src/`. The benchmark writes its seeded inputs, the outputs of each
operation and its records under `.bench_out/` and removes the inputs and
outputs when it ends.

Workloads (one workload process, one caller, closed loop):

- demo: `dmtrav demo --seed 0`. Its work depends on the demo seed, so the
  seed is fixed and --seed changes nothing here.
- traverse: `dmtrav traverse` over a seeded feature file with its Gram
  section (256 target, 256 source and 1 test image), 7 descending lambdas.
- extract: `dmtrav extract` then `dmtrav gram` over a seeded manifest of
  2,048 stripe images.

Operations run back to back until --seconds have passed (at least one).
Each operation's output tree is checked outside the timed region; a failed
check or a non-zero exit code counts as a failed operation.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 operations alternate untraced and traced,
and it reports the per-module metrics of the traced ones (their medians),
the per-layer microseconds and traversal.d16_ratio. The line before it is
a record with the machine facts, every operation and anything absent.
Spans of traced operations are written to .bench_out/traces/.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in the workload process. The
# demo's solver paths (and so its work counts) depend on the BLAS thread count,
# because it changes the summation order of matrix products; 2 threads give
# the demo's reference counts of 9,612 forward passes.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREADS = str(min(2, _CPUS or 1))
THREAD_ENV_BEFORE = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

DEMO_SEED = 0
DEMO_IMAGES = 129  # dmtrav.demo's 64 sources, 64 targets and one test image
TRAVERSE_SCALES = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)  # times 1 / median sigma
RUN_LIMIT_S = 170.0  # a run that is still going then is killed and fails
# Reported where a metric has no meaning on the workload: every run reports
# every end-to-end metric of BENCHMARK.json, and none of them may read 0.
NOT_APPLICABLE = 1.0


@dataclass(frozen=True)
class Size:
    traverse_per_class: int
    extract_images: int
    extract_sample: int  # rows re-extracted by the extract check
    setup_samples: int
    layer_calls: int
    d16_seconds: float


SIZES = {
    "full": Size(256, 2048, 16, 7, 201, 3.0),
    "tiny": Size(8, 16, 4, 1, 3, 0.0),
}


@dataclass
class Workload:
    images: int  # input images of one operation, for images_per_s
    argvs: Callable[[Path], list[list[str]]]  # CLI calls of one operation, given its output dir
    check: Callable[[Path, int], tuple[list[str], dict]]  # (output dir, op index)
    feature_file: Callable[[Path], Path]  # the G that traversal.d16_ratio solves on


def prepare(name: str, work: Path, seed: int, size: Size, spec, weights) -> Workload:
    """Write the workload's seeded inputs and say how to run and check one operation."""
    import checks
    import inputs

    if name == "demo":
        return Workload(
            images=DEMO_IMAGES,
            argvs=lambda out: [["demo", "--seed", str(DEMO_SEED), "--out", str(out), "--quiet"]],
            check=lambda out, i: checks.check_demo(out, spec, weights),
            feature_file=lambda out: out / "features.dmtv",
        )
    if name == "traverse":
        n = size.traverse_per_class
        path, lambdas = inputs.write_traverse_file(
            seed, work / "input", n, TRAVERSE_SCALES, spec, weights
        )
        lam_args = [a for lam in lambdas for a in ("--lambda", repr(lam))]
        return Workload(
            images=2 * n + 1,
            argvs=lambda out: [
                ["traverse", str(path), *lam_args, "--sigma", "median",
                 "--out", str(out), "--quiet"]
            ],
            check=lambda out, i: checks.check_traverse(out, path, lambdas),
            feature_file=lambda out: path,
        )
    n_source = size.extract_images // 2
    n_target = size.extract_images - n_source - 1
    manifest = inputs.write_image_set(seed, work / "input", n_target, n_source)
    rows = inputs.manifest_rows(manifest)
    return Workload(
        images=size.extract_images,
        argvs=lambda out: [
            ["extract", str(manifest), "--out", str(out), "--quiet"],
            ["gram", str(out / "features.dmtv"), "--quiet"],
        ],
        check=lambda out, i: checks.check_extract(
            out, rows, seed * 1000 + i, size.extract_sample, spec, weights
        ),
        feature_file=lambda out: out / "features.dmtv",
    )


class Worker:
    """A workload process (bench/worker.py) spoken to in JSON lines."""

    def __init__(self, spans_file: Path, deadline: float):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(ROOT), str(spans_file)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        self._watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        try:
            self._read()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"workload process ended (exit code {self.proc.wait()})")
        return json.loads(line)

    def call(self, command: dict) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        reply = self.call({"quit": True})
        self.proc.wait(timeout=30)
        return reply

    def kill(self) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": _CPUS,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env_before": THREAD_ENV_BEFORE,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "blas_threads_pinned": int(BLAS_THREADS),
    }


def median(values) -> float:
    return float(statistics.median(values))


def run(args) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, record)."""
    from dmtrav import cli
    from dmtrav.errors import DmtravError

    size = SIZES[args.size]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = OUT / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    spans_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
    run_cfg = cli.RunConfig()
    spec = run_cfg.resolve_spec()
    weights = run_cfg.resolve_weights(spec)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    worker = None
    try:
        wl = prepare(args.workload, work, args.seed, size, spec, weights)
        setup = []
        for _ in range(size.setup_samples):
            probe = Worker(spans_file, deadline)
            try:
                probe.close()
            finally:
                probe.kill()
            setup.append(probe.setup_s)
        worker = Worker(spans_file, deadline)
        setup.append(worker.setup_s)

        ops = []
        t0 = time.perf_counter()
        while True:
            i = len(ops)
            out = work / f"op{i}"
            traced = bool(args.trace) and i % 2 == 1
            reply = worker.call({"op": wl.argvs(out), "traced": traced})
            problems, quality = [], {}
            if any(reply["codes"]):
                problems = [f"exit codes {reply['codes']}"]
            else:
                try:
                    problems, quality = wl.check(out, i)
                except (DmtravError, OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"output check could not run: {exc!r}"]
            for p in problems:
                print(f"op {i}: {p}", file=sys.stderr)
            ops.append({"traced": traced, "problems": problems, "quality": quality, **reply})
            if i > 0:
                shutil.rmtree(work / f"op{i - 1}", ignore_errors=True)
            if time.perf_counter() - t0 >= args.seconds and len(ops) >= 1 + args.trace:
                break

        extra = {}
        if args.trace:
            extra["layers"] = worker.call(
                {"layers": {"seed": args.seed, "calls": size.layer_calls}}
            )["metrics"]
            extra["d16"] = worker.call(
                {
                    "d16": {
                        "feature_file": str(wl.feature_file(out)),
                        "scales": TRAVERSE_SCALES,
                        "seconds": size.d16_seconds,
                    }
                }
            )
        peak_rss_mb = worker.close()["peak_rss_mb"]
    finally:
        if worker is not None:
            worker.kill()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if op["problems"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "machine": machine_facts(),
        "setup_samples_s": setup,
        "ops": [
            {k: op[k] for k in ("traced", "seconds", "cpu_seconds", "codes", "problems", "quality")}
            for op in ops
        ],
    }
    if args.trace:
        values, record_extra = _per_layer(ops, extra)
        record.update(record_extra)
    else:
        values, record["not_applicable"] = _end_to_end(wl, ops, setup, peak_rss_mb)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": _with_units(values, "per_layer" if args.trace else "end_to_end"),
    }
    return result, record


def _end_to_end(wl: Workload, ops, setup, peak_rss_mb) -> tuple[dict, list[str]]:
    wall = median(op["seconds"] for op in ops)
    values = {
        "wall_s": wall,
        "setup_s": median(setup),
        "images_per_s": wl.images / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    not_applicable = []
    for name in ("traverse_objective", "recon_feature_loss"):
        samples = [op["quality"][name] for op in ops if name in op["quality"]]
        values[name] = median(samples) if samples else NOT_APPLICABLE
        if not samples:
            not_applicable.append(name)
    return values, not_applicable


def _per_layer(ops, extra) -> tuple[dict, dict]:
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    names = traced[0]["metrics"]
    values = {k: median(op["metrics"][k] for op in traced) for k in names}
    values.update(extra["layers"])
    values["traversal.d16_ratio"] = extra["d16"]["ratio"]
    values["trace.overhead_pct"] = 100.0 * (
        median(op["seconds"] for op in traced) / median(op["seconds"] for op in untraced) - 1.0
    )
    counts = [k for k in names if not k.endswith(("_s", "us_per_iter"))]  # all but times
    record = {
        "absent": traced[0]["absent"],
        "counts_repeat": all(
            op["metrics"][k] == traced[0]["metrics"][k] for op in traced for k in counts
        ),
        "traced_counts": {k: traced[0]["metrics"][k] for k in counts},
        "d16_rows": extra["d16"]["K"],
        "d16_pairs": extra["d16"]["pairs"],
    }
    return values, record


def _with_units(values: dict, section: str) -> dict:
    """Attach units from BENCHMARK.json; its metric list and ours must agree."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("demo", "traverse", "extract"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dmtrav" / "__init__.py").is_file():
        print(f"error: no dmtrav sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import dmtrav

    if Path(dmtrav.__file__).resolve().parent != (src / "dmtrav").resolve():
        print(f"error: imported dmtrav from {dmtrav.__file__}, not {src}", file=sys.stderr)
        return 2

    result, record = run(args)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
