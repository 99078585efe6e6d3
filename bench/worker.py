"""The workload process: sets dmtrav up once, then runs what the benchmark asks.

    python3 bench/worker.py ROOT SPANS_FILE

It imports dmtrav from ROOT/src, resolves the default extractor spec and
weights, and prints {"ready": true}. Then it reads one JSON command per line
on stdin and answers each with one JSON line on stdout:

    {"op": [argv, ...], "traced": bool}    run dmtrav.cli.main on each argv
    {"layers": {"seed": n, "calls": n}}    per-extractor-layer microseconds
    {"d16": {"feature_file": p, "scales": [...], "seconds": s}}
    {"quit": true}                         write the spans; report peak RSS

The benchmark measures set-up time from starting this process to "ready".
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(sys.argv[1])
sys.path.insert(0, str(ROOT / "src"))

from dmtrav import cli  # noqa: E402

RUN = cli.RunConfig()
SPEC = RUN.resolve_spec()
WEIGHTS = RUN.resolve_weights(SPEC)

# One-layer networks with the reference extractor's layer shapes.
LAYER_SPECS = {
    "conv1": "input 32 32 1\nconv 8\ntap",
    "relu1": "input 32 32 8\nrelu\ntap",
    "pool1": "input 32 32 8\npool\ntap",
    "conv2": "input 16 16 8\nconv 16\ntap",
    "relu2": "input 16 16 16\nrelu\ntap",
    "pool2": "input 16 16 16\npool\ntap",
    "conv3": "input 8 8 16\nconv 32\ntap",
    "relu3": "input 8 8 32\nrelu\ntap",
}
# d16 solves on at most this many rows per class, so it stays quick on extract's G.
D16_CLASS_ROWS = 256
D16_MAX_ITERS = 100


def run_op(argvs, tracer) -> dict:
    codes = []
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            t0, c0 = time.perf_counter(), time.process_time()
            for argv in argvs:
                try:
                    codes.append(cli.main(argv))
                except Exception:  # an operation that crashes counts as failed
                    traceback.print_exc()
                    codes.append("exception")
            seconds, cpu_seconds = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    reply = {"seconds": seconds, "cpu_seconds": cpu_seconds, "codes": codes}
    if tracer is not None:
        from tracing import module_metrics

        reply["metrics"] = module_metrics(tracer.end_op())
        reply["absent"] = tracer.absent
    return reply


def layer_us(seed: int, calls: int) -> dict:
    """Median microseconds of forward and of VJP (which repeats the forward) per layer."""
    import numpy as np

    from dmtrav import features
    from inputs import extractor

    forward, vjp = extractor()
    rng = np.random.default_rng(seed)
    specs = {name: features.parse_spec_text(text) for name, text in LAYER_SPECS.items()}
    metrics = {}
    for name, spec in [*specs.items(), ("reference", SPEC)]:
        weights = WEIGHTS if name == "reference" else features.init_weights(spec, seed)
        image = features.ImageTensor(rng.random(spec.input_shape))
        cotangent = rng.standard_normal(spec.feature_dim())
        fwd_ns, vjp_ns = [], []
        for i in range(calls + 5):  # the first five calls warm up
            t0 = time.perf_counter_ns()
            forward(spec, weights, image)
            t1 = time.perf_counter_ns()
            vjp(spec, weights, image, cotangent)
            t2 = time.perf_counter_ns()
            if i >= 5:
                fwd_ns.append(t1 - t0)
                vjp_ns.append(t2 - t1)
        metrics[f"features.{name}.fwd_us"] = statistics.median(fwd_ns) / 1e3
        metrics[f"features.{name}.vjp_us"] = statistics.median(vjp_ns) / 1e3
    return metrics


def d16_ratio(feature_file: str, scales, seconds: float) -> dict:
    """traverse time on G with V zero-padded to 16 D, over the time with V itself."""
    import numpy as np

    from dmtrav import formats, mmd, traversal
    from dmtrav.optim import MinimizeConfig

    ff = formats.read_feature_file(feature_file)
    m, n = min(ff.m, D16_CLASS_ROWS), min(ff.n, D16_CLASS_ROWS)
    K = ff.V.shape[0]
    rows = [*range(n), *range(ff.n, ff.n + m), K - 1]
    V, G = ff.V[rows], ff.G[np.ix_(rows, rows)]
    padded = np.zeros((V.shape[0], 16 * V.shape[1]))
    padded[:, : V.shape[1]] = V
    sigma = mmd.median_heuristic_sigma(G)
    cfg = traversal.TraversalConfig(
        lambdas=tuple(s / sigma for s in scales),
        kernel=mmd.KernelConfig(sigma),
        solver=MinimizeConfig(max_iters=D16_MAX_ITERS),
    )
    matrices = {1: mmd.FeatureMatrix(V, m, n, G), 16: mmd.FeatureMatrix(padded, m, n, G)}
    times = {1: [], 16: []}
    start = time.perf_counter()
    while not times[1] or time.perf_counter() - start < seconds:  # alternating pairs
        for factor, fm in matrices.items():
            t0 = time.perf_counter()
            traversal.traverse(fm, cfg)
            times[factor].append(time.perf_counter() - t0)
    ratio = statistics.median(times[16]) / statistics.median(times[1])
    return {"ratio": ratio, "K": len(rows), "pairs": len(times[1])}


def main() -> None:
    reply = sys.stdout
    tracer = None
    spans_file = Path(sys.argv[2])

    def send(obj) -> None:
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    send({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)
        if "op" in cmd:
            if cmd["traced"] and tracer is None:
                from tracing import Tracer

                tracer = Tracer()
            send(run_op(cmd["op"], tracer if cmd["traced"] else None))
        elif "layers" in cmd:
            send({"metrics": layer_us(**cmd["layers"])})
        elif "d16" in cmd:
            send(d16_ratio(**cmd["d16"]))
        elif "quit" in cmd:
            if tracer is not None:
                tracer.write(spans_file)
            send({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
            return


if __name__ == "__main__":
    main()
