"""Command-line driver for the full pipeline.

Verbs: extract, gram, traverse, reconstruct, eval, adversarial, demo.
A verb's settings are the --config file (or the defaults), then each
RunConfig key given as a flag (--out is out_dir): a flag wins over the
file, and RunConfig checks every value, so an empty one is an error.
Exit codes: 0 on success, 3 for numerical failures (NumericalError), 2 for
every other package error (DmtravError) and for OSError. Formats are
validated before heavy computation starts, and every binary layout is
little-endian as documented in formats.py and features.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import evaluate, formats, mmd, reconstruct, traversal
from .errors import (
    DmtravError,
    FormatError,
    InvalidInputError,
    NumericalError,
)
from .features import (
    ExtractorSpec,
    ImageTensor,
    WeightSet,
    forward,
    identity_spec,
    init_weights,
    load_weights,
    parse_spec_text,
    reference_spec,
)
from .mmd import KernelConfig
from .optim import MinimizeConfig

# Extracted rows leave a process in one os.pwrite of about this many bytes.
_WRITE_BLOCK_BYTES = 1 << 18


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _is_text(value) -> bool:
    return isinstance(value, str) and value != ""


# The values each RunConfig key accepts, with how to name them in an error.
_CONFIG_VALUES = {
    "extractor": (_is_text, "a nonempty string"),
    "weight_seed": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "weight_file": (lambda v: v is None or _is_text(v), "a nonempty string or null"),
    "sigma": (lambda v: v is None or v == "median" or _is_number(v), 'a number, "median" or null'),
    "lambdas": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)), "a list of numbers"
    ),
    "lambda_tv": (_is_number, "a number"),
    "beta": (_is_number, "a number"),
    "init": (_is_text, "a nonempty string"),
    "max_iters": (_is_int, "an integer"),
    "out_dir": (_is_text, "a nonempty string"),
}


@dataclass
class RunConfig:
    """Pipeline settings shared by the CLI verbs; loadable from a JSON file.

    Every value is checked against _CONFIG_VALUES when the config is made,
    by a caller, by from_json or by dataclasses.replace; sigma "median"
    becomes None and lambdas a tuple of floats. weight_file, when given,
    replaces the seeded weights of any extractor.
    """

    extractor: str = "reference"  # builtin name or path to a spec text file
    weight_seed: int = 42
    weight_file: str | None = None
    sigma: float | None = None  # None = median heuristic
    lambdas: tuple[float, ...] = ()
    lambda_tv: float = 0.001
    beta: float = 2.0
    init: str = "mid_gray"  # "mid_gray" or an image path
    max_iters: int = 500
    out_dir: str = "."

    def __post_init__(self) -> None:
        for key, (accepts, kind) in _CONFIG_VALUES.items():
            value = getattr(self, key)
            if not accepts(value):
                raise InvalidInputError(f"config key {key!r} must be {kind}, got {value!r}")
        self.lambdas = tuple(float(v) for v in self.lambdas)
        if self.sigma == "median":
            self.sigma = None

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        text = formats.read_text(path)
        try:
            raw = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer too long for int()
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise FormatError(f"{path}: config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidInputError(f"{path}: unknown config keys {sorted(unknown)}")
        try:
            return cls(**raw)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}: {exc}") from exc

    def resolve_spec(self, input_shape: tuple[int, int, int] | None = None) -> ExtractorSpec:
        if self.extractor == "reference":
            return reference_spec()
        if self.extractor == "identity":
            if input_shape is None:
                raise InvalidInputError(
                    "identity extractor needs an image to take its dimensions from"
                )
            return identity_spec(*input_shape)
        return parse_spec_text(formats.read_text(self.extractor))

    def resolve_weights(self, spec: ExtractorSpec) -> WeightSet:
        if self.weight_file is not None:
            return load_weights(self.weight_file)
        return init_weights(spec, self.weight_seed)

    def solver(self) -> MinimizeConfig:
        return MinimizeConfig(max_iters=self.max_iters)


def cmd_extract(manifest: formats.Manifest, run: RunConfig) -> Path:
    """Extract features for [targets, sources, input] and write the DMTV file.

    Every image is read first, keeping only its uint8 samples, so an
    image that cannot be read raises OSError, naming its path, before
    any extraction; each image's shape is then checked against the
    extractor's input, and the first that misfits is named. The reads
    run back to back: between forward passes a read finds its caches
    cold, which makes extraction slower and its time less steady.

    Then the rows are extracted in two processes, since a forward pass
    keeps one CPU busy (its matrix products are too small for the BLAS
    to split): a forked child (os.fork, so POSIX only) takes the rows
    from ceil(K/2) on and this process the rows before. Each makes each
    image (samples / 255, as load_image does), extracts it, checks that
    its features are finite in f32 and writes its rows a block at a time
    at their offset, so besides the samples a process holds a few rows,
    never V; the child sends back only its row count. A failure among
    this process's rows is raised ahead of the child's, as the rows in
    order would meet it first, and the child is reaped either way.
    formats.feature_writer writes beside features.dmtv and moves the
    file into place only when all K rows are in, so a failure leaves
    whatever was there untouched. The bytes are those of a one-process run.
    """
    paths = [*manifest.target_paths, *manifest.source_paths, manifest.input_path]
    samples = [formats.load_samples(p) for p in paths]
    spec = run.resolve_spec(samples[0].shape)
    weights = run.resolve_weights(spec)
    for path, image in zip(paths, samples):
        if image.shape != spec.input_shape:
            raise InvalidInputError(
                f"image {path} has shape {image.shape}, expected {spec.input_shape}"
            )
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "features.dmtv"
    K, D = len(paths), spec.feature_dim()
    m, n = len(manifest.source_paths), len(manifest.target_paths)
    block = np.empty((max(_WRITE_BLOCK_BYTES // (4 * D), 1), D), np.float32)

    def extract_rows(start: int, stop: int) -> int:
        """Extract and write rows start..stop-1; returns the rows this process has written."""
        for first in range(start, stop, len(block)):
            rows = block[: min(stop - first, len(block))]
            for i, row in enumerate(rows, first):
                image = ImageTensor(np.divide(samples[i], 255.0))
                row[:] = forward(spec, weights, image).features  # rounded to f32 once
                if not mmd.all_finite(row):
                    raise NumericalError(f"features of image {paths[i]} are not finite in float32")
            write(first, rows)
        return write.written

    half = (K + 1) // 2
    writer = formats.feature_writer(out_path, K, D, m, n)
    with writer as write, np.errstate(over="ignore"):  # a row that overflows f32 is reported
        wait = _in_child(lambda: extract_rows(half, K))
        try:
            extract_rows(0, half)
        except BaseException:
            with contextlib.suppress(Exception):  # the rows in order meet this failure first
                wait()
            raise
        write.written += wait()  # the child's rows, written through the same descriptor
    return out_path


def _in_child(work):
    """Start work() in a forked child; the returned wait() gives its value.

    The child pickles (ok, value) down a pipe and always leaves by os._exit,
    so it never flushes this process's stdio buffers, runs atexit hooks or
    leaves a with block of this process's. wait() reaps the child and
    re-raises an exception that work raised; a child that ended without a
    payload raises ChildProcessError.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, work()))
            except BaseException as exc:
                payload = pickle.dumps((False, exc))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)

    def wait():
        with open(read_fd, "rb") as pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not payload:
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise ChildProcessError(f"a forked child {how} and sent no result")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        return value

    return wait


def cmd_traverse(feature_file, run: RunConfig) -> tuple[list[traversal.LambdaRecord], Path]:
    """Run the lambda sweep against a feature file; writes records plus r/z vectors."""
    if not run.lambdas:
        raise InvalidInputError("no lambdas given (use --lambda or the config file)")
    cfg = traversal.TraversalConfig(
        lambdas=run.lambdas, kernel=KernelConfig(run.sigma), solver=run.solver()
    )
    features = formats.read_feature_file(feature_file).as_feature_matrix()
    return traverse_to(features, cfg, run.out_dir)


def traverse_to(
    features: mmd.FeatureMatrix, cfg: traversal.TraversalConfig, out_dir
) -> tuple[list[traversal.LambdaRecord], Path]:
    """Run the sweep and write traversal_records.txt, r_<i>.dmtv and zt_<i>.dmtv."""
    records = traversal.traverse(features, cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "traversal_records.txt"
    records_path.write_text(formats.format_traversal_records(records), encoding="utf-8")
    for i, rec in enumerate(records):
        formats.write_vector(out_dir / f"r_{i}.dmtv", rec.r)
        formats.write_vector(out_dir / f"zt_{i}.dmtv", traversal.materialize(features, rec.r))
    return records, records_path


def reconstruct_to(zt_file, run: RunConfig, out_path) -> reconstruct.ReconstructionResult:
    """Invert the vector in zt_file with run's settings; the result holds out_path read back."""
    z = formats.read_vector(zt_file)
    init = None if run.init == "mid_gray" else formats.load_image(run.init)
    spec = run.resolve_spec(None if init is None else init.pixels.shape)
    formats.check_savable(spec.input_shape[2])
    if z.size != spec.feature_dim():
        raise InvalidInputError(
            f"{zt_file} holds {z.size} values but the extractor produces {spec.feature_dim()}"
        )
    weights = run.resolve_weights(spec)
    cfg = reconstruct.ReconstructionConfig(
        lambda_tv=run.lambda_tv, beta=run.beta, init=init, solver=run.solver()
    )
    res = reconstruct.invert(spec, weights, z, cfg)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    formats.save_image(res.image, out_path)
    # Report the 8-bit image as written, with its own loss and TV.
    written = formats.load_image(out_path)
    features = forward(spec, weights, written).features
    resid = features - z
    loss, tv = 0.5 * float(resid @ resid), reconstruct.tv(written, run.beta)
    return replace(res, image=written, features=features, final_feature_loss=loss, final_tv=tv)


def _model_from_file(feature_file, labels_file) -> tuple[evaluate.ClassifierModel, mmd.FeatureMatrix]:
    features = formats.read_feature_file(feature_file).as_feature_matrix()
    labels = formats.read_labels(labels_file, features.K - 1)
    return evaluate.fit_classifier(features, labels), features


def sweep_to(
    model: evaluate.ClassifierModel, features: mmd.FeatureMatrix, traversal_dir, out_dir
) -> tuple[list[evaluate.SweepRecord], Path]:
    """Sweep the decisions over the r_<i>.dmtv files of a traversal and write sweep_report.txt."""
    tdir = Path(traversal_dir)
    rows = formats.parse_traversal_records(formats.read_text(tdir / "traversal_records.txt"))
    points = [(row[0], formats.read_vector(tdir / f"r_{i}.dmtv")) for i, row in enumerate(rows)]
    records = evaluate.sweep_decisions(model, points, features)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    out_path = out / "sweep_report.txt"
    out_path.write_text(formats.format_sweep_report(records), encoding="utf-8")
    return records, out_path


def cmd_adversarial(
    feature_file,
    labels_file,
    image_path,
    run: RunConfig,
    c_adv: float | None = None,
    match_decision: float | None = None,
) -> Path:
    """Perturb one image against the trained classifier; write image and report."""
    if (c_adv is None) == (match_decision is None):
        raise InvalidInputError("give exactly one of --c-adv and --match-decision")
    model, _ = _model_from_file(feature_file, labels_file)
    image = formats.load_image(image_path)
    spec = run.resolve_spec((image.height, image.width, image.channels))
    weights = run.resolve_weights(spec)
    solver = run.solver()
    if match_decision is not None:
        res = evaluate.match_regularizer(spec, weights, model, image, match_decision, cfg=solver)
    else:
        res = evaluate.adversarial_perturb(spec, weights, model, image, c_adv, cfg=solver)
    return write_adversarial(res, run.out_dir)


def write_adversarial(res: evaluate.AdversarialResult, out_dir) -> Path:
    """Write adversarial.ppm and adversarial_report.txt; returns the report path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    formats.save_image(res.perturbed, out_dir / "adversarial.ppm")
    report = out_dir / "adversarial_report.txt"
    report.write_text(
        formats.format_adversarial_report(res.c_adv, res.decision_value, res.l2_pixel_distance),
        encoding="utf-8",
    )
    return report


def _number_or_text(text: str) -> float | str:
    """A flag's value as a float when it reads as one; RunConfig judges the rest."""
    try:
        return float(text)
    except ValueError:
        return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dmtrav", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, config: bool = True) -> None:
        if config:
            p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("extract", help="extract features for a manifest")
    p.add_argument("manifest")
    common(p)

    p = sub.add_parser(
        "gram", help="cache G = V V^T in the file (other verbs write the same bytes without it)"
    )
    p.add_argument("feature_file")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("traverse", help="run the descending-lambda sweep")
    p.add_argument("feature_file")
    p.add_argument("--lambda", dest="lambdas", action="append", type=float, metavar="L")
    p.add_argument("--sigma", type=_number_or_text, help="kernel width, or 'median'")
    common(p)

    p = sub.add_parser("reconstruct", help="invert a traversed feature vector")
    p.add_argument("zt_file")
    p.add_argument("--init", help="starting image path, or 'mid_gray'")
    common(p)

    p = sub.add_parser("eval", help="train the classifier and sweep decisions")
    p.add_argument("feature_file")
    p.add_argument("traversal_dir")
    p.add_argument("labels_file")
    common(p, config=False)

    p = sub.add_parser("adversarial", help="perturb an image against the classifier")
    p.add_argument("feature_file")
    p.add_argument("labels_file")
    p.add_argument("image")
    p.add_argument("--c-adv", type=float)
    p.add_argument("--match-decision", type=float)
    common(p)

    p = sub.add_parser("demo", help="run the synthetic end-to-end task")
    p.add_argument("--seed", type=int, default=0)
    common(p, config=False)
    return parser


def _run_config(args: argparse.Namespace, **defaults) -> RunConfig:
    """The --config file or the defaults, then every config key given as a flag."""
    config = getattr(args, "config", None)
    run = RunConfig.from_json(config) if config is not None else RunConfig(**defaults)
    keys = RunConfig.__dataclass_fields__
    given = {key: value for key, value in vars(args).items() if key in keys and value is not None}
    return replace(run, **given)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    message = None  # what the verb prints unless --quiet
    try:
        if args.verb == "extract":
            message = cmd_extract(formats.read_manifest(args.manifest), _run_config(args))
        elif args.verb == "gram":
            formats.append_gram(args.feature_file)
            message = f"Gram section written to {args.feature_file}"
        elif args.verb == "traverse":
            _, message = cmd_traverse(args.feature_file, _run_config(args))
        elif args.verb == "reconstruct":
            run = _run_config(args)
            path = Path(run.out_dir) / (Path(args.zt_file).stem + "_recon.ppm")
            res = reconstruct_to(args.zt_file, run, path)
            message = (
                f"feature_loss {res.final_feature_loss!r} tv {res.final_tv!r} iterations "
                f"{res.trace.iterations} stopped {res.trace.termination_reason}\n{path}"
            )
        elif args.verb == "eval":
            run = _run_config(args, out_dir=args.traversal_dir)
            model, features = _model_from_file(args.feature_file, args.labels_file)
            _, message = sweep_to(model, features, args.traversal_dir, run.out_dir)
        elif args.verb == "adversarial":
            message = cmd_adversarial(
                args.feature_file,
                args.labels_file,
                args.image,
                _run_config(args),
                c_adv=args.c_adv,
                match_decision=args.match_decision,
            )
        else:
            # imported here: the demo composes this module's stages
            from .demo import run_demo

            run_demo(args.seed, _run_config(args, out_dir="demo_out").out_dir, quiet=args.quiet)
        if message is not None and not args.quiet:
            print(message)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DmtravError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
