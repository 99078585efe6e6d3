"""Command-line driver for the full pipeline.

Verbs: extract, gram, traverse, reconstruct, eval, adversarial, demo.
Exit codes: 0 on success, 2 for invalid input or malformed files, 3 for
numerical failures. Formats are validated before heavy computation
starts, and every binary layout is little-endian as documented in
formats.py and features.py.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import evaluate, formats, mmd, reconstruct, traversal
from .errors import (
    DegenerateDataError,
    FormatError,
    InvalidInputError,
    NoMatchError,
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# The JSON values each RunConfig key accepts, with how to name them in an error.
_CONFIG_VALUES = {
    "extractor": (lambda v: isinstance(v, str), "a string"),
    "weight_seed": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "weight_file": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "sigma": (lambda v: v is None or v == "median" or _is_number(v), 'a number, "median" or null'),
    "lambdas": (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"),
    "lambda_tv": (_is_number, "a number"),
    "beta": (_is_number, "a number"),
    "init": (lambda v: isinstance(v, str), "a string"),
    "max_iters": (_is_int, "an integer"),
    "out_dir": (lambda v: isinstance(v, str), "a string"),
}


@dataclass
class RunConfig:
    """Pipeline settings shared by the CLI verbs; loadable from a JSON file.

    weight_file, when given, replaces the seeded weights of any extractor.
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

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            raw = json.loads(formats.read_text(path))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise FormatError(f"{path}: config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise InvalidInputError(f"{path}: unknown config keys {sorted(unknown)}")
        for key, value in raw.items():
            accepts, kind = _CONFIG_VALUES[key]
            if not accepts(value):
                raise InvalidInputError(
                    f"{path}: config key {key!r} must be {kind}, got {value!r}"
                )
        if "lambdas" in raw:
            raw["lambdas"] = tuple(float(v) for v in raw["lambdas"])
        if raw.get("sigma") == "median":
            raw["sigma"] = None
        return cls(**raw)

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

    def kernel(self) -> KernelConfig:
        return KernelConfig(self.sigma)

    def solver(self) -> MinimizeConfig:
        return MinimizeConfig(max_iters=self.max_iters)


def _load_images(paths) -> list[ImageTensor]:
    images = []
    for p in paths:
        try:
            images.append(formats.load_image(p))
        except FileNotFoundError as exc:
            raise InvalidInputError(f"cannot read image {p}") from exc
    first = images[0]
    for p, img in zip(paths, images):
        if img.pixels.shape != first.pixels.shape:
            raise InvalidInputError(
                f"image {p} has shape {img.pixels.shape}, expected {first.pixels.shape}"
            )
    return images


def cmd_extract(manifest: formats.Manifest, run: RunConfig) -> Path:
    """Extract features for [targets, sources, input] and write the DMTV file."""
    paths = list(manifest.target_paths) + list(manifest.source_paths) + [manifest.input_path]
    images = _load_images(paths)
    shape = (images[0].height, images[0].width, images[0].channels)
    spec = run.resolve_spec(shape)
    weights = run.resolve_weights(spec)
    rows = np.empty((len(images), spec.feature_dim()))
    for i, img in enumerate(images):
        rows[i] = forward(spec, weights, img).features
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "features.dmtv"
    formats.write_feature_file(
        out_path, rows, len(manifest.source_paths), len(manifest.target_paths)
    )
    return out_path


def cmd_gram(feature_file, overwrite: bool = False) -> None:
    formats.append_gram(feature_file, overwrite=overwrite)


def cmd_traverse(feature_file, run: RunConfig) -> tuple[traversal.TraversalResult, Path]:
    """Run the lambda sweep against a feature file; writes records plus r/z vectors."""
    ff = formats.read_feature_file(feature_file)
    if ff.G is None:
        raise InvalidInputError(
            f"{feature_file} has no Gram section; run `dmtrav gram {feature_file}` first"
        )
    if not run.lambdas:
        raise InvalidInputError("no lambdas given (use --lambda or the config file)")
    features = ff.as_feature_matrix()
    cfg = traversal.TraversalConfig(
        lambdas=run.lambdas, kernel=run.kernel(), solver=run.solver()
    )
    return traverse_to(features, cfg, run.out_dir)


def traverse_to(
    features: mmd.FeatureMatrix, cfg: traversal.TraversalConfig, out_dir
) -> tuple[traversal.TraversalResult, Path]:
    """Run the sweep and write traversal_records.txt, r_<i>.dmtv and zt_<i>.dmtv."""
    result = traversal.traverse(features, cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "traversal_records.txt"
    records_path.write_text(formats.format_traversal_records(result.records), encoding="utf-8")
    for i, rec in enumerate(result.records):
        formats.write_vector(out_dir / f"r_{i}.dmtv", rec.r)
        formats.write_vector(out_dir / f"zt_{i}.dmtv", traversal.materialize(features, rec.r))
    return result, records_path


def cmd_reconstruct(zt_file, run: RunConfig) -> Path:
    """Invert one traversed feature vector and write the image."""
    z = formats.read_vector(zt_file)
    init: str | ImageTensor = reconstruct.MID_GRAY
    shape = None
    if run.init != "mid_gray":
        init = formats.load_image(run.init)
        shape = (init.height, init.width, init.channels)
    spec = run.resolve_spec(shape)
    if z.size != spec.feature_dim():
        raise InvalidInputError(
            f"{zt_file} holds {z.size} values but the extractor produces {spec.feature_dim()}"
        )
    weights = run.resolve_weights(spec)
    cfg = reconstruct.ReconstructionConfig(
        lambda_tv=run.lambda_tv, beta=run.beta, init=init, solver=run.solver()
    )
    res = reconstruct.invert(spec, weights, z, cfg)
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / (Path(zt_file).stem + "_recon.ppm")
    formats.save_image(res.image, out_path)
    print(
        f"feature_loss {res.final_feature_loss!r} tv {res.final_tv!r} "
        f"iterations {res.trace.iterations}"
    )
    return out_path


def _model_from_file(feature_file, labels_file) -> tuple[evaluate.ClassifierModel, mmd.FeatureMatrix]:
    ff = formats.read_feature_file(feature_file)
    features = ff.as_feature_matrix()
    labels = formats.read_labels(labels_file, features.K - 1)
    model = evaluate.fit_classifier(features, labels)
    return model, features


def cmd_eval(feature_file, traversal_dir, labels_file, out_dir=None) -> Path:
    """Train the classifier and report decisions across a stored traversal."""
    model, features = _model_from_file(feature_file, labels_file)
    out = out_dir if out_dir is not None else traversal_dir
    return sweep_to(model, features, traversal_dir, out)[1]


def sweep_to(
    model: evaluate.ClassifierModel, features: mmd.FeatureMatrix, traversal_dir, out_dir
) -> tuple[evaluate.SweepReport, Path]:
    """Sweep the decisions over the r_<i>.dmtv files of a traversal and write sweep_report.txt."""
    tdir = Path(traversal_dir)
    rows = formats.parse_traversal_records(formats.read_text(tdir / "traversal_records.txt"))
    points = [(row[0], formats.read_vector(tdir / f"r_{i}.dmtv")) for i, row in enumerate(rows)]
    report = evaluate.sweep_decisions(model, points, features)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    out_path = out / "sweep_report.txt"
    out_path.write_text(formats.format_sweep_report(report), encoding="utf-8")
    return report, out_path


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
        formats.format_adversarial_report(
            [(res.c_adv, res.decision_value, res.l2_pixel_distance)]
        ),
        encoding="utf-8",
    )
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dmtrav", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("extract", help="extract features for a manifest")
    p.add_argument("manifest")
    common(p)

    p = sub.add_parser("gram", help="append the Gram section to a feature file")
    p.add_argument("feature_file")
    p.add_argument("--overwrite", action="store_true")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("traverse", help="run the descending-lambda sweep")
    p.add_argument("feature_file")
    p.add_argument("--lambda", dest="lambdas", action="append", type=float, metavar="L")
    p.add_argument("--sigma", help="kernel width, or 'median'")
    common(p)

    p = sub.add_parser("reconstruct", help="invert a traversed feature vector")
    p.add_argument("zt_file")
    p.add_argument("--init", help="starting image path, or 'mid_gray'")
    common(p)

    p = sub.add_parser("eval", help="train the classifier and sweep decisions")
    p.add_argument("feature_file")
    p.add_argument("traversal_dir")
    p.add_argument("labels_file")
    common(p)

    p = sub.add_parser("adversarial", help="perturb an image against the classifier")
    p.add_argument("feature_file")
    p.add_argument("labels_file")
    p.add_argument("image")
    p.add_argument("--c-adv", type=float)
    p.add_argument("--match-decision", type=float)
    common(p)

    p = sub.add_parser("demo", help="run the synthetic end-to-end task")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    run = RunConfig.from_json(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "out", None):
        run = replace(run, out_dir=args.out)
    if getattr(args, "lambdas", None):
        run = replace(run, lambdas=tuple(args.lambdas))
    if getattr(args, "sigma", None):
        try:
            sigma = None if args.sigma == "median" else float(args.sigma)
        except ValueError as exc:
            raise InvalidInputError(
                f"--sigma must be a number or 'median', got {args.sigma!r}"
            ) from exc
        run = replace(run, sigma=sigma)
    if getattr(args, "init", None):
        run = replace(run, init=args.init)
    return run


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "extract":
            manifest = formats.read_manifest(args.manifest)
            path = cmd_extract(manifest, _run_config(args))
            if not args.quiet:
                print(path)
        elif args.verb == "gram":
            cmd_gram(args.feature_file, overwrite=args.overwrite)
            if not args.quiet:
                print(f"Gram section written to {args.feature_file}")
        elif args.verb == "traverse":
            result, records_path = cmd_traverse(args.feature_file, _run_config(args))
            if not args.quiet:
                print(records_path)
        elif args.verb == "reconstruct":
            path = cmd_reconstruct(args.zt_file, _run_config(args))
            if not args.quiet:
                print(path)
        elif args.verb == "eval":
            path = cmd_eval(args.feature_file, args.traversal_dir, args.labels_file, args.out)
            if not args.quiet:
                print(path)
        elif args.verb == "adversarial":
            path = cmd_adversarial(
                args.feature_file,
                args.labels_file,
                args.image,
                _run_config(args),
                c_adv=args.c_adv,
                match_decision=args.match_decision,
            )
            if not args.quiet:
                print(path)
        else:
            # imported here: the demo composes this module's stages
            from .demo import run_demo

            run_demo(args.seed, args.out or "demo_out", quiet=args.quiet)
    except (InvalidInputError, FormatError, DegenerateDataError, NoMatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
