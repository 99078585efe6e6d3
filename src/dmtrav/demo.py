"""Self-contained synthetic end-to-end run at desk scale.

Generates a frozen two-class task (horizontal-stripe images vs
vertical-stripe images, 32x32 grayscale, seeded PCG64 noise), then runs
the whole pipeline: extraction, Gram precompute, a three-lambda
traversal with the weights scaled by the median-heuristic kernel width,
reconstruction of every traversed point, SVM + Platt evaluation of the
decision sweep, and the matched adversarial baseline. Every output is a
deterministic function of the seed, bit for bit.

Extraction, the Gram section, the traversal files, the reconstructions,
the decision sweep and the adversarial files come from the same stages
as the `extract`, `gram`, `traverse`, `reconstruct`, `eval` and
`adversarial` verbs, so those verbs reproduce them byte for byte. Every
number in summary.txt is computed from the files written: the sweep
reads back the float32 r_<i>.dmtv files, and the reconstruction
decisions and distances the recon_<i>.ppm images.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import cli, evaluate, formats, mmd, traversal
from .errors import InvalidInputError
from .features import ImageTensor

DEMO_CLASS_SIZE = 64
DEMO_LAMBDA_SCALES = (1e-2, 1e-3, 1e-4)
_STRIPE_PERIOD = 8
_NOISE_SIGMA = 0.08


def _stripe_image(rng: np.random.Generator, vertical: bool) -> ImageTensor:
    phase = int(rng.integers(0, _STRIPE_PERIOD))
    idx = (np.arange(32) + phase) % _STRIPE_PERIOD
    band = np.where(idx < _STRIPE_PERIOD // 2, 0.75, 0.25)
    base = np.tile(band[None, :], (32, 1)) if vertical else np.tile(band[:, None], (1, 32))
    noisy = base + _NOISE_SIGMA * rng.standard_normal((32, 32))
    return ImageTensor(np.clip(noisy, 0.0, 1.0)[:, :, None])


def make_demo_images(seed: int) -> tuple[list[ImageTensor], list[ImageTensor], ImageTensor]:
    """(sources, targets, test): horizontal-stripe sources, vertical-stripe targets."""
    rng = np.random.default_rng(seed)
    sources = [_stripe_image(rng, vertical=False) for _ in range(DEMO_CLASS_SIZE)]
    targets = [_stripe_image(rng, vertical=True) for _ in range(DEMO_CLASS_SIZE)]
    test = _stripe_image(rng, vertical=False)
    return sources, targets, test


@dataclass
class DemoOutcome:
    sigma: float
    lambdas: tuple[float, ...]
    baseline_decision: float
    baseline_probability: float
    decisions: list[float]  # at the traversed feature points
    probabilities: list[float]
    recon_decisions: list[float]  # at the written recon_<i>.ppm images
    recon_l2: list[float]
    adversarial_c: float
    adversarial_decision: float
    adversarial_l2: float
    traversal_l2_at_match: float
    decision_monotone: bool
    sign_flip_at_smallest: bool
    probability_crosses_half: bool
    adversarial_smaller: bool


def run_demo(seed: int, out_dir, quiet: bool = False) -> DemoOutcome:
    """Run the demo into out_dir; see the module docstring.

    The pixel solves take most of the run, and each is single-threaded (the
    extractor's matrix products are too small for the BLAS to split). Only
    the last lambda's inversion feeds the adversarial match, so the earlier
    inversions run in one forked child while this process inverts the last
    lambda and matches. That needs os.fork (POSIX). There is one child and
    no setting: the child does two solves, and this process one inversion
    and then the match's solves (three at seed 0), so this process's path
    sets the time. A second child would make three solves share two CPUs
    and delay the inversion that the match waits on. Every output stays
    byte-identical to running the solves one after another.
    """
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    out = Path(out_dir)
    data_dir = out / "dataset"
    data_dir.mkdir(parents=True, exist_ok=True)

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    sources, targets, test = make_demo_images(seed)
    # The stored manifest uses paths relative to its own directory so the
    # output tree is bit-identical wherever it lands.
    rel = formats.Manifest(
        [f"dataset/source_{i:02d}.ppm" for i in range(len(sources))],
        [f"dataset/target_{i:02d}.ppm" for i in range(len(targets))],
        "dataset/input.ppm",
    )
    names = [*rel.source_paths, *rel.target_paths, rel.input_path]
    for name, img in zip(names, [*sources, *targets, test]):
        formats.save_image(img, out / name)
    (out / "manifest.txt").write_text(formats.format_manifest(rel), encoding="utf-8")
    (out / "labels.txt").write_text("+1\n" * len(targets) + "-1\n" * len(sources), encoding="utf-8")
    say(f"dataset: {len(sources)} sources, {len(targets)} targets at {data_dir}")

    # Work from the quantized files so the pipeline matches what was written.
    run = cli.RunConfig(out_dir=str(out))
    feature_path = cli.cmd_extract(formats.read_manifest(out / "manifest.txt"), run)
    formats.append_gram(feature_path)
    features = formats.read_feature_file(feature_path).as_feature_matrix()
    say(f"features: K={features.K} D={features.D}")

    sigma = mmd.median_heuristic_sigma(features.G)
    lambdas = tuple(s / sigma for s in DEMO_LAMBDA_SCALES)
    tcfg = traversal.TraversalConfig(lambdas=lambdas, kernel=mmd.KernelConfig(sigma))
    records, _ = cli.traverse_to(features, tcfg, out)
    say(f"traversal: sigma={sigma:.6g}, lambdas={[f'{l:.3g}' for l in lambdas]}")

    labels = formats.read_labels(out / "labels.txt", features.K - 1)
    model = evaluate.fit_classifier(features, labels)
    spec = run.resolve_spec()
    weights = run.resolve_weights(spec)
    test_img = formats.load_image(out / rel.input_path)
    # The settings of every pixel solve, inversions and adversarial matching
    # alike. Their iteration cap is sized by measurement: on this nonsmooth
    # ReLU/max-pool objective no solve reaches grad_tol (projected gradients
    # stay near 0.4), so each runs to its cap; at 100 iterations each
    # objective is within 5% of scipy L-BFGS-B's at the same cap.
    pixel_run = replace(run, init=str(out / rel.input_path), max_iters=100)

    def invert(i: int):
        return cli.reconstruct_to(out / f"zt_{i}.dmtv", pixel_run, out / f"recon_{i}.ppm")

    # The adversarial image is matched to the decision value of the generated
    # image (the smallest-lambda reconstruction), image against image; the
    # earlier inversions run meanwhile in the child (see the docstring).
    wait = cli._in_child(lambda: [invert(i) for i in range(len(records) - 1)])
    try:
        last = invert(len(records) - 1)
        target_decision = evaluate.predict(model, last.features)[0]
        adv = evaluate.match_regularizer(
            spec, weights, model, test_img, target_decision, cfg=pixel_run.solver()
        )
    finally:
        inversions = wait()
    inversions.append(last)
    recon_decisions = [evaluate.predict(model, r.features)[0] for r in inversions]
    recon_l2 = [float(np.linalg.norm(r.image.pixels - test_img.pixels)) for r in inversions]
    for rec, rres, l2 in zip(records, inversions, recon_l2):
        say(
            f"reconstruct lambda={rec.lam:.3g}: feature_loss={rres.final_feature_loss:.4g} "
            f"pixel_l2={l2:.4g}"
        )

    (base, *swept), _ = cli.sweep_to(model, features, out, out)
    decisions = [r.decision_value for r in swept]
    probabilities = [r.probability for r in swept]
    say(f"eval: baseline decision={base.decision_value:.4g}, swept={[f'{d:.4g}' for d in decisions]}")

    cli.write_adversarial(adv, out)
    say(
        f"adversarial: c={adv.c_adv:.4g} decision={adv.decision_value:.4g} "
        f"l2={adv.l2_pixel_distance:.4g} vs traversal l2={recon_l2[-1]:.4g}"
    )

    toward_flip = np.sign(decisions[-1] - base.decision_value) or 1.0
    steps = np.diff([base.decision_value] + decisions)
    outcome = DemoOutcome(
        sigma=sigma,
        lambdas=lambdas,
        baseline_decision=base.decision_value,
        baseline_probability=base.probability,
        decisions=decisions,
        probabilities=probabilities,
        recon_decisions=recon_decisions,
        recon_l2=recon_l2,
        adversarial_c=adv.c_adv,
        adversarial_decision=adv.decision_value,
        adversarial_l2=adv.l2_pixel_distance,
        traversal_l2_at_match=recon_l2[-1],
        decision_monotone=bool(np.all(toward_flip * steps >= 0)),
        sign_flip_at_smallest=bool(
            np.sign(decisions[-1]) == -np.sign(base.decision_value) and decisions[-1] != 0
        ),
        probability_crosses_half=bool(
            (base.probability - 0.5) * (probabilities[-1] - 0.5) < 0
        ),
        adversarial_smaller=bool(adv.l2_pixel_distance < recon_l2[-1]),
    )
    (out / "summary.txt").write_text(format_summary(seed, outcome), encoding="utf-8")
    say(f"summary written to {out / 'summary.txt'}")
    return outcome


def format_summary(seed: int, o: DemoOutcome) -> str:
    lines = [
        f"seed {seed}",
        f"sigma {o.sigma!r}",
        f"baseline_decision {o.baseline_decision!r}",
        f"baseline_probability {o.baseline_probability!r}",
    ]
    for i, lam in enumerate(o.lambdas):
        lines.append(
            f"lambda {lam!r} decision {o.decisions[i]!r} probability {o.probabilities[i]!r} "
            f"recon_decision {o.recon_decisions[i]!r} recon_l2 {o.recon_l2[i]!r}"
        )
    lines += [
        f"adversarial_c {o.adversarial_c!r}",
        f"adversarial_decision {o.adversarial_decision!r}",
        f"adversarial_l2 {o.adversarial_l2!r}",
        f"traversal_l2_at_match {o.traversal_l2_at_match!r}",
        f"decision_monotone {str(o.decision_monotone).lower()}",
        f"sign_flip_at_smallest {str(o.sign_flip_at_smallest).lower()}",
        f"probability_crosses_half {str(o.probability_crosses_half).lower()}",
        f"adversarial_smaller {str(o.adversarial_smaller).lower()}",
    ]
    return "\n".join(lines) + "\n"
