"""Seeded benchmark inputs, built through dmtrav's public formats and features API.

Images are 32x32 grayscale stripe images with PCG64 noise: targets have
vertical stripes, sources and the test input horizontal ones, the same
two-class task as the desk-scale demo. The same seed gives byte-identical
files, and the program under test only ever sees the written files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from dmtrav import features, formats, mmd
from dmtrav.features import ImageTensor

_SIDE = 32
_PERIOD = 8
_NOISE_SIGMA = 0.08


def _stripe_image(rng: np.random.Generator, vertical: bool) -> ImageTensor:
    phase = int(rng.integers(0, _PERIOD))
    band = np.where((np.arange(_SIDE) + phase) % _PERIOD < _PERIOD // 2, 0.75, 0.25)
    base = np.tile(band[None, :], (_SIDE, 1)) if vertical else np.tile(band[:, None], (1, _SIDE))
    noisy = base + _NOISE_SIGMA * rng.standard_normal((_SIDE, _SIDE))
    return ImageTensor(np.clip(noisy, 0.0, 1.0)[:, :, None])


def write_image_set(seed: int, directory: Path, n_target: int, n_source: int) -> Path:
    """Write target, source and test PPMs plus a manifest with relative paths."""
    rng = np.random.default_rng(seed)
    (directory / "images").mkdir(parents=True, exist_ok=True)
    names = {"target": [], "source": []}
    for kind, count in (("target", n_target), ("source", n_source)):
        for i in range(count):
            name = f"images/{kind}_{i:04d}.ppm"
            formats.save_image(_stripe_image(rng, vertical=kind == "target"), directory / name)
            names[kind].append(name)
    formats.save_image(_stripe_image(rng, vertical=False), directory / "images/input.ppm")
    manifest = formats.Manifest(names["source"], names["target"], "images/input.ppm")
    path = directory / "manifest.txt"
    path.write_text(formats.format_manifest(manifest), encoding="utf-8")
    return path


def manifest_rows(manifest_path: Path) -> list[str]:
    """Image paths in feature-row order: targets, sources, test input."""
    m = formats.read_manifest(manifest_path)
    return list(m.target_paths) + list(m.source_paths) + [m.input_path]


def extractor():
    """(forward, vjp) through whichever public extractor API this version has.

    The extract/extract_vjp pair may give way to one forward(spec, weights,
    image) whose result carries the features and a .vjp(u) method.
    """
    if hasattr(features, "extract"):
        return features.extract, features.extract_vjp

    def forward(spec, weights, image):
        out = features.forward(spec, weights, image)
        return np.asarray(getattr(out, "features", out))

    def vjp(spec, weights, image, cotangent):
        return features.forward(spec, weights, image).vjp(cotangent)

    return forward, vjp


def write_traverse_file(
    seed: int, directory: Path, n_per_class: int, scales, spec, weights
) -> tuple[Path, tuple[float, ...]]:
    """Feature file with its Gram section, and the sweep's lambdas scaled by median sigma."""
    forward = extractor()[0]
    manifest = write_image_set(seed, directory, n_per_class, n_per_class)
    rows = [forward(spec, weights, formats.load_image(p)) for p in manifest_rows(manifest)]
    path = directory / "features.dmtv"
    formats.write_feature_file(path, np.stack(rows), n_per_class, n_per_class)
    formats.append_gram(path)
    sigma = mmd.median_heuristic_sigma(formats.read_feature_file(path).G)
    return path, tuple(s / sigma for s in scales)
