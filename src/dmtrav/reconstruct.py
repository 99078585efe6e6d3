"""Pixel reconstruction from a prescribed feature vector.

Recovers an image whose extracted features match a target vector z by
minimizing

    0.5 * |phi(x) - z|^2  +  lambda_tv * TV_beta(x)

over the pixels inside the image's own [0, 1] box, where TV_beta sums,
per pixel and channel, the beta/2 power of the squared forward
differences (rightward and downward; differences that would leave the
image count as zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import InvalidInputError
from .features import ExtractorSpec, ImageTensor, WeightSet, forward
from .optim import MinimizeConfig, MinimizeTrace, minimize

MID_GRAY = "mid_gray"


@dataclass(frozen=True)
class ReconstructionConfig:
    """Inversion settings.

    init is either MID_GRAY (every pixel 0.5) or an explicit starting
    image, used as is (callers pass the source image to preserve its
    content when inverting traversal outputs).
    """

    lambda_tv: float = 0.001
    beta: float = 2.0
    init: Union[str, ImageTensor] = MID_GRAY
    solver: MinimizeConfig = field(default_factory=MinimizeConfig)

    def __post_init__(self) -> None:
        if not 0 <= self.lambda_tv < np.inf:
            raise InvalidInputError(f"lambda_tv must be finite and >= 0, got {self.lambda_tv}")
        if not 0 < self.beta < np.inf:
            raise InvalidInputError(f"beta must be finite and positive, got {self.beta}")
        if isinstance(self.init, str) and self.init != MID_GRAY:
            raise InvalidInputError(f"unknown init {self.init!r}")


@dataclass
class ReconstructionResult:
    image: ImageTensor
    final_feature_loss: float
    final_tv: float
    trace: MinimizeTrace


def _diffs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rightward and downward forward differences, zero at the far edges."""
    dh = np.zeros_like(arr)
    dv = np.zeros_like(arr)
    dh[:, :-1, :] = arr[:, 1:, :] - arr[:, :-1, :]
    dv[:-1, :, :] = arr[1:, :, :] - arr[:-1, :, :]
    return dh, dv


def tv(image: ImageTensor, beta: float = 2.0) -> float:
    """Total-variation value of an image (per channel, boundary differences zero)."""
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    dh, dv = _diffs(image.pixels)
    s = dh * dh + dv * dv
    if beta == 2.0:
        return float(np.sum(s))
    return float(np.sum(s ** (beta / 2.0)))


def tv_grad(image: ImageTensor, beta: float = 2.0) -> np.ndarray:
    """Exact gradient of tv() with respect to the pixels, same shape as the image."""
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    dh, dv = _diffs(image.pixels)
    s = dh * dh + dv * dv
    if beta == 2.0:
        e = np.ones_like(s)
    else:
        # d/ds s^(beta/2) = (beta/2) s^(beta/2 - 1); zero-difference pixels
        # get weight 0, the subgradient choice for beta < 2.
        e = np.zeros_like(s)
        pos = s > 0
        e[pos] = (beta / 2.0) * s[pos] ** (beta / 2.0 - 1.0)
    wh = e * dh
    wv = e * dv
    g = -2.0 * (wh + wv)
    g[:, 1:, :] += 2.0 * wh[:, :-1, :]
    g[1:, :, :] += 2.0 * wv[:-1, :, :]
    return g


def invert(
    spec: ExtractorSpec,
    weights: WeightSet,
    z_t,
    cfg: ReconstructionConfig | None = None,
) -> ReconstructionResult:
    """Reconstruct the image whose features best match z_t.

    The solver works on the flattened pixels inside [0, 1];
    the feature term's gradient is assembled through the extractor's
    vector-Jacobian product.
    """
    if cfg is None:
        cfg = ReconstructionConfig()
    z = np.asarray(z_t, dtype=float).ravel()
    want = spec.feature_dim()
    if z.size != want:
        raise InvalidInputError(f"z_t has length {z.size}, expected {want}")

    h, w, c = spec.input_shape
    if isinstance(cfg.init, ImageTensor):
        if (cfg.init.height, cfg.init.width, cfg.init.channels) != spec.input_shape:
            raise InvalidInputError("init image shape does not match the extractor input")
        x0 = cfg.init.pixels.ravel()
    else:
        x0 = np.full(h * w * c, 0.5)

    def as_image(flat: np.ndarray) -> ImageTensor:
        return ImageTensor(flat.reshape(h, w, c))

    def fun(flat: np.ndarray):
        img = as_image(flat)
        fp = forward(spec, weights, img)
        resid = fp.features - z
        loss = 0.5 * float(resid @ resid)
        if cfg.lambda_tv > 0:
            loss += cfg.lambda_tv * tv(img, cfg.beta)

        def grad() -> np.ndarray:
            g = fp.vjp(resid)
            if cfg.lambda_tv > 0:
                g = g + cfg.lambda_tv * tv_grad(img, cfg.beta)
            return g.ravel()

        return loss, grad

    x_star, trace = minimize(fun, x0, bounds=(0.0, 1.0), cfg=cfg.solver)
    image = as_image(x_star)
    resid = forward(spec, weights, image).features - z
    return ReconstructionResult(
        image=image,
        final_feature_loss=0.5 * float(resid @ resid),
        final_tv=tv(image, cfg.beta),
        trace=trace,
    )
