"""Pixel reconstruction from a prescribed feature vector.

solve_pixels is the one bounded pixel solve: it minimizes
feature_term(phi(x)) + pixel_term(x) over the pixels x in [0, 1]. invert
recovers an image whose features match a target vector z with the terms

    0.5 * |phi(x) - z|^2  +  lambda_tv * TV_beta(x),

where TV_beta sums, per pixel and channel, the beta/2 power of the
squared forward differences (rightward and downward; differences that
would leave the image count as zero). evaluate.adversarial_perturb
supplies its own two terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .features import ExtractorSpec, ForwardPass, ImageTensor, WeightSet, forward
from .optim import MinimizeConfig, MinimizeTrace, minimize


@dataclass(frozen=True)
class ReconstructionConfig:
    """Inversion settings.

    init is an explicit starting image, used as is (callers pass the
    source image to preserve its content when inverting traversal
    outputs), or None for mid-gray, every pixel 0.5.
    """

    lambda_tv: float = 0.001
    beta: float = 2.0
    init: ImageTensor | None = None
    solver: MinimizeConfig = field(default_factory=MinimizeConfig)

    def __post_init__(self) -> None:
        if not 0 <= self.lambda_tv < np.inf:
            raise InvalidInputError(f"lambda_tv must be finite and >= 0, got {self.lambda_tv}")
        if not 0 < self.beta < np.inf:
            raise InvalidInputError(f"beta must be finite and positive, got {self.beta}")


@dataclass
class ReconstructionResult:
    image: ImageTensor
    features: np.ndarray  # phi(image)
    final_feature_loss: float
    final_tv: float
    trace: MinimizeTrace


def _tv_terms(pixels: np.ndarray, beta: float):
    """TV_beta of the pixels and a zero-argument callback for its gradient.

    The forward differences (rightward and downward, zero at the far edges)
    are built once and shared by the value and the gradient.
    """
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    dh = np.zeros_like(pixels)
    dv = np.zeros_like(pixels)
    dh[:, :-1, :] = pixels[:, 1:, :] - pixels[:, :-1, :]
    dv[:-1, :, :] = pixels[1:, :, :] - pixels[:-1, :, :]
    s = dh * dh + dv * dv

    def grad() -> np.ndarray:
        # d/ds s^(beta/2) = (beta/2) s^(beta/2 - 1); pixels where s is 0 get
        # weight 0, the subgradient choice for beta < 2 (for beta = 2 this
        # differs from weight 1 only where s underflows to 0).
        e = np.zeros_like(s)
        pos = s > 0
        e[pos] = (beta / 2.0) * s[pos] ** (beta / 2.0 - 1.0)
        wh = e * dh
        wv = e * dv
        g = -2.0 * (wh + wv)
        g[:, 1:, :] += 2.0 * wh[:, :-1, :]
        g[1:, :, :] += 2.0 * wv[:-1, :, :]
        return g

    return float(np.sum(s ** (beta / 2.0))), grad


def tv(image: ImageTensor, beta: float = 2.0) -> float:
    """Total-variation value of an image (per channel, boundary differences zero)."""
    return _tv_terms(image.pixels, beta)[0]


def solve_pixels(
    spec: ExtractorSpec, weights: WeightSet, start: ImageTensor, feature_term, pixel_term,
    cfg: MinimizeConfig | None = None,
) -> tuple[ImageTensor, ForwardPass, MinimizeTrace]:
    """Minimize feature_term(phi(x)) + pixel_term(x) over the pixels x in [0, 1], from start.

    feature_term(features) returns a value and the cotangent whose VJP is
    its pixel gradient; pixel_term(image) returns a value and a zero-argument
    callback for its gradient (an image-shaped array, or 0). Returns the
    final image, its forward pass and the solver trace. minimize asks for
    its last gradient at the point it returns, so that call's image and
    pass are the result, with no closing forward pass.
    """
    if (start.height, start.width, start.channels) != spec.input_shape:
        raise InvalidInputError("start image shape does not match the extractor input")
    last: list = []  # image and pass of the newest grad() call

    def fun(flat: np.ndarray):
        img = ImageTensor(flat.reshape(spec.input_shape))
        fp = forward(spec, weights, img)
        feature_value, cotangent = feature_term(fp.features)
        pixel_value, pixel_grad = pixel_term(img)

        def grad() -> np.ndarray:
            last[:] = img, fp
            return (fp.vjp(cotangent) + pixel_grad()).ravel()

        return feature_value + pixel_value, grad

    _, trace = minimize(fun, start.pixels.ravel(), bounds=(0.0, 1.0), cfg=cfg)
    image, fp = last
    return image, fp, trace


def invert(
    spec: ExtractorSpec,
    weights: WeightSet,
    z_t,
    cfg: ReconstructionConfig | None = None,
) -> ReconstructionResult:
    """Reconstruct the image whose features best match z_t, through solve_pixels."""
    if cfg is None:
        cfg = ReconstructionConfig()
    z = np.asarray(z_t, dtype=float).ravel()
    if z.size != spec.feature_dim():
        raise InvalidInputError(f"z_t has length {z.size}, expected {spec.feature_dim()}")

    def feature_term(features: np.ndarray):
        resid = features - z
        return 0.5 * float(resid @ resid), resid

    def pixel_term(img: ImageTensor):
        value, grad = _tv_terms(img.pixels, cfg.beta)
        return cfg.lambda_tv * value, lambda: cfg.lambda_tv * grad()

    start = cfg.init if cfg.init is not None else ImageTensor(np.full(spec.input_shape, 0.5))
    image, fp, trace = solve_pixels(spec, weights, start, feature_term, pixel_term, cfg.solver)
    return ReconstructionResult(
        image=image,
        features=fp.features,
        final_feature_loss=feature_term(fp.features)[0],
        final_tv=tv(image, cfg.beta),
        trace=trace,
    )
