"""Label-change evaluation: linear SVM, Platt calibration, decision
sweeps across a traversal, and a gradient-based adversarial baseline.

The sign convention is fixed by the training labels: +1 marks the
target block, -1 the source block, so a positive decision value reads
"target-like". The adversarial baseline always pushes toward the target
class, that is, it raises the decision value. Platt calibration runs on
optim.minimize, every adversarial solve on reconstruct.solve_pixels.

The adversarial baseline is matched to a requested decision value by a
search over its trade-off constant c_adv (Szegedy et al. 2014, Carlini &
Wagner 2017): match_regularizer starts at the c_adv that the decision's
linearisation at the clean image predicts, brackets the target by at
most two more probes, runs a safeguarded secant (Illinois) on log c_adv
inside that bracket and returns the perturbation it matched, so no solve
is repeated. Every solve starts from the clean image, so each result
depends on its c_adv alone and adversarial_perturb(..., result.c_adv)
reproduces it bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import mmd
from .errors import DegenerateDataError, InvalidInputError, NoMatchError
from .features import ExtractorSpec, ImageTensor, WeightSet, forward
from .optim import MinimizeConfig, minimize
from .reconstruct import solve_pixels
from .traversal import materialize

_log = logging.getLogger(__name__)

# Search range of match_regularizer; its top end stands for c_adv -> infinity.
_C_ADV_RANGE = (1e-12, 1e12)
# A secant point this close (as a fraction of the bracket) to either end
# gives way to the bisection midpoint.
_SECANT_MARGIN = 0.01
_SVM_C = 1.0  # SVM regularization constant of fit_classifier
_SVM_EPOCHS = 2000  # subgradient epochs of train_svm
# A matched decision lies within this fraction of its target (or within
# it absolutely, for a zero target).
_MATCH_REL_TOL = 0.01
_MATCH_MAX_SOLVES = 40  # adversarial solves match_regularizer makes at most


@dataclass
class ClassifierModel:
    w: np.ndarray
    b: float
    platt_a: float
    platt_b: float

    def __post_init__(self) -> None:
        # platt_a = 0 would make the probability constant in the decision value
        if self.platt_a == 0.0:
            raise InvalidInputError("platt_a must be nonzero")


@dataclass
class SweepRecord:
    lam: float | None  # None marks the untraversed baseline
    decision_value: float
    probability: float


@dataclass
class AdversarialResult:
    delta: np.ndarray
    perturbed: ImageTensor
    decision_value: float
    l2_pixel_distance: float
    c_adv: float  # the trade-off constant this perturbation was solved at


def _svm_primal(w_sq: float, margins: np.ndarray, c_reg: float) -> float:
    return 0.5 * w_sq + c_reg * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def train_svm(G, labels, c_reg: float) -> tuple[np.ndarray, float]:
    """Train a linear SVM w = X^T beta, b from the Gram matrix G = X X^T of its rows.

    Returns (beta, b). Starts at beta = 0, b = 0 and runs 2000 epochs
    of deterministic full-batch subgradient descent with step 1/t on the
    unit-strongly-convex primal, which makes the iterates invariant
    under duplicating the data while halving c_reg. The best
    iterate seen (by objective) is returned, so the result never scores
    worse than the starting point.

    Every iterate lies in the row span of the data, so the epochs run on
    beta against G (the kernelised form of Pegasos, Shalev-Shwartz,
    Singer & Srebro 2007): margins are y * (G beta + b) and
    |w|^2 = beta^T G beta. An epoch costs O(N^2), independent of the
    feature dimension D, and the iterates are those of the primal update
    in exact arithmetic.
    """
    G = mmd.require_gram(G)
    y = np.asarray(labels, dtype=float).ravel()
    if y.size != G.shape[0]:
        raise InvalidInputError("one label per row of G is required")
    if not np.all(np.abs(y) == 1.0):
        raise InvalidInputError("labels must be +1 or -1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InvalidInputError("both classes must be present")
    if not c_reg > 0:
        raise InvalidInputError("c_reg must be positive")

    beta = np.zeros(G.shape[0])
    b = 0.0
    best_beta, best_b = beta, b
    # G beta at each iterate serves its margins, its objective and, through
    # the margins, the next subgradient.
    g_beta = G @ beta
    margins = y * (g_beta + b)
    best_obj = _svm_primal(float(beta @ g_beta), margins, c_reg)
    for t in range(1, _SVM_EPOCHS + 1):
        # The subgradient step w <- w - eta * (w - c_reg * X^T (y * active)).
        ya = np.where(margins < 1.0, y, 0.0)
        eta = 1.0 / t
        beta = (1.0 - eta) * beta + (eta * c_reg) * ya
        b = b + eta * (c_reg * float(np.sum(ya)))
        g_beta = G @ beta
        margins = y * (g_beta + b)
        obj = _svm_primal(float(beta @ g_beta), margins, c_reg)
        if obj < best_obj:
            best_obj = obj
            best_beta, best_b = beta, b
    return best_beta, best_b


def platt_fit(decision_values, labels) -> tuple[float, float]:
    """Fit the sigmoid p(f) = 1 / (1 + exp(a f + b)) by L-BFGS on its log-likelihood.

    Labels are 0/1; the standard smoothed targets (N+ + 1)/(N+ + 2) and
    1/(N- + 2) are used. The negative log-likelihood is minimized by
    optim.minimize from a = 0, b = log((N- + 1)/(N+ + 1)), stopping when
    the gradient sup-norm drops below 1e-10 or after 100 iterations.
    """
    f = np.asarray(decision_values, dtype=float).ravel()
    y = np.asarray(labels).ravel()
    if f.size != y.size:
        raise InvalidInputError("one label per decision value is required")
    pos = y == 1
    neg = y == 0
    if not (np.any(pos) and np.any(neg)):
        raise InvalidInputError("both labels (0 and 1) must be present")
    if not np.all(pos | neg):
        raise InvalidInputError("labels must be 0 or 1")
    # matmul can leave bit-level noise across identical rows, so judge
    # degeneracy by relative spread rather than exact equality
    if float(f.max() - f.min()) <= 1e-9 * max(1.0, float(np.abs(f).max())):
        raise DegenerateDataError(
            "decision values carry no separation; no sigmoid slope is identifiable"
        )

    n_pos = int(np.sum(pos))
    n_neg = int(np.sum(neg))
    t = np.where(pos, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def nll(ab: np.ndarray):
        fab = ab[0] * f + ab[1]
        # Per point, log(1 + exp(fab)) - (1 - t) fab, taken through
        # e = exp(-|fab|) only, so no sign of fab overflows.
        e = np.exp(-np.abs(fab))
        nonneg = fab >= 0
        value = float(np.sum(np.where(nonneg, t * fab, (t - 1.0) * fab) + np.log1p(e)))

        def grad() -> np.ndarray:
            d = t - np.where(nonneg, e, 1.0) / (1.0 + e)  # t - p, dNLL/dfab per point
            return np.array([float(d @ f), float(np.sum(d))])

        return value, grad

    x0 = np.array([0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))])
    ab, _ = minimize(nll, x0, cfg=MinimizeConfig(max_iters=100, grad_tol=1e-10))
    return float(ab[0]), float(ab[1])


def fit_classifier(features: mmd.FeatureMatrix, labels: np.ndarray) -> ClassifierModel:
    """Train the SVM on the deterministic 80% split and Platt-fit on the held-out 20%.

    Every fifth non-test row (index % 5 == 0) is held out, and each part
    needs both labels. The SVM trains on the training rows' block of
    features.G, and w = X_train^T beta.
    """
    X = features.V[: features.K - 1]
    if labels.size != X.shape[0]:
        raise InvalidInputError("one label per non-test row is required")
    held = np.arange(X.shape[0]) % 5 == 0
    for name, part in (("training", ~held), ("held-out (every fifth, from the first)", held)):
        if np.ptp(labels[part]) == 0:
            raise InvalidInputError(f"the {name} split has only {labels[part][0]:+g} labels")
    train = np.flatnonzero(~held)
    beta, b = train_svm(features.G[np.ix_(train, train)], labels[train], _SVM_C)
    w = X[train].T @ beta
    held_decisions = X[held] @ w + b
    platt_a, platt_b = platt_fit(held_decisions, (labels[held] > 0).astype(int))
    return ClassifierModel(w=w, b=b, platt_a=platt_a, platt_b=platt_b)


def predict(model: ClassifierModel, z) -> tuple[float, float]:
    """Decision value w.z + b and its Platt probability."""
    z = np.asarray(z, dtype=float).ravel()
    if z.size != model.w.size:
        raise InvalidInputError(f"feature length {z.size} does not match model ({model.w.size})")
    decision = float(model.w @ z + model.b)
    # 1 / (1 + exp(u)) through exp(-|u|), which cannot overflow
    u = model.platt_a * decision + model.platt_b
    e = math.exp(-abs(u))
    probability = (e if u >= 0 else 1.0) / (1.0 + e)
    return decision, probability


def sweep_decisions(
    model: ClassifierModel,
    points: Iterable[tuple[float, np.ndarray]],
    features: mmd.FeatureMatrix,
) -> list[SweepRecord]:
    """Decision value and probability at the untraversed point, then at every (lambda, r)."""
    records = []
    base_decision, base_prob = predict(model, features.V[features.test_row])
    records.append(SweepRecord(None, base_decision, base_prob))
    for lam, r in points:
        decision, prob = predict(model, materialize(features, r))
        records.append(SweepRecord(lam, decision, prob))
    return records


def adversarial_perturb(
    spec: ExtractorSpec,
    weights: WeightSet,
    model: ClassifierModel,
    image: ImageTensor,
    c_adv: float,
    cfg: MinimizeConfig | None = None,
) -> AdversarialResult:
    """Smallest-change pixel perturbation that raises the decision value.

    Minimizes -(w . phi(x + delta) + b) + c_adv * |delta|^2 over delta
    with x + delta kept inside [0, 1]; c_adv must be finite and positive.
    """
    if not 0 < c_adv < np.inf:
        raise InvalidInputError(f"c_adv must be finite and positive, got {c_adv!r}")
    if model.w.size != spec.feature_dim():
        raise InvalidInputError("model dimension does not match the extractor")
    # J^T(-w) = -J^T w exactly, so the cotangent -w gives the gradient of -decision.
    neg_w = -model.w

    def feature_term(features: np.ndarray):
        return -float(model.w @ features + model.b), neg_w

    def pixel_term(img: ImageTensor):
        delta = img.pixels - image.pixels
        return c_adv * float(delta.ravel() @ delta.ravel()), lambda: 2.0 * c_adv * delta

    perturbed, fp, _ = solve_pixels(spec, weights, image, feature_term, pixel_term, cfg)
    delta = perturbed.pixels - image.pixels
    return AdversarialResult(
        delta=delta,
        perturbed=perturbed,
        decision_value=predict(model, fp.features)[0],
        l2_pixel_distance=float(np.linalg.norm(delta)),
        c_adv=c_adv,
    )


def match_regularizer(
    spec: ExtractorSpec,
    weights: WeightSet,
    model: ClassifierModel,
    image: ImageTensor,
    target_decision: float,
    cfg: MinimizeConfig | None = None,
) -> AdversarialResult:
    """Find the perturbation, and its c_adv, that reaches a requested decision value.

    The target must be finite. The search runs over log c_adv in
    [1e-12, 1e12]. The top end stands for an unperturbed image: a solve
    there returns the clean image unchanged, so its decision comes from
    one forward pass. Every solve starts at the clean image and only
    lowers -decision + c_adv |delta|^2, so a target below the clean
    decision raises NoMatchError without a solve.

    The first solve is at the linearised c_adv. With decision ~ d0 +
    g.delta, where g is one VJP at the clean image, the solve at c_adv
    shifts the decision by |g|^2 / (2 c_adv), so the start is
    c0 = |g|^2 / (2 |target - d0|), clamped to the range. A solve that
    falls short of the target is followed by one a decade lower, then by
    one at 1e-12, the largest achievable shift; when that one falls short
    too, NoMatchError is raised. The first solve past the target brackets
    it with the nearest solve short of it, or with the top end. Inside
    the bracket each step is one adversarial_perturb solve at the
    Illinois (safeguarded regula falsi) point, or at the bracket's log
    midpoint when that point falls in the outer 1% of the bracket.

    The decision value need not be monotone in c_adv: at small c_adv the
    solves stop on their iteration cap (with the demo's 100, c_adv =
    1e-12, 1e-6 and 1e-3 give 25.92, 25.93 and 26.06), so the search
    relies only on the bracket keeping a sign change.

    Returns the AdversarialResult of the first solve within 1% of the
    target; its c_adv field holds the constant, and
    adversarial_perturb at that c_adv reproduces it bit for bit. At most
    40 solves are made; when they end without a match, logs a warning
    and returns the result closest to the target seen.
    """
    if not math.isfinite(target_decision):
        raise InvalidInputError(f"target decision must be finite, got {target_decision!r}")
    tol = _MATCH_REL_TOL * (abs(target_decision) if target_decision != 0 else 1.0)

    def gap(res: AdversarialResult) -> float:
        return res.decision_value - target_decision

    c_lo, c_hi = _C_ADV_RANGE
    fp = forward(spec, weights, image)
    decision, _ = predict(model, fp.features)
    hi = AdversarialResult(
        delta=np.zeros_like(image.pixels),
        perturbed=image,
        decision_value=decision,
        l2_pixel_distance=0.0,
        c_adv=c_hi,
    )
    if abs(gap(hi)) <= tol:
        return hi
    if gap(hi) > 0:
        raise NoMatchError(
            f"target decision {target_decision!r} lies on the far side of the clean "
            f"image's {decision!r} from the push, which raises the decision"
        )

    g = fp.vjp(model.w).ravel()
    c0 = min(max(float(g @ g) / (2.0 * abs(gap(hi))), c_lo), c_hi)
    # Descending probes; the last one, at c_lo, is always there.
    probes = iter(sorted({c for c in (c0, 0.1 * c0, c_lo) if c_lo <= c < c_hi}, reverse=True))
    best = hi
    # Bracket ends in log c_adv with their gaps: a overshoots the target
    # (None until a probe does), b falls short of it. A gap is halved (the
    # Illinois step) when its end has been kept twice in a row.
    a, fa = None, None
    b, fb = math.log(c_hi), gap(hi)
    kept = 0  # -1: a was kept last step, +1: b was kept
    for _ in range(_MATCH_MAX_SOLVES):
        if fa is None:
            c = next(probes)
            u = math.log(c)
        else:
            u = (a * fb - b * fa) / (fb - fa)
            if not _SECANT_MARGIN <= (u - a) / (b - a) <= 1.0 - _SECANT_MARGIN:
                u = 0.5 * (a + b)
            c = math.exp(u)
        res = adversarial_perturb(spec, weights, model, image, c, cfg=cfg)
        f = gap(res)
        if abs(f) <= tol:
            return res
        if abs(f) < abs(gap(best)):
            best = res
        if fa is None:
            if (f > 0) != (fb > 0):
                a, fa = u, f
            elif c == c_lo:
                raise NoMatchError(
                    f"target decision {target_decision!r} is not bracketed by "
                    f"[{decision!r}, {res.decision_value!r}] over c_adv in [1e-12, 1e12]"
                )
            else:
                b, fb = u, f
        elif (f > 0) == (fa > 0):
            a, fa = u, f
            if kept == +1:
                fb *= 0.5
            kept = +1
        else:
            b, fb = u, f
            if kept == -1:
                fa *= 0.5
            kept = -1
    _log.warning(
        "no c_adv within a relative %g of target decision %r after %d steps; "
        "best decision %r at c_adv %r",
        _MATCH_REL_TOL,
        target_decision,
        _MATCH_MAX_SOLVES,
        best.decision_value,
        best.c_adv,
    )
    return best
