"""Label-change evaluation: linear SVM, Platt calibration, decision
sweeps across a traversal, and a gradient-based adversarial baseline.

The sign convention is fixed by the training labels: +1 marks the
target block, -1 the source block, so a positive decision value reads
"target-like". ClassifierModel.trained_on records this alongside the
feature configuration.

The adversarial baseline is matched to a requested decision value by a
search over its trade-off constant c_adv (Szegedy et al. 2014, Carlini &
Wagner 2017): match_regularizer runs a safeguarded secant (Illinois) on
log c_adv inside a sign-changing bracket and returns the perturbation it
matched, so no solve is repeated. Every solve starts from the clean
image, so each result depends on its c_adv alone and
adversarial_perturb(..., result.c_adv) reproduces it bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import mmd
from .errors import DegenerateDataError, InvalidInputError, NoMatchError
from .features import ExtractorSpec, ImageTensor, WeightSet, forward
from .optim import MinimizeConfig, minimize
from .traversal import TraversalResult, materialize

_log = logging.getLogger(__name__)

# Search range of match_regularizer; its top end stands for c_adv -> infinity.
_C_ADV_RANGE = (1e-12, 1e12)
# A secant point this close (as a fraction of the bracket) to either end
# gives way to the bisection midpoint.
_SECANT_MARGIN = 0.01


@dataclass
class ClassifierModel:
    w: np.ndarray
    b: float
    platt_a: float
    platt_b: float
    trained_on: str = ""

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
class SweepReport:
    records: list[SweepRecord]  # baseline first, then one per lambda in sweep order


@dataclass
class AdversarialResult:
    delta: np.ndarray
    perturbed: ImageTensor
    decision_value: float
    l2_pixel_distance: float
    c_adv: float  # the trade-off constant this perturbation was solved at


def svm_objective(w, b: float, X, y, c_reg: float) -> float:
    """Primal objective 0.5|w|^2 + c_reg * sum hinge(y_i (w.x_i + b))."""
    w = np.asarray(w, dtype=float)
    return _svm_primal(w, y * (X @ w + b), c_reg)


def _svm_primal(w: np.ndarray, margins: np.ndarray, c_reg: float) -> float:
    return 0.5 * float(w @ w) + c_reg * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def train_svm(
    features, labels, c_reg: float, *, epochs: int = 2000, trace: list | None = None
) -> tuple[np.ndarray, float]:
    """Train a linear SVM by deterministic full-batch subgradient descent.

    Starts at w = 0, b = 0 and runs a fixed number of epochs with step
    1/t on the unit-strongly-convex primal, which makes the iterates
    invariant under duplicating the data while halving c_reg. The best
    iterate seen (by objective) is returned, so the result never scores
    worse than the starting point; when `trace` is given, the best
    objective so far is appended once per epoch (a non-increasing
    sequence).
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError("features must be a 2-D array of row vectors")
    y = np.asarray(labels, dtype=float).ravel()
    if y.size != X.shape[0]:
        raise InvalidInputError("one label per feature row is required")
    if not np.all(np.abs(y) == 1.0):
        raise InvalidInputError("labels must be +1 or -1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InvalidInputError("both classes must be present")
    if not c_reg > 0:
        raise InvalidInputError("c_reg must be positive")

    w = np.zeros(X.shape[1])
    b = 0.0
    best_w, best_b = w.copy(), b
    # The margins at each iterate serve both its objective and the next subgradient.
    margins = y * (X @ w + b)
    best_obj = _svm_primal(w, margins, c_reg)
    if trace is not None:
        trace.append(best_obj)
    for t in range(1, epochs + 1):
        active = margins < 1.0
        ya = y[active]
        gw = w - c_reg * (ya @ X[active])
        gb = -c_reg * float(np.sum(ya))
        eta = 1.0 / t
        w = w - eta * gw
        b = b - eta * gb
        margins = y * (X @ w + b)
        obj = _svm_primal(w, margins, c_reg)
        if obj < best_obj:
            best_obj = obj
            best_w, best_b = w.copy(), b
        if trace is not None:
            trace.append(best_obj)
    return best_w, best_b


def platt_fit(decision_values, labels) -> tuple[float, float]:
    """Fit the sigmoid p(f) = 1 / (1 + exp(a f + b)) by damped Newton steps.

    Labels are 0/1; the standard smoothed targets (N+ + 1)/(N+ + 2) and
    1/(N- + 2) are used. Iteration stops when the gradient sup-norm
    drops below 1e-10 or after 100 steps.
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

    def nll(a: float, b: float) -> float:
        fab = a * f + b
        # log(1 + exp(.)) evaluated stably on both signs.
        val = np.where(
            fab >= 0, t * fab + np.log1p(np.exp(-fab)), (t - 1.0) * fab + np.log1p(np.exp(fab))
        )
        return float(np.sum(val))

    a = 0.0
    b = float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
    obj = nll(a, b)
    for _ in range(100):
        fab = a * f + b
        p = 1.0 / (1.0 + np.exp(fab))
        d = t - p  # dNLL/dfab per point
        ga = float(d @ f)
        gb = float(np.sum(d))
        if max(abs(ga), abs(gb)) < 1e-10:
            break
        h = p * (1.0 - p)
        haa = float((f * f) @ h) + 1e-12
        hab = float(f @ h)
        hbb = float(np.sum(h)) + 1e-12
        det = haa * hbb - hab * hab
        da = -(hbb * ga - hab * gb) / det
        db = -(-hab * ga + haa * gb) / det
        step = 1.0
        for _ in range(30):
            cand = nll(a + step * da, b + step * db)
            if cand < obj:
                a += step * da
                b += step * db
                obj = cand
                break
            step *= 0.5
        else:
            break  # no decrease along the Newton direction; converged enough
    return a, b


def predict(model: ClassifierModel, z) -> tuple[float, float]:
    """Decision value w.z + b and its Platt probability."""
    z = np.asarray(z, dtype=float).ravel()
    if z.size != model.w.size:
        raise InvalidInputError(f"feature length {z.size} does not match model ({model.w.size})")
    decision = float(model.w @ z + model.b)
    probability = float(1.0 / (1.0 + np.exp(model.platt_a * decision + model.platt_b)))
    return decision, probability


def sweep_decisions(
    model: ClassifierModel, traversal: TraversalResult, features: mmd.FeatureMatrix
) -> SweepReport:
    """Decision value and probability at the untraversed point and at every lambda."""
    if model.w.size != features.D:
        raise InvalidInputError(
            f"model dimension {model.w.size} does not match features ({features.D})"
        )
    records = []
    base_decision, base_prob = predict(model, features.V[features.test_row])
    records.append(SweepRecord(None, base_decision, base_prob))
    for rec in traversal.records:
        z = materialize(features, rec.r)
        decision, prob = predict(model, z)
        records.append(SweepRecord(rec.lam, decision, prob))
    return SweepReport(records)


def adversarial_perturb(
    spec: ExtractorSpec,
    weights: WeightSet,
    model: ClassifierModel,
    image: ImageTensor,
    c_adv: float,
    cfg: MinimizeConfig | None = None,
    sign_target: float = -1.0,
) -> AdversarialResult:
    """Smallest-change pixel perturbation that shifts the decision value.

    Minimizes sign_target * (w . phi(x + delta) + b) + c_adv * |delta|^2
    over delta with x + delta kept inside [0, 1]; the default
    sign_target = -1 pushes the decision value up.
    """
    if not c_adv > 0:
        raise InvalidInputError("c_adv must be positive")
    if model.w.size != spec.feature_dim():
        raise InvalidInputError("model dimension does not match the extractor")
    if (image.height, image.width, image.channels) != spec.input_shape:
        raise InvalidInputError("image shape does not match the extractor input")
    x = image.pixels.ravel()
    shape = image.pixels.shape

    def fun(flat: np.ndarray):
        fp = forward(spec, weights, ImageTensor(flat.reshape(shape)))
        decision = float(model.w @ fp.features + model.b)
        delta = flat - x

        def grad() -> np.ndarray:
            return sign_target * fp.vjp(model.w).ravel() + 2.0 * c_adv * delta

        return sign_target * decision + c_adv * float(delta @ delta), grad

    x_star, _ = minimize(fun, x, bounds=(0.0, 1.0), cfg=cfg)
    perturbed = ImageTensor(np.clip(x_star.reshape(shape), 0.0, 1.0))
    delta = perturbed.pixels - image.pixels
    decision, _ = predict(model, forward(spec, weights, perturbed).features)
    return AdversarialResult(
        delta=delta,
        perturbed=perturbed,
        decision_value=decision,
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
    sign_target: float = -1.0,
    rel_tol: float = 0.01,
    max_steps: int = 40,
) -> AdversarialResult:
    """Find the perturbation, and its c_adv, that reaches a requested decision value.

    The search runs over log c_adv in [1e-12, 1e12]. The top end stands
    for an unperturbed image: a solve there returns the clean image
    unchanged, so its decision comes from one forward pass. The bottom
    end is a full solve and gives the largest achievable shift. Between
    them each step is one adversarial_perturb solve at the Illinois
    (safeguarded regula falsi) point of the current sign-changing
    bracket, or at the bracket's log midpoint when that point falls in
    the outer 1% of the bracket.

    The decision value need not be monotone in c_adv: at small c_adv the
    solves stop on their iteration cap (with the demo's 250, c_adv =
    1e-12, 1e-6 and 1e-3 give 25.45, 25.20 and 25.58), so the search
    relies only on the bracket keeping a sign change.

    Returns the AdversarialResult of the first solve within rel_tol of
    the target; its c_adv field holds the constant, and
    adversarial_perturb at that c_adv reproduces it bit for bit. After
    max_steps without a match, logs a warning and returns the result
    closest to the target seen. Raises NoMatchError when the target
    lies outside the achievable range.
    """
    tol = rel_tol * abs(target_decision) if target_decision != 0 else rel_tol

    def gap(res: AdversarialResult) -> float:
        return res.decision_value - target_decision

    c_lo, c_hi = _C_ADV_RANGE
    decision, _ = predict(model, forward(spec, weights, image).features)
    hi = AdversarialResult(
        delta=np.zeros_like(image.pixels),
        perturbed=image,
        decision_value=decision,
        l2_pixel_distance=0.0,
        c_adv=c_hi,
    )
    if abs(gap(hi)) <= tol:
        return hi
    lo = adversarial_perturb(spec, weights, model, image, c_lo, cfg=cfg, sign_target=sign_target)
    if abs(gap(lo)) <= tol:
        return lo
    if gap(lo) * gap(hi) > 0:
        raise NoMatchError(
            f"target decision {target_decision!r} is not bracketed by "
            f"[{hi.decision_value!r}, {lo.decision_value!r}] over c_adv in [1e-12, 1e12]"
        )

    best = min((hi, lo), key=lambda r: abs(gap(r)))
    # Bracket ends in log c_adv with their gaps; a gap is halved (the
    # Illinois step) when its end has been kept twice in a row.
    a, fa = math.log(c_lo), gap(lo)
    b, fb = math.log(c_hi), gap(hi)
    kept = 0  # -1: a was kept last step, +1: b was kept
    for _ in range(max_steps):
        u = (a * fb - b * fa) / (fb - fa)
        if not _SECANT_MARGIN <= (u - a) / (b - a) <= 1.0 - _SECANT_MARGIN:
            u = 0.5 * (a + b)
        res = adversarial_perturb(
            spec, weights, model, image, math.exp(u), cfg=cfg, sign_target=sign_target
        )
        f = gap(res)
        if abs(f) <= tol:
            return res
        if abs(f) < abs(gap(best)):
            best = res
        if (f > 0) == (fa > 0):
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
        "no c_adv within rel_tol %g of target decision %r after %d steps; "
        "best decision %r at c_adv %r",
        rel_tol,
        target_decision,
        max_steps,
        best.decision_value,
        best.c_adv,
    )
    return best
