"""Differential check of the hand-written L-BFGS against scipy's L-BFGS-B.

Both solvers start from the same point and stop on the same projected
gradient sup-norm (1e-6). The instances are chosen so that both reach it;
the final objectives must then agree, the iterates need not. On an
ill-conditioned Gram the traversal stops on the gradient in its
displacement a on the embedded rows and scipy on the gradient in r, so
there the traversal's objective is only required to be no worse. The
Platt fit is checked the same way at its own gradient tolerance (1e-10).
The demo's own pixel solves reach no gradient tolerance, so there both
solvers run to the demo's iteration cap and our objective must come
within 5% of scipy's.
"""

import numpy as np
import pytest

import oracles
from conftest import DEMO_PIXEL_SOLVER, seeded_instance
from dmtrav import evaluate, formats, mmd
from dmtrav.features import Conv, ExtractorSpec, ImageTensor, Relu, forward, init_weights
from dmtrav.mmd import FeatureMatrix, KernelConfig
from dmtrav.reconstruct import ReconstructionConfig, invert, tv
from dmtrav.traversal import TraversalConfig, traverse
from oracles import tv_grad

scipy_optimize = pytest.importorskip("scipy.optimize")

GRAD_TOL = 1e-6


def scipy_solve(fun_and_grad, x0, bounds=None):
    res = scipy_optimize.minimize(
        fun_and_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"gtol": GRAD_TOL, "ftol": 0.0, "maxiter": 2000},
    )
    assert res.success and "PROJECTED GRADIENT" in res.message, res.message
    return res


@pytest.mark.parametrize("seed", [3, 12, 31])
@pytest.mark.parametrize("scale", [1e-1, 1e-2])
def test_traversal_objective_matches_scipy(seed, scale):
    # K = 7 rows in D = 20: G is full rank with condition number below 10
    V, m, n = seeded_instance(seed, K=7, D=20)
    fm = FeatureMatrix(V, m, n)
    G = fm.G
    kcfg = KernelConfig(mmd.median_heuristic_sigma(G))
    lam = scale / kcfg.sigma
    rec = traverse(fm, TraversalConfig(lambdas=(lam,), kernel=kcfg))[0]
    assert rec.trace.termination_reason == "grad_tol"

    def fun_and_grad(r):
        value = mmd.witness_factored(r, G, m, n, kcfg).value + lam * mmd.budget(r, G)
        return value, oracles.witness_grad_r(r, G, m, n, kcfg) + lam * oracles.budget_grad(r, G)

    res = scipy_solve(fun_and_grad, np.zeros(fm.K))
    assert rec.objective == pytest.approx(res.fun, rel=1e-8)


@pytest.mark.parametrize("scale", [1e-1, 1e-2])
def test_ill_conditioned_traversal_no_worse_than_scipy(scale):
    # K = 7 rows with singular values spread over 10^2.5: cond(G) = 1e5
    rng = np.random.default_rng(3)
    left, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    right, _ = np.linalg.qr(rng.standard_normal((20, 7)))
    V = left @ np.diag(5.0 * np.logspace(0.0, -2.5, 7)) @ right.T
    m, n = 3, 3
    fm = FeatureMatrix(V, m, n)
    G = fm.G
    assert np.linalg.cond(G) >= 1e4
    kcfg = KernelConfig(mmd.median_heuristic_sigma(G))
    lam = scale / kcfg.sigma
    rec = traverse(fm, TraversalConfig(lambdas=(lam,), kernel=kcfg))[0]
    assert rec.trace.termination_reason == "grad_tol"

    def fun_and_grad(r):
        value = mmd.witness_factored(r, G, m, n, kcfg).value + lam * mmd.budget(r, G)
        return value, oracles.witness_grad_r(r, G, m, n, kcfg) + lam * oracles.budget_grad(r, G)

    res = scipy_solve(fun_and_grad, np.zeros(fm.K))
    assert rec.objective <= res.fun + 1e-9 * abs(res.fun)


def inversion_objective(spec, weights, z, lam_tv):
    """0.5 |phi(x) - z|^2 + lam_tv TV_2(x) and its gradient over the flattened pixels."""

    def fun_and_grad(flat):
        img = ImageTensor(flat.reshape(spec.input_shape))
        fp = forward(spec, weights, img)
        resid = fp.features - z
        value = 0.5 * float(resid @ resid) + lam_tv * tv(img, 2.0)
        return value, (fp.vjp(resid) + lam_tv * tv_grad(img, 2.0)).ravel()

    return fun_and_grad


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inversion_objective_matches_scipy(seed):
    spec = ExtractorSpec((5, 5, 1), (Conv(3), Relu()), taps=(1,))
    weights = init_weights(spec, seed)
    rng = np.random.default_rng(seed)
    z = forward(spec, weights, ImageTensor(rng.uniform(0.2, 0.8, (5, 5, 1)))).features
    lam_tv = 0.01
    out = invert(spec, weights, z, ReconstructionConfig(lambda_tv=lam_tv))
    assert out.trace.termination_reason == "grad_tol"

    fun_and_grad = inversion_objective(spec, weights, z, lam_tv)
    res = scipy_solve(fun_and_grad, np.full(25, 0.5), bounds=[(0.0, 1.0)] * 25)
    ours = out.final_feature_loss + lam_tv * out.final_tv
    assert ours == pytest.approx(res.fun, rel=1e-8)


def demo_pixel_problem(solve, demo_dir, spec, weights):
    """A demo pixel solve rebuilt from its tree: (our objective, value-and-gradient, x0)."""
    image = formats.load_image(demo_dir / "dataset" / "input.ppm")
    shape, x0 = image.pixels.shape, image.pixels.ravel()
    if solve == "adversarial":
        features = formats.read_feature_file(demo_dir / "features.dmtv").as_feature_matrix()
        model = evaluate.fit_classifier(
            features, formats.read_labels(demo_dir / "labels.txt", features.K - 1)
        )
        summary = (demo_dir / "summary.txt").read_text().splitlines()
        c = float(next(line.split()[1] for line in summary if line.startswith("adversarial_c ")))
        res = evaluate.adversarial_perturb(
            spec, weights, model, image, c, cfg=DEMO_PIXEL_SOLVER
        )
        ours = -res.decision_value + c * res.l2_pixel_distance**2

        def fun_and_grad(flat):
            fp = forward(spec, weights, ImageTensor(flat.reshape(shape)))
            delta = flat - x0
            value = -float(model.w @ fp.features + model.b) + c * float(delta @ delta)
            return value, -fp.vjp(model.w).ravel() + 2.0 * c * delta

        return ours, fun_and_grad, x0
    z = formats.read_vector(demo_dir / f"{solve}.dmtv")
    cfg = ReconstructionConfig(init=image, solver=DEMO_PIXEL_SOLVER)
    assert cfg.beta == 2.0
    out = invert(spec, weights, z, cfg)
    ours = out.final_feature_loss + cfg.lambda_tv * out.final_tv
    return ours, inversion_objective(spec, weights, z, cfg.lambda_tv), x0


@pytest.mark.parametrize("solve", ["zt_0", "zt_1", "zt_2", "adversarial"])
def test_demo_pixel_solves_near_scipy_at_demo_cap(solve, demo_runs, reference):
    # The three inversions of the demo's traversal outputs and its
    # adversarial solve at the matched c_adv, both solvers capped alike.
    solver = DEMO_PIXEL_SOLVER
    ours, fun_and_grad, x0 = demo_pixel_problem(solve, demo_runs[1], *reference)
    res = scipy_optimize.minimize(
        fun_and_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, 1.0)] * x0.size,
        options={"gtol": 0.0, "ftol": 0.0, "maxiter": solver.max_iters},
    )
    assert ours <= res.fun + 0.05 * abs(res.fun)


def platt_nll(ab, f, y):
    """Smoothed-target Platt negative log-likelihood and its gradient in (a, b)."""
    n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
    t = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    fab = ab[0] * f + ab[1]
    p = np.exp(-np.logaddexp(0.0, fab))  # 1 / (1 + exp(fab))
    value = float(np.sum(np.logaddexp(0.0, fab) - (1.0 - t) * fab))
    d = t - p
    return value, np.array([d @ f, np.sum(d)])


def demo_held_out_decisions(demo_dir):
    """The held-out decisions and 0/1 labels that fit_classifier Platt-scales."""
    features = formats.read_feature_file(demo_dir / "features.dmtv").as_feature_matrix()
    labels = formats.read_labels(demo_dir / "labels.txt", features.K - 1)
    X = features.V[: features.K - 1]
    held = np.arange(X.shape[0]) % 5 == 0
    train = np.flatnonzero(~held)
    beta, b = evaluate.train_svm(features.G[np.ix_(train, train)], labels[train], 1.0)
    return X[held] @ (X[train].T @ beta) + b, (labels[held] > 0).astype(int)


def seeded_platt_instance(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(20, 200))
    f = rng.uniform(-4.0, 4.0, size)
    y = (rng.uniform(size=size) < 1.0 / (1.0 + np.exp(-1.5 * f + 0.3))).astype(int)
    return f, y


@pytest.mark.parametrize("instance", ["demo", 0, 1, 2, 3])
def test_platt_matches_scipy(instance, demo_runs):
    if instance == "demo":
        f, y = demo_held_out_decisions(demo_runs[1])
        assert f.size == 26
    else:
        f, y = seeded_platt_instance(instance)
    a, b = evaluate.platt_fit(f, y)
    res = scipy_optimize.minimize(
        platt_nll,
        np.array([0.0, np.log((np.sum(y == 0) + 1.0) / (np.sum(y == 1) + 1.0))]),
        args=(f, y),
        jac=True,
        method="L-BFGS-B",
        options={"gtol": 1e-10, "ftol": 0.0, "maxiter": 1000},
    )
    ours = platt_nll(np.array([a, b]), f, y)[0]
    assert ours == pytest.approx(res.fun, rel=1e-12)
    assert np.max(np.abs(np.array([a, b]) - res.x)) < 1e-6
