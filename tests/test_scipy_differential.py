"""Differential check of the hand-written L-BFGS against scipy's L-BFGS-B.

Both solvers start from the same point and stop on the same projected
gradient sup-norm (1e-6). The instances are chosen so that both reach it;
the final objectives must then agree, the iterates need not. On an
ill-conditioned Gram the traversal stops on the gradient in its whitened
coordinates and scipy on the gradient in r, so there the traversal's
objective is only required to be no worse.
"""

import numpy as np
import pytest

from conftest import seeded_instance
from dmtrav import mmd
from dmtrav.features import Conv, ExtractorSpec, ImageTensor, Relu, forward, init_weights
from dmtrav.mmd import FeatureMatrix, KernelConfig
from dmtrav.reconstruct import ReconstructionConfig, _tv_array, _tv_grad_array, invert
from dmtrav.traversal import TraversalConfig, traverse

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
    fm = FeatureMatrix(V, m, n).with_gram()
    G = fm.G
    kcfg = KernelConfig(mmd.median_heuristic_sigma(G))
    lam = scale / kcfg.sigma
    rec = traverse(fm, TraversalConfig(lambdas=(lam,), kernel=kcfg)).records[0]
    assert rec.trace.termination_reason == "grad_tol"

    def fun_and_grad(r):
        value = mmd.witness_factored(r, G, m, n, kcfg).value + lam * mmd.budget(r, G)
        return value, mmd.witness_grad_r(r, G, m, n, kcfg) + lam * mmd.budget_grad(r, G)

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
    fm = FeatureMatrix(V, m, n).with_gram()
    G = fm.G
    assert np.linalg.cond(G) >= 1e4
    kcfg = KernelConfig(mmd.median_heuristic_sigma(G))
    lam = scale / kcfg.sigma
    rec = traverse(fm, TraversalConfig(lambdas=(lam,), kernel=kcfg)).records[0]
    assert rec.trace.termination_reason == "grad_tol"

    def fun_and_grad(r):
        value = mmd.witness_factored(r, G, m, n, kcfg).value + lam * mmd.budget(r, G)
        return value, mmd.witness_grad_r(r, G, m, n, kcfg) + lam * mmd.budget_grad(r, G)

    res = scipy_solve(fun_and_grad, np.zeros(fm.K))
    assert rec.objective <= res.fun + 1e-9 * abs(res.fun)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inversion_objective_matches_scipy(seed):
    spec = ExtractorSpec((5, 5, 1), (Conv(3), Relu()), taps=(1,))
    weights = init_weights(spec, seed)
    rng = np.random.default_rng(seed)
    z = forward(spec, weights, ImageTensor(rng.uniform(0.2, 0.8, (5, 5, 1)))).features
    lam_tv = 0.01
    out = invert(spec, weights, z, ReconstructionConfig(lambda_tv=lam_tv))
    assert out.trace.termination_reason == "grad_tol"

    def fun_and_grad(flat):
        img = flat.reshape(5, 5, 1)
        fp = forward(spec, weights, ImageTensor(img))
        resid = fp.features - z
        value = 0.5 * float(resid @ resid) + lam_tv * _tv_array(img, 2.0)
        return value, (fp.vjp(resid) + lam_tv * _tv_grad_array(img, 2.0)).ravel()

    res = scipy_solve(fun_and_grad, np.full(25, 0.5), bounds=[(0.0, 1.0)] * 25)
    ours = out.final_feature_loss + lam_tv * out.final_tv
    assert ours == pytest.approx(res.fun, rel=1e-8)
