"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way (explicit
loops, direct feature-space arithmetic) and shares no code with the
production paths it checks.
"""

from __future__ import annotations

import numpy as np

from dmtrav.errors import InvalidInputError, NumericalError


def finite_difference_gradient(fun, x, h: float) -> np.ndarray:
    """Central-difference gradient estimate, component i = (f(x+h*e_i) - f(x-h*e_i)) / (2h)."""
    if h <= 0:
        raise InvalidInputError("h must be positive")
    x = np.asarray(x, dtype=float).copy().ravel()
    if x.size == 0:
        raise InvalidInputError("x must be a non-empty vector")
    g = np.empty_like(x)
    for i in range(x.size):
        xi = x[i]
        x[i] = xi + h
        fp = float(fun(x))
        x[i] = xi - h
        fm = float(fun(x))
        x[i] = xi
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalError(f"objective is not finite near component {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g


def weights_equal(a, b) -> bool:
    """Bit-for-bit equality of two weight sets, skeleton included."""
    return (
        a.layers == b.layers
        and a.taps == b.taps
        and len(a.kernels) == len(b.kernels)
        and all(np.array_equal(x, y) for x, y in zip(a.kernels, b.kernels))
        and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
    )


def naive_extract(spec, weights, image: np.ndarray) -> np.ndarray:
    """Nested-loop forward pass; image is (H, W, C) in [0, 1]."""
    from dmtrav.features import Conv, MaxPool, Relu

    acts = [np.transpose(image, (2, 0, 1)).astype(float)]
    ki = 0
    for layer in spec.layers:
        x = acts[-1]
        c_in, h, w = x.shape
        if isinstance(layer, Conv):
            kernel = weights.kernels[ki].astype(float)
            bias = weights.biases[ki].astype(float)
            ki += 1
            c_out = kernel.shape[0]
            padded = np.zeros((c_in, h + 2, w + 2))
            padded[:, 1:-1, 1:-1] = x
            out = np.zeros((c_out, h, w))
            for o in range(c_out):
                for i in range(h):
                    for j in range(w):
                        acc = bias[o]
                        for c in range(c_in):
                            for di in range(3):
                                for dj in range(3):
                                    acc += padded[c, i + di, j + dj] * kernel[o, c, di, dj]
                        out[o, i, j] = acc
            acts.append(out)
        elif isinstance(layer, Relu):
            acts.append(np.where(x > 0, x, 0.0))
        elif isinstance(layer, MaxPool):
            ho, wo = h // 2, w // 2
            out = np.zeros((c_in, ho, wo))
            for c in range(c_in):
                for i in range(ho):
                    for j in range(wo):
                        out[c, i, j] = max(
                            x[c, 2 * i, 2 * j],
                            x[c, 2 * i, 2 * j + 1],
                            x[c, 2 * i + 1, 2 * j],
                            x[c, 2 * i + 1, 2 * j + 1],
                        )
            acts.append(out)
    return np.concatenate([acts[t + 1].ravel() for t in spec.taps])


def naive_gram(V: np.ndarray) -> np.ndarray:
    K = V.shape[0]
    G = np.zeros((K, K))
    for i in range(K):
        for j in range(K):
            acc = 0.0
            for d in range(V.shape[1]):
                acc += V[i, d] * V[j, d]
            G[i, j] = acc
    return G


def naive_materialize(V: np.ndarray, r: np.ndarray) -> np.ndarray:
    z = V[-1].astype(float).copy()
    for i in range(V.shape[0]):
        z += r[i] * V[i]
    return z


def direct_objective(V: np.ndarray, m: int, n: int, sigma: float, lam: float, r: np.ndarray):
    """(objective, witness, budget) evaluated straight from V, no Gram."""
    z = naive_materialize(V, r)
    source = 0.0
    for i in range(n, n + m):
        d = V[i] - z
        source += np.exp(-float(d @ d) / sigma)
    source /= m
    target = 0.0
    for j in range(n):
        d = V[j] - z
        target += np.exp(-float(d @ d) / sigma)
    target /= n
    witness = source - target
    vr = V.T @ r
    bud = float(vr @ vr)
    return witness + lam * bud, witness, bud


def _objective_on_grid(V, m, n, sigma, lam, axes):
    """Vectorized direct objective over the cartesian grid of three axes."""
    r0, r1, r2 = np.meshgrid(*axes, indexing="ij")
    P = np.stack([r0.ravel(), r1.ravel(), r2.ravel()], axis=1)
    disp = P @ V  # (N, D): feature-space displacement V^T r per grid point
    z = V[-1][None, :] + disp
    witness = np.zeros(len(P))
    for i in range(n, n + m):
        d = V[i][None, :] - z
        witness += np.exp(-np.einsum("nd,nd->n", d, d) / sigma) / m
    for j in range(n):
        d = V[j][None, :] - z
        witness -= np.exp(-np.einsum("nd,nd->n", d, d) / sigma) / n
    budget = np.einsum("nd,nd->n", disp, disp)
    return P, witness + lam * budget


def grid_min_traversal(
    V: np.ndarray,
    m: int,
    n: int,
    sigma: float,
    lam: float,
    lo: float = -2.0,
    hi: float = 2.0,
    steps: tuple[float, ...] = (0.04, 0.005, 1e-3),
    require_interior: bool = True,
):
    """Brute-force global minimum of the traversal objective over the K=3 box.

    Full-grid pass at the first step size, then successively finer
    passes centred on the running best point (each window spans two of
    the previous step on every axis, covering its quantization error;
    the basin length scale sqrt(sigma) is far wider than the coarse
    step for these instances). Returns (r_star, objective, witness,
    budget). With require_interior the coarse optimum must sit strictly
    inside the box (instances with linearly dependent rows have optimal
    plateaus that may touch the edge; pass False for those and argue
    containment separately).
    """
    assert V.shape[0] == 3, "grid oracle is for K = 3 instances"
    coarse = steps[0]
    axes = [np.arange(lo, hi + coarse / 2, coarse)] * 3
    P, vals = _objective_on_grid(V, m, n, sigma, lam, axes)
    best = P[int(np.argmin(vals))]
    if require_interior:
        assert np.all(np.abs(best) < hi - coarse), "coarse optimum on the box edge"
    prev = coarse
    for step in steps[1:]:
        span = 2 * prev
        axes = [
            np.arange(max(lo, b - span), min(hi, b + span) + step / 2, step) for b in best
        ]
        P, vals = _objective_on_grid(V, m, n, sigma, lam, axes)
        best = P[int(np.argmin(vals))]
        prev = step
    obj, wit, bud = direct_objective(V, m, n, sigma, lam, best)
    return best, obj, wit, bud


def svm_grid_min(
    X: np.ndarray,
    y: np.ndarray,
    c_reg: float,
    lo: float = -3.0,
    hi: float = 3.0,
    coarse: float = 0.05,
    fine: float = 0.01,
):
    """Brute-force minimum of the 2-D SVM primal over (w1, w2, b).

    Coarse full grid then fine refinement; the primal is convex so the
    fine stage around the coarse argmin finds the fine-grid global
    minimum. Returns ((w1, w2, b), objective).
    """

    def grid_pass(axes):
        w1, w2, b = np.meshgrid(*axes, indexing="ij")
        W = np.stack([w1.ravel(), w2.ravel()], axis=1)
        B = b.ravel()
        margins = y[None, :] * (W @ X.T + B[:, None])
        hinge = np.maximum(0.0, 1.0 - margins).sum(axis=1)
        vals = 0.5 * np.einsum("nk,nk->n", W, W) + c_reg * hinge
        k = int(np.argmin(vals))
        return np.array([W[k, 0], W[k, 1], B[k]]), float(vals[k])

    axes = [np.arange(lo, hi + coarse / 2, coarse)] * 3
    best, _ = grid_pass(axes)
    assert np.all(np.abs(best) < hi - coarse), "coarse SVM optimum on the box edge"
    span = 3 * coarse
    axes = [
        np.arange(max(lo, b - span), min(hi, b + span) + fine / 2, fine) for b in best
    ]
    return grid_pass(axes)


def naive_tv(image: np.ndarray, beta: float) -> float:
    """Loop implementation of the total-variation sum on an (H, W, C) array."""
    h, w, c = image.shape
    total = 0.0
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                dh = image[i, j + 1, ch] - image[i, j, ch] if j + 1 < w else 0.0
                dv = image[i + 1, j, ch] - image[i, j, ch] if i + 1 < h else 0.0
                total += (dh * dh + dv * dv) ** (beta / 2.0)
    return total
