"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way (explicit
loops, direct feature-space arithmetic) and shares no code with the
production paths it checks. The exception is tv_grad, which only hands
the tests a library computation that no pipeline step needs as a
function of its own.
"""

from __future__ import annotations

import numpy as np

from dmtrav.errors import FormatError, InvalidInputError, NumericalError
from dmtrav.reconstruct import _tv_terms


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


def rbf_kernel(a, b, sigma: float) -> float:
    """exp(-|a-b|^2 / sigma); always in (0, 1] and symmetric in (a, b)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise InvalidInputError(f"length mismatch: {a.size} vs {b.size}")
    if not sigma > 0:
        raise InvalidInputError(f"sigma must be positive, got {sigma}")
    d = a - b
    return float(np.exp(-(d @ d) / sigma))


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


def dense_median_sigma(G: np.ndarray) -> float:
    """The median heuristic from the full K x K matrix of squared row distances."""
    d = np.diag(G)
    sq = d[:, None] + d[None, :] - 2.0 * G
    return float(np.median(np.maximum(sq[np.triu_indices(G.shape[0], k=1)], 0.0)))


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


def witness_grad_r(r, G, m: int, n: int, kcfg) -> np.ndarray:
    """Gradient in r of the factored witness, taken on its own.

    The reference, mapped by P', for the gradient of
    mmd.embedded_objective at a with r = P a. Each kernel term with
    displacement d_i = e_i - e_K - r contributes (2/sigma) * k_i * G d_i
    times its block weight (+1/m source, -1/n target).
    """
    G = np.asarray(G, dtype=float)
    K = G.shape[0]
    sigma = kcfg.resolve_sigma(G)
    d = np.asarray(r, dtype=float).ravel().copy()
    d[K - 1] += 1.0
    Gd = G @ d
    quad = float(d @ Gd)
    sq = np.maximum(np.diag(G) - 2.0 * Gd + quad, 0.0)
    k = np.exp(-sq / sigma)
    w = np.zeros(K)
    w[:n] = -1.0 / n
    w[n : n + m] = 1.0 / m
    wk = w * k
    # sum_i wk_i * G d_i  with  G d_i = G[:, i] - G d.
    return (2.0 / sigma) * (G @ wk - float(np.sum(wk)) * Gd)


def budget_grad(r, G) -> np.ndarray:
    """Gradient of the budget r' G r: 2 G r."""
    G = np.asarray(G, dtype=float)
    return 2.0 * (G @ np.asarray(r, dtype=float).ravel())


def eigh_embedding(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = U_keep S_keep^(1/2) and P = U_keep S_keep^(-1/2) of G = U S U', s > K*eps*max(s)."""
    s, U = np.linalg.eigh(G)
    # max(s) <= 0 (G = 0, or no positive curvature at all) keeps nothing.
    keep = s > G.shape[0] * np.finfo(float).eps * max(s[-1], 0.0)
    U, root = U[:, keep], np.sqrt(s[keep])
    return U * root, U / root


def _embedded_kernel_row(a, X, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    z = X[-1] + np.asarray(a, dtype=float).ravel()
    sq = np.maximum(np.einsum("ij,ij->i", X, X) - 2.0 * (X @ z) + float(z @ z), 0.0)
    return np.exp(-sq / sigma), z


def embedded_witness(a, X, m: int, n: int, sigma: float) -> float:
    """Witness of z = x_K + a against the rows of X, taken on its own.

    The unfused reference for the value of mmd.embedded_objective, in
    the same arithmetic: at lambda = 0 the two agree bit for bit.
    """
    k, _ = _embedded_kernel_row(a, X, sigma)
    return float(np.mean(k[n : n + m])) - float(np.mean(k[:n]))


def embedded_witness_grad(a, X, m: int, n: int, sigma: float) -> np.ndarray:
    """Gradient in a of embedded_witness: sum_i w_i (2/sigma) k_i (x_i - z).

    With block weights w (+1/m source, -1/n target), summed as
    X'(w k) - sum(w k) z, the arithmetic of mmd.embedded_objective.
    """
    k, z = _embedded_kernel_row(a, X, sigma)
    w = np.zeros(len(k))
    w[:n] = -1.0 / n
    w[n : n + m] = 1.0 / m
    wk = w * k
    return (2.0 / sigma) * (wk @ np.asarray(X, dtype=float) - float(np.sum(wk)) * z)


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


def svm_objective(w, b: float, X, y, c_reg: float) -> float:
    """Primal objective 0.5|w|^2 + c_reg * sum hinge(y_i (w.x_i + b))."""
    w = np.asarray(w, dtype=float)
    margins = y * (X @ w + b)
    return 0.5 * float(w @ w) + c_reg * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def primal_subgradient_svm(X, y, c_reg: float, epochs: int = 2000):
    """Full-batch subgradient SVM run directly on w in feature space.

    The same iteration as evaluate.train_svm (start at 0, step 1/t, keep
    the best iterate), with every epoch an N x D product instead of a
    Gram matvec.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)

    def primal(w, margins):
        return 0.5 * float(w @ w) + c_reg * float(np.sum(np.maximum(0.0, 1.0 - margins)))

    w = np.zeros(X.shape[1])
    b = 0.0
    best_w, best_b = w.copy(), b
    margins = y * (X @ w + b)
    best_obj = primal(w, margins)
    for t in range(1, epochs + 1):
        active = margins < 1.0
        ya = y[active]
        gw = w - c_reg * (ya @ X[active])
        gb = -c_reg * float(np.sum(ya))
        eta = 1.0 / t
        w = w - eta * gw
        b = b - eta * gb
        margins = y * (X @ w + b)
        obj = primal(w, margins)
        if obj < best_obj:
            best_obj = obj
            best_w, best_b = w.copy(), b
    return best_w, best_b


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


def tv_grad(image, beta: float = 2.0) -> np.ndarray:
    """Gradient of reconstruct.tv in the pixels, from the callback that invert uses.

    Where s = dh^2 + dv^2 is 0, the weight of a pixel's differences is 0.
    """
    return _tv_terms(image.pixels, beta)[1]()


# Plain forms of the extractor layers: im2col through a transposed 5-D
# sliding-window gather whose (cin*9, h*w) rows the kernel matrix
# multiplies from the left (the channel-first product), and max pooling
# through argmax/take_along_axis. The production layers must reproduce
# them bit for bit.


def im2col_conv(x: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 convolution of x (cin, h, w) by a (cout, cin*9) kernel matrix."""
    cin, h, w = x.shape
    xp = np.zeros((cin, h + 2, w + 2))
    xp[:, 1:-1, 1:-1] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    rows = win.transpose(0, 3, 4, 1, 2).reshape(cin * 9, h * w)
    return (kmat @ rows).reshape(kmat.shape[0], h, w)


def argmax_pool_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c, h, w = x.shape
    ho, wo = h // 2, w // 2
    win = (
        x[:, : 2 * ho, : 2 * wo]
        .reshape(c, ho, 2, wo, 2)
        .transpose(0, 1, 3, 2, 4)
        .reshape(c, ho, wo, 4)
    )
    idx = np.argmax(win, axis=-1)  # first max = smallest row-major offset
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return out, idx


def argmax_pool_backward(g: np.ndarray, idx: np.ndarray, in_shape) -> np.ndarray:
    c, ho, wo = g.shape
    h, w = in_shape
    win = np.zeros((c, ho, wo, 4))
    np.put_along_axis(win, idx[..., None], g[..., None], axis=-1)
    block = win.reshape(c, ho, wo, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, 2 * ho, 2 * wo)
    full = np.zeros((c, h, w))
    full[:, : 2 * ho, : 2 * wo] = block
    return full


def layered_forward_vjp(spec, weights, image: np.ndarray, cotangent: np.ndarray):
    """(features, J^T cotangent) of the extractor, run on the layers above.

    Follows the production arithmetic step for step (float64 kernel
    matrices, bias added after the product, ReLU by np.maximum and its
    gate by the forward sign), so the results must agree bit for bit.
    """
    from dmtrav.features import INPUT_TAP, Conv, Relu

    def mat(kernel):
        return kernel.reshape(kernel.shape[0], -1).astype(np.float64)

    acts = [np.ascontiguousarray(image.transpose(2, 0, 1), dtype=np.float64)]
    caches = []
    ki = 0
    for layer in spec.layers:
        x = acts[-1]
        if isinstance(layer, Conv):
            kernel = weights.kernels[ki]
            bias = weights.biases[ki].astype(np.float64)
            acts.append(im2col_conv(x, mat(kernel)) + bias[:, None, None])
            caches.append(mat(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)))
            ki += 1
        elif isinstance(layer, Relu):
            acts.append(np.maximum(x, 0.0))
            caches.append(None)
        else:
            out, idx = argmax_pool_forward(x)
            acts.append(out)
            caches.append(idx)
    features = np.concatenate([acts[t + 1].ravel() for t in spec.taps])

    pieces = {}
    offset = 0
    for t in spec.taps:
        size = acts[t + 1].size
        pieces[t] = cotangent[offset : offset + size].reshape(acts[t + 1].shape)
        offset += size
    g = np.zeros_like(acts[-1])
    for i in range(len(spec.layers) - 1, -1, -1):
        if i in pieces:
            g = g + pieces[i]
        layer = spec.layers[i]
        if isinstance(layer, Conv):
            g = im2col_conv(g, caches[i])
        elif isinstance(layer, Relu):
            g = g * (acts[i + 1] > 0.0)
        else:
            g = argmax_pool_backward(g, caches[i], acts[i].shape[1:])
    if INPUT_TAP in pieces:
        g = g + pieces[INPUT_TAP]
    return features, g.transpose(1, 2, 0)


def _ppm_header_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Parse `count` whitespace-separated integers byte by byte, honoring '#' comments."""
    tokens: list[int] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise FormatError("truncated header")
        ch = data[i : i + 1]
        if ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tok = data[i:j]
            if not tok.isdigit():
                raise FormatError(f"bad header token {tok!r}")
            tokens.append(int(tok))
            i = j
    return tokens, i


def decode_ppm(data: bytes) -> np.ndarray:
    """Reference P5/P6 decoder: the (H, W, C) raster as uint8, or FormatError.

    Walks the header with a per-byte tokenizer: magic, then width, height
    and maxval 255 separated by whitespace or '#'-to-newline comments,
    then exactly one whitespace byte and the raster.
    """
    channels = {b"P5": 1, b"P6": 3}.get(data[:2])
    if channels is None:
        raise FormatError(f"unsupported magic {data[:2]!r}")
    (width, height, maxval), pos = _ppm_header_tokens(data[2:], 3)
    pos += 2
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError("missing whitespace after maxval")
    pos += 1
    need = width * height * channels
    if len(data) - pos < need:
        raise FormatError("truncated pixel data")
    return np.frombuffer(data, np.uint8, need, pos).reshape(height, width, channels)
