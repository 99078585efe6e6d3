"""Gram precomputation and the RBF two-sample witness function.

The witness of a point z against a source set {s_i} and target set {t_j}
is the difference of mean kernel similarities,

    f(z) = mean_i k(s_i, z) - mean_j k(t_j, z),      k(a, b) = exp(-|a-b|^2 / sigma),

negative when z sits closer to the target distribution. All rows live in
one K x D matrix V ordered [targets, sources, test]; once the K x K Gram
matrix G = V V^T is available, the witness of V^T (e_K + r) and the budget
r' G r are quadratic forms in G. The traversal objective runs on rows X
with X X^T = G (the Cholesky factor of G, or kernel PCA's exact embedding
when G is singular): z = x_K + a, budget |a|^2.
Either way the cost depends on K only, never on the feature dimension D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidInputError

_SYMMETRY_BLOCK = 64  # rows of G checked against G^T at a time, so no K x K temporary
PANEL_ROWS = 512  # most rows of G that gram forms per pass over the earlier rows of V
BLOCK_ROWS = 256  # earlier rows of V multiplied against a panel at a time
MIRROR_ROWS = 32  # rows of G that gram gathers from a strip's columns at a time
_TILE_ROWS = 128  # rows of a strip per tile of that gather


def all_finite(a: np.ndarray) -> bool:
    """True when a holds no NaN and no infinity."""
    # min and max propagate NaN; unlike isfinite they need no array-sized temporary.
    return bool(np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0)))


@dataclass(frozen=True)
class KernelConfig:
    """RBF width configuration.

    sigma is the denominator inside the exponential. None selects the
    median heuristic: the median squared pairwise distance between the
    rows of the feature matrix, read off its Gram matrix.
    """

    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.sigma is not None and not 0 < self.sigma < np.inf:
            raise InvalidInputError(f"sigma must be finite and positive, got {self.sigma}")

    def resolve_sigma(self, G: np.ndarray) -> float:
        if self.sigma is not None:
            return self.sigma
        return median_heuristic_sigma(G)


@dataclass
class WitnessValue:
    """Witness evaluation split into its two kernel-mean terms (value = source_term - target_term)."""

    value: float
    source_term: float
    target_term: float


class FeatureMatrix:
    """K x D feature rows ordered [targets (n), sources (m), test], and their Gram G = V V^T.

    Given no G, gram(V) forms it, as it forms a feature file's Gram section,
    so G has that section's bytes; meanwhile gram's strip and panel buffers
    are held besides V. Every G must be K x K, finite and symmetric, and is
    held in 64-bit floats regardless of the feature precision.
    """

    def __init__(self, V, m: int, n: int, G=None):
        V = np.asarray(V, dtype=float)
        if V.ndim != 2:
            raise InvalidInputError("V must be a 2-D matrix")
        if not all_finite(V):
            raise InvalidInputError("V must contain only finite values")
        if m < 1 or n < 1:
            raise InvalidInputError("both source and target blocks must be non-empty")
        if V.shape[0] != m + n + 1:
            raise InvalidInputError(
                f"V has {V.shape[0]} rows but m + n + 1 = {m + n + 1}"
            )
        G = gram(V) if G is None else np.asarray(G, dtype=float)
        K = V.shape[0]
        if G.shape != (K, K):
            raise InvalidInputError(f"Gram shape {G.shape} does not match K={K}")
        if not all_finite(G):
            raise InvalidInputError("Gram matrix must contain only finite values")
        scale = max(float(G.max()), -float(G.min()))
        asym = max(
            float(np.max(np.abs(G[i : i + _SYMMETRY_BLOCK] - G[:, i : i + _SYMMETRY_BLOCK].T)))
            for i in range(0, K, _SYMMETRY_BLOCK)
        )
        if scale > 0 and asym > 1e-9 * scale:
            raise InvalidInputError("Gram matrix is not symmetric")
        self.V = V
        self.m = int(m)
        self.n = int(n)
        self.G = G

    @property
    def K(self) -> int:
        return self.V.shape[0]

    @property
    def D(self) -> int:
        return self.V.shape[1]

    @property
    def test_row(self) -> int:
        return self.K - 1


def gram(V, put=None) -> np.ndarray | None:
    """Pairwise inner products of the rows of V: the 64-bit K x K matrix G, block by block.

    G is formed over panels of near-equal size, at most PANEL_ROWS rows
    each. For the panel of rows p0:p1 one reused K x (rows per panel)
    array receives the strip U = G[:p1, p0:p1]: the panel's own block as
    one A A^T, then the earlier rows, BLOCK_ROWS at a time, against the
    panel. With K <= PANEL_ROWS this is the one product V V^T.

    Before the next panel is read, put(i, j, block) receives each block
    of G at G[i:, j:]: U[:p0] at (0, p0), then the panel's rows G[j, :p1],
    MIRROR_ROWS at a time, gathered from U's columns (U[p0:] is
    symmetric), so G is exactly symmetric. Each entry is put once, and
    each row of a block is contiguous. Without put, gram returns G.

    V is a K x D array or a row source: an object with shape (K, D)
    whose read_rows(start, out, first) fills the float64 array out with
    rows start:start + len(out) of V; first is True on their first read
    (as their panel, in ascending order). Either way the rows are copied
    into one array of a panel and a block, never all of V.
    """
    read = getattr(V, "read_rows", None)
    if read is None:
        V = np.asarray(V, dtype=float)
        if V.ndim != 2:
            raise InvalidInputError("V must be a 2-D matrix")
        if not all_finite(V):
            raise InvalidInputError("V must contain only finite values")

        def read(start: int, out: np.ndarray, first: bool) -> None:
            out[:] = V[start : start + len(out)]

    K, D = V.shape
    panels = -(-K // PANEL_ROWS)
    size = -(-K // panels) if K else 0  # rows per panel: near-equal, so the last is no sliver
    store = np.empty((size + min(BLOCK_ROWS, (panels - 1) * size), D))  # a panel, then a block
    strip = np.empty((K, size))
    mirror = np.empty((min(MIRROR_ROWS, K), K))
    G = None
    if put is None:
        G = np.empty((K, K))

        def put(i: int, j: int, block: np.ndarray) -> None:
            G[i : i + len(block), j : j + block.shape[1]] = block

    for p0 in range(0, K, max(size, 1)):
        p1 = min(p0 + size, K)
        U, A = strip[:p1, : p1 - p0], store[: p1 - p0]
        read(p0, A, True)
        np.matmul(A, A.T, out=U[p0:])  # numpy's syrk path, mirrored by numpy
        for b0 in range(0, p0, BLOCK_ROWS):
            B = store[size:][: min(BLOCK_ROWS, p0 - b0)]
            read(b0, B, False)
            np.matmul(B, A.T, out=U[b0 : b0 + len(B)])
        put(0, p0, U[:p0])
        # G[j, :p1] for a row j of the panel is column j - p0 of U. The
        # columns are gathered in tiles, each touching few of U's pages.
        for c0 in range(0, p1 - p0, len(mirror)):
            block = mirror[: p1 - p0 - c0, :p1]
            for i0 in range(0, p1, _TILE_ROWS):
                tile = U[i0 : i0 + _TILE_ROWS, c0 : c0 + len(block)]
                block[:, i0 : i0 + len(tile)] = tile.T
            put(p0 + c0, 0, block)
    return G


def median_heuristic_sigma(G) -> float:
    """Median squared pairwise row distance, read off the Gram matrix.

    The K(K-1)/2 distances max(G_ii + G_jj - 2 G_ij, 0), i < j, are
    written row by row into one vector, which the median then partitions
    in place: no K x K array is built. Falls back to the mean when the
    median is zero; raises when every pairwise distance is zero (all rows
    identical).
    """
    G = require_gram(G)
    K = G.shape[0]
    if K < 2:
        raise InvalidInputError("G must have K >= 2 rows")
    diag = np.diag(G)
    dists = np.empty(K * (K - 1) // 2)
    at = 0
    for i in range(K - 1):
        row = dists[at : at + K - 1 - i]
        np.add(diag[i], diag[i + 1 :], out=row)
        row -= 2.0 * G[i, i + 1 :]
        np.maximum(row, 0.0, out=row)
        at += row.size
    med = float(np.median(dists, overwrite_input=True))
    if med > 0:
        return med
    mean = float(np.mean(dists))
    if mean > 0:
        return mean
    raise DegenerateDataError("all rows are identical; no kernel width is defined")


def _block_weights(m: int, n: int, K: int) -> np.ndarray:
    """Signed witness weights per row: -1/n on targets, +1/m on sources, 0 on the test row."""
    w = np.zeros(K)
    w[:n] = -1.0 / n
    w[n : n + m] = 1.0 / m
    return w


def witness_direct(z, V, m: int, n: int, kcfg: KernelConfig) -> WitnessValue:
    """Witness of an explicit feature-space point z, evaluated against the rows of V."""
    z = np.asarray(z, dtype=float).ravel()
    V = np.asarray(V, dtype=float)
    if m < 1 or n < 1:
        raise InvalidInputError("both source and target blocks must be non-empty")
    if V.ndim != 2 or V.shape[0] != m + n + 1:
        raise InvalidInputError("V must have m + n + 1 rows")
    if z.size != V.shape[1]:
        raise InvalidInputError(f"z has length {z.size}, expected {V.shape[1]}")
    sigma = kcfg.sigma if kcfg.sigma is not None else median_heuristic_sigma(gram(V))
    diff = V - z[None, :]
    return _witness_of_row(np.exp(-np.einsum("ij,ij->i", diff, diff) / sigma), m, n)


def _kernel_row(sq_norms, cross, z_sq: float, sigma: float) -> np.ndarray:
    """k(x_i, z) = exp(-max(|x_i|^2 - 2 x_i.z + |z|^2, 0) / sigma) for every row i."""
    return np.exp(-np.maximum(sq_norms - 2.0 * cross + z_sq, 0.0) / sigma)


def _witness_of_row(k: np.ndarray, m: int, n: int) -> WitnessValue:
    target_term = float(np.mean(k[:n]))
    source_term = float(np.mean(k[n : n + m]))
    return WitnessValue(source_term - target_term, source_term, target_term)


def require_gram(G) -> np.ndarray:
    """G as a 64-bit array; raises InvalidInputError when it is missing or not square."""
    if G is None:
        raise InvalidInputError("Gram matrix is required; precompute it with gram()")
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise InvalidInputError(f"G must be a square matrix, got shape {G.shape}")
    return G


def witness_factored(r, G, m: int, n: int, kcfg: KernelConfig) -> WitnessValue:
    """Witness of the traversed point V^T(e_K + r), computed from G alone.

    Equal to witness_direct at z = V^T(e_K + r); runtime is O(K^2)
    independent of the feature dimension.
    """
    G = require_gram(G)
    if m < 1 or n < 1:
        raise InvalidInputError("both source and target blocks must be non-empty")
    if G.shape[0] != m + n + 1:
        raise InvalidInputError("G must have m + n + 1 rows")
    K = G.shape[0]
    r = np.asarray(r, dtype=float).ravel()
    if r.size != K:
        raise InvalidInputError(f"r has length {r.size}, expected {K}")
    # The rows against d = e_K + r: |V^T e_i - V^T d|^2 = G_ii - 2 (G d)_i + d' G d.
    d = r.copy()
    d[K - 1] += 1.0
    Gd = G @ d
    k = _kernel_row(np.diag(G), Gd, float(d @ Gd), kcfg.resolve_sigma(G))
    return _witness_of_row(k, m, n)


def embedded_objective(X, m: int, n: int, sigma: float, lam: float):
    """The traversal objective at one lambda as a solver callback a -> (value, grad).

    value is the witness of z = x_K + a against the rows x_i of X (any
    X with X X' = G) plus lam * |a|^2; the gradient, sharing its kernel
    row, is (2/sigma) (X'(w k) - sum(w k) z) + 2 lam a, with block weights
    w (+1/m source, -1/n target).
    """
    X = np.asarray(X, dtype=float)
    sq_norms = np.einsum("ij,ij->i", X, X)
    w = _block_weights(m, n, X.shape[0])

    def fun(a: np.ndarray):
        z = X[-1] + a
        k = _kernel_row(sq_norms, X @ z, float(z @ z), sigma)
        value = _witness_of_row(k, m, n).value + lam * float(a @ a)

        def grad() -> np.ndarray:
            wk = w * k
            return (2.0 / sigma) * (wk @ X - float(np.sum(wk)) * z) + lam * (2.0 * a)

        return value, grad

    return fun


def budget(r, G) -> float:
    """Squared feature-space displacement |V^T r|^2 = r' G r."""
    G = require_gram(G)
    r = np.asarray(r, dtype=float).ravel()
    if r.size != G.shape[0]:
        raise InvalidInputError(f"r has length {r.size}, expected {G.shape[0]}")
    return float(r @ (G @ r))
