"""Gram precomputation and the RBF two-sample witness function.

The witness of a point z against a source set {s_i} and target set {t_j}
is the difference of mean kernel similarities,

    f(z) = mean_i k(s_i, z) - mean_j k(t_j, z),      k(a, b) = exp(-|a-b|^2 / sigma),

negative when z sits closer to the target distribution. All rows live in
one K x D matrix V ordered [targets, sources, test]; once the K x K Gram
matrix G = V V^T is available, the witness of any point z = V^T (e_K + r)
and its gradient in the coefficients r reduce to quadratic forms in G, so
their cost depends on K only, never on the feature dimension D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidInputError


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
    """K x D feature rows ordered [targets (n), sources (m), test], plus an optional Gram.

    The Gram matrix is held and computed in 64-bit floats regardless of
    the feature precision.
    """

    def __init__(self, V, m: int, n: int, G=None):
        V = np.asarray(V, dtype=float)
        if V.ndim != 2:
            raise InvalidInputError("V must be a 2-D matrix")
        if not np.all(np.isfinite(V)):
            raise InvalidInputError("V must contain only finite values")
        if m < 1 or n < 1:
            raise InvalidInputError("both source and target blocks must be non-empty")
        if V.shape[0] != m + n + 1:
            raise InvalidInputError(
                f"V has {V.shape[0]} rows but m + n + 1 = {m + n + 1}"
            )
        if G is not None:
            G = np.asarray(G, dtype=float)
            K = V.shape[0]
            if G.shape != (K, K):
                raise InvalidInputError(f"Gram shape {G.shape} does not match K={K}")
            if not np.all(np.isfinite(G)):
                raise InvalidInputError("Gram matrix must contain only finite values")
            scale = float(np.max(np.abs(G)))
            if scale > 0 and float(np.max(np.abs(G - G.T))) > 1e-9 * scale:
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
    def target_rows(self) -> slice:
        return slice(0, self.n)

    @property
    def source_rows(self) -> slice:
        return slice(self.n, self.n + self.m)

    @property
    def test_row(self) -> int:
        return self.K - 1

    def with_gram(self) -> "FeatureMatrix":
        """Return a copy carrying G = V V^T (no-op if already present)."""
        if self.G is not None:
            return self
        return FeatureMatrix(self.V, self.m, self.n, gram(self.V))


def gram(V) -> np.ndarray:
    """Pairwise inner products of the rows of V, as a 64-bit K x K matrix."""
    V = np.asarray(V, dtype=float)
    if not np.all(np.isfinite(V)):
        raise InvalidInputError("V must contain only finite values")
    return V @ V.T


def median_heuristic_sigma(G) -> float:
    """Median squared pairwise row distance, read off the Gram matrix.

    Falls back to the mean when the median is zero; raises when every
    pairwise distance is zero (all rows identical).
    """
    G = np.asarray(G, dtype=float)
    K = G.shape[0]
    if G.ndim != 2 or G.shape != (K, K) or K < 2:
        raise InvalidInputError("G must be a square matrix with K >= 2")
    diag = np.diag(G)
    sq = diag[:, None] + diag[None, :] - 2.0 * G
    iu = np.triu_indices(K, k=1)
    dists = np.maximum(sq[iu], 0.0)
    med = float(np.median(dists))
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
    k = np.exp(-np.einsum("ij,ij->i", diff, diff) / sigma)
    target_term = float(np.mean(k[:n]))
    source_term = float(np.mean(k[n : n + m]))
    return WitnessValue(source_term - target_term, source_term, target_term)


def _factored_kernel_row(r, G, sigma: float, diag=None) -> tuple[np.ndarray, np.ndarray]:
    """k(row_i, V^T(e_K + r)) for every row i, via quadratic forms in G, and G d.

    |V^T e_i - V^T d|^2 = G_ii - 2 (G d)_i + d' G d  with  d = e_K + r.
    diag, when given, is np.diag(G).
    """
    G = np.asarray(G, dtype=float)
    K = G.shape[0]
    r = np.asarray(r, dtype=float).ravel()
    if r.size != K:
        raise InvalidInputError(f"r has length {r.size}, expected {K}")
    d = r.copy()
    d[K - 1] += 1.0
    Gd = G @ d
    quad = float(d @ Gd)
    sq = np.maximum((np.diag(G) if diag is None else diag) - 2.0 * Gd + quad, 0.0)
    return np.exp(-sq / sigma), Gd


def _witness_of_row(k: np.ndarray, m: int, n: int) -> WitnessValue:
    target_term = float(np.mean(k[:n]))
    source_term = float(np.mean(k[n : n + m]))
    return WitnessValue(source_term - target_term, source_term, target_term)


def _require_gram(G) -> np.ndarray:
    if G is None:
        raise InvalidInputError(
            "Gram matrix is required; precompute it with gram() or FeatureMatrix.with_gram()"
        )
    return np.asarray(G, dtype=float)


def witness_factored(r, G, m: int, n: int, kcfg: KernelConfig) -> WitnessValue:
    """Witness of the traversed point V^T(e_K + r), computed from G alone.

    Equal to witness_direct at z = V^T(e_K + r); runtime is O(K^2)
    independent of the feature dimension.
    """
    G = _require_gram(G)
    if m < 1 or n < 1:
        raise InvalidInputError("both source and target blocks must be non-empty")
    if G.shape[0] != m + n + 1:
        raise InvalidInputError("G must have m + n + 1 rows")
    k, _ = _factored_kernel_row(r, G, kcfg.resolve_sigma(G))
    return _witness_of_row(k, m, n)


def factored_objective(G, m: int, n: int, sigma: float, lam: float):
    """The traversal objective at one lambda as a solver callback r -> (value, grad).

    value is witness_factored(r).value + lam * budget(r). Each kernel
    term, with displacement d_i = e_i - e_K - r, contributes
    (2/sigma) * k_i * G d_i times its block weight (+1/m source, -1/n
    target) to the gradient, and the budget 2 G r times lam. Value and
    gradient share k, G d and G r: three K x K matrix-vector products
    per point at which both are taken.
    """
    G = _require_gram(G)
    diag = np.diag(G)
    w = _block_weights(m, n, G.shape[0])

    def fun(r: np.ndarray):
        k, Gd = _factored_kernel_row(r, G, sigma, diag)
        Gr = G @ r
        value = _witness_of_row(k, m, n).value + lam * float(r @ Gr)

        def grad() -> np.ndarray:
            wk = w * k
            # sum_i wk_i * G d_i  with  G d_i = G[:, i] - G d.
            return (2.0 / sigma) * (G @ wk - float(np.sum(wk)) * Gd) + lam * (2.0 * Gr)

        return value, grad

    return fun


def budget(r, G) -> float:
    """Squared feature-space displacement |V^T r|^2 = r' G r."""
    G = _require_gram(G)
    r = np.asarray(r, dtype=float).ravel()
    if r.size != G.shape[0]:
        raise InvalidInputError(f"r has length {r.size}, expected {G.shape[0]}")
    return float(r @ (G @ r))
