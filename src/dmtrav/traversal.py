"""Budgeted witness minimization over traversal coefficients.

For each penalty weight in a descending sweep, minimize

    witness(V^T(e_K + r)) + lam * r' G r

over the coefficient vector r, unbounded, warm-starting each solve from
the previous one. Everything runs on the precomputed Gram matrix, so the
cost after extraction depends on the number of images K and the
iteration count, never on the feature dimension.

The solves run on rows X with X X' = G. When G is numerically positive
definite, X is its Cholesky factor L (G = L L'); the point z = x_K + a,
with budget |a|^2, is V^T(e_K + r) at r = L^-T a, and since
L^-1 G L^-T = I the displacement a is in an orthonormal basis of the
span of the rows, so grad_tol bounds the feature-space gradient whatever
the conditioning of G. When G is numerically singular (dependent or
duplicate rows, K > D, G = 0), X comes from G = U S U' (eigenvalues s):
the directions with s > K * eps * max(s) (numpy's matrix_rank threshold)
are kept, X = U_keep S_keep^(1/2) and r = U_keep S_keep^(-1/2) a. The
dropped directions do not move the point, so r is the minimum-norm
coefficient vector for it; for a full-rank G it is the only one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import mmd
from .errors import InvalidInputError, NumericalError
from .mmd import FeatureMatrix, KernelConfig, WitnessValue
from .optim import MinimizeConfig, MinimizeTrace, minimize

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TraversalConfig:
    """Sweep settings: strictly descending lambdas, kernel width, solver.

    solver.grad_tol bounds the sup-norm of the gradient in the
    displacement a, which is the objective's feature-space gradient in an
    orthonormal basis of the span of the rows (the Cholesky basis when G
    is positive definite, the eigenvector basis when it is singular), so
    it does not depend on the conditioning of G. It is in the units of the
    features: V -> sV divides the gradient by s.
    """

    lambdas: tuple[float, ...]
    kernel: KernelConfig = field(default_factory=KernelConfig)
    solver: MinimizeConfig = field(default_factory=MinimizeConfig)

    def __post_init__(self) -> None:
        lams = tuple(float(l) for l in self.lambdas)
        if not lams:
            raise InvalidInputError("at least one lambda is required")
        if not all(0 < l < np.inf for l in lams):
            raise InvalidInputError("lambdas must be finite and strictly positive")
        if any(later >= earlier for later, earlier in zip(lams[1:], lams)):
            raise InvalidInputError("lambdas must be strictly descending")
        object.__setattr__(self, "lambdas", lams)


@dataclass
class LambdaRecord:
    """Solution for one penalty weight. objective == witness.value + lam * budget."""

    lam: float
    r: np.ndarray
    witness: WitnessValue
    budget: float
    objective: float
    trace: MinimizeTrace


def traverse(features: FeatureMatrix, cfg: TraversalConfig) -> list[LambdaRecord]:
    """Run the descending-lambda sweep, one LambdaRecord per lambda, on features.G.

    Each lambda is solved over the displacement a on the embedded rows
    (see the module docstring), from a = 0 and then from the previous
    solution; once every lambda is solved, all displacements map to their
    coefficients r in one step. When G has no kept direction (G = 0), r
    stays 0 and no solve runs. A solve that stops on anything but
    grad_tol logs a warning on the "dmtrav.traversal" logger. Raises
    InvalidInputError when G has a clearly negative eigenvalue, which no
    Gram matrix has.
    """
    G = features.G
    m, n = features.m, features.n
    sigma = cfg.kernel.resolve_sigma(G)
    kcfg = KernelConfig(sigma)
    X, to_r = _embedding(G)

    a = np.zeros(X.shape[1])
    displacements, traces = [], []
    for lam in cfg.lambdas:
        trace = None
        if a.size:
            fun = mmd.embedded_objective(X, m, n, sigma, lam)
            try:
                a, trace = minimize(fun, a, bounds=None, cfg=cfg.solver)
            except NumericalError as exc:
                raise NumericalError(f"traversal solve failed at lambda={lam!r}: {exc}") from exc
            if trace.termination_reason != "grad_tol":
                _log.warning(
                    "traversal solve at lambda=%r stopped on %s with gradient norm %r",
                    lam,
                    trace.termination_reason,
                    trace.final_grad_norm,
                )
        displacements.append(a)
        traces.append(trace)

    records: list[LambdaRecord] = []
    R = np.ascontiguousarray(to_r(np.stack(displacements, axis=1)).T)
    for lam, r, trace in zip(cfg.lambdas, R, traces):
        wit = mmd.witness_factored(r, G, m, n, kcfg)
        bud = mmd.budget(r, G)
        objective = wit.value + lam * bud
        if trace is None:
            # No free direction: the gradient in a is empty, so r = 0 is stationary.
            trace = MinimizeTrace(0, [objective], 0.0, "grad_tol")
        records.append(LambdaRecord(lam, r, wit, bud, objective, trace))
    return records


def _embedding(G: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Rows X with X X' = G, and the map from displacements to coefficients.

    The map takes a displacement a, or a matrix whose columns are
    displacements, and returns the matching coefficients r. X is the
    Cholesky factor L when every pivot L_ii^2 exceeds K * eps * max_j G_jj,
    and r = L^-T a; otherwise X = U_keep S_keep^(1/2) from G = U S U' with
    s > K * eps * max(s), and r = U_keep S_keep^(-1/2) a. A G with an
    eigenvalue below -sqrt(eps) * max(s) is no Gram matrix and raises
    InvalidInputError.
    """
    K = G.shape[0]
    eps = np.finfo(float).eps
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        pass
    else:
        # Cholesky also succeeds on some singular G, with a pivot at rounding level.
        if np.min(np.diag(L)) ** 2 > K * eps * np.max(np.diag(G)):
            return L, lambda A: np.linalg.solve(L.T, A)
    s, U = np.linalg.eigh(G)
    if s[0] < -np.sqrt(eps) * s[-1]:
        raise InvalidInputError(
            "Gram matrix is not positive semidefinite: "
            f"eigenvalues run from {s[0]!r} to {s[-1]!r}"
        )
    # Past the check max(s) >= 0; G = 0 keeps nothing.
    keep = s > K * eps * s[-1]
    U, root = U[:, keep], np.sqrt(s[keep])
    P = U / root
    return U * root, lambda A: P @ A


def materialize(features: FeatureMatrix, r) -> np.ndarray:
    """Traversed feature vector V^T(e_K + r): the test row plus the coefficient mix."""
    r = np.asarray(r, dtype=float).ravel()
    if r.size != features.K:
        raise InvalidInputError(f"r has length {r.size}, expected {features.K}")
    d = r.copy()
    d[features.K - 1] += 1.0
    return features.V.T @ d
