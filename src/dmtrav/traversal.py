"""Budgeted witness minimization over traversal coefficients.

For each penalty weight in a descending sweep, minimize

    witness(V^T(e_K + r)) + lam * r' G r

over the coefficient vector r, unbounded, warm-starting each solve from
the previous one. Everything runs on the precomputed Gram matrix, so the
cost after extraction depends on the number of images K and the
iteration count, never on the feature dimension.

The solves run in whitened coordinates. With G = U S U' (eigenvalues
s), the directions with s > K * eps * max(s) (numpy's matrix_rank
threshold) are kept and r = P a with P = U_keep S_keep^(-1/2). Then
V^T r = W a for an orthonormal basis W of the row space of V, so the
budget is |a|^2 and the gradient in a is the feature-space gradient of
the objective expressed in that basis: the solver's grad_tol bounds it
whatever the conditioning of G. The dropped directions do not move the
traversed point, so r is the minimum-norm coefficient vector for it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import mmd
from .errors import InvalidInputError, NumericalError
from .mmd import FeatureMatrix, KernelConfig, WitnessValue
from .optim import MinimizeConfig, MinimizeTrace, minimize

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TraversalConfig:
    """Sweep settings: strictly descending lambdas, kernel width, solver.

    solver.grad_tol applies to the gradient in the whitened coefficients a,
    which is the objective's feature-space gradient in an orthonormal basis
    of the span of the rows, so it does not depend on the scale or the
    conditioning of G.
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


@dataclass
class TraversalResult:
    records: list[LambdaRecord]


def traverse(features: FeatureMatrix, cfg: TraversalConfig) -> TraversalResult:
    """Run the descending-lambda sweep; requires the Gram matrix to be present.

    Each lambda is solved over the whitened coefficients a (see the
    module docstring), from a = 0 and then from the previous solution;
    the records hold r = P a. When G has no kept direction (G = 0), r
    stays 0 and no solve runs. A solve that stops on anything but
    grad_tol logs a warning on the "dmtrav.traversal" logger.
    """
    G = features.G
    if G is None:
        raise InvalidInputError(
            "feature matrix has no Gram section; run gram precomputation first"
        )
    m, n = features.m, features.n
    sigma = cfg.kernel.resolve_sigma(G)
    kcfg = KernelConfig(sigma)
    P = _whitening(G)

    records: list[LambdaRecord] = []
    a = np.zeros(P.shape[1])
    for lam in cfg.lambdas:
        trace = None
        if a.size:
            fun = _whitened(mmd.factored_objective(G, m, n, sigma, lam), P)
            try:
                a, trace = minimize(fun, a, bounds=None, cfg=cfg.solver)
            except NumericalError as exc:
                raise NumericalError(f"traversal solve failed at lambda={lam!r}: {exc}") from exc
        r = P @ a
        wit = mmd.witness_factored(r, G, m, n, kcfg)
        bud = mmd.budget(r, G)
        objective = wit.value + lam * bud
        if trace is None:
            # No free direction: the gradient in a is empty, so r = 0 is stationary.
            trace = MinimizeTrace(0, [objective], 0.0, "grad_tol")
        elif trace.termination_reason != "grad_tol":
            _log.warning(
                "traversal solve at lambda=%r stopped on %s with gradient norm %r",
                lam,
                trace.termination_reason,
                trace.final_grad_norm,
            )
        records.append(LambdaRecord(lam, r, wit, bud, objective, trace))
    return TraversalResult(records)


def _whitening(G: np.ndarray) -> np.ndarray:
    """P = U_keep S_keep^(-1/2) from G = U S U', keeping s > K * eps * max(s)."""
    s, U = np.linalg.eigh(G)
    # max(s) <= 0 (G = 0, or no positive curvature at all) keeps nothing.
    keep = s > G.shape[0] * np.finfo(float).eps * max(s[-1], 0.0)
    return U[:, keep] / np.sqrt(s[keep])


def _whitened(fun_r, P: np.ndarray):
    """The solver callback in a: fun_r taken at r = P a, its gradient mapped by P'."""

    def fun(a: np.ndarray):
        value, grad = fun_r(P @ a)
        return value, lambda: grad() @ P

    return fun


def materialize(features: FeatureMatrix, r) -> np.ndarray:
    """Traversed feature vector V^T(e_K + r): the test row plus the coefficient mix."""
    r = np.asarray(r, dtype=float).ravel()
    if r.size != features.K:
        raise InvalidInputError(f"r has length {r.size}, expected {features.K}")
    d = r.copy()
    d[features.K - 1] += 1.0
    return features.V.T @ d
