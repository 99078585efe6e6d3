"""Budgeted witness minimization over traversal coefficients.

For each penalty weight in a descending sweep, minimize

    witness(V^T(e_K + r)) + lam * r' G r

over the coefficient vector r, unbounded, starting from r = 0 and
warm-starting each solve from the previous one. Everything runs on the
precomputed Gram matrix, so the cost after extraction depends on the
number of images K and the iteration count, never on the feature
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mmd
from .errors import InvalidInputError, NumericalError
from .mmd import FeatureMatrix, KernelConfig, WitnessValue
from .optim import MinimizeConfig, MinimizeTrace, minimize


@dataclass(frozen=True)
class TraversalConfig:
    lambdas: tuple[float, ...]
    kernel: KernelConfig = field(default_factory=KernelConfig)
    solver: MinimizeConfig = field(default_factory=MinimizeConfig)

    def __post_init__(self) -> None:
        lams = tuple(float(l) for l in self.lambdas)
        if not lams:
            raise InvalidInputError("at least one lambda is required")
        if any(l <= 0 for l in lams):
            raise InvalidInputError("lambdas must be strictly positive")
        if any(later >= earlier for later, earlier in zip(lams[1:], lams)):
            raise InvalidInputError("lambdas must be strictly descending")
        object.__setattr__(self, "lambdas", lams)


@dataclass
class LambdaRecord:
    """Solution for one penalty weight. objective == witness.value + lam * budget."""

    lam: float
    r: np.ndarray
    witness: WitnessValue | None
    budget: float
    objective: float
    trace: MinimizeTrace | None


@dataclass
class TraversalResult:
    records: list[LambdaRecord]


def traverse(features: FeatureMatrix, cfg: TraversalConfig) -> TraversalResult:
    """Run the descending-lambda sweep; requires the Gram matrix to be present."""
    G = features.G
    if G is None:
        raise InvalidInputError(
            "feature matrix has no Gram section; run gram precomputation first"
        )
    m, n = features.m, features.n
    sigma = cfg.kernel.resolve_sigma(G)
    kcfg = KernelConfig(sigma)

    records: list[LambdaRecord] = []
    r = np.zeros(features.K)
    for lam in cfg.lambdas:

        def fun(rv: np.ndarray, lam=lam):
            value = mmd.witness_factored(rv, G, m, n, kcfg).value + lam * mmd.budget(rv, G)
            return value, lambda: (
                mmd.witness_grad_r(rv, G, m, n, kcfg) + lam * mmd.budget_grad(rv, G)
            )

        try:
            r, trace = minimize(fun, r, bounds=None, cfg=cfg.solver)
        except NumericalError as exc:
            raise NumericalError(f"traversal solve failed at lambda={lam!r}: {exc}") from exc
        wit = mmd.witness_factored(r, G, m, n, kcfg)
        bud = mmd.budget(r, G)
        records.append(LambdaRecord(lam, r.copy(), wit, bud, wit.value + lam * bud, trace))
    return TraversalResult(records)


def materialize(features: FeatureMatrix, r) -> np.ndarray:
    """Traversed feature vector V^T(e_K + r): the test row plus the coefficient mix."""
    r = np.asarray(r, dtype=float).ravel()
    if r.size != features.K:
        raise InvalidInputError(f"r has length {r.size}, expected {features.K}")
    d = r.copy()
    d[features.K - 1] += 1.0
    return features.V.T @ d
