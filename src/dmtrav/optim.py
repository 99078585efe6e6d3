"""Deterministic bound-constrained quasi-Newton minimization.

Limited-memory BFGS with a projected backtracking line search: search
directions come from the standard two-loop recursion, every trial point
is projected onto the feasible box *before* evaluation, and a step is
accepted only under the Armijo sufficient-decrease test. There is no
randomness anywhere, so identical inputs give bit-identical results.

The update is plain L-BFGS (Liu & Nocedal 1989): every curvature pair
with s'y > 0 is stored as it is. The Armijo-only search cannot rule out
s'y <= 0, so such a pair gets Powell's damping against the scalar
B0 = I/gamma before it is stored.

The objective is one callback, fun(x) -> (value, grad). Line-search
trials read only the value; the zero-argument grad() is called at x0 and
at each accepted point, which is always the point evaluated last, so it
can reuse the work behind the value.

The line search, the history length and the step tolerance are module
constants; MinimizeConfig sets only the iteration cap and the gradient
tolerance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericalError


# Armijo backtracking: sufficient-decrease constant, step shrink factor,
# and the number of shrinks before a direction is abandoned.
_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_TRIALS = 40
_HISTORY_SIZE = 10  # curvature pairs kept by the two-loop recursion
_STEP_TOL = 1e-10  # sup-norm of an accepted step that ends the solve on "step_tol"


@dataclass(frozen=True)
class MinimizeConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be positive")
        if self.grad_tol < 0:
            raise InvalidInputError("grad_tol must be nonnegative")


@dataclass
class MinimizeTrace:
    """Record of one minimization run.

    objective_values holds the objective at every accepted iterate,
    starting with the initial point; it is non-increasing by construction.
    termination_reason is one of "grad_tol" (projected gradient at or
    below the tolerance), "step_tol" (an accepted step no longer than
    1e-10), "stalled" (the line search found no acceptable step, even
    along steepest descent) or "max_iters".
    """

    iterations: int
    objective_values: list[float]
    final_grad_norm: float
    termination_reason: str


def _as_bounds(bounds, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    if bounds is None:
        return None
    if len(bounds) != 2:
        raise InvalidInputError("bounds must be a (lower, upper) pair")
    lo, hi = bounds
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,)).copy()
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise InvalidInputError("bounds must not contain NaN")
    if np.any(lo > hi):
        raise InvalidInputError("lower bound exceeds upper bound")
    return lo, hi


def _project(x: np.ndarray, box: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    if box is None:
        return x
    return np.minimum(np.maximum(x, box[0]), box[1])


def minimize(
    fun: Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]],
    x0,
    bounds=None,
    cfg: MinimizeConfig | None = None,
) -> tuple[np.ndarray, MinimizeTrace]:
    """Minimize a smooth objective, optionally inside a coordinate box.

    Args:
        fun: objective callback, fun(x) -> (value, grad); grad() returns
            the gradient at the same x as an array of x's shape.
        x0: starting point; must satisfy the bounds when given.
        bounds: optional (lo, hi) pair, each a scalar or per-coordinate
            array; the closed box lo <= x <= hi is enforced exactly at
            every evaluated point.
        cfg: solver parameters (defaults per MinimizeConfig).

    Returns:
        (x_star, trace). The trace's objective sequence is non-increasing
        and x_star respects the bounds exactly.

    Raises:
        InvalidInputError: empty x0, malformed bounds, or x0 outside them.
        NumericalError: a non-finite objective or gradient value at any
            evaluated point, identified by iteration.
    """
    if cfg is None:
        cfg = MinimizeConfig()
    x = np.asarray(x0, dtype=float).copy().ravel()
    if x.size == 0:
        raise InvalidInputError("x0 must be a non-empty vector")
    box = _as_bounds(bounds, x.size)
    if box is not None and (np.any(x < box[0]) or np.any(x > box[1])):
        raise InvalidInputError("x0 violates the given bounds")

    def eval_f(pt: np.ndarray, it: int) -> tuple[float, Callable[[], np.ndarray]]:
        v, grad = fun(pt)
        v = float(v)
        if not np.isfinite(v):
            raise NumericalError(f"objective is not finite at iteration {it}")
        return v, grad

    def eval_g(grad: Callable[[], np.ndarray], pt: np.ndarray, it: int) -> np.ndarray:
        g = np.asarray(grad(), dtype=float).ravel()
        if g.shape != pt.shape:
            raise InvalidInputError(
                f"gradient shape {g.shape} does not match point shape {pt.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"gradient is not finite at iteration {it}")
        return g

    def projected_grad_norm(pt: np.ndarray, g: np.ndarray) -> float:
        # Sup-norm of pt - P(pt - g): zero exactly at box-stationary points.
        return float(np.max(np.abs(pt - _project(pt - g, box))))

    fx, grad = eval_f(x, 0)
    gx = eval_g(grad, x, 0)
    objective_values = [fx]
    history: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_HISTORY_SIZE)
    gamma = 1.0  # scalar inverse-Hessian scale, refreshed with each stored pair

    grad_norm = projected_grad_norm(x, gx)
    if grad_norm <= cfg.grad_tol:
        return x, MinimizeTrace(0, objective_values, grad_norm, "grad_tol")

    reason = "max_iters"
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        iterations = it
        direction = _two_loop_direction(gx, history)

        accepted = _armijo_search(x, fx, gx, direction, box, eval_f, it)
        if accepted is None and history:
            # Quasi-Newton direction failed; retry once as steepest descent.
            history.clear()
            accepted = _armijo_search(x, fx, gx, -gx, box, eval_f, it)
        if accepted is None:
            reason = "stalled"
            iterations = it - 1
            break

        x_new, f_new, grad = accepted
        g_new = eval_g(grad, x_new, it)
        step = x_new - x
        y = g_new - gx
        # A pair with positive curvature is stored as it is. The Armijo-only
        # search cannot guarantee s'y > 0, so a pair without it is damped:
        # y is mixed with the scaled step until s'y = 0.2 s'B0 s.
        sy = float(step @ y)
        if sy <= 0.0:
            s_bs = float(step @ step) / gamma
            theta = 0.8 * s_bs / (s_bs - sy)
            y = theta * y + (1.0 - theta) * (step / gamma)
            sy = float(step @ y)
        yy = float(y @ y)
        if sy > 0.0 and yy > 0.0:
            history.append((step, y, sy))
            gamma = sy / yy

        step_norm = float(np.max(np.abs(step)))
        x, fx, gx = x_new, f_new, g_new
        objective_values.append(fx)

        grad_norm = projected_grad_norm(x, gx)
        if grad_norm <= cfg.grad_tol:
            reason = "grad_tol"
            break
        if step_norm <= _STEP_TOL:
            reason = "step_tol"
            break

    return x, MinimizeTrace(iterations, objective_values, grad_norm, reason)


def _two_loop_direction(
    g: np.ndarray, history: deque[tuple[np.ndarray, np.ndarray, float]]
) -> np.ndarray:
    """Apply the inverse-Hessian approximation to -g via two-loop recursion."""
    if not history:
        return -g
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(history):
        a = (s @ q) / sy
        q -= a * y
        alphas.append(a)
    _, y_last, sy_last = history[-1]
    q *= sy_last / (y_last @ y_last)
    for (s, y, sy), a in zip(history, reversed(alphas)):
        b = (y @ q) / sy
        q += (a - b) * s
    return -q


def _armijo_search(
    x: np.ndarray,
    fx: float,
    gx: np.ndarray,
    direction: np.ndarray,
    box,
    eval_f,
    it: int,
) -> tuple[np.ndarray, float, Callable[[], np.ndarray]] | None:
    """Backtrack along `direction`, projecting each trial onto the box.

    Sufficient decrease is tested against the *projected* displacement, so
    steps clipped by the box are judged by the movement actually taken.
    Returns (x_new, f_new, grad at x_new) or None when no acceptable step
    exists.
    """
    t = 1.0
    for _ in range(_MAX_TRIALS):
        candidate = _project(x + t * direction, box)
        displacement = candidate - x
        slope = float(gx @ displacement)
        if slope < 0.0:
            f_candidate, grad = eval_f(candidate, it)
            if f_candidate <= fx + _C1 * slope:
                return candidate, f_candidate, grad
        t *= _BACKTRACK
    return None
