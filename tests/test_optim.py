import numpy as np
import pytest

from dmtrav.errors import InvalidInputError, NumericalError
from dmtrav.optim import MinimizeConfig, minimize
from oracles import finite_difference_gradient


def quadratic_1d(x):
    return float((x[0] - 3.0) ** 2), lambda: np.array([2.0 * (x[0] - 3.0)])


def rosenbrock(v):
    value = float((1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2)
    return value, lambda: np.array(
        [-2 * (1 - v[0]) - 400 * v[0] * (v[1] - v[0] ** 2), 200 * (v[1] - v[0] ** 2)]
    )


def test_unbounded_quadratic_reaches_analytic_minimum():
    x, trace = minimize(quadratic_1d, [0.0])
    assert abs(x[0] - 3.0) < 1e-8
    assert trace.termination_reason == "grad_tol"


def test_active_bound_at_constrained_minimum():
    x, trace = minimize(lambda v: (float(v[0] ** 2), lambda: 2.0 * v), [1.5], bounds=(1.0, 2.0))
    assert abs(x[0] - 1.0) < 1e-10
    assert trace.final_grad_norm <= 1e-6


def test_rosenbrock_converges():
    x, trace = minimize(rosenbrock, [-1.2, 1.0])
    assert np.max(np.abs(x - 1.0)) < 1e-5
    assert trace.termination_reason == "grad_tol"


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_quadratic_exactness_spd(dim):
    rng = np.random.default_rng(100 + dim)
    A = rng.standard_normal((dim, dim))
    A = A @ A.T + 0.5 * np.eye(dim)
    b = rng.standard_normal(dim)
    cfg = MinimizeConfig(max_iters=200, grad_tol=1e-8)
    x, trace = minimize(
        lambda v: (float(0.5 * v @ A @ v - b @ v), lambda: A @ v - b), np.zeros(dim), cfg=cfg
    )
    assert trace.final_grad_norm <= 1e-8
    assert trace.iterations <= 200


def test_objective_sequence_non_increasing():
    _, trace = minimize(rosenbrock, [-1.2, 1.0])
    vals = trace.objective_values
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= vals[0]


def test_bounds_respected_exactly():
    lo = np.array([0.25, -0.5])
    hi = np.array([0.75, 0.5])
    seen = []

    def f(v):
        seen.append(v.copy())
        return float(np.sum((v - 2.0) ** 2)), lambda: 2.0 * (v - 2.0)

    x, _ = minimize(f, [0.5, 0.0], bounds=(lo, hi))
    for pt in seen:
        assert np.all(pt >= lo) and np.all(pt <= hi)
    assert np.allclose(x, hi)  # minimum of the box toward (2, 2)


def test_deterministic_bitwise():
    runs = []
    for _ in range(2):
        x, trace = minimize(rosenbrock, [-1.2, 1.0])
        runs.append((x.tobytes(), tuple(trace.objective_values), trace.iterations))
    assert runs[0] == runs[1]


def test_empty_vector_rejected():
    with pytest.raises(InvalidInputError):
        minimize(quadratic_1d, [])


def test_x0_outside_bounds_rejected():
    with pytest.raises(InvalidInputError):
        minimize(quadratic_1d, [5.0], bounds=(0.0, 1.0))


def test_half_infinite_bounds():
    # lower bound only; the upper side is open
    x, _ = minimize(quadratic_1d, [5.0], bounds=(4.0, np.inf))
    assert abs(x[0] - 4.0) < 1e-10
    x, _ = minimize(quadratic_1d, [0.0], bounds=(-np.inf, np.inf))
    assert abs(x[0] - 3.0) < 1e-8


def test_nonfinite_objective_raises_with_iterate():
    def bad(v):
        return (float("nan"), None) if v[0] < 2.9 else quadratic_1d(v)

    with pytest.raises(NumericalError, match="iteration"):
        minimize(bad, [0.0])


def test_nonfinite_gradient_raises():
    def bad_grad(v):
        return quadratic_1d(v)[0], lambda: np.array([np.inf])

    with pytest.raises(NumericalError):
        minimize(bad_grad, [0.0])


def test_misshaped_gradient_raises():
    with pytest.raises(InvalidInputError, match="gradient shape"):
        minimize(lambda v: (float(v @ v), lambda: np.zeros(3)), [1.0, 2.0])


def test_nonfinite_gradient_at_accepted_point_raises():
    # finite at x0 = 0, NaN at the first accepted point x = 3
    def f(v):
        value, grad = quadratic_1d(v)
        return value, grad if v[0] == 0.0 else (lambda: np.array([np.nan]))

    with pytest.raises(NumericalError, match="iteration 1"):
        minimize(f, [0.0])


@pytest.mark.parametrize(
    "x0, bounds, cfg",
    [
        ([-1.2, 1.0], None, MinimizeConfig()),
        ([-1.2, 1.0], None, MinimizeConfig(max_iters=3, grad_tol=0.0)),
        ([0.5, 0.0], ([0.25, -0.5], [0.75, 0.5]), MinimizeConfig()),
    ],
    ids=["unbounded", "max_iters", "bounded"],
)
def test_grad_runs_once_per_accepted_point(x0, bounds, cfg):
    values = []  # objective at every evaluated point, in call order
    grad_calls = []  # (index of the point the grad belongs to, index of the newest point)

    def f(v):
        value, grad = rosenbrock(v)
        values.append(value)
        k = len(values) - 1

        def counted():
            grad_calls.append((k, len(values) - 1))
            return grad()

        return value, counted

    _, trace = minimize(f, x0, bounds=bounds, cfg=cfg)
    assert len(grad_calls) == trace.iterations + 1
    # grad is asked for at the newest point only, once, and that point is
    # x0 or an accepted iterate; every other evaluation was a rejected trial
    assert all(k == newest for k, newest in grad_calls)
    assert len({k for k, _ in grad_calls}) == len(grad_calls)
    assert [values[k] for k, _ in grad_calls] == trace.objective_values
    assert len(values) > len(grad_calls)  # the search did reject some trials


def test_max_iters_termination():
    cfg = MinimizeConfig(max_iters=3, grad_tol=0.0)
    _, trace = minimize(rosenbrock, [-1.2, 1.0], cfg=cfg)
    assert trace.termination_reason == "max_iters"
    assert trace.iterations == 3


def test_immediate_grad_tol_at_start():
    x, trace = minimize(quadratic_1d, [3.0])
    assert trace.iterations == 0
    assert trace.termination_reason == "grad_tol"
    assert trace.objective_values == [0.0]


def test_config_validation():
    with pytest.raises(InvalidInputError):
        MinimizeConfig(max_iters=0)
    with pytest.raises(InvalidInputError):
        MinimizeConfig(grad_tol=-1.0)


def test_fd_gradient_quadratic_exact():
    g = finite_difference_gradient(lambda v: float(v[0] ** 2), [3.0], 1e-5)
    assert abs(g[0] - 6.0) < 1e-8


def test_fd_gradient_constant_zero():
    g = finite_difference_gradient(lambda v: 7.5, [1.0, -2.0, 0.3], 1e-4)
    assert np.all(g == 0.0)


def test_fd_gradient_matches_analytic_cosine():
    # d/dx sin(x) at 0 is cos(0) = 1.
    g = finite_difference_gradient(lambda v: float(np.sin(v[0])), [0.0], 1e-5)
    assert abs(g[0] - 1.0) < 1e-9


def test_fd_gradient_nonfinite_raises():
    with pytest.raises(NumericalError):
        finite_difference_gradient(lambda v: float("inf"), [0.0], 1e-5)


def test_fd_gradient_bad_input():
    with pytest.raises(InvalidInputError):
        finite_difference_gradient(lambda v: 0.0, [], 1e-5)
    with pytest.raises(InvalidInputError):
        finite_difference_gradient(lambda v: 0.0, [1.0], 0.0)
