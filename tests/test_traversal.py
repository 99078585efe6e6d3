import numpy as np
import pytest

import oracles
from conftest import seeded_instance
from dmtrav.errors import InvalidInputError, NumericalError
from dmtrav.mmd import (
    FeatureMatrix,
    KernelConfig,
    budget,
    budget_grad,
    factored_objective,
    median_heuristic_sigma,
    witness_direct,
    witness_factored,
    witness_grad_r,
)
from dmtrav.traversal import TraversalConfig, materialize, traverse

# Rows [target=2, source=0, test=0.2] in 1-D. Global optimum objective for
# sigma=1, lambda=0.01 frozen from the brute-force grid over r in [-2, 2]^3
# (oracles.grid_min_traversal, coarse 0.025 then 1e-3 refinement).
HAND_V = np.array([[2.0], [0.0], [0.2]])
HAND_GRID_OBJECTIVE = -0.9495899047661179


def hand_features():
    return FeatureMatrix(HAND_V, 1, 1).with_gram()


class TestConfig:
    def test_lambdas_must_descend(self):
        with pytest.raises(InvalidInputError):
            TraversalConfig(lambdas=(0.1, 1.0))
        with pytest.raises(InvalidInputError):
            TraversalConfig(lambdas=(1.0, 1.0))

    def test_lambdas_positive_nonempty(self):
        with pytest.raises(InvalidInputError):
            TraversalConfig(lambdas=())
        with pytest.raises(InvalidInputError):
            TraversalConfig(lambdas=(1.0, -0.1))


class TestTraverse:
    def test_dominant_lambda_pins_r_at_zero(self):
        V, m, n = seeded_instance(31, K=7, D=9)
        fm = FeatureMatrix(V, m, n).with_gram()
        res = traverse(fm, TraversalConfig(lambdas=(1e9,)))
        rec = res.records[0]
        assert np.max(np.abs(rec.r)) < 1e-6
        z = materialize(fm, rec.r)
        assert np.linalg.norm(z - V[-1]) < 1e-4

    def test_matches_grid_oracle_on_hand_instance(self):
        res = traverse(
            hand_features(), TraversalConfig(lambdas=(0.01,), kernel=KernelConfig(1.0))
        )
        assert res.records[0].objective == pytest.approx(HAND_GRID_OBJECTIVE, abs=1e-4)

    def test_identical_blocks_keep_r_zero(self):
        block = np.array([[1.0, 0.5], [0.2, 2.0]])
        V = np.vstack([block, block, [[0.3, 0.3]]])
        fm = FeatureMatrix(V, 2, 2).with_gram()
        res = traverse(fm, TraversalConfig(lambdas=(0.5,), kernel=KernelConfig(1.0)))
        assert np.array_equal(res.records[0].r, np.zeros(5))

    def test_objective_identity_and_feasibility(self):
        V, m, n = seeded_instance(12, K=9, D=20)
        fm = FeatureMatrix(V, m, n).with_gram()
        cfg = TraversalConfig(lambdas=(0.3, 0.1, 0.03))
        res = traverse(fm, cfg)
        assert [rec.lam for rec in res.records] == [0.3, 0.1, 0.03]
        base = witness_direct(V[-1], V, m, n, KernelConfig(res_sigma(fm))).value
        for rec in res.records:
            assert rec.objective == pytest.approx(
                rec.witness.value + rec.lam * rec.budget, abs=1e-12
            )
            # r = 0 is always feasible, so the solution can never score worse
            assert rec.objective <= base + 1e-12

    def test_deterministic_bitwise(self):
        V, m, n = seeded_instance(13, K=8, D=15)
        fm = FeatureMatrix(V, m, n).with_gram()
        cfg = TraversalConfig(lambdas=(0.2, 0.05))
        a = traverse(fm, cfg)
        b = traverse(fm, cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.r.tobytes() == rb.r.tobytes()
            assert ra.objective == rb.objective
            assert ra.trace.objective_values == rb.trace.objective_values

    def test_missing_gram_rejected(self):
        V, m, n = seeded_instance(14, K=5, D=4)
        fm = FeatureMatrix(V, m, n)
        with pytest.raises(InvalidInputError, match="[Gg]ram"):
            traverse(fm, TraversalConfig(lambdas=(0.1,)))

    def test_solver_failure_annotated_with_lambda(self):
        V, m, n = seeded_instance(15, K=4, D=3)
        fm = FeatureMatrix(1e3 * V, m, n).with_gram()
        # the budget term overflows on the first trial step at this weight
        with pytest.raises(NumericalError, match="lambda"):
            traverse(fm, TraversalConfig(lambdas=(1e305,)))


def res_sigma(fm):
    from dmtrav.mmd import median_heuristic_sigma

    return median_heuristic_sigma(fm.G)


class TestMaterialize:
    def test_r_zero_returns_test_row(self):
        V, m, n = seeded_instance(16, K=6, D=7)
        fm = FeatureMatrix(V, m, n)
        assert np.array_equal(materialize(fm, np.zeros(6)), V[-1])

    def test_unit_swap_returns_target_row(self):
        V, m, n = seeded_instance(17, K=6, D=7)
        fm = FeatureMatrix(V, m, n)
        r = np.zeros(6)
        r[2] = 1.0
        r[-1] = -1.0
        assert np.allclose(materialize(fm, r), V[2], rtol=0, atol=1e-12)

    def test_matches_naive_accumulation(self):
        V, m, n = seeded_instance(18, K=5, D=9)
        fm = FeatureMatrix(V, m, n)
        r = np.random.default_rng(19).standard_normal(5)
        assert np.allclose(
            materialize(fm, r), oracles.naive_materialize(V, r), rtol=1e-10, atol=1e-12
        )

    def test_length_checked(self):
        V, m, n = seeded_instance(20, K=5, D=9)
        with pytest.raises(InvalidInputError):
            materialize(FeatureMatrix(V, m, n), np.zeros(4))


class TestRegularizationPath:
    def make_instance(self, seed):
        # K = 3 with independent rows in 3-D keeps the grid oracle
        # non-degenerate; unit-scale rows keep the optimum interior.
        rng = np.random.default_rng(seed)
        V = rng.uniform(-1.0, 1.0, (3, 3))
        V[0] += 1.0  # push the target row away from source and test
        return V

    @pytest.mark.parametrize("seed", [101])
    def test_solver_matches_grid_and_path_is_monotone(self, seed):
        # one quick instance here; the acceptance suite runs the full set
        V = self.make_instance(seed)
        fm = FeatureMatrix(V, 1, 1).with_gram()
        sigma = res_sigma(fm)
        lambdas = (0.3, 0.1)
        res = traverse(fm, TraversalConfig(lambdas=lambdas, kernel=KernelConfig(sigma)))

        grid_wit, grid_bud = [], []
        for lam, rec in zip(lambdas, res.records):
            _, obj, wit, bud = oracles.grid_min_traversal(V, 1, 1, sigma, lam)
            assert rec.objective == pytest.approx(obj, abs=1e-4)
            grid_wit.append(wit)
            grid_bud.append(bud)
        # at global optima: witness non-increasing, budget non-decreasing
        # as lambda decreases
        assert all(b <= a + 1e-12 for a, b in zip(grid_wit, grid_wit[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(grid_bud, grid_bud[1:]))


class TestWarmStart:
    def test_budget_largest_lambda_smallest(self):
        V, m, n = seeded_instance(44, K=7, D=12)
        fm = FeatureMatrix(V, m, n).with_gram()
        res = traverse(fm, TraversalConfig(lambdas=(1.0, 0.1, 0.01)))
        budgets = [rec.budget for rec in res.records]
        assert budgets[0] <= min(budgets) + 1e-12


@pytest.mark.parametrize("seed, lam", [(50, 1e-3), (51, 0.5)])
def test_factored_objective_equals_separate_terms_bit_for_bit(seed, lam):
    V, m, n = seeded_instance(seed, K=11, D=30)
    G = FeatureMatrix(V, m, n).with_gram().G
    sigma = median_heuristic_sigma(G)
    kcfg = KernelConfig(sigma)
    fun = factored_objective(G, m, n, sigma, lam)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        r = 0.3 * rng.standard_normal(11)
        value, grad = fun(r)
        expected = witness_factored(r, G, m, n, kcfg).value + lam * budget(r, G)
        expected_grad = witness_grad_r(r, G, m, n, kcfg) + lam * budget_grad(r, G)
        assert np.float64(value).view(np.int64) == np.float64(expected).view(np.int64)
        assert np.array_equal(grad().view(np.int64), expected_grad.view(np.int64))
