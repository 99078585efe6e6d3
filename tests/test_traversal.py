import logging

import numpy as np
import pytest

import oracles
from conftest import seeded_instance
from dmtrav import traversal
from dmtrav.errors import InvalidInputError, NumericalError
from dmtrav.formats import append_gram, read_feature_file, read_vector, write_feature_file
from dmtrav.mmd import (
    FeatureMatrix,
    KernelConfig,
    budget,
    embedded_objective,
    median_heuristic_sigma,
    witness_direct,
    witness_factored,
)
from dmtrav.traversal import TraversalConfig, _embedding, materialize, traverse

# Rows [target=2, source=0, test=0.2] in 1-D. Global optimum objective for
# sigma=1, lambda=0.01 frozen from the brute-force grid over r in [-2, 2]^3
# (oracles.grid_min_traversal, coarse 0.025 then 1e-3 refinement).
HAND_V = np.array([[2.0], [0.0], [0.2]])
HAND_GRID_OBJECTIVE = -0.9495899047661179


def hand_features():
    return FeatureMatrix(HAND_V, 1, 1)


class TestConfig:
    def test_lambdas_must_descend(self):
        with pytest.raises(InvalidInputError):
            TraversalConfig(lambdas=(0.1, 1.0))
        with pytest.raises(InvalidInputError):
            TraversalConfig(lambdas=(1.0, 1.0))

    def test_lambdas_positive_nonempty(self):
        for lambdas in [(), (1.0, -0.1), (float("inf"),), (float("nan"),), (1.0, float("nan"))]:
            with pytest.raises(InvalidInputError):
                TraversalConfig(lambdas=lambdas)


class TestTraverse:
    def test_dominant_lambda_pins_r_at_zero(self):
        V, m, n = seeded_instance(31, K=7, D=9)
        fm = FeatureMatrix(V, m, n)
        res = traverse(fm, TraversalConfig(lambdas=(1e9,)))
        rec = res[0]
        assert np.max(np.abs(rec.r)) < 1e-6
        z = materialize(fm, rec.r)
        assert np.linalg.norm(z - V[-1]) < 1e-4

    def test_matches_grid_oracle_on_hand_instance(self):
        res = traverse(
            hand_features(), TraversalConfig(lambdas=(0.01,), kernel=KernelConfig(1.0))
        )
        assert res[0].objective == pytest.approx(HAND_GRID_OBJECTIVE, abs=1e-4)

    def test_identical_blocks_keep_r_zero(self):
        block = np.array([[1.0, 0.5], [0.2, 2.0]])
        V = np.vstack([block, block, [[0.3, 0.3]]])
        fm = FeatureMatrix(V, 2, 2)
        res = traverse(fm, TraversalConfig(lambdas=(0.5,), kernel=KernelConfig(1.0)))
        assert np.array_equal(res[0].r, np.zeros(5))

    def test_objective_identity_and_feasibility(self):
        V, m, n = seeded_instance(12, K=9, D=20)
        fm = FeatureMatrix(V, m, n)
        cfg = TraversalConfig(lambdas=(0.3, 0.1, 0.03))
        res = traverse(fm, cfg)
        assert [rec.lam for rec in res] == [0.3, 0.1, 0.03]
        base = witness_direct(V[-1], V, m, n, KernelConfig(res_sigma(fm))).value
        for rec in res:
            assert rec.objective == pytest.approx(
                rec.witness.value + rec.lam * rec.budget, abs=1e-12
            )
            # r = 0 is always feasible, so the solution can never score worse
            assert rec.objective <= base + 1e-12

    def test_deterministic_bitwise(self):
        V, m, n = seeded_instance(13, K=8, D=15)
        fm = FeatureMatrix(V, m, n)
        cfg = TraversalConfig(lambdas=(0.2, 0.05))
        a = traverse(fm, cfg)
        b = traverse(fm, cfg)
        for ra, rb in zip(a, b):
            assert ra.r.tobytes() == rb.r.tobytes()
            assert ra.objective == rb.objective
            assert ra.trace.objective_values == rb.trace.objective_values

    def test_gram_formed_from_the_rows_gives_the_records_of_the_file_gram(self, tmp_path):
        V, m, n = seeded_instance(14, K=601, D=640)  # two panels of gram; Cholesky path
        path = tmp_path / "f.dmtv"
        write_feature_file(path, V, m, n)
        append_gram(path)
        ff = read_feature_file(path)
        cfg = TraversalConfig(lambdas=(1e-3, 1e-5))
        formed = traverse(FeatureMatrix(ff.V, m, n), cfg)
        cached = traverse(ff.as_feature_matrix(), cfg)
        for a, b in zip(formed, cached):
            assert a.r.tobytes() == b.r.tobytes()
            assert (a.objective, a.trace.iterations) == (b.objective, b.trace.iterations)

    def test_solver_failure_annotated_with_lambda(self):
        V, m, n = seeded_instance(15, K=4, D=3)
        fm = FeatureMatrix(1e3 * V, m, n)
        # a subnormal kernel width overflows the witness gradient at the start
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match="lambda"
        ):
            traverse(fm, TraversalConfig(lambdas=(1e305,), kernel=KernelConfig(1e-310)))


    def test_rank_deficient_gram_gives_minimum_norm_r(self):
        V, m, n = seeded_instance(21, K=9, D=3)  # rank(G) = 3 < K
        W, _, _ = seeded_instance(21, K=9, D=20)
        duplicate, near_duplicate = W.copy(), W.copy()
        duplicate[7] = W[3]  # rank(G) = 8 < K
        near_duplicate[7] = W[3] + 1e-7 * np.random.default_rng(21).standard_normal(20)
        for rows_in in (V, duplicate, near_duplicate):
            fm = FeatureMatrix(rows_in, m, n)
            sigma = res_sigma(fm)
            res = traverse(fm, TraversalConfig(lambdas=(1e-2 / sigma, 1e-3 / sigma)))
            U, _, _ = np.linalg.svd(rows_in, full_matrices=False)
            rows = U[:, : np.linalg.matrix_rank(rows_in)]  # orthonormal basis of range(G)
            for rec in res:
                assert rec.trace.termination_reason == "grad_tol"
                null_part = rec.r - rows @ (rows.T @ rec.r)
                assert np.linalg.norm(null_part) <= 1e-10 * np.linalg.norm(rec.r)
                assert np.linalg.norm(rec.r) > 0

    def test_zero_gram_keeps_r_zero(self):
        fm = FeatureMatrix(np.zeros((5, 3)), 2, 2)
        res = traverse(fm, TraversalConfig(lambdas=(0.1, 0.01), kernel=KernelConfig(1.0)))
        for rec in res:
            assert np.array_equal(rec.r, np.zeros(5))
            assert rec.objective == 0.0
            assert rec.trace.termination_reason == "grad_tol"

    def test_solve_short_of_grad_tol_logs_warning(self, caplog):
        from dmtrav.optim import MinimizeConfig

        V, m, n = seeded_instance(22, K=9, D=20)
        fm = FeatureMatrix(V, m, n)
        with caplog.at_level(logging.WARNING, logger="dmtrav.traversal"):
            traverse(fm, TraversalConfig(lambdas=(0.1, 0.01)))
        assert caplog.records == []
        with caplog.at_level(logging.WARNING, logger="dmtrav.traversal"):
            res = traverse(
                fm, TraversalConfig(lambdas=(0.1, 0.01), solver=MinimizeConfig(max_iters=1))
            )
        assert [r.name for r in caplog.records] == ["dmtrav.traversal"] * 2
        for log, rec in zip(caplog.records, res):
            assert rec.trace.termination_reason == "max_iters"
            message = log.getMessage()
            assert repr(rec.lam) in message and "max_iters" in message
            assert repr(rec.trace.final_grad_norm) in message


def test_full_rank_sweep_factors_once_and_solves_once(monkeypatch):
    calls = {"eigh": 0, "solve": 0}
    for name in calls:

        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    V, m, n = seeded_instance(23, K=9, D=20)
    fm = FeatureMatrix(V, m, n)
    cfg = TraversalConfig(lambdas=(0.1, 0.01, 1e-3))
    for sweep in (1, 2):
        traverse(fm, cfg)
        assert calls == {"eigh": 0, "solve": sweep}


@pytest.mark.parametrize("seed", [52, 53])
def test_cholesky_embedding_agrees_with_eigenvector_embedding(seed):
    V, m, n = seeded_instance(seed, K=11, D=30)
    G = FeatureMatrix(V, m, n).G
    sigma = median_heuristic_sigma(G)
    X, to_r = _embedding(G)
    assert np.array_equal(X, np.tril(X))  # full rank: the Cholesky factor
    X_ref, P_ref = oracles.eigh_embedding(G)
    r = np.random.default_rng(seed).standard_normal(11)
    for emb, emb_to_r in ((X, to_r), (X_ref, lambda a: P_ref @ a)):
        assert np.linalg.norm(emb_to_r(emb.T @ r) - r) <= 1e-10 * np.linalg.norm(r)
    # the same feature-space point V^T(e_K + r), in either orthonormal basis
    for lam in (0.0, 1.0 / sigma):
        value, _ = embedded_objective(X, m, n, sigma, lam)(X.T @ r)
        expected, _ = embedded_objective(X_ref, m, n, sigma, lam)(X_ref.T @ r)
        assert value == pytest.approx(expected, rel=1e-12, abs=0)


def test_sweep_agrees_with_sweep_on_eigenvector_embedding(monkeypatch):
    V, m, n = seeded_instance(54, K=11, D=30)
    fm = FeatureMatrix(V, m, n)
    sigma = res_sigma(fm)
    cfg = TraversalConfig(lambdas=tuple(s / sigma for s in (1e-2, 1e-3, 1e-4)))
    res = traverse(fm, cfg)

    def reference(G):
        X, P = oracles.eigh_embedding(G)
        return X, lambda A: P @ A

    monkeypatch.setattr(traversal, "_embedding", reference)
    for rec, ref in zip(res, traverse(fm, cfg)):
        assert rec.objective == pytest.approx(ref.objective, rel=1e-8, abs=0)


def test_demo_sweep_ends_on_grad_tol(demo_runs, caplog):
    outcome, dir_a, _, _ = demo_runs
    fm = read_feature_file(dir_a / "features.dmtv").as_feature_matrix()
    cfg = TraversalConfig(lambdas=outcome.lambdas, kernel=KernelConfig(outcome.sigma))
    with caplog.at_level(logging.WARNING, logger="dmtrav.traversal"):
        res = traverse(fm, cfg)
    assert caplog.records == []
    for i, rec in enumerate(res):
        assert rec.trace.termination_reason == "grad_tol"
        # the same sweep as the demo's: its stored coefficients, rounded to f32
        assert np.array_equal(
            rec.r.astype(np.float32).astype(float), read_vector(dir_a / f"r_{i}.dmtv")
        )


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
        fm = FeatureMatrix(V, 1, 1)
        sigma = res_sigma(fm)
        lambdas = (0.3, 0.1)
        res = traverse(fm, TraversalConfig(lambdas=lambdas, kernel=KernelConfig(sigma)))

        grid_wit, grid_bud = [], []
        for lam, rec in zip(lambdas, res):
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
        fm = FeatureMatrix(V, m, n)
        res = traverse(fm, TraversalConfig(lambdas=(1.0, 0.1, 0.01)))
        budgets = [rec.budget for rec in res]
        assert budgets[0] <= min(budgets) + 1e-12


@pytest.mark.parametrize("seed, lam", [(50, 1e-3), (51, 0.5)])
def test_embedded_objective_equals_separate_terms_bit_for_bit(seed, lam):
    V, m, n = seeded_instance(seed, K=11, D=30)
    G = FeatureMatrix(V, m, n).G
    sigma = median_heuristic_sigma(G)
    X, _ = _embedding(G)
    fun = embedded_objective(X, m, n, sigma, lam)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        a = 0.3 * rng.standard_normal(X.shape[1])
        value, grad = fun(a)
        expected = oracles.embedded_witness(a, X, m, n, sigma) + lam * float(a @ a)
        expected_grad = oracles.embedded_witness_grad(a, X, m, n, sigma) + lam * (2.0 * a)
        assert np.float64(value).view(np.int64) == np.float64(expected).view(np.int64)
        assert np.array_equal(grad().view(np.int64), expected_grad.view(np.int64))


@pytest.mark.parametrize("seed, K, D", [(50, 11, 30), (21, 9, 3)])
def test_embedded_objective_agrees_with_gram_and_feature_forms(seed, K, D):
    # full rank, then rank(G) = 3 < K: X X' = G, and the callback at a is
    # the objective at r = P a, its gradient the r-gradient mapped by P',
    # with P the matrix of the embedding's map from a to r
    V, m, n = seeded_instance(seed, K=K, D=D)
    fm = FeatureMatrix(V, m, n)
    G = fm.G
    sigma = median_heuristic_sigma(G)
    kcfg = KernelConfig(sigma)
    X, to_r = _embedding(G)
    P = to_r(np.eye(X.shape[1]))
    assert X.shape[1] == min(K, D)
    assert np.max(np.abs(X @ X.T - G)) <= 1e-12 * np.max(np.abs(G))
    rng = np.random.default_rng(seed)
    for lam in (0.0, 1.0 / sigma):
        fun = embedded_objective(X, m, n, sigma, lam)
        for _ in range(3):
            a = 0.3 * rng.standard_normal(X.shape[1])
            r = P @ a
            value, grad = fun(a)
            expected = witness_direct(materialize(fm, r), V, m, n, kcfg).value + lam * budget(r, G)
            assert value == pytest.approx(expected, rel=1e-12, abs=0)
            grad_r = oracles.witness_grad_r(r, G, m, n, kcfg) + lam * oracles.budget_grad(r, G)
            expected_grad = P.T @ grad_r
            assert np.linalg.norm(grad() - expected_grad) <= 1e-10 * np.linalg.norm(expected_grad)
