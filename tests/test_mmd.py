import math

import numpy as np
import pytest

import oracles
from conftest import seeded_instance
from dmtrav.errors import DegenerateDataError, InvalidInputError
from dmtrav.mmd import (
    FeatureMatrix,
    KernelConfig,
    budget,
    budget_grad,
    gram,
    median_heuristic_sigma,
    rbf_kernel,
    witness_direct,
    witness_factored,
    witness_grad_r,
)
from oracles import finite_difference_gradient

# Rows [target=2, source=0, test=0.2] in 1-D; the hand-checkable instance.
HAND_V = np.array([[2.0], [0.0], [0.2]])


def hand_instance():
    return FeatureMatrix(HAND_V, 1, 1).with_gram()


class TestRbfKernel:
    def test_zero_distance_is_one(self):
        v = np.array([1.0, -2.0, 0.5])
        assert rbf_kernel(v, v, 3.7) == 1.0

    def test_closed_form_1d(self):
        assert rbf_kernel([0.0], [2.0], 1.0) == pytest.approx(math.exp(-4.0), abs=1e-12)

    def test_large_sigma_limit(self):
        assert rbf_kernel([0.0], [2.0], 1e12) == pytest.approx(1.0, abs=1e-11)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            k = rbf_kernel(a, b, 2.0)
            assert rbf_kernel(b, a, 2.0) == k
            assert 0.0 < k <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            rbf_kernel([1.0], [1.0, 2.0], 1.0)

    def test_bad_sigma(self):
        with pytest.raises(InvalidInputError):
            rbf_kernel([1.0], [1.0], 0.0)


class TestGram:
    def test_orthonormal_rows_give_identity(self):
        V = np.eye(4)[:3]
        assert np.array_equal(gram(V), np.eye(3))

    def test_duplicate_rows(self):
        V = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
        G = gram(V)
        assert G[0, 0] == G[1, 1] == G[0, 1]

    def test_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(17)
        V = rng.standard_normal((4, 7))
        assert np.allclose(gram(V), oracles.naive_gram(V), rtol=0, atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            gram(np.array([[1.0, np.nan]]))


class TestMedianHeuristic:
    def test_two_rows(self):
        G = gram(np.array([[0.0], [2.0]]))
        assert median_heuristic_sigma(G) == pytest.approx(4.0, abs=1e-12)

    def test_three_equally_spaced(self):
        # pair distances {1, 1, 4}; the median is 1
        G = gram(np.array([[0.0], [1.0], [2.0]]))
        assert median_heuristic_sigma(G) == pytest.approx(1.0, abs=1e-12)

    def test_identical_rows_degenerate(self):
        G = gram(np.ones((3, 2)))
        with pytest.raises(DegenerateDataError):
            median_heuristic_sigma(G)

    def test_zero_median_falls_back_to_mean(self):
        # four coincident rows and one outlier: 6 of 10 pair distances are
        # zero, so the median vanishes while the mean does not
        V = np.vstack([np.zeros((4, 1)), [[2.0]]])
        sigma = median_heuristic_sigma(gram(V))
        assert sigma == pytest.approx(4.0 * 4 / 10, rel=1e-12)


class TestWitnessDirect:
    def test_equal_blocks_vanish(self):
        block = np.array([[1.0, 0.0], [0.0, 2.0]])
        V = np.vstack([block, block, [[0.3, 0.3]]])
        for z in (np.zeros(2), np.array([5.0, -1.0])):
            assert witness_direct(z, V, 2, 2, KernelConfig(1.0)).value == 0.0

    def test_two_point_instance_at_target(self):
        w = witness_direct([2.0], HAND_V, 1, 1, KernelConfig(1.0))
        assert w.value == pytest.approx(math.exp(-4.0) - 1.0, abs=1e-12)
        assert w.source_term == pytest.approx(math.exp(-4.0), abs=1e-12)
        assert w.target_term == pytest.approx(1.0, abs=1e-12)

    def test_equidistant_point_is_zero(self):
        assert witness_direct([1.0], HAND_V, 1, 1, KernelConfig(1.0)).value == 0.0

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidInputError):
            witness_direct([0.0], HAND_V, 0, 2, KernelConfig(1.0))

    def test_median_mode_resolves_from_rows(self):
        # explicit sigma equal to the median of the Gram distances must
        # reproduce the median-heuristic result
        sigma = median_heuristic_sigma(gram(HAND_V))
        by_mode = witness_direct([1.5], HAND_V, 1, 1, KernelConfig(None))
        explicit = witness_direct([1.5], HAND_V, 1, 1, KernelConfig(sigma))
        assert by_mode.value == explicit.value


class TestWitnessFactored:
    def test_r_zero_equals_direct_at_test_row(self):
        fm = hand_instance()
        wf = witness_factored(np.zeros(3), fm.G, 1, 1, KernelConfig(1.0))
        wd = witness_direct(HAND_V[-1], HAND_V, 1, 1, KernelConfig(1.0))
        assert wf.value == pytest.approx(wd.value, abs=1e-14)

    def test_matches_direct_on_seeded_instance(self):
        V, m, n = seeded_instance(5, K=5, D=11)
        G = gram(V)
        kcfg = KernelConfig(median_heuristic_sigma(G))
        r = 0.3 * np.random.default_rng(6).standard_normal(5)
        wf = witness_factored(r, G, m, n, kcfg)
        z = V.T @ (r + np.eye(5)[-1])
        wd = witness_direct(z, V, m, n, kcfg)
        assert wf.value == pytest.approx(wd.value, rel=1e-10)
        assert wf.source_term == pytest.approx(wd.source_term, rel=1e-10)
        assert wf.target_term == pytest.approx(wd.target_term, rel=1e-10)

    def test_identical_blocks_zero_for_all_r(self):
        block = np.array([[1.0, 0.5], [0.2, 2.0]])
        V = np.vstack([block, block, [[0.3, 0.3]]])
        G = gram(V)
        rng = np.random.default_rng(8)
        for _ in range(5):
            w = witness_factored(rng.standard_normal(5), G, 2, 2, KernelConfig(1.0))
            assert w.value == 0.0

    def test_missing_gram_rejected(self):
        with pytest.raises(InvalidInputError, match="[Gg]ram"):
            witness_factored(np.zeros(3), None, 1, 1, KernelConfig(1.0))


class TestWitnessGrad:
    def test_identical_blocks_zero_gradient(self):
        block = np.array([[1.0, 0.5], [0.2, 2.0]])
        V = np.vstack([block, block, [[0.3, 0.3]]])
        g = witness_grad_r(np.array([0.1, -0.2, 0.05, 0.3, 0.0]), gram(V), 2, 2, KernelConfig(1.0))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_matches_finite_differences_seeded(self):
        V, m, n = seeded_instance(5, K=5, D=11)
        G = gram(V)
        kcfg = KernelConfig(median_heuristic_sigma(G))
        r = 0.3 * np.random.default_rng(66).standard_normal(5)
        g = witness_grad_r(r, G, m, n, kcfg)
        fd = finite_difference_gradient(
            lambda rv: witness_factored(rv, G, m, n, kcfg).value, r, 1e-6
        )
        assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-10)) < 1e-5

    def test_hand_derived_value_at_equidistant_point(self):
        # d witness / d r = (d witness / d z) * row values; at the midpoint of
        # the 1-D instance the z-derivative is -4/e, rows are (2, 0, 0.2).
        fm = hand_instance()
        g = witness_grad_r(np.array([0.4, 0.0, 0.0]), fm.G, 1, 1, KernelConfig(1.0))
        expected = np.array([-8.0 / math.e, 0.0, -0.8 / math.e])
        assert np.allclose(g, expected, rtol=1e-12, atol=1e-15)
        # moving against the gradient raises the target coefficient
        assert -g[0] > 0


class TestBudget:
    def test_zero(self):
        G = np.eye(3)
        assert budget(np.zeros(3), G) == 0.0
        assert np.array_equal(budget_grad(np.zeros(3), G), np.zeros(3))

    def test_euclidean_case(self):
        G = np.eye(4)
        r = np.array([3.0, 4.0, 0.0, 0.0])
        assert budget(r, G) == 25.0
        assert np.array_equal(budget_grad(r, G), np.array([6.0, 8.0, 0.0, 0.0]))

    def test_matches_direct_norm(self):
        V, m, n = seeded_instance(9, K=6, D=13)
        G = gram(V)
        r = np.random.default_rng(10).standard_normal(6)
        assert budget(r, G) == pytest.approx(float(np.sum((V.T @ r) ** 2)), rel=1e-10)

    def test_grad_matches_finite_differences(self):
        V, _, _ = seeded_instance(9, K=6, D=13)
        G = gram(V)
        r = np.random.default_rng(11).standard_normal(6)
        fd = finite_difference_gradient(lambda rv: budget(rv, G), r, 1e-6)
        assert np.max(np.abs(budget_grad(r, G) - fd)) < 1e-5


class TestProperties:
    def test_gram_path_equivalence_twenty_instances(self):
        # factored quantities match the direct feature-space computation
        rng = np.random.default_rng(2024)
        for trial in range(20):
            K = int(rng.integers(3, 51))
            D = int(rng.integers(2, 1001))
            m = int(rng.integers(1, K - 1))
            n = K - 1 - m
            V = rng.standard_normal((K, D))
            G = gram(V)
            kcfg = KernelConfig(median_heuristic_sigma(G))
            r = 0.2 * rng.standard_normal(K)
            z = V.T @ (r + np.eye(K)[-1])
            wf = witness_factored(r, G, m, n, kcfg)
            wd = witness_direct(z, V, m, n, kcfg)
            assert wf.value == pytest.approx(wd.value, rel=1e-9, abs=1e-12)
            assert budget(r, G) == pytest.approx(float(np.sum((V.T @ r) ** 2)), rel=1e-9)

    def test_witness_bounds(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            V, m, n = seeded_instance(int(rng.integers(0, 1e6)), K=7, D=5)
            G = gram(V)
            kcfg = KernelConfig(median_heuristic_sigma(G))
            w = witness_factored(0.5 * rng.standard_normal(7), G, m, n, kcfg)
            assert -1.0 <= w.value <= 1.0
            assert 0.0 <= w.source_term <= 1.0
            assert 0.0 <= w.target_term <= 1.0

    def test_swapping_blocks_negates_witness_exactly(self):
        V, m, n = seeded_instance(15, K=8, D=6)
        kcfg = KernelConfig(median_heuristic_sigma(gram(V)))
        rng = np.random.default_rng(4)

        # swap the blocks: targets become sources and vice versa
        order = list(range(n, n + m)) + list(range(n)) + [len(V) - 1]
        V2 = V[order]
        for _ in range(5):
            z = V[-1] + 0.2 * rng.standard_normal(6)
            w = witness_direct(z, V, m, n, kcfg)
            w2 = witness_direct(z, V2, n, m, kcfg)
            assert w2.value == -w.value  # exact: same per-row kernels, means swapped
            assert w2.source_term == w.target_term
            assert w2.target_term == w.source_term

    def test_swapping_blocks_negates_factored_witness(self):
        # The Gram path reorders float sums under the permutation, so the
        # negation there holds to rounding rather than bitwise.
        V, m, n = seeded_instance(15, K=8, D=6)
        G = gram(V)
        kcfg = KernelConfig(median_heuristic_sigma(G))
        r = 0.1 * np.random.default_rng(4).standard_normal(8)
        order = list(range(n, n + m)) + list(range(n)) + [len(V) - 1]
        w = witness_factored(r, G, m, n, kcfg)
        w2 = witness_factored(r[order], gram(V[order]), n, m, kcfg)
        assert w2.value == pytest.approx(-w.value, rel=1e-12, abs=1e-15)


class TestFeatureMatrix:
    def test_block_arithmetic_enforced(self):
        with pytest.raises(InvalidInputError):
            FeatureMatrix(np.zeros((4, 2)), 2, 2)

    def test_empty_blocks_rejected(self):
        with pytest.raises(InvalidInputError):
            FeatureMatrix(np.zeros((2, 2)), 0, 1)

    def test_gram_symmetry_validated(self):
        V = np.random.default_rng(1).standard_normal((4, 3))
        G = gram(V)
        G_bad = G.copy()
        G_bad[0, 1] += 1.0
        with pytest.raises(InvalidInputError):
            FeatureMatrix(V, 2, 1, G_bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gram_rejected(self, value):
        V = np.random.default_rng(1).standard_normal((4, 3))
        G = gram(V)
        G[1, 1] = value
        with pytest.raises(InvalidInputError, match="finite"):
            FeatureMatrix(V, 2, 1, G)

    def test_gram_psd_on_desk_scale(self):
        V, m, n = seeded_instance(3, K=12, D=9)
        fm = FeatureMatrix(V, m, n).with_gram()
        eig = np.linalg.eigvalsh(fm.G)
        assert eig.min() >= -1e-6 * np.trace(fm.G) / fm.K

    def test_row_slices(self):
        V, m, n = seeded_instance(3, K=9, D=4)
        fm = FeatureMatrix(V, m, n)
        assert fm.target_rows == slice(0, n)
        assert fm.source_rows == slice(n, n + m)
        assert fm.test_row == 8
