import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import seeded_instance
from dmtrav.errors import DegenerateDataError, InvalidInputError
from dmtrav.features import ExtractorSpec
from dmtrav.mmd import (
    BLOCK_ROWS,
    PANEL_ROWS,
    FeatureMatrix,
    KernelConfig,
    budget,
    embedded_objective,
    gram,
    median_heuristic_sigma,
    witness_direct,
    witness_factored,
)
from dmtrav.optim import minimize
from dmtrav.traversal import _embedding
from oracles import finite_difference_gradient, rbf_kernel, with_gram

# Rows [target=2, source=0, test=0.2] in 1-D; the hand-checkable instance.
HAND_V = np.array([[2.0], [0.0], [0.2]])


def hand_instance():
    return with_gram(FeatureMatrix(HAND_V, 1, 1))


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


class TestKernelConfig:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("inf"), float("nan")])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(InvalidInputError):
            KernelConfig(sigma)


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

    def test_panels_above_two_agree_with_one_product(self):
        # three panels of 354, 354 and 353 rows
        V = np.random.default_rng(18).standard_normal((2 * PANEL_ROWS + 37, 16))
        G = gram(V)
        assert np.array_equal(G, G.T)
        assert np.max(np.abs(G - np.dot(V, V.T))) <= 1e-14 * np.max(np.abs(G))

    def test_a_row_source_reads_each_row_first_in_its_panel(self):
        V = np.random.default_rng(19).standard_normal((2 * PANEL_ROWS + 37, 3))
        reads = []

        class Rows:
            shape = V.shape

            def read_rows(self, start, out, first):
                reads.append((start, start + len(out), first))
                out[:] = V[start : start + len(out)]

        assert np.array_equal(gram(Rows()), gram(V))
        firsts = [(a, b) for a, b, first in reads if first]
        assert [a for a, _ in firsts] == [0] + [b for _, b in firsts[:-1]]  # ascending, each once
        assert firsts[-1][1] == V.shape[0]
        assert max(b - a for a, b in firsts) - min(b - a for a, b in firsts) <= 1  # no sliver
        for i, (start, stop, first) in enumerate(reads):
            if not first:  # an earlier block, against the latest panel
                panel = max(a for a, _, f in reads[:i] if f)
                assert stop <= panel and stop - start <= BLOCK_ROWS

    @pytest.mark.parametrize("K", [0, 1, PANEL_ROWS, PANEL_ROWS + 1, 2 * PANEL_ROWS + 37])
    def test_each_entry_is_put_once_with_its_panel(self, K):
        V = np.random.default_rng(21).standard_normal((K, 3))
        starts = []  # the first row of each panel, in the order of their first reads
        owner = np.full((K, K), -1)  # the panel read last when each entry was put
        G = np.empty((K, K))

        class Rows:
            shape = V.shape

            def read_rows(self, start, out, first):
                if first:
                    starts.append(start)
                out[:] = V[start : start + len(out)]

        def put(i, j, block):
            assert all(row.flags.c_contiguous for row in block)
            assert (owner[i : i + len(block), j : j + block.shape[1]] == -1).all()  # put once
            owner[i : i + len(block), j : j + block.shape[1]] = len(starts) - 1
            G[i : i + len(block), j : j + block.shape[1]] = block

        assert gram(Rows(), put) is None
        # entry (i, j) belongs to the panel of row max(i, j): all of a panel's
        # blocks arrive after its first read and before the next panel's
        latest = np.maximum.outer(np.arange(K), np.arange(K))
        assert np.array_equal(owner, np.searchsorted(starts, latest, side="right") - 1)
        assert np.array_equal(G, gram(V))


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

    def test_matches_the_dense_formula_bit_for_bit(self):
        V, _, _ = seeded_instance(6, K=513, D=9)
        G = gram(V)
        assert median_heuristic_sigma(G) == oracles.dense_median_sigma(G)

    def test_makes_no_k_by_k_temporary(self):
        K = 257
        G = gram(np.random.default_rng(20).standard_normal((K, 5)))
        median_heuristic_sigma(G)  # the first call loads numpy code that tracemalloc would count
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            median_heuristic_sigma(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the one vector of K(K-1)/2 distances, and 64 KiB for rows and scalars
        assert peak <= 8 * K * (K - 1) // 2 + 64 * 2**10


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


def witness_grad(a, X, m, n, sigma):
    """The traversal solver's gradient at lambda = 0: the witness term alone."""
    _, grad = embedded_objective(X, m, n, sigma, 0.0)(a)
    return grad()


class TestWitnessGrad:
    def test_identical_blocks_zero_gradient(self):
        # the feature rows themselves are an exact embedding: V V' = G
        block = np.array([[1.0, 0.5], [0.2, 2.0]])
        V = np.vstack([block, block, [[0.3, 0.3]]])
        g = witness_grad(np.array([0.1, -0.2]), V, 2, 2, 1.0)
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_matches_finite_differences_seeded(self):
        # against the Gram-form witness at the r the embedding maps a to
        V, m, n = seeded_instance(5, K=5, D=11)
        G = gram(V)
        kcfg = KernelConfig(median_heuristic_sigma(G))
        X, to_r = _embedding(G)
        a = 0.3 * np.random.default_rng(66).standard_normal(X.shape[1])
        g = witness_grad(a, X, m, n, kcfg.sigma)
        fd = finite_difference_gradient(
            lambda av: witness_factored(to_r(av), G, m, n, kcfg).value, a, 1e-6
        )
        assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-10)) < 1e-5

    def test_hand_derived_value_at_equidistant_point(self):
        # d witness / d r = (d witness / d z) * row values; at the midpoint
        # z = 1 of the 1-D instance (a = 0.8 from the test row 0.2, which
        # is r = (0.4, 0, 0)) the z-derivative is -4/e, rows are (2, 0, 0.2).
        g = witness_grad(np.array([0.8]), HAND_V, 1, 1, 1.0)
        assert np.allclose(g, [-4.0 / math.e], rtol=1e-12, atol=1e-15)
        g_r = HAND_V @ g
        expected = np.array([-8.0 / math.e, 0.0, -0.8 / math.e])
        assert np.allclose(g_r, expected, rtol=1e-12, atol=1e-15)
        # moving against the gradient raises the target coefficient
        assert -g_r[0] > 0


class TestBudget:
    def test_zero(self):
        G = np.eye(3)
        assert budget(np.zeros(3), G) == 0.0
        assert np.array_equal(oracles.budget_grad(np.zeros(3), G), np.zeros(3))

    def test_euclidean_case(self):
        G = np.eye(4)
        r = np.array([3.0, 4.0, 0.0, 0.0])
        assert budget(r, G) == 25.0
        assert np.array_equal(oracles.budget_grad(r, G), np.array([6.0, 8.0, 0.0, 0.0]))

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
        assert np.max(np.abs(oracles.budget_grad(r, G) - fd)) < 1e-5


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

    def test_symmetry_checked_in_the_last_partial_block(self):
        # K = 513 is eight full blocks of the row-block check and one row
        V, m, n = seeded_instance(5, K=513, D=4)
        G = gram(V)
        G[512, 3] += 1e-6 * np.abs(G).max()
        with pytest.raises(InvalidInputError, match="not symmetric"):
            FeatureMatrix(V, m, n, G)

    def test_symmetry_check_makes_no_k_by_k_temporary(self):
        V, m, n = seeded_instance(5, K=513, D=4)
        G = gram(V)
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            FeatureMatrix(V, m, n, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= G.nbytes / 2

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gram_rejected(self, value):
        V = np.random.default_rng(1).standard_normal((4, 3))
        G = gram(V)
        G[1, 1] = value
        with pytest.raises(InvalidInputError, match="finite"):
            FeatureMatrix(V, 2, 1, G)

    def test_gram_psd_on_desk_scale(self):
        V, m, n = seeded_instance(3, K=12, D=9)
        fm = with_gram(FeatureMatrix(V, m, n))
        eig = np.linalg.eigvalsh(fm.G)
        assert eig.min() >= -1e-6 * np.trace(fm.G) / fm.K

    def test_row_slices(self):
        V, m, n = seeded_instance(3, K=9, D=4)
        fm = FeatureMatrix(V, m, n)
        assert fm.test_row == 8


_V5 = seeded_instance(7, K=5, D=3)[0]  # rows of an m = n = 2 instance
_G5 = gram(_V5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FeatureMatrix(np.zeros(5), 2, 2), "V must be a 2-D matrix"),
        (lambda: FeatureMatrix(np.full((5, 3), np.nan), 2, 2), "V must contain only finite"),
        (lambda: FeatureMatrix(_V5, 2, 2, np.eye(4)), "Gram shape (4, 4) does not match"),
        (lambda: witness_direct(np.zeros(3), np.zeros((4, 3)), 2, 2, KernelConfig(1.0)),
         "V must have m + n + 1 rows"),
        (lambda: witness_direct(np.zeros(2), _V5, 2, 2, KernelConfig(1.0)),
         "z has length 2, expected 3"),
        (lambda: witness_factored(np.zeros(5), _G5, 0, 4, KernelConfig(1.0)),
         "both source and target blocks must be non-empty"),
        (lambda: witness_factored(np.zeros(5), _G5, 1, 1, KernelConfig(1.0)),
         "G must have m + n + 1 rows"),
        (lambda: witness_factored(np.zeros(4), _G5, 2, 2, KernelConfig(1.0)),
         "r has length 4, expected 5"),
        (lambda: budget(np.zeros(4), _G5), "r has length 4, expected 5"),
        (lambda: median_heuristic_sigma(np.eye(1)), "G must have K >= 2 rows"),
    ],
    ids=[
        "matrix-1d", "matrix-nan", "matrix-gram-shape", "direct-rows", "direct-z",
        "factored-blocks", "factored-rows", "factored-r", "budget-r", "sigma-k1",
    ],
)
def test_checks_raise_package_errors(call, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: median_heuristic_sigma(5.0),
        lambda: witness_factored(np.zeros(3), 5.0, 1, 1, KernelConfig(1.0)),
        lambda: budget(np.zeros(3), 5.0),
        lambda: budget(np.zeros(3), np.zeros(3)),
        lambda: gram(np.zeros(3)),
        lambda: ExtractorSpec((4, 4), ()),
        lambda: minimize(lambda x: (0.0, lambda: np.zeros(1)), [1.0], bounds=(0, 1, 2)),
    ],
    ids=["sigma-scalar", "factored-scalar-g", "budget-scalar-g", "budget-1d-g", "gram-1d",
         "spec-2-tuple", "bounds-triple"],
)
def test_malformed_shapes_raise_invalid_input(call):
    # Each of these once escaped as IndexError or ValueError, or returned a scalar.
    with pytest.raises(InvalidInputError):
        call()
