import numpy as np
import pytest

import oracles
from dmtrav.errors import InvalidInputError
from dmtrav.features import ExtractorSpec, ImageTensor, forward, identity_spec, init_weights
from oracles import finite_difference_gradient
from dmtrav.reconstruct import (
    MID_GRAY,
    ReconstructionConfig,
    invert,
    tv,
    tv_grad,
)


def gray(value, shape=(4, 4, 1)):
    return ImageTensor(np.full(shape, value))


class TestTv:
    def test_constant_image_zero(self):
        assert tv(gray(0.3), 2.0) == 0.0
        assert tv(gray(0.3), 1.5) == 0.0

    def test_hand_evaluated_two_by_two(self):
        img = ImageTensor(np.array([[0.0, 1.0], [0.0, 1.0]])[:, :, None])
        assert tv(img, 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_beta_two_matches_naive_loop(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            arr = rng.uniform(0, 1, (6, 5, 2))
            img = ImageTensor(arr)
            assert tv(img, 2.0) == pytest.approx(oracles.naive_tv(arr, 2.0), rel=1e-12)

    def test_fractional_beta_matches_naive_loop(self):
        rng = np.random.default_rng(51)
        arr = rng.uniform(0, 1, (5, 7, 1))
        assert tv(ImageTensor(arr), 1.5) == pytest.approx(oracles.naive_tv(arr, 1.5), rel=1e-12)

    def test_quadratic_homogeneity_beta_two(self):
        rng = np.random.default_rng(52)
        pattern = rng.uniform(-0.2, 0.2, (6, 6, 1))
        base = tv(ImageTensor(0.5 + pattern), 2.0)
        for c in (0.5, 0.25):
            scaled = tv(ImageTensor(0.5 + c * pattern), 2.0)
            assert scaled == pytest.approx(c * c * base, rel=1e-9)

    def test_beta_validated(self):
        with pytest.raises(InvalidInputError):
            tv(gray(0.5), 0.0)


class TestTvGrad:
    def test_constant_image_zero(self):
        assert np.array_equal(tv_grad(gray(0.7), 2.0), np.zeros((4, 4, 1)))

    def test_matches_finite_differences_beta_two(self):
        rng = np.random.default_rng(53)
        arr = rng.uniform(0.1, 0.9, (8, 8, 1))
        g = tv_grad(ImageTensor(arr), 2.0).ravel()
        fd = finite_difference_gradient(
            lambda flat: oracles.naive_tv(flat.reshape(8, 8, 1), 2.0), arr.ravel(), 1e-6
        )
        mask = np.abs(fd) > 1e-10
        assert np.max(np.abs(g[mask] - fd[mask]) / np.abs(fd[mask])) < 1e-5

    def test_matches_finite_differences_beta_fractional(self):
        rng = np.random.default_rng(54)
        arr = rng.uniform(0.1, 0.9, (6, 6, 1))
        g = tv_grad(ImageTensor(arr), 1.5).ravel()
        fd = finite_difference_gradient(
            lambda flat: oracles.naive_tv(flat.reshape(6, 6, 1), 1.5), arr.ravel(), 1e-6
        )
        # random continuous values have no zero differences, so the power
        # term is smooth at every pixel
        mask = np.abs(fd) > 1e-10
        assert np.max(np.abs(g[mask] - fd[mask]) / np.abs(fd[mask])) < 1e-5


class TestInvert:
    def test_identity_recovers_exactly(self):
        spec = identity_spec(6, 6, 1)
        weights = init_weights(spec, 0)
        rng = np.random.default_rng(55)
        x_star = rng.uniform(0.05, 0.95, (6, 6, 1))
        res = invert(spec, weights, x_star.ravel(), ReconstructionConfig(lambda_tv=0.0))
        assert np.max(np.abs(res.image.pixels - x_star)) < 1e-6
        assert res.final_feature_loss < 1e-12

    def test_init_at_optimum_is_stationary(self, reference):
        spec, weights = reference
        rng = np.random.default_rng(56)
        x0 = ImageTensor(rng.uniform(0.2, 0.8, (32, 32, 1)))
        z = forward(spec, weights, x0).features
        res = invert(spec, weights, z, ReconstructionConfig(lambda_tv=0.0, init=x0))
        assert res.final_feature_loss < 1e-10
        assert res.trace.iterations == 0
        assert np.array_equal(res.image.pixels, x0.pixels)

    def test_midgray_inversion_reaches_one_percent(self, reference):
        spec, weights = reference
        rng = np.random.default_rng(57)
        x0 = ImageTensor(rng.uniform(0.2, 0.8, (32, 32, 1)))
        z = forward(spec, weights, x0).features
        res = invert(spec, weights, z, ReconstructionConfig(lambda_tv=0.001))
        assert res.final_feature_loss <= 0.01 * 0.5 * float(z @ z)
        vals = res.trace.objective_values
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_bounds_respected_exactly(self):
        spec = identity_spec(4, 4, 1)
        weights = init_weights(spec, 0)
        # target far outside the box forces every pixel onto the bound
        z = np.full(16, 3.0)
        res = invert(spec, weights, z, ReconstructionConfig(lambda_tv=0.0))
        assert np.all(res.image.pixels <= 1.0)
        assert np.max(res.image.pixels) == 1.0

    def test_full_gradient_assembly_matches_fd(self):
        # small extractor so the finite-difference sweep stays cheap
        from dmtrav.features import Conv, MaxPool, Relu

        spec = ExtractorSpec((8, 8, 1), (Conv(3), Relu(), MaxPool(), Conv(4), Relu()), taps=(4,))
        weights = init_weights(spec, 5)
        rng = np.random.default_rng(58)
        x = rng.uniform(0.15, 0.85, (8, 8, 1))
        z = forward(spec, weights, ImageTensor(rng.uniform(0.2, 0.8, (8, 8, 1)))).features
        lam_tv, beta = 0.001, 2.0

        def objective(flat):
            img = ImageTensor(flat.reshape(8, 8, 1))
            resid = forward(spec, weights, img).features - z
            return 0.5 * float(resid @ resid) + lam_tv * oracles.naive_tv(img.pixels, beta)

        from dmtrav.reconstruct import _tv_grad_array

        fp = forward(spec, weights, ImageTensor(x))
        resid = fp.features - z
        g = (fp.vjp(resid) + lam_tv * _tv_grad_array(x, beta)).ravel()
        fd = finite_difference_gradient(objective, x.ravel(), 1e-5)
        mask = np.abs(fd) > 1e-8
        assert np.max(np.abs(g[mask] - fd[mask]) / np.abs(fd[mask])) < 1e-4

    def test_dimension_mismatch_rejected(self, reference):
        spec, weights = reference
        with pytest.raises(InvalidInputError):
            invert(spec, weights, np.zeros(100))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            ReconstructionConfig(lambda_tv=-1.0)
        with pytest.raises(InvalidInputError):
            ReconstructionConfig(beta=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                ReconstructionConfig(lambda_tv=bad)
            with pytest.raises(InvalidInputError):
                ReconstructionConfig(beta=bad)
        with pytest.raises(InvalidInputError):
            ReconstructionConfig(init="noise")

    def test_mid_gray_default(self):
        assert ReconstructionConfig().init == MID_GRAY
