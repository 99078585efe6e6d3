import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import dmtrav.features as features_mod
import oracles
from dmtrav.errors import FormatError, InvalidInputError
from dmtrav.features import (
    INPUT_TAP,
    Conv,
    ExtractorSpec,
    ImageTensor,
    MaxPool,
    Relu,
    forward,
    identity_spec,
    init_weights,
    load_weights,
    parse_spec_text,
    reference_spec,
    save_weights,
)
from oracles import finite_difference_gradient, weights_equal


def random_image(seed, shape=(32, 32, 1), lo=0.05, hi=0.95):
    rng = np.random.default_rng(seed)
    return ImageTensor(rng.uniform(lo, hi, shape))


class TestImageTensor:
    def test_range_enforced(self):
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 1\]"):
            ImageTensor(np.full((2, 2, 1), 1.5))
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 1\]"):
            ImageTensor(np.full((2, 2, 1), -0.1))

    def test_nonfinite_rejected(self):
        for value in (np.nan, np.inf, -np.inf):
            # alone, and among in-range pixels on either side of the range
            for pixels in ([value], [0.5, value], [value, -0.1], [2.0, value]):
                with pytest.raises(InvalidInputError, match="must be finite"):
                    ImageTensor(np.array(pixels).reshape(1, -1, 1))

    def test_immutable(self):
        img = random_image(0)
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 0.5


class TestSpec:
    def test_reference_dimension(self):
        assert reference_spec().feature_dim() == 16 * 16 * 16 + 8 * 8 * 32

    def test_identity_dimension(self):
        assert identity_spec(5, 7, 3).feature_dim() == 105

    def test_tap_validation(self):
        with pytest.raises(InvalidInputError):
            ExtractorSpec((4, 4, 1), (Conv(2),), taps=(5,))
        with pytest.raises(InvalidInputError):
            ExtractorSpec((4, 4, 1), (Conv(2),), taps=())

    def test_pooling_to_zero_rejected(self):
        layers = (MaxPool(), MaxPool())
        with pytest.raises(InvalidInputError):
            ExtractorSpec((2, 2, 1), layers, taps=(1,))

    def test_spec_text_round_trip(self):
        text = "input 32 32 1\nconv 8\nrelu\npool\nconv 16\nrelu\ntap\npool\nconv 32\nrelu\ntap\n"
        assert parse_spec_text(text) == reference_spec()

    def test_spec_text_errors(self):
        with pytest.raises(FormatError):
            parse_spec_text("conv 8\n")
        with pytest.raises(FormatError):
            parse_spec_text("input 8 8 1\nconv 8\n")  # no tap

    def test_spec_text_non_ascii_digit(self):
        with pytest.raises(FormatError, match="bad input line"):
            parse_spec_text("input \u00b2 32 1\nconv 8\ntap\n")


class TestExtract:
    def test_identity_returns_flattened_input(self):
        spec = identity_spec(4, 5, 1)
        weights = init_weights(spec, 0)
        img = random_image(1, (4, 5, 1))
        feats = forward(spec, weights, img).features
        assert np.array_equal(feats, img.pixels[:, :, 0].ravel())

    def test_zero_weights_give_zero_features(self):
        spec = ExtractorSpec((8, 8, 1), (Conv(4), Relu()), taps=(1,))
        w = init_weights(spec, 0)
        zero = type(w)(
            w.layers,
            w.taps,
            tuple(np.zeros_like(k) for k in w.kernels),
            tuple(np.zeros_like(b) for b in w.biases),
        )
        feats = forward(spec, zero, random_image(2, (8, 8, 1))).features
        assert np.array_equal(feats, np.zeros(spec.feature_dim()))

    def test_weights_frozen_at_construction(self):
        spec = ExtractorSpec((8, 8, 1), (Conv(4), Relu()), taps=(1,))
        w = init_weights(spec, 0)
        kernel, bias = w.kernels[0].copy(), w.biases[0].copy()
        held = type(w)(w.layers, w.taps, (kernel,), (bias,))
        img = random_image(6, (8, 8, 1))
        before = forward(spec, held, img).features
        kernel += 1.0
        bias += 1.0
        assert np.array_equal(forward(spec, held, img).features, before)
        with pytest.raises(ValueError):
            held.kernels[0][0, 0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            held.biases[0][0] = 0.0

    def test_reference_matches_naive_oracle(self, reference):
        spec, weights = reference
        img = random_image(42)
        fast = forward(spec, weights, img).features
        slow = oracles.naive_extract(spec, weights, np.asarray(img.pixels))
        assert fast.shape == (6144,)
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_forward_deterministic(self, reference):
        spec, weights = reference
        img = random_image(3)
        a = forward(spec, weights, img).features
        b = forward(spec, weights, img).features
        assert np.array_equal(a, b)

    def test_relu_taps_nonnegative(self, reference):
        spec, weights = reference
        feats = forward(spec, weights, random_image(4)).features
        assert feats.min() >= 0.0

    def test_shape_mismatch_rejected(self, reference):
        spec, weights = reference
        with pytest.raises(InvalidInputError):
            forward(spec, weights, random_image(5, (16, 16, 1)))


class TestVjp:
    def test_identity_vjp_is_reshaped_cotangent(self):
        spec = identity_spec(3, 4, 2)
        weights = init_weights(spec, 0)
        img = random_image(6, (3, 4, 2))
        u = np.arange(24, dtype=float)
        g = forward(spec, weights, img).vjp(u)
        expected = u.reshape(2, 3, 4).transpose(1, 2, 0)
        assert np.array_equal(g, expected)

    def test_zero_cotangent_zero_gradient(self, reference):
        spec, weights = reference
        g = forward(spec, weights, random_image(7)).vjp(np.zeros(6144))
        assert np.array_equal(g, np.zeros((32, 32, 1)))

    def test_matches_finite_differences(self, reference):
        # Image seed frozen at 71: the finite-difference oracle needs an
        # instance where no +-h perturbation crosses a ReLU or pooling kink.
        spec, weights = reference
        img = ImageTensor(np.random.default_rng(71).uniform(0.05, 0.95, (32, 32, 1)))
        u = np.random.default_rng(7).standard_normal(6144)
        g = forward(spec, weights, img).vjp(u).ravel()

        def scalar(flat):
            return float(u @ forward(spec, weights, ImageTensor(flat.reshape(32, 32, 1))).features)

        fd = finite_difference_gradient(scalar, img.pixels.ravel(), 1e-4)
        mask = np.abs(fd) > 1e-8
        rel = np.abs(g[mask] - fd[mask]) / np.abs(fd[mask])
        assert rel.max() < 1e-4

    def test_linearity_in_cotangent(self, reference):
        spec, weights = reference
        rng = np.random.default_rng(8)
        img = random_image(8)
        u, v = rng.standard_normal(6144), rng.standard_normal(6144)
        a, b = 2.5, -1.25
        fp = forward(spec, weights, img)
        lhs = fp.vjp(a * u + b * v)
        rhs = a * fp.vjp(u) + b * fp.vjp(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_vjp_runs_no_second_forward_pass(self, reference, monkeypatch):
        spec, weights = reference
        calls = []
        run_forward = features_mod._run_forward

        def counted(*args):
            calls.append(args)
            return run_forward(*args)

        monkeypatch.setattr(features_mod, "_run_forward", counted)
        fp = forward(spec, weights, random_image(10))
        assert len(calls) == 1
        u = np.random.default_rng(10).standard_normal(spec.feature_dim())
        g = fp.vjp(u)
        fp.vjp(2.0 * u)
        assert len(calls) == 1
        assert g.shape == (32, 32, 1)

    @pytest.mark.parametrize("case", ["conv1", "conv2", "conv3", "odd"])
    def test_flipped_kernel_is_the_exact_adjoint(self, reference, case):
        # <conv(x, K), g> = <x, conv(g, K_flipped)> holds in exact arithmetic
        # for any GEMM operand order, so it pins the flipped kernels without
        # depending on BLAS summation order. The tolerance is relative to
        # <|conv(x, K)|, |g|>, the scale of the rounding error, which a sum
        # with cancellation can leave far above |<conv(x, K), g>|.
        if case == "odd":
            spec = ExtractorSpec((5, 7, 3), (Conv(5),), taps=(0,))
            weights, ki, (h, w) = init_weights(spec, 76), 0, (5, 7)
        else:
            weights = reference[1]
            ki = int(case[-1]) - 1
            h = w = 32 >> ki
        kmat, flipped = weights._mats[ki], weights._flipped_mats[ki]
        cout, cin = kmat.shape[0], kmat.shape[1] // 9
        rng = np.random.default_rng(77 + ki)
        x = rng.standard_normal((cin, h, w))
        g = rng.standard_normal((cout, h, w))
        y = features_mod._conv(x, kmat)
        assert y.shape == (cout, h, w) and y.flags.c_contiguous
        xt = features_mod._conv(g, flipped)
        assert xt.shape == (cin, h, w) and xt.flags.c_contiguous
        lhs, rhs = np.vdot(y, g), np.vdot(x, xt)
        assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(y), np.abs(g))

    def test_cotangent_length_checked(self, reference):
        spec, weights = reference
        with pytest.raises(InvalidInputError):
            forward(spec, weights, random_image(9)).vjp(np.zeros(10))

    def test_odd_dimensions_pool_crops_and_vjp_agrees(self):
        # 5x5 input: pooling drops the last row/column, whose gradient is zero
        spec = ExtractorSpec((5, 5, 1), (Conv(2), Relu(), MaxPool()), taps=(2,))
        weights = init_weights(spec, 11)
        rng = np.random.default_rng(12)
        img = ImageTensor(rng.uniform(0.2, 0.8, (5, 5, 1)))
        feats = forward(spec, weights, img).features
        assert feats.size == 2 * 2 * 2
        u = rng.standard_normal(feats.size)
        g = forward(spec, weights, img).vjp(u).ravel()

        def scalar(flat):
            return float(u @ forward(spec, weights, ImageTensor(flat.reshape(5, 5, 1))).features)

        fd = finite_difference_gradient(scalar, img.pixels.ravel(), 1e-5)
        mask = np.abs(fd) > 1e-8
        assert np.max(np.abs(g[mask] - fd[mask]) / np.abs(fd[mask])) < 1e-4

    def test_color_convolution_matches_naive_oracle(self):
        spec = ExtractorSpec((6, 6, 3), (Conv(4), Relu(), MaxPool(), Conv(5), Relu()), taps=(1, 4))
        weights = init_weights(spec, 13)
        img = random_image(14, (6, 6, 3))
        fast = forward(spec, weights, img).features
        slow = oracles.naive_extract(spec, weights, np.asarray(img.pixels))
        assert fast.size == 4 * 6 * 6 + 5 * 3 * 3
        assert np.max(np.abs(fast - slow)) < 1e-10


class TestInitWeights:
    def test_same_seed_bit_identical(self, reference):
        spec, _ = reference
        assert weights_equal(init_weights(spec, 42), init_weights(spec, 42))

    def test_different_seeds_differ(self, reference):
        spec, _ = reference
        a, b = init_weights(spec, 1), init_weights(spec, 2)
        assert not weights_equal(a, b)

    def test_he_scale_matches_documented_generator(self):
        # the oracle is the documented recipe itself: seeded PCG64 normals
        # scaled by sqrt(2 / fan_in), float32
        spec = ExtractorSpec((8, 8, 1), (Conv(4), Relu()), taps=(1,))
        w = init_weights(spec, 123)
        rng = np.random.default_rng(123)
        expected = (rng.standard_normal((4, 1, 3, 3)) * np.sqrt(2.0 / 9.0)).astype(np.float32)
        assert np.array_equal(w.kernels[0], expected)
        assert np.array_equal(w.biases[0], np.zeros(4, dtype=np.float32))


class TestWeightFile:
    def test_round_trip_bit_exact(self, reference, tmp_path):
        _, weights = reference
        path = tmp_path / "w.dmtw"
        save_weights(weights, path)
        assert weights_equal(load_weights(path), weights)

    def test_input_tap_round_trip(self, tmp_path):
        spec = identity_spec(4, 4, 1)
        w = init_weights(spec, 0)
        path = tmp_path / "ident.dmtw"
        save_weights(w, path)
        loaded = load_weights(path)
        assert loaded.taps == (INPUT_TAP,)
        assert loaded.layers == ()

    def test_truncated_file(self, reference, tmp_path):
        _, weights = reference
        path = tmp_path / "w.dmtw"
        save_weights(weights, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_weights(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dmtw"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="bad magic"):
            load_weights(path)

    def test_bad_version(self, reference, tmp_path):
        _, weights = reference
        path = tmp_path / "w.dmtw"
        save_weights(weights, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_weights(path)

    def test_non_ascii_digit_in_layer_line(self, tmp_path):
        def line(text: str) -> bytes:
            data = text.encode("utf-8")
            return struct.pack("<I", len(data)) + data

        path = tmp_path / "w.dmtw"
        path.write_bytes(b"DMTW" + struct.pack("<II", 1, 2) + line("conv \u00b2") + line("tap"))
        with pytest.raises(FormatError, match="bad layer line"):
            load_weights(path)

    def test_trailing_garbage(self, reference, tmp_path):
        _, weights = reference
        path = tmp_path / "w.dmtw"
        save_weights(weights, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_weights(path)


def bit_equal(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def tied_signed(rng, shape):
    """Half-integer values (many ties) whose zeros carry random signs."""
    x = np.round(2.0 * rng.standard_normal(shape)) / 2.0
    zeros = x == 0.0
    x[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, -0.0, 0.0)
    return x


class TestLayersMatchOracles:
    """The conv and pooling layers reproduce the oracle layers bit for bit.

    The conv oracle forms the same channel-first product, kernel matrix
    times window rows, so one BLAS call shape computes both.
    """

    @pytest.mark.parametrize("ki, side", [(0, 32), (1, 16), (2, 8)], ids=["conv1", "conv2", "conv3"])
    def test_reference_convs_forward_and_flipped(self, reference, ki, side):
        _, weights = reference
        rng = np.random.default_rng(70 + ki)
        for kmat in (weights._mats[ki], weights._flipped_mats[ki]):
            x = rng.standard_normal((kmat.shape[1] // 9, side, side))
            assert bit_equal(features_mod._conv(x, kmat), oracles.im2col_conv(x, kmat))

    def test_non_square_conv(self):
        rng = np.random.default_rng(73)
        x = rng.standard_normal((3, 5, 7))
        kmat = rng.standard_normal((4, 27))
        assert bit_equal(features_mod._conv(x, kmat), oracles.im2col_conv(x, kmat))

    @pytest.mark.parametrize(
        "shape", [(8, 32, 32), (16, 16, 16), (3, 7, 7), (2, 5, 6), (1, 3, 3), (2, 4, 3)]
    )
    def test_pooling_with_ties_and_signed_zeros(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = tied_signed(rng, shape)
        out = features_mod._pool_forward(x)
        ref_out, ref_idx = oracles.argmax_pool_forward(x)
        assert bit_equal(out, ref_out)
        g = tied_signed(rng, out.shape)
        assert bit_equal(
            features_mod._pool_backward(g, x),
            oracles.argmax_pool_backward(g, ref_idx, shape[1:]),
        )

    def test_pooling_ties_take_the_first_offset(self):
        # Four 2x2 windows side by side; -0.0 and 0.0 compare equal.
        x = np.array(
            [[[-0.0, 0.0, 0.0, -0.0, 1.0, 1.0, -1.0, -1.0],
              [0.0, 0.0, -0.0, 0.0, 1.0, 1.0, -0.0, 0.0]]]
        )
        out = features_mod._pool_forward(x)
        assert np.signbit(out).tolist() == [[[True, False, False, True]]]
        g = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        routed = features_mod._pool_backward(g, x)
        ref_out, ref_idx = oracles.argmax_pool_forward(x)
        assert bit_equal(out, ref_out)
        assert bit_equal(routed, oracles.argmax_pool_backward(g, ref_idx, (2, 8)))
        assert routed.tolist() == [
            [[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0],
             [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0, 0.0]]
        ]

    @pytest.mark.parametrize("which", ["reference", "odd"])
    def test_whole_pass_matches_oracle_layers(self, reference, which):
        if which == "reference":
            spec, weights = reference
        else:
            spec = ExtractorSpec(
                (7, 9, 2), (Conv(3), Relu(), MaxPool(), Conv(2), Relu(), MaxPool()), taps=(-1, 2, 5)
            )
            weights = init_weights(spec, 74)
        rng = np.random.default_rng(75)
        img = ImageTensor(rng.uniform(0.0, 1.0, spec.input_shape))
        u = rng.standard_normal(spec.feature_dim())
        fp = forward(spec, weights, img)
        feats, grad = oracles.layered_forward_vjp(spec, weights, np.asarray(img.pixels), u)
        assert bit_equal(fp.features, feats)
        assert bit_equal(fp.vjp(u), grad)


def _broken_chain():
    """Layers (Conv(2), Conv(3)) whose second kernel takes 4 channels, not the 2 it gets."""
    kernels = (np.zeros((2, 1, 3, 3), np.float32), np.zeros((3, 4, 3, 3), np.float32))
    biases = (np.zeros(2, np.float32), np.zeros(3, np.float32))
    return (Conv(2), Conv(3)), (INPUT_TAP,), kernels, biases


def _chain_broken_weight_file(tmp_path):
    # save_weights writes whatever kernels it is handed; a WeightSet would refuse these.
    layers, taps, kernels, biases = _broken_chain()
    path = tmp_path / "broken.dmtw"
    save_weights(SimpleNamespace(layers=layers, taps=taps, kernels=kernels, biases=biases), path)
    return load_weights(path)


def _long_conv_weight_file(tmp_path):
    # A DMTW file whose one structure line is "conv" and 5,000 digits.
    line = b"conv " + b"1" * 5000
    path = tmp_path / "long.dmtw"
    path.write_bytes(b"DMTW" + struct.pack("<III", 1, 1, len(line)) + line)
    return load_weights(path)


def _forward_on_foreign_weights(spec, weights_spec):
    image = ImageTensor(np.zeros(spec.input_shape))
    return forward(spec, init_weights(weights_spec, 0), image)


def _one_conv_weights(kernel_shape=(2, 1, 3, 3), bias_shape=(2,), fill=0.0):
    kernels, biases = (np.full(kernel_shape, fill),), (np.zeros(bias_shape),)
    return features_mod.WeightSet((Conv(2),), (INPUT_TAP,), kernels, biases)


_one_conv = ExtractorSpec((4, 4, 1), (Conv(2),))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: ImageTensor(np.zeros((2, 2))), InvalidInputError, "(height, width, channels)"),
        (lambda tmp: ExtractorSpec((4, 0, 1)), InvalidInputError, "3 positive sizes"),
        (lambda tmp: ExtractorSpec((4, 4, 1), (Conv(0),)), InvalidInputError,
         "layer 0: out_channels must be positive"),
        (lambda tmp: features_mod.WeightSet((Conv(2),), (INPUT_TAP,), (), ()), InvalidInputError,
         "one kernel and bias per conv layer"),
        (lambda tmp: _one_conv_weights(kernel_shape=(3, 1, 3, 3)), InvalidInputError,
         "kernel shape (3, 1, 3, 3) inconsistent with Conv(out_channels=2)"),
        (lambda tmp: _one_conv_weights(bias_shape=(3,)), InvalidInputError,
         "bias shape (3,) inconsistent"),
        (lambda tmp: _one_conv_weights(fill=np.nan), InvalidInputError, "weights must be finite"),
        (lambda tmp: features_mod.WeightSet(*_broken_chain()), InvalidInputError,
         "kernel 1 takes 4 input channels, but conv 0 gives 2"),
        (_chain_broken_weight_file, InvalidInputError,
         "kernel 1 takes 4 input channels, but conv 0 gives 2"),
        (lambda tmp: _forward_on_foreign_weights(_one_conv, ExtractorSpec((4, 4, 1), (Conv(3),))),
         InvalidInputError, "weight set was built for a different extractor layout"),
        (lambda tmp: _forward_on_foreign_weights(ExtractorSpec((4, 4, 3), (Conv(2),)), _one_conv),
         InvalidInputError, "kernel 0 expects 1 input channels, got 3"),
        (lambda tmp: parse_spec_text("input " + "1" * 5000 + " 1 1\ntap"), FormatError,
         "bad input line"),
        (_long_conv_weight_file, FormatError, "bad layer line"),
    ],
    ids=[
        "image-2d", "spec-shape", "conv-out", "weights-count", "weights-kernel",
        "weights-bias", "weights-finite", "weights-chain", "dmtw-chain", "layout", "input-channels",
        "spec-long-digits", "dmtw-long-digits",
    ],
)
def test_checks_raise_package_errors(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
