"""Differentiable convolutional feature extractor.

A small layered network - 3x3 stride-1 zero-padded convolutions, ReLU,
and 2x2 stride-2 max pooling - maps a pixel image to the concatenation
of selected post-activation layer outputs ("taps"). forward() runs it
once and returns the features with their exact vector-Jacobian product,
which drives pixel-space reconstruction: ReLU gates the backward signal
by the forward sign, max pooling routes it to the argmax element (ties
broken toward the smallest row-major window offset).

Images are (height, width, channels) arrays with values in [0, 1].
Internally activations use channel-first layout, and tap outputs are
flattened in (channel, row, column) order.

The arrays are small, so array copies and numpy call overhead, not
arithmetic, set the cost. A convolution is one GEMM over im2col columns
(Chellapilla, Puri & Simard 2006): the (cout, cin*9) kernel matrix times
the padded input's 3x3 windows gathered into (cin*9, h*w) rows gives the
channel-first output with no transpose; the VJP runs the same code with
the flipped kernel. Max pooling takes two np.maximum passes over
strided views of the 2x2 windows, columns then rows, and keeps nothing
else: the VJP works out the two window comparisons from the stored pool
input, so forward-only passes build no masks.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import FormatError, InvalidInputError

# Tap index that selects the raw input instead of a layer output.
INPUT_TAP = -1

_KSIZE = 3  # convolution kernel side; padding 1 keeps spatial dims


@dataclass(frozen=True)
class Conv:
    out_channels: int


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class MaxPool:
    pass


Layer = Union[Conv, Relu, MaxPool]


@dataclass(frozen=True)
class ImageTensor:
    """Immutable (H, W, C) pixel array with finite values in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels, dtype=float)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise InvalidInputError(
                f"pixels must be a (height, width, channels) array, got shape {arr.shape}"
            )
        # min and max propagate NaN, so one of the tests fails on NaN and on inf.
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError("pixel values must be finite")
            raise InvalidInputError("pixel values must lie in [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class ExtractorSpec:
    """Network architecture plus the set of tapped layer outputs.

    input_shape is (height, width, channels). taps are layer indices
    whose post-activation outputs are flattened and concatenated, in
    ascending index order; INPUT_TAP (-1) taps the raw input, which is
    how the identity extractor is expressed (no layers, single input
    tap).
    """

    input_shape: tuple[int, int, int]
    layers: tuple[Layer, ...] = ()
    taps: tuple[int, ...] = (INPUT_TAP,)

    def __post_init__(self) -> None:
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise InvalidInputError(f"input shape must be 3 positive sizes, got {self.input_shape}")
        object.__setattr__(self, "layers", tuple(self.layers))
        taps = tuple(sorted(set(int(t) for t in self.taps)))
        if not taps:
            raise InvalidInputError("at least one tap is required")
        for t in taps:
            if t != INPUT_TAP and not 0 <= t < len(self.layers):
                raise InvalidInputError(f"tap index {t} is not a valid layer index")
        object.__setattr__(self, "taps", taps)
        self.layer_shapes()  # validates positive spatial dims throughout

    def layer_shapes(self) -> list[tuple[int, int, int]]:
        """(channels, height, width) of every layer output, input first."""
        h, w, c = self.input_shape
        shapes = [(c, h, w)]
        for i, layer in enumerate(self.layers):
            c, h, w = shapes[-1]
            if isinstance(layer, Conv):
                if layer.out_channels < 1:
                    raise InvalidInputError(f"layer {i}: out_channels must be positive")
                c = layer.out_channels
            elif isinstance(layer, MaxPool):
                h, w = h // 2, w // 2
                if h < 1 or w < 1:
                    raise InvalidInputError(
                        f"layer {i}: pooling shrinks spatial dims to zero"
                    )
            shapes.append((c, h, w))
        return shapes

    def feature_dim(self) -> int:
        shapes = self.layer_shapes()
        return sum(int(np.prod(shapes[t + 1])) for t in self.taps)


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Per-conv-layer 32-bit kernels and biases, tied to the layer skeleton they serve.

    Each kernel takes the channels the previous conv gives. The kernels
    and biases are read-only copies, so the float64 forms the
    convolutions use, computed once here, always match them.
    """

    layers: tuple[Layer, ...]
    taps: tuple[int, ...]
    kernels: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    # Per conv layer: the kernel as a (cout, cin*9) float64 matrix, the
    # same for the spatially flipped, channel-swapped kernel that pulls
    # gradients back through it, and the float64 bias.
    _mats: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _flipped_mats: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _biases64: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        convs = [l for l in self.layers if isinstance(l, Conv)]
        if len(convs) != len(self.kernels) or len(convs) != len(self.biases):
            raise InvalidInputError("one kernel and bias per conv layer required")
        for i, (conv, k, b) in enumerate(zip(convs, self.kernels, self.biases)):
            if k.ndim != 4 or k.shape[0] != conv.out_channels or k.shape[2:] != (_KSIZE, _KSIZE):
                raise InvalidInputError(f"kernel shape {k.shape} inconsistent with {conv}")
            if i > 0 and k.shape[1] != convs[i - 1].out_channels:
                raise InvalidInputError(
                    f"kernel {i} takes {k.shape[1]} input channels, but conv {i - 1} "
                    f"gives {convs[i - 1].out_channels}"
                )
            if b.shape != (conv.out_channels,):
                raise InvalidInputError(f"bias shape {b.shape} inconsistent with {conv}")
            if not (np.all(np.isfinite(k)) and np.all(np.isfinite(b))):
                raise InvalidInputError("weights must be finite")
        kernels = tuple(_read_only(np.array(k)) for k in self.kernels)
        biases = tuple(_read_only(np.array(b)) for b in self.biases)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "_mats", tuple(_kernel_matrix(k) for k in kernels))
        # Gradient through a stride-1 pad-1 conv is the same conv with the
        # kernel flipped spatially and its channel axes swapped.
        object.__setattr__(
            self,
            "_flipped_mats",
            tuple(_kernel_matrix(k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)) for k in kernels),
        )
        object.__setattr__(
            self, "_biases64", tuple(_read_only(b.astype(np.float64)) for b in biases)
        )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _kernel_matrix(kernel: np.ndarray) -> np.ndarray:
    """(cout, cin, 3, 3) kernel -> read-only (cout, cin*9) float64 matrix."""
    return _read_only(kernel.reshape(kernel.shape[0], -1).astype(np.float64))


def reference_spec() -> ExtractorSpec:
    """The built-in desk-scale extractor: 32x32 grayscale, two tapped ReLU stages."""
    return ExtractorSpec(
        input_shape=(32, 32, 1),
        layers=(Conv(8), Relu(), MaxPool(), Conv(16), Relu(), MaxPool(), Conv(32), Relu()),
        taps=(4, 7),
    )


def identity_spec(height: int, width: int, channels: int = 1) -> ExtractorSpec:
    """Extractor whose feature vector is the flattened input itself."""
    return ExtractorSpec(input_shape=(height, width, channels))


def init_weights(spec: ExtractorSpec, seed: int) -> WeightSet:
    """Draw He-scaled weights from numpy's seeded PCG64 generator.

    Kernels are drawn layer by layer in network order as standard
    normals scaled by sqrt(2 / fan_in) and stored as float32; biases
    are zero. The same (spec, seed) pair always yields bit-identical
    weights.
    """
    rng = np.random.default_rng(seed)
    kernels = []
    biases = []
    for layer, (in_ch, _, _) in zip(spec.layers, spec.layer_shapes()):
        if isinstance(layer, Conv):
            fan_in = in_ch * _KSIZE * _KSIZE
            scale = np.sqrt(2.0 / fan_in)
            k = rng.standard_normal((layer.out_channels, in_ch, _KSIZE, _KSIZE)) * scale
            kernels.append(k.astype(np.float32))
            biases.append(np.zeros(layer.out_channels, dtype=np.float32))
    return WeightSet(spec.layers, spec.taps, tuple(kernels), tuple(biases))


def _check_compatible(spec: ExtractorSpec, weights: WeightSet) -> None:
    """Layers, taps and the first kernel's input; WeightSet checked the rest of the chain."""
    if weights.layers != spec.layers or weights.taps != spec.taps:
        raise InvalidInputError("weight set was built for a different extractor layout")
    if weights.kernels and weights.kernels[0].shape[1] != spec.input_shape[2]:
        raise InvalidInputError(
            f"kernel 0 expects {weights.kernels[0].shape[1]} input channels, "
            f"got {spec.input_shape[2]}"
        )


def _conv(x: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 convolution of x (cin, h, w) by a (cout, cin*9) kernel matrix.

    One copy reads a strided (cin, 3, 3, h, w) window view into
    (cin*9, h*w) rows; kmat @ rows is the C-contiguous channel-first
    output. Keep that operand order: a GEMM's bits depend on its
    operands' order, shapes and layout, which set how BLAS blocks and
    sums each dot product, and the tests pin kmat @ rows bit for bit to
    a plain im2col that forms the same product.
    """
    cin, h, w = x.shape
    xp = np.zeros((cin, h + 2, w + 2))
    xp[:, 1:-1, 1:-1] = x
    sc, sh, sw = xp.strides
    # The ndarray constructor makes the view; as_strided adds several microseconds per call.
    win = np.ndarray((cin, _KSIZE, _KSIZE, h, w), xp.dtype, xp, 0, (sc, sh, sw, sh, sw))
    return (kmat @ win.reshape(cin * _KSIZE * _KSIZE, h * w)).reshape(kmat.shape[0], h, w)


def _pool_forward(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max pooling of x (c, h, w); an odd last row or column is cropped.

    Two np.maximum passes: the windows' columns, then the two row
    winners. np.maximum returns its second operand on a tie (-0.0 against
    0.0 too), so the earlier element goes second and the result is the
    first maximum in row-major offset order, with its own bits. The VJP
    works out which element that was from x (_pool_backward). Images and
    weights are checked finite, so NaN ordering is not handled.
    """
    h2, w2 = x.shape[1] // 2 * 2, x.shape[2] // 2 * 2
    col_max = np.maximum(x[:, :h2, 1:w2:2], x[:, :h2, 0:w2:2])
    return np.maximum(col_max[:, 1::2], col_max[:, 0::2])


def _pool_backward(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Route each window's gradient to the maximum _pool_forward took from the pool input x.

    `>` keeps the earlier element on ties, as the forward pass does;
    every other input gets +0.0.
    """
    c, h, w = x.shape
    h2, w2 = h // 2 * 2, w // 2 * 2
    left, right = x[:, :h2, 0:w2:2], x[:, :h2, 1:w2:2]
    right_wins = right > left
    col_max = np.maximum(right, left)
    bottom_wins = col_max[:, 1::2] > col_max[:, 0::2]
    col = np.empty(right_wins.shape)
    col[:, 0::2] = np.where(bottom_wins, 0.0, g)
    col[:, 1::2] = np.where(bottom_wins, g, 0.0)
    full = np.zeros((c, h, w))
    full[:, :h2, 0:w2:2] = np.where(right_wins, 0.0, col)
    full[:, :h2, 1:w2:2] = np.where(right_wins, col, 0.0)
    return full


def _run_forward(spec: ExtractorSpec, weights: WeightSet, image: ImageTensor) -> list[np.ndarray]:
    """Forward pass returning all activations, input first."""
    if (image.height, image.width, image.channels) != spec.input_shape:
        raise InvalidInputError(
            f"image shape {(image.height, image.width, image.channels)} does not match "
            f"extractor input {spec.input_shape}"
        )
    _check_compatible(spec, weights)
    x = np.ascontiguousarray(image.pixels.transpose(2, 0, 1), dtype=np.float64)
    acts = [x]
    ki = 0
    for layer in spec.layers:
        x = acts[-1]
        if isinstance(layer, Conv):
            y = _conv(x, weights._mats[ki])
            y += weights._biases64[ki][:, None, None]
            acts.append(y)
            ki += 1
        elif isinstance(layer, Relu):
            acts.append(np.maximum(x, 0.0))
        else:
            acts.append(_pool_forward(x))
    return acts


@dataclass(frozen=True, eq=False)
class ForwardPass:
    """The result of forward(): activations kept for the pullback.

    features is the concatenated flattened tap outputs, one float64 vector
    of length feature_dim(). vjp(u) is the pixel-space gradient J^T u at
    the same image, shaped like the image, built from the stored
    activations without a second forward pass.
    """

    spec: ExtractorSpec
    weights: WeightSet
    acts: list[np.ndarray]  # every layer output, input first
    features: np.ndarray

    def vjp(self, cotangent) -> np.ndarray:
        spec, acts = self.spec, self.acts
        cot = np.asarray(cotangent, dtype=float).ravel()
        want = self.features.size
        if cot.size != want:
            raise InvalidInputError(f"cotangent has length {cot.size}, expected {want}")

        # The taps ascend, so the walk from the last layer back meets them in
        # reverse order, and each tap's slice is the one at the end of what
        # is left of the cotangent.
        end = cot.size
        g = np.zeros_like(acts[-1])
        ki = len(self.weights.kernels)  # conv layers are met last to first
        for i in range(len(spec.layers) - 1, -1, -1):
            if i in spec.taps:
                tap = acts[i + 1]
                g = g + cot[end - tap.size : end].reshape(tap.shape)
                end -= tap.size
            layer = spec.layers[i]
            if isinstance(layer, Conv):
                ki -= 1
                g = _conv(g, self.weights._flipped_mats[ki])
            elif isinstance(layer, Relu):
                g = g * (acts[i + 1] > 0.0)
            else:
                g = _pool_backward(g, acts[i])
        if INPUT_TAP in spec.taps:
            g = g + cot[:end].reshape(acts[0].shape)
        return np.ascontiguousarray(g.transpose(1, 2, 0))


def forward(spec: ExtractorSpec, weights: WeightSet, image: ImageTensor) -> ForwardPass:
    """Run the extractor once on `image`; see ForwardPass for what it returns."""
    acts = _run_forward(spec, weights, image)
    features = np.concatenate([acts[t + 1].ravel() for t in spec.taps])
    return ForwardPass(spec, weights, acts, features)


# ---------------------------------------------------------------------------
# Weight file format: little-endian binary.
#   magic "DMTW" | u32 version=1 | u32 line_count
#   then line_count structural text lines, each u32 byte length + UTF-8
#   ("conv 16", "relu", "pool", "tap"); a "tap" line follows each tapped
#   layer, and a leading "tap" line marks the raw-input tap. Tap lines are
#   included in line_count so the section has an unambiguous end. Then per
#   conv layer:
#   u32 out | u32 in | u32 kh | u32 kw | f32 kernel (out,in,kh,kw) | f32 bias.
# Non-conv layers occupy no space beyond their text line.
# ---------------------------------------------------------------------------

_MAGIC = b"DMTW"
_VERSION = 1


def _layer_line(layer: Layer) -> str:
    if isinstance(layer, Conv):
        return f"conv {layer.out_channels}"
    if isinstance(layer, Relu):
        return "relu"
    return "pool"


def _is_ascii_int(text: str) -> bool:
    # str.isdigit alone also accepts digits such as "²" that int() rejects, and
    # int() refuses runs of more than 4,300 digits, so a run is bounded at 9.
    return text.isascii() and text.isdigit() and len(text) <= 9


def _parse_layer_line(line: str) -> Layer:
    if line == "relu":
        return Relu()
    if line == "pool":
        return MaxPool()
    parts = line.split()
    if len(parts) == 2 and parts[0] == "conv" and _is_ascii_int(parts[1]):
        return Conv(int(parts[1]))
    raise FormatError(f"bad layer line {line!r}")


def _parse_structure(lines: Iterable[str]) -> tuple[tuple[Layer, ...], tuple[int, ...]]:
    """Layers and sorted tap indices from layer lines, each tapped one followed by "tap"."""
    layers: list[Layer] = []
    taps: set[int] = set()
    for line in lines:
        if line == "tap":
            taps.add(len(layers) - 1)  # -1 before any layer = input tap
        else:
            layers.append(_parse_layer_line(line))
    if not taps:
        raise FormatError("no tap declared")
    return tuple(layers), tuple(sorted(taps))


def save_weights(weights: WeightSet, path) -> None:
    tap_count = len(weights.taps)
    line_count = len(weights.layers) + tap_count
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, line_count))

        def put_line(text: str) -> None:
            data = text.encode("utf-8")
            fh.write(struct.pack("<I", len(data)))
            fh.write(data)

        if INPUT_TAP in weights.taps:
            put_line("tap")
        for i, layer in enumerate(weights.layers):
            put_line(_layer_line(layer))
            if i in weights.taps:
                put_line("tap")
        for kernel, bias in zip(weights.kernels, weights.biases):
            out, cin, kh, kw = kernel.shape
            fh.write(struct.pack("<IIII", out, cin, kh, kw))
            fh.write(np.ascontiguousarray(kernel, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(bias, dtype="<f4").tobytes())


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated file while reading {what}")
    return data


def load_weights(path) -> WeightSet:
    """Read a weight file back; the result is bit-identical to what was saved.

    WeightSet raises InvalidInputError on a broken channel chain or non-finite weights.
    """
    # Read from memory: a corrupt length field then yields a short read
    # instead of making a buffered file read allocate that many bytes.
    with io.BytesIO(Path(path).read_bytes()) as fh:
        if _read_exact(fh, 4, "magic") != _MAGIC:
            raise FormatError("bad magic")
        version, line_count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != _VERSION:
            raise FormatError(f"unsupported version {version}")

        def get_line() -> str:
            (length,) = struct.unpack("<I", _read_exact(fh, 4, "line length"))
            try:
                return _read_exact(fh, length, "line text").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError("layer line is not valid UTF-8") from exc

        layers, taps = _parse_structure(get_line() for _ in range(line_count))

        kernels = []
        biases = []
        for i, layer in enumerate(layers):
            if not isinstance(layer, Conv):
                continue
            out, cin, kh, kw = struct.unpack("<IIII", _read_exact(fh, 16, f"conv header {i}"))
            if (kh, kw) != (_KSIZE, _KSIZE):
                raise FormatError(f"kernel size {kh}x{kw} unsupported (conv layer {i})")
            if out != layer.out_channels:
                raise FormatError(
                    f"conv layer {i}: header says {out} channels, spec line says {layer.out_channels}"
                )
            ksize = out * cin * kh * kw
            kernel = np.frombuffer(
                _read_exact(fh, 4 * ksize, f"kernel data {i}"), dtype="<f4"
            ).reshape(out, cin, kh, kw)
            bias = np.frombuffer(_read_exact(fh, 4 * out, f"bias data {i}"), dtype="<f4")
            kernels.append(kernel.copy())
            biases.append(bias.copy())
        if fh.read(1):
            raise FormatError("trailing bytes after weight data")
    return WeightSet(layers, taps, tuple(kernels), tuple(biases))


def parse_spec_text(text: str) -> ExtractorSpec:
    """Parse the plain-text architecture description.

    First meaningful line is "input H W C"; the rest are layer lines in
    the weight-file vocabulary ("conv N", "relu", "pool"), with a "tap"
    line after each tapped layer (leading "tap" taps the input).
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty extractor spec")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "input" or not all(_is_ascii_int(p) for p in head[1:]):
        raise FormatError(f"bad input line {lines[0]!r} (expected 'input H W C')")
    h, w, c = (int(p) for p in head[1:])
    layers, taps = _parse_structure(lines[1:])
    return ExtractorSpec((h, w, c), layers, taps)

