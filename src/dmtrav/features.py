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

The arrays are small, so numpy call overhead, not arithmetic, sets the
cost. A convolution is one GEMM over im2col columns (Chellapilla, Puri &
Simard 2006): the padded input's 3x3 windows form a C-contiguous
(h*w, cin*9) matrix that multiplies the transposed (cout, cin*9) kernel
matrix; the VJP runs the same code with the flipped kernel. Max pooling
compares strided views of the 2x2 windows' columns, then rows, and keeps
the two comparisons to route the VJP.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

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
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("pixel values must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
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
        h, w, c = self.input_shape
        if h < 1 or w < 1 or c < 1:
            raise InvalidInputError(f"input shape must be positive, got {self.input_shape}")
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

    The kernels and biases are read-only copies, so the float64 forms
    the convolutions use, computed once here, always match them.
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
        for conv, k, b in zip(convs, self.kernels, self.biases):
            if k.ndim != 4 or k.shape[0] != conv.out_channels or k.shape[2:] != (_KSIZE, _KSIZE):
                raise InvalidInputError(f"kernel shape {k.shape} inconsistent with {conv}")
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
    in_ch = spec.input_shape[2]
    for layer in spec.layers:
        if isinstance(layer, Conv):
            fan_in = in_ch * _KSIZE * _KSIZE
            scale = np.sqrt(2.0 / fan_in)
            k = rng.standard_normal((layer.out_channels, in_ch, _KSIZE, _KSIZE)) * scale
            kernels.append(k.astype(np.float32))
            biases.append(np.zeros(layer.out_channels, dtype=np.float32))
            in_ch = layer.out_channels
    return WeightSet(spec.layers, spec.taps, tuple(kernels), tuple(biases))


def _check_compatible(spec: ExtractorSpec, weights: WeightSet) -> None:
    if weights.layers != spec.layers or weights.taps != spec.taps:
        raise InvalidInputError("weight set was built for a different extractor layout")
    in_ch = spec.input_shape[2]
    ki = 0
    for layer in spec.layers:
        if isinstance(layer, Conv):
            if weights.kernels[ki].shape[1] != in_ch:
                raise InvalidInputError(
                    f"kernel {ki} expects {weights.kernels[ki].shape[1]} input channels, got {in_ch}"
                )
            in_ch = layer.out_channels
            ki += 1


def _conv(x: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 convolution of x (cin, h, w) by a (cout, cin*9) kernel matrix.

    The column matrix is built by two copies with contiguous inner loops:
    a strided (cin, 3, 3, h, w) window view read into (cin*9, h*w) rows,
    then one 2-D transpose. Keep the product as cols @ kmat.T: a GEMM's
    bits depend on operand shapes and layout, and the tests pin them to a
    plain im2col. The result is a (cout, h, w) view of the (h*w, cout)
    product.
    """
    cin, h, w = x.shape
    xp = np.zeros((cin, h + 2, w + 2))
    xp[:, 1:-1, 1:-1] = x
    sc, sh, sw = xp.strides
    # The ndarray constructor makes the view; as_strided adds several microseconds per call.
    win = np.ndarray((cin, _KSIZE, _KSIZE, h, w), xp.dtype, xp, 0, (sc, sh, sw, sh, sw))
    cols = np.ascontiguousarray(win.reshape(cin * _KSIZE * _KSIZE, h * w).T)
    return (cols @ kmat.T).reshape(h, w, kmat.shape[0]).transpose(2, 0, 1)


def _pool_forward(x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """2x2 stride-2 max pooling of x (c, h, w); an odd last row or column is cropped.

    Each window compares its two columns, then the two row winners; `>`
    keeps the earlier element on ties (-0.0 against 0.0 too), so the
    result is the first maximum in row-major offset order, with its own
    bits. Returns the maxima and the two comparisons, which locate each
    maximum for the VJP. Images and weights are checked finite, so NaN
    ordering is not handled.
    """
    h2, w2 = x.shape[1] // 2 * 2, x.shape[2] // 2 * 2
    left, right = x[:, :h2, 0:w2:2], x[:, :h2, 1:w2:2]
    right_wins = right > left
    col_max = np.where(right_wins, right, left)
    bottom_wins = col_max[:, 1::2] > col_max[:, 0::2]
    out = np.where(bottom_wins, col_max[:, 1::2], col_max[:, 0::2])
    return out, (right_wins, bottom_wins)


def _pool_backward(g: np.ndarray, wins, in_shape: tuple[int, int]) -> np.ndarray:
    """Route each window's gradient to its maximum; every other input gets +0.0."""
    right_wins, bottom_wins = wins
    c, h2, wo = right_wins.shape
    col = np.empty((c, h2, wo))
    col[:, 0::2] = np.where(bottom_wins, 0.0, g)
    col[:, 1::2] = np.where(bottom_wins, g, 0.0)
    full = np.zeros((c, *in_shape))
    full[:, :h2, 0 : 2 * wo : 2] = np.where(right_wins, 0.0, col)
    full[:, :h2, 1 : 2 * wo : 2] = np.where(right_wins, col, 0.0)
    return full


def _run_forward(
    spec: ExtractorSpec, weights: WeightSet, image: ImageTensor
) -> tuple[list[np.ndarray], list]:
    """Forward pass returning all activations (input first) and per-layer caches."""
    if (image.height, image.width, image.channels) != spec.input_shape:
        raise InvalidInputError(
            f"image shape {(image.height, image.width, image.channels)} does not match "
            f"extractor input {spec.input_shape}"
        )
    _check_compatible(spec, weights)
    x = np.ascontiguousarray(image.pixels.transpose(2, 0, 1), dtype=np.float64)
    acts = [x]
    caches = []
    ki = 0
    for layer in spec.layers:
        x = acts[-1]
        if isinstance(layer, Conv):
            acts.append(_conv(x, weights._mats[ki]) + weights._biases64[ki][:, None, None])
            caches.append(ki)
            ki += 1
        elif isinstance(layer, Relu):
            acts.append(np.maximum(x, 0.0))
            caches.append(None)
        else:
            out, wins = _pool_forward(x)
            acts.append(out)
            caches.append(wins)
    return acts, caches


@dataclass(frozen=True, eq=False)
class ForwardPass:
    """The result of forward(): activations kept for the pullback.

    features is the concatenated flattened tap outputs, one float64 vector
    of length feature_dim(). vjp(u) is the pixel-space gradient J^T u at
    the same image, shaped like the image, built from the stored
    activations and pooling comparisons without a second forward pass.
    """

    spec: ExtractorSpec
    weights: WeightSet
    acts: list[np.ndarray]  # every layer output, input first
    caches: list  # per layer: kernel index, None, or pooling comparisons
    features: np.ndarray

    def vjp(self, cotangent) -> np.ndarray:
        spec, acts, caches = self.spec, self.acts, self.caches
        cot = np.asarray(cotangent, dtype=float).ravel()
        want = self.features.size
        if cot.size != want:
            raise InvalidInputError(f"cotangent has length {cot.size}, expected {want}")

        pieces: dict[int, np.ndarray] = {}
        offset = 0
        for t in spec.taps:
            shape = acts[t + 1].shape
            size = int(np.prod(shape))
            pieces[t] = cot[offset : offset + size].reshape(shape)
            offset += size

        g = np.zeros_like(acts[-1])
        for i in range(len(spec.layers) - 1, -1, -1):
            if i in pieces:
                g = g + pieces[i]
            layer = spec.layers[i]
            if isinstance(layer, Conv):
                g = _conv(g, self.weights._flipped_mats[caches[i]])
            elif isinstance(layer, Relu):
                g = g * (acts[i + 1] > 0.0)
            else:
                g = _pool_backward(g, caches[i], acts[i].shape[1:])
        if INPUT_TAP in pieces:
            g = g + pieces[INPUT_TAP]
        return np.ascontiguousarray(g.transpose(1, 2, 0))


def forward(spec: ExtractorSpec, weights: WeightSet, image: ImageTensor) -> ForwardPass:
    """Run the extractor once on `image`; see ForwardPass for what it returns."""
    acts, caches = _run_forward(spec, weights, image)
    features = np.concatenate([acts[t + 1].ravel() for t in spec.taps])
    return ForwardPass(spec, weights, acts, caches, features)


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
    # str.isdigit alone also accepts digits such as "²" that int() rejects.
    return text.isascii() and text.isdigit()


def _parse_layer_line(line: str) -> Layer:
    if line == "relu":
        return Relu()
    if line == "pool":
        return MaxPool()
    parts = line.split()
    if len(parts) == 2 and parts[0] == "conv" and _is_ascii_int(parts[1]):
        return Conv(int(parts[1]))
    raise FormatError(f"bad layer line {line!r}")


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
    """Read a weight file back; the result is bit-identical to what was saved."""
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

        layers: list[Layer] = []
        taps: set[int] = set()
        for _ in range(line_count):
            line = get_line()
            if line == "tap":
                taps.add(len(layers) - 1)  # -1 before any layer = input tap
            else:
                layers.append(_parse_layer_line(line))
        if not taps:
            raise FormatError("no tap recorded")

        kernels = []
        biases = []
        prev_out = None
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
            if prev_out is not None and cin != prev_out:
                raise FormatError(f"conv layer {i}: input channels {cin} break the channel chain")
            ksize = out * cin * kh * kw
            kernel = np.frombuffer(
                _read_exact(fh, 4 * ksize, f"kernel data {i}"), dtype="<f4"
            ).reshape(out, cin, kh, kw)
            bias = np.frombuffer(_read_exact(fh, 4 * out, f"bias data {i}"), dtype="<f4")
            kernels.append(kernel.copy())
            biases.append(bias.copy())
            prev_out = out
        if fh.read(1):
            raise FormatError("trailing bytes after weight data")
    return WeightSet(tuple(layers), tuple(sorted(taps)), tuple(kernels), tuple(biases))


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
    layers: list[Layer] = []
    taps: set[int] = set()
    for line in lines[1:]:
        if line == "tap":
            taps.add(len(layers) - 1)
        else:
            layers.append(_parse_layer_line(line))
    if not taps:
        raise FormatError("extractor spec declares no tap")
    return ExtractorSpec((h, w, c), tuple(layers), tuple(sorted(taps)))

