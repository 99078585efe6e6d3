"""File formats: PPM images, the binary feature-matrix container, and
the plain-text record files emitted by the pipeline.

All binary layouts are little-endian. The feature container is

    magic "DMTV" | u32 version=1 | u64 K | u64 D | u64 m | u64 n
    f32 row-major V data (K x D)
    [optional Gram section: magic "DMTG" | f64 row-major K x K data]

with K = m + n + 1 enforced on load, and a Gram section accepted only if
its diagonal matches the squared norms of the stored rows. Single vectors
(coefficients r, traversed features z) reuse the same container as a
1 x L matrix with m = n = 0.

Images use binary PPM/PGM with maxval 255: P5 for grayscale, P6 for
three channels. A pixel value v in [0, 1] is stored as round(v * 255)
(ties to even), so save/load round-trips the quantized values exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInputError
from .features import ImageTensor
from .mmd import FeatureMatrix, gram

_V_MAGIC = b"DMTV"
_G_MAGIC = b"DMTG"
_V_VERSION = 1


# ---------------------------------------------------------------------------
# PPM / PGM codec
# ---------------------------------------------------------------------------

def save_image(image: ImageTensor, path) -> None:
    """Write P5 (1 channel) or P6 (3 channels) with maxval 255."""
    arr = image.pixels
    if image.channels == 1:
        magic = b"P5"
        data = arr[:, :, 0]
    elif image.channels == 3:
        magic = b"P6"
        data = arr
    else:
        raise InvalidInputError(f"only 1- or 3-channel images can be saved, got {image.channels}")
    quantized = np.rint(data * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (image.width, image.height))
        fh.write(quantized.tobytes())


def _read_header_tokens(data: bytes, count: int, path) -> tuple[list[int], int]:
    """Parse `count` whitespace-separated integers, honoring '#' comments."""
    tokens: list[int] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise FormatError(f"{path}: truncated header")
        ch = data[i : i + 1]
        if ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tok = data[i:j]
            if not tok.isdigit():
                raise FormatError(f"{path}: bad header token {tok!r}")
            tokens.append(int(tok))
            i = j
    return tokens, i


def load_image(path) -> ImageTensor:
    """Read a binary PPM/PGM file with maxval 255 into a [0, 1] image."""
    data = Path(path).read_bytes()
    if data[:2] == b"P5":
        channels = 1
    elif data[:2] == b"P6":
        channels = 3
    else:
        raise FormatError(f"{path}: unsupported magic {data[:2]!r}")
    (width, height, maxval), pos = _read_header_tokens(data[2:], 3, path)
    pos += 2
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError(f"{path}: missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte separates header and raster
    need = width * height * channels
    raster = data[pos : pos + need]
    if len(raster) != need:
        raise FormatError(f"{path}: truncated pixel data ({len(raster)} of {need} bytes)")
    arr = np.frombuffer(raster, dtype=np.uint8).astype(float) / 255.0
    return ImageTensor(arr.reshape(height, width, channels))


# ---------------------------------------------------------------------------
# Feature-matrix container
# ---------------------------------------------------------------------------

def write_feature_file(path, V, m: int, n: int, G=None) -> None:
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise InvalidInputError("V must be 2-D")
    K, D = V.shape
    if m < 0 or n < 0:
        raise InvalidInputError("m and n must be nonnegative")
    # m = n = 0 marks a bare vector container; otherwise the row count must add up.
    if not (m == 0 and n == 0) and K != m + n + 1:
        raise InvalidInputError(f"K={K} does not equal m+n+1={m + n + 1}")
    with open(path, "wb") as fh:
        fh.write(_V_MAGIC)
        fh.write(struct.pack("<IQQQQ", _V_VERSION, K, D, m, n))
        fh.write(np.ascontiguousarray(V, dtype="<f4"))
        if G is not None:
            G = np.asarray(G, dtype=float)
            if G.shape != (K, K):
                raise InvalidInputError(f"Gram shape {G.shape} does not match K={K}")
            fh.write(_G_MAGIC)
            fh.write(np.ascontiguousarray(G, dtype="<f8"))


@dataclass
class FeatureFile:
    """Decoded container: V in float64 (from the stored f32), optional f64 Gram."""

    V: np.ndarray
    m: int
    n: int
    G: np.ndarray | None

    def as_feature_matrix(self) -> FeatureMatrix:
        return FeatureMatrix(self.V, self.m, self.n, self.G)


def read_feature_file(path) -> FeatureFile:
    data = Path(path).read_bytes()
    if data[:4] != _V_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 40:
        raise FormatError(f"{path}: truncated header")
    version, K, D, m, n = struct.unpack("<IQQQQ", data[4:40])
    if version != _V_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if not (m == 0 and n == 0) and K != m + n + 1:
        raise FormatError(f"{path}: K={K} does not equal m+n+1={m + n + 1}")
    vbytes = 4 * K * D
    if len(data) < 40 + vbytes:
        raise FormatError(f"{path}: truncated V data")
    V = np.frombuffer(data, dtype="<f4", count=K * D, offset=40).reshape(K, D)
    # Checked on the stored f32 values: casting a signalling NaN to float64 warns.
    if not np.all(np.isfinite(V)):
        raise FormatError(f"{path}: non-finite value in V data")
    V = V.astype(float)
    pos = 40 + vbytes
    G = None
    if pos < len(data):
        if data[pos : pos + 4] != _G_MAGIC:
            raise FormatError(f"{path}: unexpected section magic {data[pos:pos + 4]!r}")
        gbytes = 8 * K * K
        if len(data) < pos + 4 + gbytes:
            raise FormatError(f"{path}: truncated Gram data")
        if len(data) != pos + 4 + gbytes:
            raise FormatError(f"{path}: trailing bytes after Gram section")
        G = np.frombuffer(data, dtype="<f8", count=K * K, offset=pos + 4).reshape(K, K)
        if not np.all(np.isfinite(G)):
            raise FormatError(f"{path}: non-finite value in Gram data")
        # A Gram section computed from other rows would silently combine data
        # that do not belong together; its diagonal gives it away.
        norms = np.einsum("ij,ij->i", V, V)
        bad = np.flatnonzero(np.abs(np.diag(G) - norms) > 1e-9 * norms)
        if bad.size:
            i = int(bad[0])
            raise FormatError(
                f"{path}: Gram diagonal G[{i},{i}]={G[i, i]!r} does not match the squared "
                f"norm {norms[i]!r} of stored row {i}"
            )
        G = G.copy()
    return FeatureFile(V=V, m=int(m), n=int(n), G=G)


def append_gram(path, overwrite: bool = False) -> None:
    """Compute the Gram of the stored rows and append it, leaving V's bytes untouched."""
    ff = read_feature_file(path)
    if ff.G is not None and not overwrite:
        raise InvalidInputError(f"{path}: Gram section already present (pass overwrite to replace)")
    G = gram(ff.V)
    K, D = ff.V.shape
    with open(path, "r+b") as fh:
        fh.seek(40 + 4 * K * D)
        fh.truncate()
        fh.write(_G_MAGIC)
        fh.write(np.ascontiguousarray(G, dtype="<f8"))


def write_vector(path, vec) -> None:
    """Store one real vector in the DMTV layout (1 x L, m = n = 0)."""
    vec = np.asarray(vec, dtype=float).ravel()
    write_feature_file(path, vec[None, :], 0, 0)


def read_vector(path) -> np.ndarray:
    ff = read_feature_file(path)
    if ff.V.shape[0] != 1 or ff.m != 0 or ff.n != 0:
        raise FormatError(f"{path}: not a single-vector file")
    return ff.V[0]


# ---------------------------------------------------------------------------
# Text records
# ---------------------------------------------------------------------------

def read_text(path) -> str:
    """Read a UTF-8 text file; bytes that are not UTF-8 raise FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc


def format_traversal_records(records) -> str:
    """One line per lambda: lambda objective witness budget iterations."""
    lines = ["# lambda objective witness budget iterations"]
    for rec in records:
        lines.append(
            f"{rec.lam!r} {rec.objective!r} {rec.witness.value!r} {rec.budget!r} "
            f"{rec.trace.iterations}"
        )
    return "\n".join(lines) + "\n"


def parse_traversal_records(text: str) -> list[tuple[float, float, float, float, int]]:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FormatError(f"bad traversal record line {line!r}")
        try:
            rows.append(
                (float(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]), int(parts[4]))
            )
        except ValueError as exc:
            raise FormatError(f"bad number in traversal record line {line!r}") from exc
    return rows


def format_sweep_report(report) -> str:
    """One line per record: lambda (or 'baseline') decision probability."""
    lines = ["# lambda decision probability"]
    for rec in report.records:
        lam = "baseline" if rec.lam is None else repr(rec.lam)
        lines.append(f"{lam} {rec.decision_value!r} {rec.probability!r}")
    return "\n".join(lines) + "\n"


def format_adversarial_report(rows) -> str:
    """One line per result: c_adv decision l2."""
    lines = ["# c_adv decision l2"]
    for c_adv, decision, l2 in rows:
        lines.append(f"{c_adv!r} {decision!r} {l2!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Dataset manifest
# ---------------------------------------------------------------------------

@dataclass
class Manifest:
    """Ordered image paths for the target and source sets plus the single input."""

    source_paths: list[str]
    target_paths: list[str]
    input_path: str

    def __post_init__(self) -> None:
        if not self.source_paths or not self.target_paths:
            raise InvalidInputError("manifest needs non-empty [source] and [target] sections")
        if not self.input_path:
            raise InvalidInputError("manifest needs an [input] path")
        if self.input_path in self.source_paths or self.input_path in self.target_paths:
            raise InvalidInputError("the input path must not appear in the source or target sets")


def parse_manifest(text: str) -> Manifest:
    """Parse the plain-text manifest: one path per line under [source], [target], [input]."""
    sections: dict[str, list[str]] = {"source": [], "target": [], "input": []}
    current: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise FormatError(f"unknown manifest section {line!r}")
            current = name
        elif current is None:
            raise FormatError(f"path {line!r} appears before any section header")
        else:
            sections[current].append(line)
    if len(sections["input"]) != 1:
        raise InvalidInputError(
            f"manifest needs exactly one [input] path, got {len(sections['input'])}"
        )
    return Manifest(sections["source"], sections["target"], sections["input"][0])


def read_manifest(path) -> Manifest:
    """Parse a manifest file; relative paths are taken relative to its directory."""
    manifest = parse_manifest(read_text(path))
    base = Path(path).parent

    def resolve(p: str) -> str:
        q = Path(p)
        return str(q if q.is_absolute() else base / q)

    return Manifest(
        [resolve(p) for p in manifest.source_paths],
        [resolve(p) for p in manifest.target_paths],
        resolve(manifest.input_path),
    )


def format_manifest(manifest: Manifest) -> str:
    lines = ["[source]", *manifest.source_paths, "[target]", *manifest.target_paths]
    lines += ["[input]", manifest.input_path]
    return "\n".join(lines) + "\n"


def read_labels(path, expected: int) -> np.ndarray:
    """Read one +1/-1 label per line, in feature-row order (targets then sources)."""
    values = []
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line not in ("+1", "1", "-1"):
            raise FormatError(f"bad label {line!r} (use +1 or -1)")
        values.append(1.0 if line in ("+1", "1") else -1.0)
    if len(values) != expected:
        raise InvalidInputError(f"expected {expected} labels, got {len(values)}")
    return np.asarray(values)
