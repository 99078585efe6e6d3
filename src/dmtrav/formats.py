"""File formats: PPM images, the binary feature-matrix container, and
the plain-text record files emitted by the pipeline.

All binary layouts are little-endian. The feature container is

    magic "DMTV" | u32 version=1 | u64 K | u64 D | u64 m | u64 n
    f32 row-major V data (K x D)
    [optional Gram section, written by append_gram: magic "DMTG" | f64 row-major K x K data]

with D >= 1 and K = m + n + 1 enforced on load, and a Gram section
accepted only if its diagonal matches the squared norms of the stored
rows. Single vectors (coefficients r, traversed features z) reuse the
same container as a 1 x L matrix with m = n = 0.

Images use binary PPM/PGM with maxval 255: P5 for grayscale, P6 for
three channels. The header is the magic, width, height and maxval (each
at most 9 digits), separated by ASCII whitespace or '#'-to-newline
comments (optional right after the magic), and exactly one whitespace
byte ends it. A pixel value v in [0, 1] is stored as round(v * 255)
(ties to even), so save/load round-trips the quantized values exactly.
"""

from __future__ import annotations

import os
import re
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInputError
from .features import ImageTensor
from .mmd import FeatureMatrix, all_finite, gram

_V_MAGIC = b"DMTV"
_G_MAGIC = b"DMTG"
_V_VERSION = 1
_HEADER = struct.Struct("<4sIQQQQ")  # magic, version, K, D, m, n
_READ_BUFFER_BYTES = 1 << 20  # the f32 buffer read_feature_file streams V through
_WRITE_BUFFER_BYTES = 1 << 18  # feature_writer's file buffer: rows leave it about 1/4 MiB a call
_PPM_SEP = rb"(?:\s|#[^\n]*\n)"  # \s of a bytes pattern is the six ASCII whitespace bytes
_PPM_HEADER = re.compile(
    rb"P([56])%s*([0-9]{1,9})%s+([0-9]{1,9})%s+([0-9]{1,9})\s" % (_PPM_SEP, _PPM_SEP, _PPM_SEP)
)


# ---------------------------------------------------------------------------
# PPM / PGM codec
# ---------------------------------------------------------------------------

def check_savable(channels: int) -> None:
    """Raise InvalidInputError unless save_image can write an image of this many channels."""
    if channels not in (1, 3):
        raise InvalidInputError(f"only 1- or 3-channel images can be saved, got {channels}")


def save_image(image: ImageTensor, path) -> None:
    """Write P5 (1 channel) or P6 (3 channels) with maxval 255."""
    check_savable(image.channels)
    magic = b"P5" if image.channels == 1 else b"P6"
    quantized = np.rint(image.pixels * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (image.width, image.height))
        fh.write(quantized.tobytes())


def load_samples(path) -> np.ndarray:
    """Read a binary PPM/PGM file with maxval 255 into its read-only (H, W, C) uint8 samples."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PPM_HEADER.match(data)
    if header is None:
        if data[:2] not in (b"P5", b"P6"):
            raise FormatError(f"{path}: unsupported magic {data[:2]!r}")
        raise FormatError(f"{path}: malformed or truncated header")
    width, height, maxval = (int(g) for g in header.groups()[1:])
    channels = 1 if header[1] == b"5" else 3
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    pos = header.end()
    need = width * height * channels
    have = min(len(data) - pos, need)
    if have != need:
        raise FormatError(f"{path}: truncated pixel data ({have} of {need} bytes)")
    return np.frombuffer(data, np.uint8, need, pos).reshape(height, width, channels)


def load_image(path) -> ImageTensor:
    """Read a binary PPM/PGM file with maxval 255 into a [0, 1] image."""
    return ImageTensor(np.divide(load_samples(path), 255.0))


# ---------------------------------------------------------------------------
# Feature-matrix container
# ---------------------------------------------------------------------------

def write_feature_file(path, V, m: int, n: int) -> None:
    """Write V (K x D) in the DMTV layout above, with no Gram section.

    append_gram is the one writer of the Gram section. A float32 V is
    stored as it is; any other V is rounded to the nearest f32. A V with
    no columns, or a V that holds a value that is not finite in f32,
    raises InvalidInputError, since the reader rejects each.
    """
    V = np.asarray(V)
    if V.dtype != np.float32:
        V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise InvalidInputError("V must be 2-D")
    with np.errstate(over="ignore"):  # a value that overflows f32 is rejected below
        V32 = np.ascontiguousarray(V, dtype="<f4")
    with feature_writer(path, *V.shape, m, n) as write:
        if not all_finite(V32):
            raise InvalidInputError("V holds a value that is not finite in float32")
        write(V32)


@contextmanager
def feature_writer(path, K: int, D: int, m: int, n: int):
    """Write a DMTV file of K rows of D values, with no Gram section, row by row.

    Yields write(rows), which stores rows (one row or a block of rows,
    already finite in f32) after those before it, through a buffer of
    _WRITE_BUFFER_BYTES (256 KiB). The file is written to a temporary
    file beside path and moved onto path only when all K rows are in;
    any failure removes the temporary file and leaves whatever was at
    path untouched. The sizes are checked first, as the
    reader checks them: D = 0, or K != m + n + 1 unless m = n = 0 (a
    bare vector container), raises InvalidInputError.
    """
    if D == 0:
        raise InvalidInputError("V must have at least one column")
    if m < 0 or n < 0:
        raise InvalidInputError("m and n must be nonnegative")
    if not (m == 0 and n == 0) and K != m + n + 1:
        raise InvalidInputError(f"K={K} does not equal m+n+1={m + n + 1}")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb", buffering=_WRITE_BUFFER_BYTES) as fh:
            fh.write(_HEADER.pack(_V_MAGIC, _V_VERSION, K, D, m, n))
            yield lambda rows: fh.write(np.ascontiguousarray(rows, dtype="<f4"))
            if fh.tell() != _HEADER.size + 4 * K * D:
                raise InvalidInputError(f"{path}: {K} rows of {D} values were not all written")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    """Read a DMTV file into V (float64) and its Gram section, if it has one.

    Besides V and G the reader holds one f32 buffer of at most
    _READ_BUFFER_BYTES (1 MiB), through which V is streamed into its
    float64 array. Every size in the header is checked against the
    file's size before anything is allocated. Each value must be finite
    (V's as stored in f32), and a Gram section whose diagonal does not
    match the squared norms of the stored rows is rejected. Every fault
    raises FormatError.
    """
    with open(path, "rb") as fh:
        K, D, m, n, size = _read_header(fh, path)
        V = np.empty((K, D))
        _read_rows(fh, path, V, check=True)
        G = None
        if size > _HEADER.size + 4 * V.size:
            G = _read_gram(fh, path, size, K, lambda: np.einsum("ij,ij->i", V, V), keep=True)
    return FeatureFile(V=V, m=int(m), n=int(n), G=G)


def _read_header(fh, path) -> tuple[int, int, int, int, int]:
    """Read and check the header from fh: K, D, m, n and the file's size."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_HEADER.size)
    if head[:4] != _V_MAGIC:
        raise FormatError(f"{path}: bad magic {head[:4]!r}")
    if len(head) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    _, version, K, D, m, n = _HEADER.unpack(head)
    if version != _V_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if not (m == 0 and n == 0) and K != m + n + 1:
        raise FormatError(f"{path}: K={K} does not equal m+n+1={m + n + 1}")
    if D == 0:  # no V bytes would bound K
        raise FormatError(f"{path}: D=0, rows hold no features")
    if 8 * D > np.iinfo(np.intp).max:  # no V bytes bound D when K = 0
        raise FormatError(f"{path}: D={D} is too large for an array")
    if size < _HEADER.size + 4 * K * D:
        raise FormatError(f"{path}: truncated V data")
    return K, D, m, n, size


def _read_rows(fh, path, out: np.ndarray, check: bool) -> None:
    """Fill the contiguous float64 array out with the next out.size stored f32 values.

    They stream through one f32 buffer of at most _READ_BUFFER_BYTES,
    allocated for this call. With check, a value that is not finite
    raises FormatError.
    """
    flat = out.reshape(-1)
    step = _READ_BUFFER_BYTES // 4
    buf = np.empty(min(flat.size, step), dtype="<f4")
    for start in range(0, flat.size, step):
        chunk = buf[: flat.size - start]
        if fh.readinto(chunk) != chunk.nbytes:
            raise FormatError(f"{path}: truncated V data")
        # Checked on the stored f32 values: casting a signalling NaN to float64 warns.
        if check and not all_finite(chunk):
            raise FormatError(f"{path}: non-finite value in V data")
        flat[start : start + chunk.size] = chunk


def _stored_norms(fh, path, K: int, D: int) -> np.ndarray:
    """The squared norms of the next K stored rows of D values, each checked to be finite.

    The rows stream through one float64 array of at most
    _READ_BUFFER_BYTES (and at least one row), besides _read_rows' buffer.
    """
    step = max(1, _READ_BUFFER_BYTES // (8 * D))
    rows = np.empty((min(step, K), D))
    norms = np.empty(K)
    for r0 in range(0, K, step):
        chunk = rows[: K - r0]
        _read_rows(fh, path, chunk, check=True)
        np.einsum("ij,ij->i", chunk, chunk, out=norms[r0 : r0 + len(chunk)])
    return norms


def _read_gram(fh, path, size: int, K: int, row_norms, keep: bool) -> np.ndarray | None:
    """Read and check the Gram section of K x K values that starts at fh's position, after V.

    The section must be the magic and K x K finite values, ending the
    file (size bytes), whose diagonal matches row_norms(), the squared
    norms of the K stored rows. The magic and size are checked before
    anything is allocated. With keep the values are read into G, which
    is returned; without it they stream through one buffer of at most
    _READ_BUFFER_BYTES (and at least one row). Every fault raises
    FormatError.
    """
    magic = fh.read(4)
    if magic != _G_MAGIC:
        raise FormatError(f"{path}: unexpected section magic {magic!r}")
    gend = fh.tell() + 8 * K * K
    if size < gend:
        raise FormatError(f"{path}: truncated Gram data")
    if size != gend:
        raise FormatError(f"{path}: trailing bytes after Gram section")
    step = max(1, _READ_BUFFER_BYTES // (8 * max(K, 1)))
    G = np.empty((K, K) if keep else (min(step, K), K), dtype="<f8")  # without keep, the buffer
    diag = np.empty(K)
    for r0 in range(0, K, step):
        chunk = G[r0 : r0 + step] if keep else G[: K - r0]
        if fh.readinto(chunk) != chunk.nbytes:
            raise FormatError(f"{path}: truncated Gram data")
        if not all_finite(chunk):
            raise FormatError(f"{path}: non-finite value in Gram data")
        diag[r0 : r0 + len(chunk)] = chunk.diagonal(r0)
    # A Gram section computed from other rows would silently combine data
    # that do not belong together; its diagonal gives it away.
    norms = row_norms()
    bad = np.flatnonzero(np.abs(diag - norms) > 1e-9 * norms)
    if bad.size:
        i = int(bad[0])
        raise FormatError(
            f"{path}: Gram diagonal G[{i},{i}]={diag[i]!r} does not match the squared "
            f"norm {norms[i]!r} of stored row {i}"
        )
    return G if keep else None


class _StoredRows:
    """The stored f32 rows of an open DMTV file, as a row source for mmd.gram.

    A row's values are checked to be finite on its first read.
    """

    def __init__(self, fh, path, K: int, D: int):
        self.shape = (K, D)
        self._fh, self._path = fh, path

    def read_rows(self, start: int, out: np.ndarray, first: bool) -> None:
        self._fh.seek(_HEADER.size + 4 * self.shape[1] * start)
        _read_rows(self._fh, self._path, out, check=first)


def append_gram(path, overwrite: bool = False) -> None:
    """Compute the Gram of the stored rows and write it after V, leaving V's bytes untouched.

    G is never held: mmd.gram forms it from the file's rows and hands
    out each block as it is made, and each row of a block is written at
    its offset in the section. Besides what mmd.gram holds (a K x (rows
    per panel) strip, a 32 x K gather and at most PANEL_ROWS + BLOCK_ROWS
    float64 rows) this holds the 1 MiB read buffer. Each stored value is
    checked to be finite on its first read; a failure, that or any
    other, cuts the file back to V's end, so a file with no Gram section
    keeps its bytes.

    A file that already has a Gram section is refused unless overwrite is
    set; without it, whatever follows V is first checked as
    read_feature_file checks it, with V's rows and the section's rows
    streamed through bounded buffers. With overwrite only the header and
    V are read and checked, and whatever follows V is replaced: a valid
    Gram section, or one that fails the reader's checks.
    """
    with open(path, "rb") as fh:
        K, D, _, _, size = _read_header(fh, path)
        end = _HEADER.size + 4 * K * D
        if size > end and not overwrite:
            norms = _stored_norms(fh, path, K, D)
            _read_gram(fh, path, size, K, lambda: norms, keep=False)  # a faulty section raises
            raise InvalidInputError(
                f"{path}: Gram section already present (pass overwrite to replace)"
            )
        with open(path, "r+b", buffering=0) as out:
            fd, at = out.fileno(), end + 4  # at: the byte offset of G[0, 0]

            def put(i0: int, j: int, block: np.ndarray) -> None:
                for i, row in enumerate(block.astype("<f8", copy=False), i0):
                    _pwrite(fd, row, at + 8 * (K * i + j))

            out.truncate(end)
            try:
                _pwrite(fd, memoryview(_G_MAGIC), end)
                gram(_StoredRows(fh, path, K, D), put)
            except BaseException:
                out.truncate(end)
                raise


def _pwrite(fd: int, data, offset: int) -> None:
    """Write all of data, a contiguous array or a memoryview, at offset of the file open as fd."""
    done = os.pwrite(fd, data, offset)
    if done < data.nbytes:  # a short write, which a regular file gives only rarely
        _pwrite(fd, memoryview(data).cast("B")[done:], offset + done)


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


def format_sweep_report(records) -> str:
    """One line per record: lambda (or 'baseline') decision probability."""
    lines = ["# lambda decision probability"]
    for rec in records:
        lam = "baseline" if rec.lam is None else repr(rec.lam)
        lines.append(f"{lam} {rec.decision_value!r} {rec.probability!r}")
    return "\n".join(lines) + "\n"


def format_adversarial_report(c_adv: float, decision: float, l2: float) -> str:
    """The header line, then one line: c_adv decision l2."""
    return f"# c_adv decision l2\n{c_adv!r} {decision!r} {l2!r}\n"


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
