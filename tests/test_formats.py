import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from conftest import append_raw_gram, huge_k_file
from dmtrav import mmd
from dmtrav.mmd import BLOCK_ROWS, PANEL_ROWS
from dmtrav.cli import RunConfig
from dmtrav.errors import FormatError, InvalidInputError
from dmtrav.features import (
    Conv,
    ExtractorSpec,
    ImageTensor,
    MaxPool,
    Relu,
    init_weights,
    load_weights,
    save_weights,
)
from dmtrav.formats import (
    Manifest,
    append_gram,
    feature_writer,
    format_manifest,
    format_sweep_report,
    format_traversal_records,
    load_image,
    parse_manifest,
    parse_traversal_records,
    read_feature_file,
    read_labels,
    read_manifest,
    read_text,
    read_vector,
    save_image,
    write_feature_file,
    write_vector,
)


class TestPpm:
    def test_gray_round_trip_is_quantization_exact(self, tmp_path):
        rng = np.random.default_rng(90)
        img = ImageTensor(rng.uniform(0, 1, (7, 5, 1)))
        p = tmp_path / "img.pgm"
        save_image(img, p)
        loaded = load_image(p)
        assert np.array_equal(
            np.rint(loaded.pixels * 255.0), np.rint(img.pixels * 255.0)
        )
        # a second save reproduces the bytes exactly
        p2 = tmp_path / "img2.pgm"
        save_image(loaded, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_color_round_trip(self, tmp_path):
        rng = np.random.default_rng(91)
        img = ImageTensor(rng.uniform(0, 1, (4, 6, 3)))
        p = tmp_path / "img.ppm"
        save_image(img, p)
        loaded = load_image(p)
        assert loaded.channels == 3
        assert np.array_equal(np.rint(loaded.pixels * 255), np.rint(img.pixels * 255))

    def test_hand_written_p6_fixture(self, tmp_path):
        # 3 pixels in one row: red, mid-green, black
        raw = b"P6\n3 1\n255\n" + bytes([255, 0, 0, 0, 128, 0, 0, 0, 0])
        p = tmp_path / "fixture.ppm"
        p.write_bytes(raw)
        img = load_image(p)
        assert img.pixels.shape == (1, 3, 3)
        assert img.pixels[0, 0, 0] == 1.0
        assert img.pixels[0, 1, 1] == pytest.approx(128 / 255)
        assert np.all(img.pixels[0, 2] == 0.0)

    def test_header_comments_handled(self, tmp_path):
        raw = b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([0, 64, 128, 255])
        p = tmp_path / "c.pgm"
        p.write_bytes(raw)
        img = load_image(p)
        assert img.pixels[1, 1, 0] == 1.0

    def test_wrong_maxval_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            load_image(p)

    def test_unsupported_magic(self, tmp_path):
        p = tmp_path / "bad.pbm"
        p.write_bytes(b"P1\n1 1\n0")
        with pytest.raises(FormatError, match="magic"):
            load_image(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(FormatError, match="truncated"):
            load_image(p)

    def test_two_channel_image_not_saveable(self, tmp_path):
        img = ImageTensor(np.zeros((2, 2, 2)))
        with pytest.raises(InvalidInputError):
            save_image(img, tmp_path / "x.ppm")


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(92)
        V = rng.standard_normal((5, 8)).astype(np.float32).astype(float)
        p = tmp_path / "f.dmtv"
        write_feature_file(p, V, 3, 1)
        ff = read_feature_file(p)
        assert ff.m == 3 and ff.n == 1
        assert np.array_equal(ff.V, V)
        assert ff.G is None

    def test_block_arithmetic_validated(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_feature_file(tmp_path / "f.dmtv", np.zeros((5, 2)), 1, 1)

    def test_gram_append_and_oracle(self, tmp_path):
        rng = np.random.default_rng(93)
        V = rng.standard_normal((3, 4))
        p = tmp_path / "f.dmtv"
        write_feature_file(p, V, 1, 1)
        before = p.read_bytes()
        append_gram(p)
        after = p.read_bytes()
        assert after[: len(before)] == before  # V bytes untouched
        ff = read_feature_file(p)
        stored_as_f32 = V.astype(np.float32).astype(float)
        assert np.allclose(ff.G, oracles.naive_gram(stored_as_f32), rtol=0, atol=1e-12)
        assert np.allclose(ff.G, ff.G.T, rtol=0, atol=0)

    def test_orthonormal_rows_identity_gram(self, tmp_path):
        V = np.eye(4)[:3]
        p = tmp_path / "f.dmtv"
        write_feature_file(p, V, 1, 1)
        append_gram(p)
        assert np.array_equal(read_feature_file(p).G, np.eye(3))

    def test_corrupt_magic(self, tmp_path):
        p = tmp_path / "f.dmtv"
        write_feature_file(p, np.eye(3), 1, 1)
        data = bytearray(p.read_bytes())
        data[:4] = b"XXXX"
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            read_feature_file(p)

    def test_truncated_v_data(self, tmp_path):
        p = tmp_path / "f.dmtv"
        write_feature_file(p, np.eye(3), 1, 1)
        data = p.read_bytes()
        p.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="truncated"):
            read_feature_file(p)

    def test_inconsistent_header_counts(self, tmp_path):
        import struct

        V32 = np.eye(3, dtype="<f4")
        blob = b"DMTV" + struct.pack("<IQQQQ", 1, 3, 3, 5, 9) + V32.tobytes()
        p = tmp_path / "f.dmtv"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match="m\\+n\\+1"):
            read_feature_file(p)

    @pytest.mark.parametrize(
        "offset, value, section",
        [(40 + 4 * 4, "nan", "V"), (40 + 4 * 6, "-inf", "V"),
         (40 + 4 * 9 + 4 + 8 * 4, "nan", "Gram"), (40 + 4 * 9 + 4, "inf", "Gram")],
        ids=["V-nan", "V-minus-inf", "Gram-nan", "Gram-inf"],
    )
    def test_non_finite_values_rejected(self, tmp_path, offset, value, section):
        import struct

        p = tmp_path / "f.dmtv"
        write_feature_file(p, np.arange(9.0).reshape(3, 3), 1, 1)
        append_gram(p)
        data = bytearray(p.read_bytes())
        fmt = "<f" if section == "V" else "<d"
        data[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, float(value))
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"non-finite value in {section}"):
            read_feature_file(p)

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 1e39, None],
        ids=["nan", "inf", "minus-inf", "f32-overflow", "no-columns"],
    )
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, value):
        V = np.ones((3, 2))
        if value is None:  # the reader rejects D = 0
            V, message = np.ones((3, 0)), "at least one column"
        else:
            V[1, 1], message = value, "not finite"
        p = tmp_path / "f.dmtv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=message):
                write_feature_file(p, V, 1, 1)
        assert not p.exists()

    def test_feature_writer_counts_rows_not_bytes(self, tmp_path):
        # rows 0 and 2 of 3 give the file its full size, with row 1 a hole
        p = tmp_path / "f.dmtv"
        write_feature_file(p, np.eye(3), 1, 1)
        good = p.read_bytes()
        with pytest.raises(InvalidInputError, match="not all written"):
            with feature_writer(p, 3, 3, 1, 1) as write:
                write(2, np.ones(3))
                write(0, np.ones(3))
        with pytest.raises(InvalidInputError, match="rows 2..3 are outside the file's 3 rows"):
            with feature_writer(p, 3, 3, 1, 1) as write:
                write(2, np.ones((2, 3)))
        assert list(tmp_path.iterdir()) == [p]
        assert p.read_bytes() == good

    @pytest.mark.parametrize("zero_row", [False, True], ids=["other-rows", "zero-row"])
    def test_gram_diagonal_must_match_rows(self, tmp_path, zero_row):
        rng = np.random.default_rng(99)
        V = rng.standard_normal((3, 4))
        if zero_row:
            V[1] = 0.0
            G = mmd.gram(V.astype(np.float32).astype(float))
            G[1, 1] = 1e-300
        else:
            G = mmd.gram(rng.standard_normal((3, 4)))
        p = tmp_path / "f.dmtv"
        write_feature_file(p, V, 1, 1)
        append_raw_gram(p, G)
        with pytest.raises(FormatError, match="Gram diagonal"):
            read_feature_file(p)

    def test_vector_files(self, tmp_path):
        vec = np.random.default_rng(94).standard_normal(17).astype(np.float32).astype(float)
        p = tmp_path / "v.dmtv"
        write_vector(p, vec)
        assert np.array_equal(read_vector(p), vec)

    def test_vector_reader_rejects_matrices(self, tmp_path):
        p = tmp_path / "f.dmtv"
        write_feature_file(p, np.eye(3), 1, 1)
        with pytest.raises(FormatError, match="single-vector"):
            read_vector(p)

    def test_appended_gram_is_the_product_of_the_stored_rows(self, tmp_path):
        # 65 x 4100 f32 values take several reads of the reader's buffer, the last one partial
        K, D = 65, 4100
        p = tmp_path / "f.dmtv"
        write_feature_file(p, np.random.default_rng(100).standard_normal((K, D)), 32, 32)
        append_gram(p)
        data = p.read_bytes()
        W = np.frombuffer(data, "<f4", K * D, 40).reshape(K, D).astype(np.float64)
        assert data[40 + 4 * K * D :] == b"DMTG" + (W @ W.T).astype("<f8").tobytes()
        assert np.array_equal(read_feature_file(p).V, W)

    def test_a_gram_section_too_short_for_k_is_refused_before_g_is_allocated(self, tmp_path):
        K = 10**6  # G would take 7.28 TiB
        p = huge_k_file(tmp_path)
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            with pytest.raises(FormatError, match="truncated Gram data"):
                read_feature_file(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * K + 4 * 2**20  # V in float64 and the read buffer

    def test_reader_holds_v_and_g_and_one_buffer(self, tmp_path):
        K, D = 257, 4096
        p = tmp_path / "f.dmtv"
        write_feature_file(p, np.random.default_rng(101).standard_normal((K, D)), 128, 128)
        append_gram(p)
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            ff = read_feature_file(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ff.G.shape == (K, K)
        assert peak <= 8 * K * D + 8 * K * K + 1.5 * 2**20

    # one row over a panel (two panels of 257 and 256 rows); three panels of 367, 367 and 365;
    # each on a file with no Gram section and on one whose section is rewritten
    @pytest.mark.parametrize(
        "K, section",
        [
            pytest.param(K, section, id=f"{K}-section" if section else str(K))
            for section in (False, True)
            for K in (PANEL_ROWS + 1, 2 * PANEL_ROWS + 75)
        ],
    )
    def test_gram_step_holds_one_strip_and_one_panel_and_one_block(self, tmp_path, K, section):
        D = 4096
        P = -(-K // -(-K // PANEL_ROWS))  # rows per panel
        p = _many_panel_file(tmp_path, K, D)
        if section:
            append_gram(p)
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            append_gram(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a K x P strip, the panel and block rows, and the buffers; no K x K array
        assert peak <= 8 * K * P + 8 * min(P + BLOCK_ROWS, K) * D + 1.5 * 2**20

    @pytest.mark.parametrize("K", [PANEL_ROWS + 1, 2 * PANEL_ROWS + 75])
    def test_appended_gram_bytes_are_mmd_gram_of_the_stored_rows(self, tmp_path, K):
        D = 256
        p = _many_panel_file(tmp_path, K, D)
        append_gram(p)
        data = p.read_bytes()
        W = np.frombuffer(data, "<f4", K * D, 40).reshape(K, D).astype(np.float64)
        assert data[40 + 4 * K * D :] == b"DMTG" + mmd.gram(W).astype("<f8").tobytes()

    def test_gram_over_many_panels_is_the_product_of_the_stored_rows(self, tmp_path):
        K, D = 2 * PANEL_ROWS + 75, 4096
        p = _many_panel_file(tmp_path, K, D)
        append_gram(p)
        W = np.fromfile(p, "<f4", K * D, offset=40).reshape(K, D).astype(np.float64)
        ff = read_feature_file(p)
        assert np.array_equal(ff.G, ff.G.T)
        assert np.max(np.abs(ff.G - W @ W.T)) <= 1e-14 * np.max(np.abs(ff.G))

    def test_container_with_no_rows_gets_an_empty_gram(self, tmp_path):
        p = tmp_path / "f.dmtv"
        write_feature_file(p, np.zeros((0, 3)), 0, 0)
        append_gram(p)
        ff = read_feature_file(p)
        assert ff.V.shape == (0, 3) and ff.G.shape == (0, 0)

    def test_non_finite_value_in_the_last_panel_is_refused_before_writing(self, tmp_path):
        K, D = 2 * PANEL_ROWS + 75, 8
        p = _many_panel_file(tmp_path, K, D)
        data = bytearray(p.read_bytes())
        at = 40 + 4 * ((K - 2) * D + 5)  # row K - 2 is read only with the last panel
        data[at : at + 4] = struct.pack("<f", float("nan"))
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="non-finite value in V data"):
            append_gram(p)
        assert p.read_bytes() == data


def _many_panel_file(tmp_path, K: int, D: int):
    """A DMTV file of K seeded rows with no Gram section."""
    p = tmp_path / "f.dmtv"
    V = np.random.default_rng(102).standard_normal((K, D))
    write_feature_file(p, V, K // 2, K - K // 2 - 1)
    return p


class TestRecords:
    def test_traversal_records_round_trip(self):
        from dmtrav.mmd import WitnessValue
        from dmtrav.optim import MinimizeTrace
        from dmtrav.traversal import LambdaRecord

        records = [
            LambdaRecord(
                lam=0.5 ** k,
                r=np.zeros(3),
                witness=WitnessValue(-0.123456789012345 * k, 0.5, 0.6),
                budget=1.75 * k,
                objective=-0.1 * k,
                trace=MinimizeTrace(k + 3, [0.0], 1e-9, "grad_tol"),
            )
            for k in range(3)
        ]
        text = format_traversal_records(records)
        rows = parse_traversal_records(text)
        assert len(rows) == 3
        for rec, (lam, obj, wit, bud, iters) in zip(records, rows):
            assert lam == rec.lam and obj == rec.objective
            assert wit == rec.witness.value and bud == rec.budget
            assert iters == rec.trace.iterations

    def test_sweep_report_formatting(self):
        from dmtrav.evaluate import SweepRecord

        text = format_sweep_report([SweepRecord(None, -1.5, 0.25), SweepRecord(0.125, 2.5, 0.75)])
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0].startswith("baseline ")
        assert lines[1].split() == ["0.125", "2.5", "0.75"]


class TestManifest:
    def test_parse_sections(self):
        text = "[source]\na.ppm\nb.ppm\n[target]\nc.ppm\n[input]\nd.ppm\n"
        mf = parse_manifest(text)
        assert mf.source_paths == ["a.ppm", "b.ppm"]
        assert mf.target_paths == ["c.ppm"]
        assert mf.input_path == "d.ppm"

    def test_round_trip(self):
        mf = Manifest(["s.ppm"], ["t.ppm"], "i.ppm")
        assert parse_manifest(format_manifest(mf)) == mf

    def test_empty_source_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_manifest("[source]\n[target]\nt.ppm\n[input]\ni.ppm\n")

    def test_input_must_be_distinct(self):
        with pytest.raises(InvalidInputError):
            Manifest(["a.ppm"], ["b.ppm"], "a.ppm")

    def test_relative_paths_resolved_against_manifest_dir(self, tmp_path):
        sub = tmp_path / "runs"
        sub.mkdir()
        (sub / "m.txt").write_text("[source]\ns.ppm\n[target]\nt.ppm\n[input]\ni.ppm\n")
        mf = read_manifest(sub / "m.txt")
        assert mf.source_paths == [str(sub / "s.ppm")]

    def test_unknown_section(self):
        with pytest.raises(FormatError):
            parse_manifest("[bogus]\nx.ppm\n")

    def test_labels_reader(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("+1\n-1\n1\n")
        assert np.array_equal(read_labels(p, 3), np.array([1.0, -1.0, 1.0]))
        with pytest.raises(InvalidInputError):
            read_labels(p, 5)
        p.write_text("+1\n0\n")
        with pytest.raises(FormatError):
            read_labels(p, 2)


def _mutants(data: bytes, seed: int, count: int):
    """Seeded single-edit corruptions of `data`: byte flips, truncations, insertions."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = i % 3
        if kind == 0:
            pos = int(rng.integers(len(data)))
            flipped = data[pos] ^ int(rng.integers(1, 256))
            yield data[:pos] + bytes([flipped]) + data[pos + 1 :]
        elif kind == 1:
            yield data[: int(rng.integers(len(data)))]
        else:
            pos = int(rng.integers(len(data) + 1))
            extra = rng.integers(0, 256, int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
            yield data[:pos] + extra + data[pos:]


def _dmtv(path):
    V, m, n = np.random.default_rng(95).standard_normal((5, 6)), 2, 2
    write_feature_file(path, V, m, n)


def _dmtv_with_gram(path):
    _dmtv(path)
    append_gram(path)


def _append_gram_then_read(path):
    """append_gram either raises a package error or leaves a file that the reader accepts."""
    append_gram(path)
    try:
        read_feature_file(path)
    except FormatError as exc:
        raise AssertionError(f"append_gram left a file the reader refuses: {exc}") from exc


def _ppm(path):
    save_image(ImageTensor(np.random.default_rng(96).uniform(0, 1, (4, 3, 3))), path)


def _dmtw(path):
    spec = ExtractorSpec((6, 6, 1), (Conv(2), Relu(), MaxPool(), Conv(3)), taps=(-1, 1, 3))
    save_weights(init_weights(spec, 97), path)


def _records(path):
    text = "# lambda objective witness budget iterations\n0.5 -0.12 -0.37 0.5 13\n0.05 -0.41 -0.45 0.8 7\n"
    path.write_text(text, encoding="utf-8")


def _manifest(path):
    manifest = Manifest(["s0.ppm", "s1.ppm"], ["t0.ppm", "t1.ppm"], "input.ppm")
    path.write_text(format_manifest(manifest), encoding="utf-8")


def _labels(path):
    path.write_text("+1\n+1\n-1\n-1\n", encoding="utf-8")


def _spec(path):
    text = "input 32 32 1\nconv 8\nrelu\npool\nconv 16\nrelu\ntap\npool\nconv 32\nrelu\ntap\n"
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "write, read",
    [
        (_dmtv_with_gram, read_feature_file),
        (_dmtv_with_gram, _append_gram_then_read),
        (_dmtv, _append_gram_then_read),
        (_ppm, load_image),
        (_dmtw, load_weights),
        (_records, lambda p: parse_traversal_records(read_text(p))),
        (_manifest, read_manifest),
        (_labels, lambda p: read_labels(p, 4)),
        (_spec, lambda p: RunConfig(extractor=str(p)).resolve_spec()),
    ],
    ids=["dmtv", "dmtv-gram-append_gram", "dmtv-append_gram", "ppm", "dmtw", "records", "manifest", "labels", "spec"],
)
def test_mutated_files_raise_only_package_errors(tmp_path, write, read):
    original = tmp_path / "original"
    write(original)
    read(original)
    path = tmp_path / "mutant"
    for data in _mutants(original.read_bytes(), seed=98, count=999):
        path.write_bytes(data)
        try:
            read(path)
        except (FormatError, InvalidInputError):
            pass


# Bytes the PPM header grammar gives a meaning to, plus a few it does not.
_HEADER_ALPHABET = b" \t\n\r\x0b\x0c#0123456789P56xA\x00\xff"
_HEADER_SEPARATORS = (b"", b" ", b"\n", b"\t", b"  ", b"\r\n", b"#c\n", b"\n# a note\n")


def _header_mutants(seed: int, count: int):
    """Seeded small P5/P6 files, each with one to three byte edits in or just after its header."""
    rng = np.random.default_rng(seed)

    def sep() -> bytes:
        return _HEADER_SEPARATORS[int(rng.integers(len(_HEADER_SEPARATORS)))]

    for _ in range(count):
        magic, channels = (b"P5", 1) if rng.integers(2) else (b"P6", 3)
        width, height = (int(v) for v in rng.integers(1, 4, 2))
        header = magic + sep() + b"%d" % width + sep() + b"%d" % height + sep() + b"255\n"
        raster = rng.integers(0, 256, width * height * channels, dtype=np.uint8).tobytes()
        data = bytearray(header + raster)
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(len(header) + 1))
            byte = _HEADER_ALPHABET[int(rng.integers(len(_HEADER_ALPHABET)))]
            kind = int(rng.integers(3))
            if kind == 1:
                data.insert(pos, byte)
            elif pos < len(data):
                if kind == 0:
                    data[pos] = byte
                else:
                    del data[pos]
        yield bytes(data)


def test_ppm_header_agrees_with_the_reference_tokenizer(tmp_path):
    path = tmp_path / "mutant.ppm"
    accepted = 0
    for data in _header_mutants(seed=99, count=5000):
        path.write_bytes(data)
        try:
            want = oracles.decode_ppm(data)
        except FormatError:
            with pytest.raises(FormatError):
                load_image(path)
            continue
        assert np.array_equal(load_image(path).pixels, want / 255.0), data
        accepted += 1
    assert 500 < accepted < 4500  # both outcomes are well exercised


def _load_bytes(tmp_path, data: bytes):
    path = tmp_path / "image.pgm"
    path.write_bytes(data)
    return load_image(path)


def _read_half_gram(tmp_path):
    """Read a DMTV file whose Gram section stops halfway."""
    path = tmp_path / "f.dmtv"
    write_feature_file(path, np.eye(3), 1, 1)
    append_gram(path)
    data = path.read_bytes()
    path.write_bytes(data[: 40 + 4 * 9 + 4 + 8 * 9 // 2])
    return read_feature_file(path)


def _read_header_only(tmp_path, K: int, D: int, m: int, n: int):
    """Read a 40-byte DMTV file: the header alone, with no V or Gram bytes."""
    path = tmp_path / "header.dmtv"
    path.write_bytes(b"DMTV" + struct.pack("<IQQQQ", 1, K, D, m, n))
    return read_feature_file(path)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: _load_bytes(tmp, b"P5\n0 2\n255\n"), FormatError, "bad dimensions 0x2"),
        (lambda tmp: _load_bytes(tmp, b"P5\n2 x 255\n\x00"), FormatError, "malformed or truncated"),
        (lambda tmp: _load_bytes(tmp, b"P5\n" + b"1" * 5000 + b" 1 255\n"), FormatError,
         "malformed or truncated"),
        (lambda tmp: _read_header_only(tmp, 2**63 + 1, 0, 2**62, 2**62), FormatError, "D=0"),
        (lambda tmp: _read_header_only(tmp, 2**40 + 1, 0, 2**39, 2**39), FormatError, "D=0"),
        (lambda tmp: _read_header_only(tmp, 2**32 + 1, 2**20, 2**31, 2**31), FormatError,
         "truncated V data"),
        (lambda tmp: _read_header_only(tmp, 0, 2**63, 0, 0), FormatError,
         "D=9223372036854775808 is too large for an array"),
        (_read_half_gram, FormatError, "truncated Gram data"),
        (lambda tmp: write_feature_file(tmp / "f.dmtv", np.zeros(3), 0, 0), InvalidInputError,
         "V must be 2-D"),
        (lambda tmp: write_feature_file(tmp / "f.dmtv", np.zeros((3, 2)), -1, 3), InvalidInputError,
         "m and n must be nonnegative"),
        (lambda tmp: Manifest(["s.ppm"], ["t.ppm"], ""), InvalidInputError,
         "manifest needs an [input] path"),
    ],
    ids=[
        "ppm-zero-width", "ppm-header", "ppm-long-digits", "dmtv-d0-k-2^63", "dmtv-d0-k-2^40",
        "dmtv-kd-beyond-file", "dmtv-k0-d-2^63", "dmtv-half-gram",
        "v-1d", "negative-m", "empty-input",
    ],
)
def test_checks_raise_package_errors(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
