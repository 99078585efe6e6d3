import dataclasses
import json
import os
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dmtrav
from conftest import (
    DEMO_PIXEL_SOLVER,
    PROC_STAT,
    append_raw_gram,
    assert_no_child_left,
    count_calls,
    fork_thread_counts,
    huge_k_file,
)
from dmtrav import cli as cli_module
from dmtrav import demo as demo_module
from dmtrav import reconstruct as reconstruct_module
from dmtrav.cli import (
    RunConfig,
    _model_from_file,
    cmd_extract,
    cmd_traverse,
    main,
    reconstruct_to,
    sweep_to,
)
from dmtrav.errors import DmtravError, FormatError, InvalidInputError, NumericalError
from dmtrav.features import ImageTensor, forward, init_weights, reference_spec
from dmtrav.formats import (
    Manifest,
    append_gram,
    format_manifest,
    load_image,
    parse_traversal_records,
    read_feature_file,
    read_labels,
    read_vector,
    save_image,
    write_feature_file,
    write_vector,
)
from dmtrav.mmd import FeatureMatrix, KernelConfig
from dmtrav.reconstruct import tv
from dmtrav.traversal import TraversalConfig, traverse


def gram_file(tmp_path) -> Path:
    """A small seeded feature file with its Gram section."""
    from dmtrav.formats import write_feature_file

    p = tmp_path / "f.dmtv"
    write_feature_file(p, np.random.default_rng(49).standard_normal((5, 3)), 2, 2)
    assert main(["gram", str(p), "--quiet"]) == 0
    return p


@pytest.fixture
def tiny_dataset(tmp_path):
    """One source, one target, one input image at reference-extractor size."""
    rng = np.random.default_rng(41)
    paths = {}
    for name in ("source", "target", "input"):
        img = ImageTensor(rng.uniform(0.1, 0.9, (32, 32, 1)))
        p = tmp_path / f"{name}.ppm"
        save_image(img, p)
        paths[name] = p
    manifest = Manifest([str(paths["source"])], [str(paths["target"])], str(paths["input"]))
    return tmp_path, manifest, paths


class TestCmdExtract:
    def test_dimensions_and_order(self, tiny_dataset):
        tmp_path, manifest, paths = tiny_dataset
        run = RunConfig(out_dir=str(tmp_path / "out"))
        out = cmd_extract(manifest, run)
        ff = read_feature_file(out)
        assert ff.V.shape == (3, 6144)
        assert (ff.m, ff.n) == (1, 1)
        spec = reference_spec()
        weights = init_weights(spec, 42)
        stored = out.read_bytes()[40:]  # V follows the 40-byte header
        row_bytes = 4 * 6144
        assert len(stored) == 3 * row_bytes
        for i, name in enumerate(("target", "source", "input")):
            expected = forward(spec, weights, load_image(paths[name])).features.astype("<f4")
            assert stored[i * row_bytes : (i + 1) * row_bytes] == expected.tobytes()

    def test_idempotent_bytes(self, tiny_dataset):
        tmp_path, manifest, _ = tiny_dataset
        run = RunConfig(out_dir=str(tmp_path / "out"))
        first = cmd_extract(manifest, run).read_bytes()
        second = cmd_extract(manifest, run).read_bytes()
        assert first == second

    def test_unreadable_image_names_path(self, tiny_dataset, capsys):
        tmp_path, manifest, _ = tiny_dataset
        bad = Manifest(["/nonexistent/img.ppm"], manifest.target_paths, manifest.input_path)
        mpath = tmp_path / "manifest.txt"
        mpath.write_text(format_manifest(bad))
        assert main(["extract", str(mpath), "--out", str(tmp_path / "out")]) == 2
        assert "/nonexistent/img.ppm" in capsys.readouterr().err

    def test_size_mismatch_names_path(self, tiny_dataset):
        tmp_path, manifest, _ = tiny_dataset
        small = tmp_path / "small.ppm"
        save_image(ImageTensor(np.zeros((16, 16, 1))), small)
        bad = Manifest([str(small)], manifest.target_paths, manifest.input_path)
        with pytest.raises(InvalidInputError, match="small.ppm"):
            cmd_extract(bad, RunConfig(out_dir=str(tmp_path)))

    def test_images_that_do_not_fit_the_extractor_name_the_first(self, tmp_path, capsys):
        # the first row is checked against the extractor's input too, not taken as the norm
        paths = [tmp_path / f"{name}.ppm" for name in ("target", "source", "input")]
        for path in paths:
            save_image(ImageTensor(np.zeros((16, 16, 1))), path)
        mpath = tmp_path / "manifest.txt"
        mpath.write_text(format_manifest(Manifest([str(paths[1])], [str(paths[0])], str(paths[2]))))
        out = tmp_path / "out"
        assert main(["extract", str(mpath), "--out", str(out)]) == 2
        assert f"image {paths[0]} has shape (16, 16, 1)" in capsys.readouterr().err
        assert not (out / "features.dmtv").exists()

    def test_extract_holds_the_samples_and_a_few_rows(self, tmp_path):
        n = 600
        rng = np.random.default_rng(50)
        paths = []
        for i in range(n):
            path = tmp_path / f"{i}.ppm"
            save_image(ImageTensor(rng.random((32, 32, 1))), path)
            paths.append(str(path))
        manifest = Manifest(paths[: n // 2], paths[n // 2 : -1], paths[-1])
        run = RunConfig(out_dir=str(tmp_path / "out"))
        cmd_extract(manifest, run)  # the first call in a process also builds numpy's caches
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            out = cmd_extract(manifest, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        D = reference_spec().feature_dim()
        assert read_feature_file(out).V.shape == (n, D)
        # The uint8 samples (1 KiB each, under 1.5 KiB with their objects), 16 float64
        # rows, room for a forward pass's activations, and a block of f32 rows of at
        # most 256 KiB; V in f32 is 14.1 MiB.
        assert peak <= 1536 * n + 16 * 8 * D + 2**18

    def test_a_misfit_last_image_leaves_the_output_as_it_was(self, tiny_dataset):
        tmp_path, manifest, _ = tiny_dataset
        small = tmp_path / "small.ppm"
        save_image(ImageTensor(np.zeros((16, 16, 1))), small)
        bad = Manifest(manifest.source_paths, manifest.target_paths, str(small))
        out = tmp_path / "out"
        run = RunConfig(out_dir=str(out))
        with pytest.raises(InvalidInputError, match="small.ppm"):
            cmd_extract(bad, run)
        assert not out.exists() or not any(out.iterdir())
        good = cmd_extract(manifest, run).read_bytes()
        with pytest.raises(InvalidInputError, match="small.ppm"):
            cmd_extract(bad, run)
        assert list(out.iterdir()) == [out / "features.dmtv"]
        assert (out / "features.dmtv").read_bytes() == good

    @staticmethod
    def overflow(monkeypatch, *image_paths) -> None:
        """Make the features of each named image overflow f32, in whichever process."""
        pixels = [load_image(p).pixels for p in image_paths]
        real_forward = cli_module.forward

        def forward(spec, weights, image):
            result = real_forward(spec, weights, image)
            if any(np.array_equal(image.pixels, p) for p in pixels):
                result.features[0] = 1e39
            return result

        monkeypatch.setattr(cli_module, "forward", forward)

    def test_a_failure_after_rows_are_written_leaves_the_output_as_it_was(
        self, tiny_dataset, monkeypatch
    ):
        tmp_path, manifest, _ = tiny_dataset
        out = tmp_path / "out"
        run = RunConfig(out_dir=str(out))
        good = cmd_extract(manifest, run).read_bytes()
        # the input is the last row, extracted after the two others were written
        self.overflow(monkeypatch, manifest.input_path)
        with pytest.raises(NumericalError, match=re.escape(manifest.input_path)):
            cmd_extract(manifest, run)
        assert list(out.iterdir()) == [out / "features.dmtv"]
        assert (out / "features.dmtv").read_bytes() == good
        assert_no_child_left()

    def test_of_two_failing_rows_the_earlier_is_named(self, tiny_dataset, monkeypatch, capsys):
        # The source (row 1) is this process's second row and the input
        # (row 2) the child's first, so the child fails first in time; the
        # rows in order would meet the source first.
        tmp_path, manifest, _ = tiny_dataset
        out = tmp_path / "out"
        good = cmd_extract(manifest, RunConfig(out_dir=str(out))).read_bytes()
        self.overflow(monkeypatch, manifest.source_paths[0], manifest.input_path)
        mpath = tmp_path / "manifest.txt"
        mpath.write_text(format_manifest(manifest))
        assert main(["extract", str(mpath), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (
            f"numerical failure: features of image {manifest.source_paths[0]} "
            "are not finite in float32\n"
        )
        assert list(out.iterdir()) == [out / "features.dmtv"]
        assert (out / "features.dmtv").read_bytes() == good
        assert_no_child_left()

    @pytest.mark.parametrize("m, n", [(12, 12), (12, 11)], ids=["odd-K", "even-K"])
    def test_the_file_is_that_of_extracting_every_row_in_one_process(self, tmp_path, m, n):
        # 25 and 24 rows: each process writes more than one block of rows
        rng = np.random.default_rng(52)
        paths = []
        for i in range(m + n + 1):
            paths.append(tmp_path / f"{i}.ppm")
            save_image(ImageTensor(rng.random((32, 32, 1))), paths[-1])
        targets, sources = [str(p) for p in paths[:n]], [str(p) for p in paths[n:-1]]
        out = cmd_extract(Manifest(sources, targets, str(paths[-1])), RunConfig(out_dir=str(tmp_path)))
        spec = reference_spec()
        weights = init_weights(spec, 42)
        V = np.stack([forward(spec, weights, load_image(p)).features for p in paths])
        write_feature_file(tmp_path / "serial.dmtv", V, m, n)
        assert out.read_bytes() == (tmp_path / "serial.dmtv").read_bytes()
        assert_no_child_left()

    def test_a_killed_child_exits_2_and_leaves_the_output_as_it_was(
        self, tiny_dataset, monkeypatch, capsys
    ):
        tmp_path, manifest, _ = tiny_dataset
        out = tmp_path / "out"
        good = cmd_extract(manifest, RunConfig(out_dir=str(out))).read_bytes()
        parent, real_forward = os.getpid(), cli_module.forward

        def forward(spec, weights, image):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_forward(spec, weights, image)

        monkeypatch.setattr(cli_module, "forward", forward)
        mpath = tmp_path / "manifest.txt"
        mpath.write_text(format_manifest(manifest))
        assert main(["extract", str(mpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: a forked child was killed by signal 9 and sent no result\n"
        assert list(out.iterdir()) == [out / "features.dmtv"]
        assert (out / "features.dmtv").read_bytes() == good
        assert_no_child_left()

    def test_the_fork_sees_one_thread_and_warns_nothing(self, tiny_dataset, monkeypatch):
        # as the demo's test: a warning is recorded, since Python clears this
        # one after issuing it, so under "error" it would raise nothing
        tmp_path, manifest, _ = tiny_dataset
        counts = fork_thread_counts(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cmd_extract(manifest, RunConfig(out_dir=str(tmp_path / "out")))
        assert [str(w.message) for w in caught] == []
        assert counts == ([1] if PROC_STAT.exists() else [])
        assert_no_child_left()


class TestCmdTraverse:
    def prepared(self, tiny_dataset):
        tmp_path, manifest, paths = tiny_dataset
        run = RunConfig(out_dir=str(tmp_path / "out"))
        feature_file = cmd_extract(manifest, run)
        append_gram(feature_file)
        return tmp_path, run, feature_file

    def test_requires_gram(self, tiny_dataset):
        tmp_path, manifest, _ = tiny_dataset
        run = RunConfig(out_dir=str(tmp_path / "out"), lambdas=(1.0,))
        feature_file = cmd_extract(manifest, run)
        with pytest.raises(InvalidInputError, match="gram"):
            cmd_traverse(feature_file, run)

    def test_dominant_lambda_reproduces_input_row(self, tiny_dataset):
        tmp_path, run, feature_file = self.prepared(tiny_dataset)
        run = RunConfig(out_dir=run.out_dir, lambdas=(1e9,))
        result, _ = cmd_traverse(feature_file, run)
        zt = read_vector(tmp_path / "out" / "zt_0.dmtv")
        ff = read_feature_file(feature_file)
        assert np.max(np.abs(zt - ff.V[-1])) < 1e-4

    def test_records_match_library_traverse(self, tiny_dataset):
        tmp_path, run, feature_file = self.prepared(tiny_dataset)
        lambdas = (1e-3, 1e-4, 1e-5)
        run = RunConfig(out_dir=run.out_dir, lambdas=lambdas)
        _, records_path = cmd_traverse(feature_file, run)
        rows = parse_traversal_records(records_path.read_text())
        assert [r[0] for r in rows] == list(lambdas)

        ff = read_feature_file(feature_file)
        fm = FeatureMatrix(ff.V, ff.m, ff.n, ff.G)
        lib = traverse(fm, TraversalConfig(lambdas=lambdas, kernel=KernelConfig(None)))
        for row, rec in zip(rows, lib):
            assert row[1] == rec.objective  # full-precision repr round-trip
            assert row[2] == rec.witness.value
            assert row[3] == rec.budget
            assert row[4] == rec.trace.iterations

    def test_reconstruct_from_phi_returns_init(self, tiny_dataset):
        # lambda_tv = 0 makes the init the exact optimum; any TV weight
        # would add denoising pressure beyond quantization on a noisy image
        tmp_path, manifest, paths = tiny_dataset
        spec = reference_spec()
        weights = init_weights(spec, 42)
        x0 = load_image(paths["input"])
        z = forward(spec, weights, x0).features
        zt_path = tmp_path / "zt.dmtv"
        write_vector(zt_path, z)
        run = RunConfig(out_dir=str(tmp_path / "rec"), init=str(paths["input"]), lambda_tv=0.0)
        out = tmp_path / "rec" / "zt_recon.ppm"
        res = reconstruct_to(zt_path, run, out)
        recon = load_image(out)
        assert np.max(np.abs(recon.pixels - x0.pixels)) <= 1.0 / 255.0 + 1e-12
        # the result carries the written image and its features
        assert np.array_equal(res.image.pixels, recon.pixels)
        assert np.array_equal(res.features, forward(spec, weights, recon).features)

    def test_traversal_output_reconstructs_with_monotone_trace(self, tiny_dataset):
        tmp_path, run, feature_file = self.prepared(tiny_dataset)
        run = RunConfig(out_dir=run.out_dir, lambdas=(1e-4,), max_iters=150)
        cmd_traverse(feature_file, run)
        z = read_vector(tmp_path / "out" / "zt_0.dmtv")
        from dmtrav.reconstruct import ReconstructionConfig, invert

        spec = reference_spec()
        weights = init_weights(spec, 42)
        res = invert(spec, weights, z, ReconstructionConfig(solver=run.solver()))
        vals = res.trace.objective_values
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_identity_extractor_reconstruction(self, tmp_path):
        rng = np.random.default_rng(43)
        z = rng.uniform(-0.2, 1.2, 64)  # values outside the box clamp at bounds
        zt_path = tmp_path / "zt.dmtv"
        write_vector(zt_path, z)
        img_path = tmp_path / "probe.ppm"
        save_image(ImageTensor(np.full((8, 8, 1), 0.5)), img_path)
        run = RunConfig(
            extractor="identity", out_dir=str(tmp_path), init=str(img_path), lambda_tv=0.0
        )
        out = tmp_path / "zt_recon.ppm"
        reconstruct_to(zt_path, run, out)
        recon = load_image(out)
        expected = np.clip(z.astype(np.float32).astype(float), 0.0, 1.0).reshape(8, 8, 1)
        assert np.max(np.abs(recon.pixels - expected)) <= 1.0 / 255.0 + 1e-12

    def reconstruct_argv(self, tiny_dataset, max_iters: int) -> list[str]:
        tmp_path, _, paths = tiny_dataset
        spec = reference_spec()
        z = forward(spec, init_weights(spec, 42), load_image(paths["target"])).features
        write_vector(tmp_path / "zt.dmtv", z)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"max_iters": max_iters}))
        return ["reconstruct", str(tmp_path / "zt.dmtv"), "--init", str(paths["input"]),
                "--config", str(config), "--out", str(tmp_path / "rec")]

    def test_reconstruct_quiet_prints_nothing(self, tiny_dataset, capsys):
        assert main([*self.reconstruct_argv(tiny_dataset, 5), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert (tiny_dataset[0] / "rec" / "zt_recon.ppm").exists()

    def test_reconstruct_line_says_why_the_solve_stopped(self, tiny_dataset, capsys):
        assert main(self.reconstruct_argv(tiny_dataset, 1)) == 0
        line, path = capsys.readouterr().out.splitlines()
        assert line.startswith("feature_loss ")
        assert line.endswith(" iterations 1 stopped max_iters")
        assert path == str(tiny_dataset[0] / "rec" / "zt_recon.ppm")


class TestMainExitCodes:
    @pytest.mark.parametrize("base, code", [(DmtravError, 2), (NumericalError, 3)])
    def test_exit_code_follows_the_error_hierarchy(self, monkeypatch, capsys, base, code):
        # an error class main does not name still gets its base class's exit code
        class NewError(base):
            pass

        def fail(*args, **kwargs):
            raise NewError("a new kind of failure")

        monkeypatch.setattr(dmtrav.formats, "append_gram", fail)
        assert main(["gram", "f.dmtv", "--quiet"]) == code
        assert "a new kind of failure" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["eval", "demo"])
    def test_config_flag_rejected_where_unread(self, verb, tmp_path, capsys):
        # eval and demo take no run settings, so argparse refuses --config
        args = {"eval": ["f.dmtv", "run", "labels.txt"], "demo": []}[verb]
        config = tmp_path / "run.json"
        config.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main([verb, *args, "--config", str(config), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_manifest_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "m.txt"
        bad.write_text("[source]\nmissing.ppm\n[target]\n\n[input]\nx.ppm\n")
        code = main(["extract", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_gram_is_exit_2_with_hint(self, tiny_dataset, capsys):
        tmp_path, manifest, _ = tiny_dataset
        mpath = tmp_path / "manifest.txt"
        mpath.write_text(format_manifest(manifest))
        out = str(tmp_path / "out")
        assert main(["extract", str(mpath), "--out", out, "--quiet"]) == 0
        code = main(["traverse", f"{out}/features.dmtv", "--lambda", "1.0", "--out", out])
        assert code == 2
        assert "gram" in capsys.readouterr().err

    def test_gram_then_traverse_succeeds(self, tiny_dataset, capsys):
        tmp_path, manifest, _ = tiny_dataset
        mpath = tmp_path / "manifest.txt"
        mpath.write_text(format_manifest(manifest))
        out = str(tmp_path / "out")
        assert main(["extract", str(mpath), "--out", out, "--quiet"]) == 0
        assert main(["gram", f"{out}/features.dmtv", "--quiet"]) == 0
        code = main(
            ["traverse", f"{out}/features.dmtv", "--lambda", "1e-3", "--sigma", "median",
             "--out", out, "--quiet"]
        )
        assert code == 0
        assert (tmp_path / "out" / "traversal_records.txt").exists()

    def test_corrupt_feature_file_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "f.dmtv"
        p.write_bytes(b"JUNKJUNKJUNK")
        assert main(["gram", str(p)]) == 2

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["gram", str(tmp_path / "nope.dmtv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_gram_twice_writes_the_same_bytes(self, tmp_path):
        p = gram_file(tmp_path)
        first = p.read_bytes()
        assert main(["gram", str(p), "--quiet"]) == 0
        assert p.read_bytes() == first

    @pytest.mark.parametrize(
        "fault", ["truncated", "diagonal-doubled", "section-magic", "stray-bytes-after-v"]
    )
    def test_gram_replaces_whatever_follows_v(self, tmp_path, fault):
        p = gram_file(tmp_path)
        good = p.read_bytes()
        end = 40 + 4 * 5 * 3  # the end of V
        g00 = end + 4  # the offset of G[0, 0]
        if fault == "truncated":
            p.write_bytes(good[:-8])
        elif fault == "diagonal-doubled":
            doubled = struct.pack("<d", 2.0 * struct.unpack("<d", good[g00 : g00 + 8])[0])
            p.write_bytes(good[:g00] + doubled + good[g00 + 8 :])
        elif fault == "section-magic":
            p.write_bytes(good[:end] + b"XXXX" + good[g00:])
        else:
            p.write_bytes(good[:end] + b"junk")
        with pytest.raises(FormatError):
            read_feature_file(p)
        assert main(["gram", str(p), "--quiet"]) == 0
        assert p.read_bytes() == good

    def test_gram_has_no_overwrite_flag(self, tmp_path, capsys):
        p = gram_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["gram", str(p), "--overwrite"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --overwrite" in capsys.readouterr().err

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        from dmtrav.formats import write_feature_file

        # a subnormal kernel width overflows the witness gradient at the start
        rng = np.random.default_rng(46)
        V = 1e3 * rng.standard_normal((4, 3))
        p = tmp_path / "f.dmtv"
        write_feature_file(p, V, 2, 1)
        assert main(["gram", str(p), "--quiet"]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["traverse", str(p), "--lambda", "1e305", "--sigma", "1e-310",
                         "--out", str(tmp_path), "--quiet"])
        assert code == 3
        assert "numerical" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["100", "median"])
    def test_nan_in_gram_is_exit_2(self, tmp_path, capsys, sigma):
        from dmtrav.formats import write_feature_file

        V = np.random.default_rng(47).standard_normal((4, 3))
        p = tmp_path / "f.dmtv"
        write_feature_file(p, V, 2, 1)
        assert main(["gram", str(p), "--quiet"]) == 0
        data = bytearray(p.read_bytes())
        g11 = 40 + 4 * V.size + 4 + 8 * (4 + 1)
        data[g11 : g11 + 8] = struct.pack("<d", float("nan"))
        p.write_bytes(bytes(data))
        code = main(["traverse", str(p), "--lambda", "1e-3", "--sigma", sigma,
                     "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "non-finite value in Gram" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--lambda", "nan"],
            ["--lambda", "inf"],
            ["--lambda", "1e-3", "--lambda", "nan"],
            ["--lambda", "1e-3", "--sigma", "inf"],
            ["--lambda", "1e-3", "--sigma", "nan"],
        ],
    )
    def test_non_finite_lambda_or_sigma_is_exit_2(self, tmp_path, capsys, args):
        p = gram_file(tmp_path)
        code = main(["traverse", str(p), *args, "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [([], "no lambdas given"), (["--lambda", "1e-5", "--lambda", "1e-3"], "descending")],
    )
    def test_lambdas_are_checked_before_the_feature_file_is_read(
        self, tmp_path, capsys, monkeypatch, args, message
    ):
        p = gram_file(tmp_path)

        def unread(*_):
            raise AssertionError("the feature file was read")

        monkeypatch.setattr(cli_module.formats, "read_feature_file", unread)
        assert main(["traverse", str(p), *args, "--out", str(tmp_path), "--quiet"]) == 2
        assert message in capsys.readouterr().err

    def test_gram_of_other_rows_is_exit_2(self, tmp_path, capsys):
        from dmtrav.formats import write_feature_file
        from dmtrav.mmd import gram

        rng = np.random.default_rng(48)
        p = tmp_path / "f.dmtv"
        write_feature_file(p, rng.standard_normal((4, 3)), 2, 1)
        append_raw_gram(p, gram(rng.standard_normal((4, 3))))
        code = main(["traverse", str(p), "--lambda", "1e-3", "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "Gram diagonal" in capsys.readouterr().err

    def test_gram_section_too_short_for_a_huge_k_is_exit_2(self, tmp_path, capsys):
        p = huge_k_file(tmp_path)
        code = main(["traverse", str(p), "--lambda", "1e-3", "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "truncated Gram data" in capsys.readouterr().err

    def test_gram_with_a_negative_eigenvalue_is_exit_2(self, tmp_path, capsys):
        from dmtrav.formats import write_feature_file
        from dmtrav.mmd import gram

        # the diagonal matches the rows, but |G01| = 3 sqrt(G00 G11) is no inner product
        V = np.random.default_rng(49).standard_normal((9, 4)).astype(np.float32)
        G = gram(V)
        G[0, 1] = G[1, 0] = 3.0 * np.sqrt(G[0, 0] * G[1, 1])
        p = tmp_path / "f.dmtv"
        write_feature_file(p, V, 4, 4)
        append_raw_gram(p, G)
        code = main(["traverse", str(p), "--lambda", "1e-3", "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "not positive semidefinite" in capsys.readouterr().err
        assert not (tmp_path / "traversal_records.txt").exists()

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"lambdas": [0.1, 0.01], "sigma": "median", "max_iters": 50}')
        run = RunConfig.from_json(cfg)
        assert run.lambdas == (0.1, 0.01)
        assert run.sigma is None
        assert run.max_iters == 50

    def test_config_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"bogus": 1}')
        with pytest.raises(InvalidInputError, match="bogus"):
            RunConfig.from_json(cfg)

    def test_config_file_accepts_every_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            '{"extractor": "identity", "weight_seed": 7, "weight_file": null, "sigma": 2,'
            ' "lambdas": [1, 0.5], "lambda_tv": 0, "beta": 1.5, "init": "mid_gray",'
            ' "max_iters": 10, "out_dir": "o"}'
        )
        run = RunConfig.from_json(cfg)
        assert run.sigma == 2 and run.lambdas == (1.0, 0.5) and run.weight_file is None

    @pytest.mark.parametrize(
        "config, message",
        [
            (b'{"lambdas": 5}', "'lambdas'"),
            (b'{"lambdas": ["x"]}', "'lambdas'"),
            (b'{"max_iters": "abc"}', "'max_iters'"),
            (b'{"max_iters": 2.5}', "'max_iters'"),
            (b'{"sigma": "foo"}', "'sigma'"),
            (b'{"weight_seed": -1}', "'weight_seed'"),
            (b'{"out_dir": ""}', "'out_dir'"),
            pytest.param(b'{"lambdas": [1' + b"0" * 400 + b"]}", "'lambdas'",
                         id="lambdas-400-digits"),
            (b'{"max_iters": 5\xff}', "UTF-8"),
            pytest.param(b'{"max_iters": ' + b"1" * 5000 + b"}", "invalid JSON",
                         id="max_iters-5000-digits"),
        ],
    )
    def test_bad_config_value_is_exit_2(self, tmp_path, capsys, config, message):
        p = gram_file(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_bytes(config)
        code = main(["traverse", str(p), "--config", str(cfg), "--lambda", "1e-3",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_negative_demo_seed_is_exit_2_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["demo", "--seed", "-1", "--out", str(out), "--quiet"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_sigma_is_exit_2(self, tmp_path, capsys):
        p = gram_file(tmp_path)
        code = main(["traverse", str(p), "--lambda", "1e-3", "--sigma", "foo",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "config key 'sigma' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb", ["extract", "traverse", "traverse-config", "reconstruct", "eval", "adversarial",
                 "demo"],
    )
    def test_empty_out_is_exit_2_and_writes_nothing(
        self, traversed_run, tmp_path, monkeypatch, capsys, verb
    ):
        # an empty --out is an error, not the current directory, the config's
        # out_dir or the verb's default
        root = traversed_run
        features, labels = str(root / "run" / "features.dmtv"), str(root / "labels.txt")
        config = _config_file(tmp_path, json.dumps({"out_dir": "cfgout"}))
        argv = {
            "extract": ["extract", str(root / "manifest.txt")],
            "traverse": ["traverse", features, "--lambda", "1e-3"],
            "traverse-config": ["traverse", features, "--lambda", "1e-3", "--config", str(config)],
            "reconstruct": ["reconstruct", str(root / "run" / "zt_0.dmtv")],
            "eval": ["eval", features, str(root / "run"), labels],
            "adversarial": ["adversarial", features, labels, str(root / "probe.ppm"),
                            "--c-adv", "1"],
            "demo": ["demo"],
        }[verb]
        monkeypatch.chdir(tmp_path)
        before = sorted(root.rglob("*")) + sorted(tmp_path.rglob("*"))
        assert main([*argv, "--out", "", "--quiet"]) == 2
        assert "config key 'out_dir' must be a nonempty string" in capsys.readouterr().err
        assert sorted(root.rglob("*")) + sorted(tmp_path.rglob("*")) == before

    def test_traverse_flags_win_over_the_config_file(self, tmp_path, monkeypatch):
        sweeps = count_calls(monkeypatch, cli_module.traversal, "traverse")
        config = _config_file(
            tmp_path, json.dumps({"out_dir": str(tmp_path / "cfg"), "lambdas": [1e-2, 1e-4],
                                  "sigma": 5.0})
        )
        flags = ["--out", str(tmp_path / "flag"), "--lambda", "1e-3", "--sigma", "median"]
        argv = ["traverse", str(gram_file(tmp_path)), "--config", str(config), *flags, "--quiet"]
        assert main(argv) == 0
        [(_, cfg)] = sweeps
        assert cfg.lambdas == (1e-3,)
        assert cfg.kernel.sigma is None
        assert (tmp_path / "flag" / "traversal_records.txt").exists()
        assert not (tmp_path / "cfg").exists()

    def test_init_flag_wins_over_the_config_file(self, tiny_dataset):
        tmp_path, _, paths = tiny_dataset
        write_vector(tmp_path / "zt.dmtv", np.full(6144, 0.5))
        config = _config_file(
            tmp_path, json.dumps({"init": str(tmp_path / "missing.ppm"), "max_iters": 1})
        )
        argv = ["reconstruct", str(tmp_path / "zt.dmtv"), "--config", str(config),
                "--init", str(paths["input"]), "--out", str(tmp_path / "rec"), "--quiet"]
        assert main(argv) == 0
        assert (tmp_path / "rec" / "zt_recon.ppm").exists()

    @pytest.mark.parametrize("flag", ["--sigma", "--init", "--config"])
    def test_empty_flag_is_exit_2_before_a_solve(self, tmp_path, capsys, monkeypatch, flag):
        # an empty value is given, so it is checked, not dropped for the default
        sweeps = count_calls(monkeypatch, cli_module.traversal, "traverse")
        solves = count_calls(monkeypatch, reconstruct_module, "solve_pixels")
        if flag in ("--sigma", "--config"):
            argv = ["traverse", str(gram_file(tmp_path)), "--lambda", "1e-3"]
        else:
            write_vector(tmp_path / "zt.dmtv", np.full(6144, 0.5))
            argv = ["reconstruct", str(tmp_path / "zt.dmtv")]
        code = main([*argv, flag, "", "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert sweeps == [] and solves == []
        assert not (tmp_path / "o").exists()

    def test_unsavable_channel_count_is_exit_2_before_a_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # a 2-channel input can be inverted but not saved as PPM: refuse it up front
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text("input 8 8 2\nconv 4\nrelu\ntap\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"extractor": str(spec_file)}))
        write_vector(tmp_path / "zt.dmtv", np.zeros(8 * 8 * 4))
        solves = count_calls(monkeypatch, reconstruct_module, "solve_pixels")
        out = tmp_path / "o"
        code = main(["reconstruct", str(tmp_path / "zt.dmtv"), "--config", str(config),
                     "--out", str(out), "--quiet"])
        assert code == 2
        assert "only 1- or 3-channel images can be saved, got 2" in capsys.readouterr().err
        assert solves == []
        assert not out.exists()

    def test_weight_file_reproduces_seeded_features(self, tiny_dataset):
        from dmtrav.features import save_weights

        tmp_path, manifest, _ = tiny_dataset
        weights = init_weights(reference_spec(), 42)
        wpath = tmp_path / "ref.dmtw"
        save_weights(weights, wpath)

        seeded = cmd_extract(manifest, RunConfig(out_dir=str(tmp_path / "a"), weight_seed=42))
        from_file = cmd_extract(
            manifest, RunConfig(out_dir=str(tmp_path / "b"), weight_file=str(wpath))
        )
        assert seeded.read_bytes() == from_file.read_bytes()

    def test_features_overflowing_float32_are_exit_3_and_write_no_file(
        self, tiny_dataset, capsys
    ):
        from dmtrav.features import WeightSet, save_weights

        tmp_path, manifest, paths = tiny_dataset
        ref = init_weights(reference_spec(), 42)
        scaled = WeightSet(ref.layers, ref.taps, tuple(k * 1e13 for k in ref.kernels), ref.biases)
        wpath = tmp_path / "scaled.dmtw"
        save_weights(scaled, wpath)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"weight_file": str(wpath)}))
        mpath = tmp_path / "manifest.txt"
        mpath.write_text(format_manifest(manifest))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning may escape
            code = main(["extract", str(mpath), "--config", str(config), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and str(paths["target"]) in err  # the first row
        assert not (out / "features.dmtv").exists()

    def test_default_weight_seed_is_42_for_every_extractor(self, tmp_path):
        from oracles import weights_equal

        spec_file = tmp_path / "net.txt"
        spec_file.write_text("input 8 8 1\nconv 2\nrelu\ntap\n")
        for run in (RunConfig(), RunConfig(extractor=str(spec_file))):
            spec = run.resolve_spec()
            assert weights_equal(run.resolve_weights(spec), init_weights(spec, 42))

    def test_custom_extractor_spec_file(self, tiny_dataset):
        tmp_path, manifest, _ = tiny_dataset
        spec_file = tmp_path / "net.txt"
        spec_file.write_text("input 32 32 1\nconv 4\nrelu\ntap\npool\n")
        run = RunConfig(extractor=str(spec_file), weight_seed=7, out_dir=str(tmp_path / "c"))
        out = cmd_extract(manifest, run)
        ff = read_feature_file(out)
        assert ff.V.shape == (3, 4 * 32 * 32)

    def test_shallow_pixel_space_traversal(self, tiny_dataset):
        # the pixel-space baseline is the identity extractor, no extra code:
        # traversed features ARE pixels and reconstruct to them directly
        tmp_path, manifest, paths = tiny_dataset
        out = str(tmp_path / "shallow")
        run = RunConfig(extractor="identity", out_dir=out, lambdas=(1e-4,))
        feature_file = cmd_extract(manifest, run)
        ff = read_feature_file(feature_file)
        assert ff.V.shape == (3, 32 * 32)
        append_gram(feature_file)
        cmd_traverse(feature_file, run)
        zt = read_vector(tmp_path / "shallow" / "zt_0.dmtv")
        run_rec = RunConfig(
            extractor="identity", out_dir=out, init=str(paths["input"]), lambda_tv=0.0
        )
        recon_path = tmp_path / "shallow" / "zt_0_recon.ppm"
        reconstruct_to(tmp_path / "shallow" / "zt_0.dmtv", run_rec, recon_path)
        recon = load_image(recon_path)
        expected = np.clip(zt, 0.0, 1.0).reshape(32, 32, 1)
        assert np.max(np.abs(recon.pixels - expected)) <= 1.0 / 255.0 + 1e-12


class TestCmdEval:
    def test_separable_toy_flips_probability(self, tmp_path):
        # 3 sources + 3 targets around distinct pixel levels, identity-free
        # path through the reference extractor
        rng = np.random.default_rng(44)
        source_paths, target_paths = [], []
        for i in range(3):
            s = ImageTensor(np.clip(0.25 + 0.05 * rng.standard_normal((32, 32, 1)), 0, 1))
            t = ImageTensor(np.clip(0.75 + 0.05 * rng.standard_normal((32, 32, 1)), 0, 1))
            sp, tp = tmp_path / f"s{i}.ppm", tmp_path / f"t{i}.ppm"
            save_image(s, sp)
            save_image(t, tp)
            source_paths.append(str(sp))
            target_paths.append(str(tp))
        inp = tmp_path / "input.ppm"
        save_image(ImageTensor(np.clip(0.25 + 0.05 * rng.standard_normal((32, 32, 1)), 0, 1)), inp)
        manifest = Manifest(source_paths, target_paths, str(inp))

        out = tmp_path / "out"
        run = RunConfig(out_dir=str(out), lambdas=(1e-3, 1e-5))
        feature_file = cmd_extract(manifest, run)
        append_gram(feature_file)
        cmd_traverse(feature_file, run)
        labels = tmp_path / "labels.txt"
        labels.write_text("+1\n+1\n+1\n-1\n-1\n-1\n")

        _, report_path = sweep_to(*_model_from_file(feature_file, labels), out, out)
        lines = [
            l for l in report_path.read_text().splitlines() if l and not l.startswith("#")
        ]
        assert len(lines) == 3  # baseline + 2 lambdas
        base_prob = float(lines[0].split()[2])
        last_prob = float(lines[-1].split()[2])
        assert base_prob < 0.5 < last_prob

    def test_single_class_labels_rejected(self, tiny_dataset):
        tmp_path, manifest, _ = tiny_dataset
        out = tmp_path / "out"
        run = RunConfig(out_dir=str(out), lambdas=(1e-3,))
        feature_file = cmd_extract(manifest, run)
        append_gram(feature_file)
        cmd_traverse(feature_file, run)
        labels = tmp_path / "labels.txt"
        labels.write_text("+1\n+1\n")

        with pytest.raises(InvalidInputError):
            sweep_to(*_model_from_file(feature_file, labels), out, out)

    @pytest.mark.parametrize(
        "labels, message",
        [
            ("+1\n+1\n-1\n-1\n", "the held-out (every fifth, from the first) split has only +1"),
            ("-1\n+1\n+1\n+1\n", "the training split has only +1 labels"),
        ],
        ids=["held-out", "training"],
    )
    def test_a_split_with_one_label_is_named(self, tmp_path, capsys, labels, message):
        # two sources and two targets: row 0 is the held-out split, rows 1-3 the training split
        rng = np.random.default_rng(46)
        paths = []
        for i in range(5):
            paths.append(str(tmp_path / f"img{i}.ppm"))
            save_image(ImageTensor(rng.uniform(0.1, 0.9, (32, 32, 1))), paths[-1])
        manifest = Manifest(paths[:2], paths[2:4], paths[4])
        (tmp_path / "manifest.txt").write_text(format_manifest(manifest))
        (tmp_path / "labels.txt").write_text(labels)
        out = str(tmp_path / "out")
        assert main(["extract", str(tmp_path / "manifest.txt"), "--out", out, "--quiet"]) == 0
        assert main(["gram", f"{out}/features.dmtv", "--quiet"]) == 0
        assert main(["eval", f"{out}/features.dmtv", out, str(tmp_path / "labels.txt")]) == 2
        assert message in capsys.readouterr().err

    def test_all_equal_features_error(self, tmp_path):
        from dmtrav.errors import DegenerateDataError

        # identical images everywhere: no separation anywhere in the pipeline
        img = ImageTensor(np.full((32, 32, 1), 0.5))
        paths = []
        for i in range(12):
            p = tmp_path / f"img{i}.ppm"
            save_image(img, p)
            paths.append(str(p))
        inp = tmp_path / "input.ppm"
        save_image(img, inp)
        manifest = Manifest(paths[:6], paths[6:], str(inp))
        out = tmp_path / "out"
        run = RunConfig(out_dir=str(out), lambdas=(1e-3,), sigma=1.0)
        feature_file = cmd_extract(manifest, run)
        append_gram(feature_file)
        cmd_traverse(feature_file, run)
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join(["+1"] * 6 + ["-1"] * 6) + "\n")
        with pytest.raises(DegenerateDataError):
            sweep_to(*_model_from_file(feature_file, labels), out, out)


@pytest.fixture(scope="module")
def traversed_run(tmp_path_factory):
    """Three sources, three targets and a probe image, extracted, Gram'd and traversed in run/."""
    root = tmp_path_factory.mktemp("traversed")
    rng = np.random.default_rng(50)
    paths = []
    for name, level in [*((f"s{i}", 0.3) for i in range(3)), *((f"t{i}", 0.7) for i in range(3)),
                        ("probe", 0.3)]:
        paths.append(str(root / f"{name}.ppm"))
        save_image(ImageTensor(np.clip(level + 0.05 * rng.standard_normal((32, 32, 1)), 0, 1)),
                   paths[-1])
    (root / "manifest.txt").write_text(format_manifest(Manifest(paths[:3], paths[3:6], paths[6])))
    (root / "labels.txt").write_text("+1\n+1\n+1\n-1\n-1\n-1\n")
    run = str(root / "run")
    assert main(["extract", str(root / "manifest.txt"), "--out", run, "--quiet"]) == 0
    assert main(["gram", f"{run}/features.dmtv", "--quiet"]) == 0
    assert main(["traverse", f"{run}/features.dmtv", "--lambda", "1e-3", "--out", run,
                 "--quiet"]) == 0
    return root


@pytest.fixture
def adversarial_inputs(tmp_path):
    """(feature_file, labels, probe image, run config, out dir) on three-image blocks."""
    rng = np.random.default_rng(45)
    source_paths, target_paths = [], []
    for i in range(3):
        s = ImageTensor(np.clip(0.3 + 0.05 * rng.standard_normal((32, 32, 1)), 0, 1))
        t = ImageTensor(np.clip(0.7 + 0.05 * rng.standard_normal((32, 32, 1)), 0, 1))
        sp, tp = tmp_path / f"s{i}.ppm", tmp_path / f"t{i}.ppm"
        save_image(s, sp)
        save_image(t, tp)
        source_paths.append(str(sp))
        target_paths.append(str(tp))
    inp = tmp_path / "probe.ppm"
    save_image(ImageTensor(np.clip(0.3 + 0.05 * rng.standard_normal((32, 32, 1)), 0, 1)), inp)
    manifest = Manifest(source_paths, target_paths, str(inp))
    out = tmp_path / "out"
    run = RunConfig(out_dir=str(out), max_iters=120)
    feature_file = cmd_extract(manifest, run)
    labels = tmp_path / "labels.txt"
    labels.write_text("+1\n+1\n+1\n-1\n-1\n-1\n")
    return feature_file, labels, inp, run, out


def _report_line(report) -> str:
    return [l for l in report.read_text().splitlines() if l and not l.startswith("#")][0]


class TestCmdAdversarial:
    def test_direct_c_adv(self, adversarial_inputs):
        from dmtrav.cli import cmd_adversarial

        feature_file, labels, inp, run, out = adversarial_inputs
        report = cmd_adversarial(feature_file, labels, str(inp), run, c_adv=1.0)
        line = _report_line(report)
        c_val, decision, l2 = (float(v) for v in line.split())
        assert c_val == 1.0
        assert l2 >= 0.0
        assert (out / "adversarial.ppm").exists()

    def test_match_decision_reproduced_by_c_adv(self, adversarial_inputs, tmp_path):
        from dmtrav.cli import cmd_adversarial

        feature_file, labels, inp, run, out = adversarial_inputs
        # a decision the solver reaches: the one at c_adv = 1
        report = cmd_adversarial(feature_file, labels, str(inp), run, c_adv=1.0)
        target = float(_report_line(report).split()[1])
        config = tmp_path / "run.json"
        config.write_text('{"max_iters": 120}')
        args = ["adversarial", str(feature_file), str(labels), str(inp), "--config", str(config)]
        assert main([*args, "--match-decision", repr(target), "--out", str(out / "m")]) == 0
        matched = _report_line(out / "m" / "adversarial_report.txt")
        c_val, decision, _ = (float(v) for v in matched.split())
        assert abs(decision - target) <= 0.01 * abs(target)
        assert 1e-12 < c_val < 1e12  # found by a solve, not at an end of the range
        assert main([*args, "--c-adv", matched.split()[0], "--out", str(out / "c")]) == 0
        assert _report_line(out / "c" / "adversarial_report.txt") == matched
        assert (out / "c" / "adversarial.ppm").read_bytes() == (
            out / "m" / "adversarial.ppm"
        ).read_bytes()

    @pytest.mark.parametrize(
        "mode",
        ["--c-adv=inf", "--c-adv=nan", "--match-decision=inf", "--match-decision=-inf",
         "--match-decision=nan"],
    )
    def test_non_finite_value_exits_2_before_a_forward_pass(
        self, adversarial_inputs, monkeypatch, mode
    ):
        from dmtrav import evaluate

        feature_file, labels, inp, _, out = adversarial_inputs
        # the solves run every forward pass of adversarial_perturb
        passes = count_calls(monkeypatch, evaluate, "forward")
        solves = count_calls(monkeypatch, evaluate, "solve_pixels")
        args = ["adversarial", str(feature_file), str(labels), str(inp), mode]
        assert main([*args, "--out", str(out / "x"), "--quiet"]) == 2
        assert passes == [] and solves == []
        assert not (out / "x" / "adversarial.ppm").exists()

    def test_requires_exactly_one_mode(self, tmp_path):
        from dmtrav.cli import cmd_adversarial

        with pytest.raises(InvalidInputError):
            cmd_adversarial("f", "l", "i", RunConfig(), c_adv=None, match_decision=None)


def test_cli_verbs_reproduce_demo_tree(demo_runs, reference, tmp_path):
    _, demo, _, _ = demo_runs
    summary = [line.split() for line in (demo / "summary.txt").read_text().splitlines()]
    sigma = next(f[1] for f in summary if f[0] == "sigma")
    sweep = [dict(zip(f[::2], f[1::2])) for f in summary if f[0] == "lambda"]
    lambdas = [rec["lambda"] for rec in sweep]
    target = min(sweep, key=lambda rec: float(rec["lambda"]))["recon_decision"]
    out = str(tmp_path)
    features = str(tmp_path / "features.dmtv")
    labels = str(demo / "labels.txt")
    input_image = str(demo / "dataset" / "input.ppm")
    pixel_config = tmp_path / "pixel.json"
    pixel_config.write_text(json.dumps({"max_iters": DEMO_PIXEL_SOLVER.max_iters}))

    assert main(["extract", str(demo / "manifest.txt"), "--out", out, "--quiet"]) == 0
    assert main(["gram", features, "--quiet"]) == 0
    lambda_args = [arg for lam in lambdas for arg in ("--lambda", lam)]
    assert main(["traverse", features, "--sigma", sigma, *lambda_args, "--out", out,
                 "--quiet"]) == 0
    for i in range(len(lambdas)):
        assert main(["reconstruct", str(tmp_path / f"zt_{i}.dmtv"), "--init", input_image,
                     "--config", str(pixel_config), "--out", out, "--quiet"]) == 0
    assert main(["eval", features, out, labels, "--quiet"]) == 0
    assert main(["adversarial", features, labels, input_image, "--match-decision", target,
                 "--config", str(pixel_config), "--out", out, "--quiet"]) == 0

    names = ["features.dmtv", "traversal_records.txt", "sweep_report.txt", "adversarial.ppm",
             "adversarial_report.txt"]
    names += [f"{kind}_{i}.dmtv" for kind in ("r", "zt") for i in range(len(lambdas))]
    for name in names:
        assert (tmp_path / name).read_bytes() == (demo / name).read_bytes(), name
    for i in range(len(lambdas)):
        recon = (tmp_path / f"zt_{i}_recon.ppm").read_bytes()
        assert recon == (demo / f"recon_{i}.ppm").read_bytes(), i

    # every recon_decision and recon_l2 of the summary follows from the written files
    fm = read_feature_file(demo / "features.dmtv").as_feature_matrix()
    model = dmtrav.fit_classifier(fm, read_labels(labels, fm.K - 1))
    spec, weights = reference
    source = load_image(input_image)
    for i, rec in enumerate(sweep):
        recon = load_image(demo / f"recon_{i}.ppm")
        decision, _ = dmtrav.predict(model, forward(spec, weights, recon).features)
        assert repr(decision) == rec["recon_decision"], i
        assert repr(float(np.linalg.norm(recon.pixels - source.pixels))) == rec["recon_l2"], i


def test_verbs_print_what_they_wrote(demo_runs, tmp_path, capsys):
    # without --quiet, extract, gram, traverse and eval each print one line
    _, demo, _, _ = demo_runs
    features = tmp_path / "features.dmtv"
    assert main(["extract", str(demo / "manifest.txt"), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{features}\n"
    assert main(["gram", str(features)]) == 0
    assert capsys.readouterr().out == f"Gram section written to {features}\n"
    assert main(["traverse", str(features), "--lambda", "1e-3", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'traversal_records.txt'}\n"
    assert main(["eval", str(features), str(tmp_path), str(demo / "labels.txt")]) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'sweep_report.txt'}\n"


def test_reconstruct_reports_the_loss_of_the_written_image(demo_runs, reference, tmp_path,
                                                           capsys):
    # the feature loss and TV printed for each demo lambda's inversion are
    # those of recon_<i>.ppm as read back, not of the float solve
    _, demo, _, _ = demo_runs
    spec, weights = reference
    n_lambdas = len(demo_module.DEMO_LAMBDA_SCALES)
    config = tmp_path / "recon.json"
    config.write_text(json.dumps({"max_iters": DEMO_PIXEL_SOLVER.max_iters}))
    input_image = str(demo / "dataset" / "input.ppm")
    for i in range(n_lambdas):
        zt = demo / f"zt_{i}.dmtv"
        assert main(["reconstruct", str(zt), "--init", input_image, "--config", str(config),
                     "--out", str(tmp_path)]) == 0
        fields = capsys.readouterr().out.split()
        written = demo / f"recon_{i}.ppm"
        assert (tmp_path / f"zt_{i}_recon.ppm").read_bytes() == written.read_bytes(), i
        recon = load_image(written)
        resid = forward(spec, weights, recon).features - read_vector(zt)
        assert fields[:4] == ["feature_loss", repr(0.5 * float(resid @ resid)),
                              "tv", repr(tv(recon))], i


def test_cli_does_not_import_demo():
    # the demo composes the CLI stages, so the reverse import would be a cycle
    env = {**os.environ, "PYTHONPATH": str(Path(dmtrav.__file__).parents[1])}
    probe = "import dmtrav.cli, sys; print('dmtrav.demo' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False"


def _config_file(tmp_path, text: str) -> Path:
    path = tmp_path / "run.json"
    path.write_text(text, encoding="utf-8")
    return path


def _short_zt_file(tmp_path) -> Path:
    path = tmp_path / "zt.dmtv"
    write_vector(path, np.zeros(5))
    return path


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: RunConfig.from_json(_config_file(tmp, "{")), FormatError, "invalid JSON"),
        (lambda tmp: RunConfig.from_json(_config_file(tmp, "[1]")), FormatError,
         "config must be a JSON object"),
        (lambda tmp: RunConfig(max_iters="abc"), InvalidInputError,
         "config key 'max_iters' must be an integer, got 'abc'"),
        (lambda tmp: dataclasses.replace(RunConfig(), out_dir=""), InvalidInputError,
         "config key 'out_dir' must be a nonempty string, got ''"),
        (lambda tmp: RunConfig(extractor="identity").resolve_spec(), InvalidInputError,
         "identity extractor needs an image"),
        (lambda tmp: cmd_traverse(gram_file(tmp), RunConfig(out_dir=str(tmp))), InvalidInputError,
         "no lambdas given"),
        (lambda tmp: reconstruct_to(_short_zt_file(tmp), RunConfig(), tmp / "zt_recon.ppm"),
         InvalidInputError, "holds 5 values but the extractor produces 6144"),
    ],
    ids=["json-syntax", "json-array", "max-iters-text", "replace-empty-out-dir",
         "identity-without-image", "no-lambdas", "zt-length"],
)
def test_checks_raise_package_errors(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
