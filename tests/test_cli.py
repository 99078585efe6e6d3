import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmtrav

from dmtrav.cli import (
    RunConfig,
    cmd_extract,
    cmd_gram,
    cmd_reconstruct,
    cmd_traverse,
    main,
)
from dmtrav.errors import InvalidInputError
from dmtrav.features import ImageTensor, forward, init_weights, reference_spec
from dmtrav.formats import (
    Manifest,
    format_manifest,
    load_image,
    parse_traversal_records,
    read_feature_file,
    read_vector,
    save_image,
    write_vector,
)
from dmtrav.mmd import FeatureMatrix, KernelConfig
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
        expected_target = forward(spec, weights, load_image(paths["target"])).features
        assert np.allclose(ff.V[0], expected_target.astype(np.float32), rtol=0, atol=0)

    def test_idempotent_bytes(self, tiny_dataset):
        tmp_path, manifest, _ = tiny_dataset
        run = RunConfig(out_dir=str(tmp_path / "out"))
        first = cmd_extract(manifest, run).read_bytes()
        second = cmd_extract(manifest, run).read_bytes()
        assert first == second

    def test_unreadable_image_names_path(self, tiny_dataset):
        tmp_path, manifest, _ = tiny_dataset
        bad = Manifest(["/nonexistent/img.ppm"], manifest.target_paths, manifest.input_path)
        with pytest.raises(InvalidInputError, match="nonexistent"):
            cmd_extract(bad, RunConfig(out_dir=str(tmp_path)))

    def test_size_mismatch_names_path(self, tiny_dataset):
        tmp_path, manifest, _ = tiny_dataset
        small = tmp_path / "small.ppm"
        save_image(ImageTensor(np.zeros((16, 16, 1))), small)
        bad = Manifest([str(small)], manifest.target_paths, manifest.input_path)
        with pytest.raises(InvalidInputError, match="small.ppm"):
            cmd_extract(bad, RunConfig(out_dir=str(tmp_path)))


class TestCmdTraverse:
    def prepared(self, tiny_dataset):
        tmp_path, manifest, paths = tiny_dataset
        run = RunConfig(out_dir=str(tmp_path / "out"))
        feature_file = cmd_extract(manifest, run)
        cmd_gram(feature_file)
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
        for row, rec in zip(rows, lib.records):
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
        out = cmd_reconstruct(zt_path, run)
        recon = load_image(out)
        assert np.max(np.abs(recon.pixels - x0.pixels)) <= 1.0 / 255.0 + 1e-12

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
        out = cmd_reconstruct(zt_path, run)
        recon = load_image(out)
        expected = np.clip(z.astype(np.float32).astype(float), 0.0, 1.0).reshape(8, 8, 1)
        assert np.max(np.abs(recon.pixels - expected)) <= 1.0 / 255.0 + 1e-12


class TestMainExitCodes:
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
        import struct

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

    def test_gram_of_other_rows_is_exit_2(self, tmp_path, capsys):
        from dmtrav.formats import write_feature_file
        from dmtrav.mmd import gram

        rng = np.random.default_rng(48)
        p = tmp_path / "f.dmtv"
        write_feature_file(p, rng.standard_normal((4, 3)), 2, 1, gram(rng.standard_normal((4, 3))))
        code = main(["traverse", str(p), "--lambda", "1e-3", "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "Gram diagonal" in capsys.readouterr().err

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
            (b'{"max_iters": 5\xff}', "UTF-8"),
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

    def test_non_numeric_sigma_is_exit_2(self, tmp_path, capsys):
        p = gram_file(tmp_path)
        code = main(["traverse", str(p), "--lambda", "1e-3", "--sigma", "foo",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "--sigma" in capsys.readouterr().err

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
        cmd_gram(feature_file)
        cmd_traverse(feature_file, run)
        zt = read_vector(tmp_path / "shallow" / "zt_0.dmtv")
        run_rec = RunConfig(
            extractor="identity", out_dir=out, init=str(paths["input"]), lambda_tv=0.0
        )
        recon = load_image(cmd_reconstruct(tmp_path / "shallow" / "zt_0.dmtv", run_rec))
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
        cmd_gram(feature_file)
        cmd_traverse(feature_file, run)
        labels = tmp_path / "labels.txt"
        labels.write_text("+1\n+1\n+1\n-1\n-1\n-1\n")

        from dmtrav.cli import cmd_eval

        report_path = cmd_eval(feature_file, out, labels)
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
        cmd_gram(feature_file)
        cmd_traverse(feature_file, run)
        labels = tmp_path / "labels.txt"
        labels.write_text("+1\n+1\n")

        from dmtrav.cli import cmd_eval

        with pytest.raises(InvalidInputError):
            cmd_eval(feature_file, out, labels)

    def test_all_equal_features_error(self, tmp_path):
        from dmtrav.errors import DegenerateDataError
        from dmtrav.cli import cmd_eval

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
        cmd_gram(feature_file)
        cmd_traverse(feature_file, run)
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join(["+1"] * 6 + ["-1"] * 6) + "\n")
        with pytest.raises(DegenerateDataError):
            cmd_eval(feature_file, out, labels)


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

    def test_requires_exactly_one_mode(self, tmp_path):
        from dmtrav.cli import cmd_adversarial

        with pytest.raises(InvalidInputError):
            cmd_adversarial("f", "l", "i", RunConfig(), c_adv=None, match_decision=None)


def test_cli_verbs_reproduce_demo_tree(demo_runs, tmp_path):
    _, demo, _, _ = demo_runs
    summary = [line.split() for line in (demo / "summary.txt").read_text().splitlines()]
    sigma = next(f[1] for f in summary if f[0] == "sigma")
    lambdas = [f[1] for f in summary if f[0] == "lambda"]
    c_adv = next(f[1] for f in summary if f[0] == "adversarial_c")
    out = str(tmp_path)
    features = str(tmp_path / "features.dmtv")
    config = tmp_path / "run.json"
    config.write_text('{"max_iters": 250}')

    assert main(["extract", str(demo / "manifest.txt"), "--out", out, "--quiet"]) == 0
    assert main(["gram", features, "--quiet"]) == 0
    lambda_args = [arg for lam in lambdas for arg in ("--lambda", lam)]
    assert main(["traverse", features, "--sigma", sigma, *lambda_args, "--out", out,
                 "--quiet"]) == 0
    assert main(["eval", features, out, str(demo / "labels.txt"), "--quiet"]) == 0
    assert main(["adversarial", features, str(demo / "labels.txt"),
                 str(demo / "dataset" / "input.ppm"), "--c-adv", c_adv,
                 "--config", str(config), "--out", out, "--quiet"]) == 0

    names = ["features.dmtv", "traversal_records.txt", "sweep_report.txt", "adversarial.ppm",
             "adversarial_report.txt"]
    names += [f"{kind}_{i}.dmtv" for kind in ("r", "zt") for i in range(len(lambdas))]
    for name in names:
        assert (tmp_path / name).read_bytes() == (demo / name).read_bytes(), name


def test_cli_does_not_import_demo():
    # the demo composes the CLI stages, so the reverse import would be a cycle
    env = {**os.environ, "PYTHONPATH": str(Path(dmtrav.__file__).parents[1])}
    probe = "import dmtrav.cli, sys; print('dmtrav.demo' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False"
