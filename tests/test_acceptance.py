"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single ACCEPTANCE <n> PASS/FAIL line with its
measured runtime so the suite doubles as a checklist (run with -s or
read the captured output).
"""

import filecmp
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from dmtrav import formats, mmd
from dmtrav.features import (
    Conv,
    ExtractorSpec,
    ImageTensor,
    MaxPool,
    Relu,
    forward,
    identity_spec,
    init_weights,
    load_weights,
    reference_spec,
    save_weights,
)
from dmtrav.mmd import FeatureMatrix, KernelConfig
from oracles import finite_difference_gradient, tv_grad, weights_equal, with_gram
from dmtrav.reconstruct import ReconstructionConfig, invert, tv
from dmtrav.traversal import TraversalConfig, _embedding, materialize, traverse


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} FAIL ({time.perf_counter() - t0:.1f}s): {description}")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {num} {status} ({elapsed:.1f}s): {description}")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds the {budget_s}s budget"


def test_criterion_1_gram_path_equivalence():
    with criterion(1, "Gram-path equivalence over 20 seeded instances", 10.0):
        rng = np.random.default_rng(1000)
        for _ in range(20):
            K = int(rng.integers(3, 51))
            D = int(rng.integers(2, 1001))
            m = int(rng.integers(1, K - 1))
            n = K - 1 - m
            V = rng.standard_normal((K, D))
            G = mmd.gram(V)
            kcfg = KernelConfig(mmd.median_heuristic_sigma(G))
            r = 0.2 * rng.standard_normal(K)
            z = V.T @ (r + np.eye(K)[-1])
            factored = mmd.witness_factored(r, G, m, n, kcfg)
            direct = mmd.witness_direct(z, V, m, n, kcfg)
            assert factored.value == pytest.approx(direct.value, rel=1e-9, abs=1e-12)
            assert mmd.budget(r, G) == pytest.approx(
                float(np.sum((V.T @ r) ** 2)), rel=1e-9
            )


def test_criterion_2_gradient_suite():
    with criterion(2, "analytic gradients match central finite differences", 60.0):
        rng = np.random.default_rng(2000)

        # traversal objective gradient, as the solver takes it from
        # embedded_objective on the embedded rows X, at the displacement
        # a = X' r of the point V^T(e_K + r), at lambda = 0 and at one
        # lambda > 0 (tolerance 1e-5)
        for _ in range(5):
            K = int(rng.integers(4, 12))
            V = rng.standard_normal((K, int(rng.integers(3, 30))))
            m = int(rng.integers(1, K - 1))
            n = K - 1 - m
            G = mmd.gram(V)
            sigma = mmd.median_heuristic_sigma(G)
            r = 0.2 * rng.standard_normal(K)
            X, _ = _embedding(G)
            a = X.T @ r
            for lam in (0.0, 1.0 / sigma):
                fun = mmd.embedded_objective(X, m, n, sigma, lam)
                fd = finite_difference_gradient(lambda av: fun(av)[0], a, 1e-6)
                g = fun(a)[1]()
                mask = np.abs(fd) > 1e-10
                assert np.max(np.abs(g[mask] - fd[mask]) / np.abs(fd[mask])) < 1e-5

        # total-variation gradient (tolerance 1e-5)
        arr = np.random.default_rng(2001).uniform(0.1, 0.9, (8, 8, 1))
        g = tv_grad(ImageTensor(arr), 2.0).ravel()
        fd = finite_difference_gradient(
            lambda flat: tv(ImageTensor(flat.reshape(8, 8, 1)), 2.0), arr.ravel(), 1e-6
        )
        mask = np.abs(fd) > 1e-10
        assert np.max(np.abs(g[mask] - fd[mask]) / np.abs(fd[mask])) < 1e-5

        # through-extractor gradients (tolerance 1e-4); seeds chosen so no
        # +-h perturbation crosses a ReLU or pooling kink
        spec = ExtractorSpec((8, 8, 1), (Conv(3), Relu(), MaxPool(), Conv(4), Relu()), taps=(4,))
        weights = init_weights(spec, 5)

        rng2 = np.random.default_rng(61)
        x = rng2.uniform(0.15, 0.85, (8, 8, 1))
        z = forward(spec, weights, ImageTensor(rng2.uniform(0.2, 0.8, (8, 8, 1)))).features
        lam_tv = 0.001
        img = ImageTensor(x)
        fp = forward(spec, weights, img)
        resid = fp.features - z
        g = (fp.vjp(resid) + lam_tv * tv_grad(img, 2.0)).ravel()

        def recon_obj(flat):
            i = ImageTensor(flat.reshape(8, 8, 1))
            r = forward(spec, weights, i).features - z
            return 0.5 * float(r @ r) + lam_tv * tv(i, 2.0)

        fd = finite_difference_gradient(recon_obj, x.ravel(), 1e-5)
        mask = np.abs(fd) > 1e-8
        assert np.max(np.abs(g[mask] - fd[mask]) / np.abs(fd[mask])) < 1e-4

        rng3 = np.random.default_rng(62)
        w = 0.1 * rng3.standard_normal(spec.feature_dim())
        x = rng3.uniform(0.2, 0.8, (8, 8, 1))
        x_base = rng3.uniform(0.2, 0.8, (8, 8, 1))
        c_adv = 0.5
        img = ImageTensor(x)
        g = (-forward(spec, weights, img).vjp(w) + 2 * c_adv * (x - x_base)).ravel()

        def adv_obj(flat):
            i = ImageTensor(flat.reshape(8, 8, 1))
            d = flat - x_base.ravel()
            return -float(w @ forward(spec, weights, i).features) + c_adv * float(d @ d)

        fd = finite_difference_gradient(adv_obj, x.ravel(), 1e-5)
        mask = np.abs(fd) > 1e-8
        assert np.max(np.abs(g[mask] - fd[mask]) / np.abs(fd[mask])) < 1e-4


def test_criterion_3_brute_force_optimality():
    with criterion(3, "traverse matches grid optima; regularization path monotone", 60.0):
        for seed in (101, 202):
            rng = np.random.default_rng(seed)
            V = rng.uniform(-1.0, 1.0, (3, 3))
            V[0] += 1.0
            fm = with_gram(FeatureMatrix(V, 1, 1))
            sigma = mmd.median_heuristic_sigma(fm.G)
            lambdas = (0.3, 0.1, 0.03, 0.01)
            res = traverse(fm, TraversalConfig(lambdas=lambdas, kernel=KernelConfig(sigma)))
            wits, buds = [], []
            for lam, rec in zip(lambdas, res):
                _, obj, wit, bud = oracles.grid_min_traversal(V, 1, 1, sigma, lam)
                assert rec.objective == pytest.approx(obj, abs=1e-4)
                wits.append(wit)
                buds.append(bud)
            assert all(b <= a + 1e-12 for a, b in zip(wits, wits[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(buds, buds[1:]))


def test_criterion_4_dimension_independence():
    with criterion(4, "traverse wall time independent of feature dimension", 120.0):
        K = 30
        rng = np.random.default_rng(4000)
        V_small = rng.standard_normal((K, 1000))
        G = mmd.gram(V_small)
        V_big = np.zeros((K, 100000))
        V_big[:, :1000] = V_small  # same Gram, 100x the columns
        fm_small = FeatureMatrix(V_small, 14, 15, G)
        fm_big = FeatureMatrix(V_big, 14, 15, G)
        cfg = TraversalConfig(lambdas=(0.1, 0.01), kernel=KernelConfig(None))

        def best_time(fm):
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                result = traverse(fm, cfg)
                best = min(best, time.perf_counter() - t0)
            return best, result

        t_small, res_small = best_time(fm_small)
        t_big, res_big = best_time(fm_big)
        for a, b in zip(res_small, res_big):
            assert a.r.tobytes() == b.r.tobytes()  # identical Gram, identical solve
        assert t_big < 2.0 * t_small + 1e-3


def test_criterion_5_inversion_fidelity(reference):
    with criterion(5, "identity inversion exact; reference inversion within 1%", 120.0):
        spec_id = identity_spec(6, 6, 1)
        w_id = init_weights(spec_id, 0)
        target = np.random.default_rng(5000).uniform(0.05, 0.95, (6, 6, 1))
        res = invert(spec_id, w_id, target.ravel(), ReconstructionConfig(lambda_tv=0.0))
        assert np.max(np.abs(res.image.pixels - target)) <= 1e-6

        spec, weights = reference
        x0 = ImageTensor(np.random.default_rng(5001).uniform(0.2, 0.8, (32, 32, 1)))
        z = forward(spec, weights, x0).features
        res = invert(spec, weights, z, ReconstructionConfig(lambda_tv=0.001))
        assert res.final_feature_loss <= 0.01 * 0.5 * float(z @ z)


def test_criterion_6_decision_sweep(demo_runs):
    outcome, _, _, elapsed = demo_runs
    with criterion(6, "demo decision sweep: monotone, sign flip, Platt crossing", 180.0):
        assert elapsed < 180.0, f"demo run took {elapsed:.1f}s"
        base = outcome.baseline_decision
        decisions = outcome.decisions
        assert base < 0  # the input starts on the source side
        steps = np.diff([base] + decisions)
        assert np.all(steps >= 0)  # moves monotonically toward the target
        assert decisions[-1] > 0  # sign flip at the smallest lambda
        assert outcome.baseline_probability < 0.5 < outcome.probabilities[-1]


def test_criterion_7_adversarial_comparison(demo_runs):
    outcome, _, _, elapsed = demo_runs
    with criterion(7, "adversarial pixel L2 < traversal pixel L2 at matched decision", 180.0):
        assert elapsed < 180.0
        target = outcome.recon_decisions[-1]
        assert abs(outcome.adversarial_decision - target) <= 0.01 * abs(target)
        assert outcome.adversarial_l2 < outcome.traversal_l2_at_match


def test_criterion_8_lambda_dominance(demo_runs):
    outcome, dir_a, _, _ = demo_runs
    with criterion(8, "lambda=1e9 pins r at zero and reconstruction returns the input", 30.0):
        ff = formats.read_feature_file(dir_a / "features.dmtv")
        fm = ff.as_feature_matrix()
        res = traverse(fm, TraversalConfig(lambdas=(1e9,), kernel=KernelConfig(None)))
        rec = res[0]
        assert np.max(np.abs(rec.r)) < 1e-6

        spec = reference_spec()
        weights = init_weights(spec, 42)
        source = formats.load_image(dir_a / "dataset" / "input.ppm")
        z = materialize(fm, rec.r)
        # with r ~ 0 the init is the optimum of the feature term; TV off so
        # the start is exactly stationary
        out = invert(
            spec, weights, z, ReconstructionConfig(lambda_tv=0.0, init=source)
        )
        assert np.max(np.abs(out.image.pixels - source.pixels)) <= 1.0 / 255.0


def test_criterion_9_determinism(demo_runs):
    outcome, dir_a, dir_b, elapsed = demo_runs
    with criterion(9, "two demo runs are bit-identical", 2 * 180.0):
        assert 2 * elapsed < 2 * 180.0
        from pathlib import Path

        comparison = filecmp.dircmp(str(dir_a), str(dir_b))

        def assert_identical(cmp):
            assert not cmp.left_only and not cmp.right_only
            mismatched = [
                name
                for name in cmp.common_files
                if not filecmp.cmp(Path(cmp.left) / name, Path(cmp.right) / name, shallow=False)
            ]
            assert mismatched == []
            for sub in cmp.subdirs.values():
                assert_identical(sub)

        assert_identical(comparison)


def test_criterion_10_format_round_trips(tmp_path):
    with criterion(10, "weights, feature files, and PPM round-trip losslessly", 10.0):
        # weights
        spec = reference_spec()
        weights = init_weights(spec, 42)
        wpath = tmp_path / "w.dmtw"
        save_weights(weights, wpath)
        assert weights_equal(load_weights(wpath), weights)
        from dmtrav.errors import FormatError

        bad = tmp_path / "bad.dmtw"
        bad.write_bytes(b"WXYZ" + b"\x00" * 16)
        with pytest.raises(FormatError, match="bad magic"):
            load_weights(bad)
        truncated = tmp_path / "trunc.dmtw"
        truncated.write_bytes(wpath.read_bytes()[:-9])
        with pytest.raises(FormatError, match="truncated"):
            load_weights(truncated)

        # feature container with Gram section
        rng = np.random.default_rng(10000)
        V = rng.standard_normal((5, 16)).astype(np.float32).astype(float)
        fpath = tmp_path / "f.dmtv"
        formats.write_feature_file(fpath, V, 3, 1)
        formats.append_gram(fpath)
        ff = formats.read_feature_file(fpath)
        assert np.array_equal(ff.V, V)
        assert np.array_equal(ff.G, mmd.gram(V))
        corrupt = tmp_path / "c.dmtv"
        corrupt.write_bytes(b"ZZZZ" + fpath.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            formats.read_feature_file(corrupt)

        # PPM quantized round-trip, both kinds
        for channels in (1, 3):
            img = ImageTensor(rng.uniform(0, 1, (9, 7, channels)))
            ipath = tmp_path / f"img{channels}.ppm"
            formats.save_image(img, ipath)
            back = formats.load_image(ipath)
            assert np.array_equal(np.rint(back.pixels * 255), np.rint(img.pixels * 255))
            again = tmp_path / f"img{channels}b.ppm"
            formats.save_image(back, again)
            assert ipath.read_bytes() == again.read_bytes()
        short = tmp_path / "short.pgm"
        short.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            formats.load_image(short)
        wrongmax = tmp_path / "max.pgm"
        wrongmax.write_bytes(b"P5\n1 1\n254\n\x00")
        with pytest.raises(FormatError, match="maxval"):
            formats.load_image(wrongmax)
