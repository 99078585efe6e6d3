import dataclasses
import logging
import math
import re
import warnings

import numpy as np
import pytest

import oracles
from conftest import DEMO_PIXEL_SOLVER, count_calls, seeded_instance
from dmtrav import evaluate, formats, reconstruct
from dmtrav.errors import InvalidInputError, NoMatchError
from dmtrav.evaluate import (
    AdversarialResult,
    ClassifierModel,
    adversarial_perturb,
    fit_classifier,
    match_regularizer,
    platt_fit,
    predict,
    sweep_decisions,
    train_svm,
)
from dmtrav.features import ImageTensor, identity_spec, init_weights
from dmtrav.mmd import FeatureMatrix, gram
from dmtrav.traversal import TraversalConfig, traverse
from oracles import with_gram

# 2-D 8-point instance (default_rng(21), two displaced normal clusters) with
# c_reg = 0.7. Grid value frozen from oracles.svm_grid_min over
# (w1, w2, b) in [-3, 3]^3 at step 0.01 (coarse 0.05 + refinement); a literal
# full 0.01 grid pass reproduced it to 3e-13.
SVM_GRID_OBJECTIVE = 1.2017767061965656


def svm_instance():
    rng = np.random.default_rng(21)
    X = np.vstack(
        [rng.normal([-1.0, -0.6], 0.45, (4, 2)), rng.normal([0.9, 0.8], 0.45, (4, 2))]
    )
    y = np.array([-1.0] * 4 + [1.0] * 4)
    return X, y, 0.7


def primal_svm(X, y, c_reg):
    """train_svm on the Gram matrix of the rows of X, as the primal (w = X^T beta, b)."""
    X = np.asarray(X, dtype=float)
    beta, b = train_svm(gram(X), y, c_reg)
    return X.T @ beta, b


class TestTrainSvm:
    def test_separable_symmetric_pair(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        w, b = primal_svm(X, y, 1.0)
        assert w[0] > 0
        margins = y * (X @ w + b)
        assert np.all(margins >= 1.0 - 1e-3)

    def test_duplication_with_halved_c_is_invariant(self):
        X, y, c = svm_instance()
        w1, b1 = primal_svm(X, y, c)
        w2, b2 = primal_svm(np.vstack([X, X]), np.concatenate([y, y]), c / 2.0)
        assert np.max(np.abs(w1 - w2)) < 1e-6
        assert abs(b1 - b2) < 1e-6

    def test_matches_grid_oracle(self):
        X, y, c = svm_instance()
        w, b = primal_svm(X, y, c)
        obj = oracles.svm_objective(w, b, X, y, c)
        assert obj == pytest.approx(SVM_GRID_OBJECTIVE, abs=1e-3)
        # the live coarse-to-fine oracle reproduces the frozen value
        _, grid_obj = oracles.svm_grid_min(X, y, c)
        assert grid_obj == pytest.approx(SVM_GRID_OBJECTIVE, abs=1e-12)

    def test_objective_never_worse_than_start(self):
        X, y, c = svm_instance()
        w, b = primal_svm(X, y, c)
        start = oracles.svm_objective(np.zeros(2), 0.0, X, y, c)
        assert oracles.svm_objective(w, b, X, y, c) <= start

    @pytest.mark.parametrize("problem", ["instance", "duplicated", "symmetric_pair"])
    def test_matches_primal_oracle(self, problem):
        X, y, c = svm_instance()
        if problem == "duplicated":
            X, y, c = np.vstack([X, X]), np.concatenate([y, y]), c / 2.0
        elif problem == "symmetric_pair":
            X, y, c = np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), 1.0
        assert_matches_primal_oracle(X, y, c)

    def test_matches_primal_oracle_on_demo_rows(self, demo_runs):
        _, demo, _, _ = demo_runs
        features = formats.read_feature_file(demo / "features.dmtv").as_feature_matrix()
        labels = formats.read_labels(demo / "labels.txt", features.K - 1)
        train = np.arange(features.K - 1) % 5 != 0  # fit_classifier's training split
        assert_matches_primal_oracle(features.V[: features.K - 1][train], labels[train], 1.0)

    def test_zero_padded_dimensions_change_nothing(self):
        X, y, c = svm_instance()
        X = np.hstack([X, np.random.default_rng(22).standard_normal((X.shape[0], 6))])
        D = X.shape[1]
        w, b = primal_svm(X, y, c)
        w16, b16 = primal_svm(np.hstack([X, np.zeros((X.shape[0], 15 * D))]), y, c)
        assert w16.shape == (16 * D,)
        assert np.all(w16[D:] == 0.0)
        assert np.max(np.abs(w16[:D] - w)) <= 1e-12 * np.max(np.abs(w))
        assert abs(b16 - b) <= 1e-12 * abs(b)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            primal_svm(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]), 1.0)

    def test_bad_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            primal_svm(np.array([[1.0], [2.0]]), np.array([1.0, 0.0]), 1.0)


def assert_matches_primal_oracle(X, y, c):
    w, b = primal_svm(X, y, c)
    w_o, b_o = oracles.primal_subgradient_svm(X, y, c)
    assert np.max(np.abs(w - w_o)) <= 1e-10 * np.max(np.abs(w_o))
    assert abs(b - b_o) <= 1e-10 * abs(b_o)


class TestPlattFit:
    def test_separated_values_monotone_agreement(self):
        f = np.array([-1.0] * 8 + [1.0] * 8)
        labels = np.array([0] * 8 + [1] * 8)
        a, b = platt_fit(f, labels)
        assert a < 0
        model = ClassifierModel(np.array([1.0]), 0.0, a, b)
        assert predict(model, [1.0])[1] > 0.5 > predict(model, [-1.0])[1]

    def test_mirror_symmetry_gives_zero_intercept(self):
        f = np.array([-2.0, -1.0, -0.25, 0.25, 1.0, 2.0])
        labels = np.array([0, 0, 0, 1, 1, 1])
        _, b = platt_fit(f, labels)
        assert abs(b) < 1e-8

    def test_recovers_generating_sigmoid(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(-3, 3, 200)
        p = 1.0 / (1.0 + np.exp(-2.0 * f + 0.5))
        labels = (rng.uniform(size=200) < p).astype(int)
        a, b = platt_fit(f, labels)
        assert abs(a - (-2.0)) < 0.3
        assert abs(b - 0.5) < 0.3

    def test_single_label_rejected(self):
        with pytest.raises(InvalidInputError):
            platt_fit([1.0, 2.0], [1, 1])

    def test_probabilities_strictly_inside_unit_interval(self):
        f = np.array([-50.0, -1.0, 1.0, 50.0])
        labels = np.array([0, 0, 1, 1])
        a, b = platt_fit(f, labels)
        model = ClassifierModel(np.array([1.0]), 0.0, a, b)
        for v in (-1e3, -1.0, 0.0, 1.0, 1e3):
            prob = predict(model, [v])[1]
            assert 0.0 < prob < 1.0


class TestPredict:
    def test_hand_computed_three_d(self):
        model = ClassifierModel(np.array([1.0, -2.0, 0.5]), 0.25, -1.0, 0.1)
        z = np.array([2.0, 0.5, 4.0])
        decision, prob = predict(model, z)
        assert decision == pytest.approx(2.0 - 1.0 + 2.0 + 0.25, abs=1e-15)
        assert prob == pytest.approx(1.0 / (1.0 + np.exp(-1.0 * decision + 0.1)), abs=1e-15)

    def test_zero_weights_constant_output(self):
        model = ClassifierModel(np.zeros(3), 0.7, -1.0, 0.0)
        outs = {predict(model, z) for z in (np.zeros(3), np.ones(3), np.full(3, -5.0))}
        assert len(outs) == 1

    def test_zero_decision_with_zero_intercepts_gives_half(self):
        model = ClassifierModel(np.array([1.0]), 0.0, -1.5, 0.0)
        assert predict(model, [0.0])[1] == 0.5

    def test_large_platt_argument_does_not_overflow(self):
        # a * decision + b = 1000, past where exp overflows
        model = ClassifierModel(np.array([1.0]), 0.0, -1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = predict(model, [-1000.0])[1]
        assert 0.0 <= prob <= 1.0

    def test_dimension_mismatch(self):
        model = ClassifierModel(np.zeros(3), 0.0, -1.0, 0.0)
        with pytest.raises(InvalidInputError):
            predict(model, [1.0])


class TestSweepDecisions:
    def test_identical_blocks_stay_at_baseline(self):
        block = np.random.default_rng(7).standard_normal((2, 4))
        V = np.vstack([block, block, block[:1] * 0.5])
        fm = with_gram(FeatureMatrix(V, 2, 2))
        res = traverse(fm, TraversalConfig(lambdas=(0.5, 0.1)))
        model = ClassifierModel(np.ones(4) * 0.3, -0.1, -1.0, 0.0)
        report = sweep_decisions(model, [(rec.lam, rec.r) for rec in res], fm)
        baseline = report[0]
        assert baseline.lam is None
        for rec in report[1:]:
            assert rec.decision_value == pytest.approx(baseline.decision_value, abs=1e-9)

    def test_single_lambda_gives_two_records(self):
        V, m, n = seeded_instance(70, K=5, D=6)
        fm = with_gram(FeatureMatrix(V, m, n))
        res = traverse(fm, TraversalConfig(lambdas=(0.2,)))
        model = ClassifierModel(np.zeros(6), 0.0, -1.0, 0.0)
        report = sweep_decisions(model, [(rec.lam, rec.r) for rec in res], fm)
        assert len(report) == 2

    def test_dimension_checked(self):
        V, m, n = seeded_instance(71, K=5, D=6)
        fm = with_gram(FeatureMatrix(V, m, n))
        res = traverse(fm, TraversalConfig(lambdas=(0.2,)))
        model = ClassifierModel(np.zeros(4), 0.0, -1.0, 0.0)
        with pytest.raises(InvalidInputError):
            sweep_decisions(model, [(rec.lam, rec.r) for rec in res], fm)


def pixel_model(rng, size, scale=0.01):
    w = scale * rng.standard_normal(size)
    return ClassifierModel(w, 0.0, -1.0, 0.0)


class TestAdversarial:
    def test_huge_regularizer_freezes_image(self):
        rng = np.random.default_rng(80)
        spec = identity_spec(5, 5, 1)
        weights = init_weights(spec, 0)
        model = pixel_model(rng, 25, scale=0.5)
        img = ImageTensor(rng.uniform(0.3, 0.7, (5, 5, 1)))
        base = predict(model, img.pixels.ravel())[0]
        res = adversarial_perturb(spec, weights, model, img, 1e9)
        assert np.max(np.abs(res.delta)) < 1e-5
        assert res.decision_value == pytest.approx(base, abs=1e-3)

    def test_identity_extractor_closed_form(self):
        # minimizing -w.(x+delta) + c|delta|^2 in the interior gives
        # delta = w / (2c)
        rng = np.random.default_rng(81)
        spec = identity_spec(4, 4, 1)
        weights = init_weights(spec, 0)
        model = pixel_model(rng, 16)
        img = ImageTensor(np.full((4, 4, 1), 0.5))
        c = 1.0
        res = adversarial_perturb(spec, weights, model, img, c)
        assert np.max(np.abs(res.delta.ravel() - model.w / (2 * c))) < 1e-8
        assert res.l2_pixel_distance == pytest.approx(
            float(np.linalg.norm(model.w / (2 * c))), rel=1e-6
        )

    def test_perturbed_within_unit_box(self):
        rng = np.random.default_rng(82)
        spec = identity_spec(4, 4, 1)
        weights = init_weights(spec, 0)
        model = pixel_model(rng, 16, scale=5.0)
        img = ImageTensor(rng.uniform(0, 1, (4, 4, 1)))
        res = adversarial_perturb(spec, weights, model, img, 1e-4)
        assert res.perturbed.pixels.min() >= 0.0
        assert res.perturbed.pixels.max() <= 1.0

    @pytest.mark.parametrize("c_adv", [0.0, -1.0, np.inf, np.nan])
    def test_non_finite_or_nonpositive_c_adv_rejected_before_a_forward_pass(
        self, monkeypatch, c_adv
    ):
        rng = np.random.default_rng(84)
        spec = identity_spec(4, 4, 1)
        model = pixel_model(rng, 16)
        img = ImageTensor(np.full((4, 4, 1), 0.5))
        # every forward pass of adversarial_perturb runs inside its pixel solve
        solves = count_calls(monkeypatch, evaluate, "solve_pixels")
        with pytest.raises(InvalidInputError, match="c_adv"):
            adversarial_perturb(spec, init_weights(spec, 0), model, img, c_adv)
        assert solves == []

    def test_model_dimension_checked_before_a_solve(self, monkeypatch):
        rng = np.random.default_rng(85)
        spec = identity_spec(4, 4, 1)
        img = ImageTensor(np.full((4, 4, 1), 0.5))
        solves = count_calls(monkeypatch, evaluate, "solve_pixels")
        with pytest.raises(InvalidInputError, match="model dimension"):
            adversarial_perturb(spec, init_weights(spec, 0), pixel_model(rng, 15), img, 1.0)
        assert solves == []

    def test_image_shape_checked_before_a_solve(self, monkeypatch):
        rng = np.random.default_rng(86)
        spec = identity_spec(4, 4, 1)
        img = ImageTensor(np.full((4, 2, 2), 0.5))  # 16 pixels, but not 4x4x1
        solves = count_calls(monkeypatch, reconstruct, "minimize")
        with pytest.raises(InvalidInputError, match="shape"):
            adversarial_perturb(spec, init_weights(spec, 0), pixel_model(rng, 16), img, 1.0)
        assert solves == []


class TestMatchRegularizer:
    def setup_method(self):
        rng = np.random.default_rng(83)
        self.spec = identity_spec(4, 4, 1)
        self.weights = init_weights(self.spec, 0)
        self.model = pixel_model(rng, 16, scale=0.4)
        self.img = ImageTensor(np.full((4, 4, 1), 0.5))
        self.base = predict(self.model, self.img.pixels.ravel())[0]

    def test_baseline_target_returns_huge_c(self):
        c = match_regularizer(self.spec, self.weights, self.model, self.img, self.base).c_adv
        assert c >= 1e6

    def test_shift_monotone_in_c(self):
        shifts = []
        for c in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
            res = adversarial_perturb(self.spec, self.weights, self.model, self.img, c)
            shifts.append(abs(res.decision_value - self.base))
        assert all(b <= a + 1e-9 for a, b in zip(shifts, shifts[1:]))

    def test_matches_requested_decision(self):
        best = adversarial_perturb(self.spec, self.weights, self.model, self.img, 1e-12)
        target = self.base + 0.5 * (best.decision_value - self.base)
        c = match_regularizer(self.spec, self.weights, self.model, self.img, target).c_adv
        achieved = adversarial_perturb(
            self.spec, self.weights, self.model, self.img, c
        ).decision_value
        assert abs(achieved - target) <= 0.01 * abs(target)

    def test_unreachable_target_raises(self):
        with pytest.raises(NoMatchError):
            match_regularizer(self.spec, self.weights, self.model, self.img, 1e6)

    def target_at(self, fraction: float) -> float:
        """The decision this fraction of the way from the clean one to the largest shift."""
        best = adversarial_perturb(self.spec, self.weights, self.model, self.img, 1e-12)
        return self.base + fraction * (best.decision_value - self.base)

    def assert_reproduced(self, res):
        fresh = adversarial_perturb(self.spec, self.weights, self.model, self.img, res.c_adv)
        for f in dataclasses.fields(res):
            a, b = getattr(res, f.name), getattr(fresh, f.name)
            if isinstance(a, ImageTensor):
                a, b = a.pixels, b.pixels
            assert np.array_equal(a, b), f.name

    def test_matched_result_equals_fresh_solve(self):
        res = match_regularizer(
            self.spec, self.weights, self.model, self.img, self.target_at(0.5)
        )
        assert 1e-12 < res.c_adv < 1e12
        self.assert_reproduced(res)

    def test_unperturbed_end_takes_no_solve(self, monkeypatch):
        solves = count_calls(monkeypatch, evaluate, "solve_pixels")
        res = match_regularizer(self.spec, self.weights, self.model, self.img, self.base)
        assert solves == []
        monkeypatch.undo()
        self.assert_reproduced(res)

    def test_fewer_solves_than_bisection(self, monkeypatch):
        # Bisection on log c_adv over the same bracket, with a full solve at
        # c_adv = 1e12, made 12 adversarial_perturb calls on this target, and
        # Illinois from the ends of the range 7. The identity extractor's
        # decision is linear in the pixels and this perturbation stays inside
        # the unit box, so the linearised start matches in one solve.
        target = self.target_at(0.5)
        calls = count_calls(monkeypatch, evaluate, "adversarial_perturb")
        res = match_regularizer(self.spec, self.weights, self.model, self.img, target)
        assert abs(res.decision_value - target) <= 0.01 * abs(target)
        assert len(calls) == 1

    def test_box_clipped_target_brackets_in_few_solves(self, monkeypatch):
        # At 0.9 of the largest shift the unit box clips the linearised
        # perturbation, so the search brackets; Illinois from the ends of the
        # range made 15 solves here.
        target = self.target_at(0.9)
        calls = count_calls(monkeypatch, evaluate, "adversarial_perturb")
        res = match_regularizer(self.spec, self.weights, self.model, self.img, target)
        assert abs(res.decision_value - target) <= 0.01 * abs(target)
        assert len(calls) <= 5

    @pytest.mark.parametrize("max_steps", [0, 1, 2, 4])
    def test_max_steps_bounds_the_solves(self, monkeypatch, caplog, max_steps):
        # this target needs 8 solves, so each budget runs out
        monkeypatch.setattr(evaluate, "_MATCH_MAX_SOLVES", max_steps)
        calls = count_calls(monkeypatch, evaluate, "adversarial_perturb")
        with caplog.at_level(logging.WARNING, logger="dmtrav.evaluate"):
            match_regularizer(self.spec, self.weights, self.model, self.img, self.target_at(0.95))
        assert len(calls) == max_steps
        assert len(caplog.records) == 1

    def test_wrong_side_target_raises_without_a_solve(self, monkeypatch):
        # every solve only raises the decision from its clean value
        solves = count_calls(monkeypatch, evaluate, "solve_pixels")
        with pytest.raises(NoMatchError, match="far side"):
            match_regularizer(self.spec, self.weights, self.model, self.img, self.base - 0.5)
        assert solves == []

    @pytest.mark.parametrize("target", [np.inf, -np.inf, np.nan])
    def test_non_finite_target_raises_before_a_forward_pass(self, monkeypatch, target):
        passes = count_calls(monkeypatch, evaluate, "forward")
        solves = count_calls(monkeypatch, evaluate, "solve_pixels")
        with pytest.raises(InvalidInputError, match="finite"):
            match_regularizer(self.spec, self.weights, self.model, self.img, target)
        assert passes == [] and solves == []

    def test_bracket_takes_the_midpoint_and_halves_a_kept_end(self, monkeypatch):
        # A stubbed decision curve in c_adv drives the search through the
        # midpoint fallback and the Illinois halving. It need not be monotone
        # in c_adv, as the search itself allows. The clean decision is 0 and
        # |g|^2 = 4, so with target 2 the first probe is c0 = 4 / (2 * 2) = 1.
        target = 2.0
        model = ClassifierModel(np.full(16, 0.5), -4.0, -1.0, 0.0)
        probed = []

        def curve(spec, weights, model, image, c, cfg=None):
            level = math.log10(c)
            if level > -0.25:
                gap = -0.1
            elif level > -0.55:
                gap = -1.0
            elif level > -0.7:
                gap = 0.0
            else:
                gap = 20.0
            probed.append(c)
            return AdversarialResult(np.zeros((4, 4, 1)), image, target + gap, 0.0, c)

        monkeypatch.setattr(evaluate, "adversarial_perturb", curve)
        res = match_regularizer(self.spec, self.weights, model, self.img, target)
        # With a = log 0.1: c = 1 falls short (gap -0.1) and c = 0.1 overshoots
        # (+20), which brackets [a, 0]. The secant point lies 99.5% of the way
        # to 0, in the outer 1%, so the midpoint a/2 is taken; it falls short
        # (-1). The secant then gives 11a/21, short again, so a has been kept
        # twice and its gap is halved to 10; the secant on (a, 10), (11a/21, -1)
        # gives 131a/231, which matches. Without the halving it would be
        # 241a/441, short once more.
        assert probed == pytest.approx(
            [1.0, 0.1, 10 ** -0.5, 10 ** (-11 / 21), 10 ** (-131 / 231)], rel=1e-12
        )
        assert res.c_adv == probed[-1] and res.decision_value == target

    def test_missed_match_warns_once(self, monkeypatch, caplog):
        # At 0.9 of the largest shift the unit box clips the linearised
        # perturbation, so the first solve falls short of the target.
        target = self.target_at(0.9)
        with caplog.at_level(logging.WARNING, logger="dmtrav.evaluate"):
            match_regularizer(self.spec, self.weights, self.model, self.img, target)
            assert caplog.records == []
            monkeypatch.setattr(evaluate, "_MATCH_MAX_SOLVES", 1)
            res = match_regularizer(self.spec, self.weights, self.model, self.img, target)
        assert abs(res.decision_value - target) > 0.01 * abs(target)
        assert [r.name for r in caplog.records] == ["dmtrav.evaluate"]
        message = caplog.records[0].getMessage()
        assert repr(target) in message
        assert repr(res.decision_value) in message
        assert "after 1 steps" in message


def test_demo_match_solve_count(demo_runs, reference, monkeypatch):
    # A work count, not a time: the demo's matching from its own tree.
    _, demo, _, _ = demo_runs
    features = formats.read_feature_file(demo / "features.dmtv").as_feature_matrix()
    model = evaluate.fit_classifier(
        features, formats.read_labels(demo / "labels.txt", features.K - 1)
    )
    summary = [line.split() for line in (demo / "summary.txt").read_text().splitlines()]
    fields = {f[0]: f[1] for f in summary if f[0] != "lambda"}
    sweep = [dict(zip(f[::2], f[1::2])) for f in summary if f[0] == "lambda"]
    target = float(min(sweep, key=lambda rec: float(rec["lambda"]))["recon_decision"])
    spec, weights = reference
    image = formats.load_image(demo / "dataset" / "input.ppm")
    calls = count_calls(monkeypatch, evaluate, "adversarial_perturb")
    res = match_regularizer(spec, weights, model, image, target, cfg=DEMO_PIXEL_SOLVER)
    assert len(calls) <= 4
    assert repr(res.c_adv) == fields["adversarial_c"]
    assert repr(res.decision_value) == fields["adversarial_decision"]


def test_fit_classifier_takes_the_same_model_from_the_file_gram_as_from_the_rows(
    demo_runs, monkeypatch
):
    # The file's G and mmd.gram of the training rows differ in their last
    # bits, but Pegasos reads G only through which margins fall below 1
    # and which iterate is best, so the model keeps every bit.
    _, demo, _, _ = demo_runs
    features = formats.read_feature_file(demo / "features.dmtv").as_feature_matrix()
    labels = formats.read_labels(demo / "labels.txt", features.K - 1)
    grams = count_calls(monkeypatch, evaluate.mmd, "gram")
    from_file = fit_classifier(features, labels)
    assert grams == []
    from_rows = fit_classifier(FeatureMatrix(features.V, features.m, features.n), labels)
    assert len(grams) == 1
    assert np.array_equal(from_rows.w, from_file.w)
    assert (from_rows.b, from_rows.platt_a, from_rows.platt_b) == (
        from_file.b, from_file.platt_a, from_file.platt_b
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ClassifierModel(np.ones(2), 0.0, 0.0, 1.0), "platt_a must be nonzero"),
        (lambda: train_svm(np.zeros(4), [1, -1, 1, -1], 1.0), "G must be a square matrix"),
        (lambda: train_svm(np.zeros((3, 2)), [1, -1, 1], 1.0), "G must be a square matrix"),
        (lambda: train_svm(np.zeros((3, 3)), [1, -1], 1.0), "one label per row of G"),
        (lambda: train_svm(np.eye(2), [1, -1], 0.0), "c_reg must be positive"),
        (lambda: platt_fit([0.0, 1.0, 2.0], [0, 1]), "one label per decision value"),
        (lambda: platt_fit([0.0, 1.0, 2.0], [0, 1, 2]), "labels must be 0 or 1"),
        (lambda: fit_classifier(FeatureMatrix(np.eye(5), 2, 2), np.ones(3)),
         "one label per non-test row"),
        (lambda: sweep_decisions(ClassifierModel(np.ones(2), 0.0, 1.0, 0.0), [],
                                 FeatureMatrix(np.eye(5), 2, 2)),
         "feature length 5 does not match model (2)"),
    ],
    ids=["platt-a", "svm-1d", "svm-not-square", "svm-labels", "svm-c", "platt-labels",
         "platt-values", "fit-labels", "sweep-dimension"],
)
def test_checks_raise_package_errors(call, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        call()
