"""The paper's structural claim as invariance tests on the demo's V.

After the Gram, the traversal and the classifier read V only through
G = V V^T. Each test transforms V so that G stays the same (a rotation
V Q) or changes in a known way (every block row taken twice, rows
permuted within a class, V scaled), runs the demo's sweep on the new V
and checks that the outputs move as G says they must. Every tolerance
is about 100 times the largest deviation measured at 1 and at 2 BLAS
threads.
"""

import numpy as np
import pytest

from conftest import count_calls
from dmtrav import formats
from dmtrav.demo import DEMO_LAMBDA_SCALES
from dmtrav.evaluate import fit_classifier, sweep_decisions
from dmtrav.mmd import FeatureMatrix, KernelConfig, gram, median_heuristic_sigma, witness_direct
from dmtrav.optim import MinimizeConfig
from dmtrav.traversal import TraversalConfig, materialize, traverse


def sweep(V, m, n, sigma=None, grad_tol=MinimizeConfig.grad_tol):
    """The demo's sweep on V: sigma the median heuristic unless given, lambda = scale / sigma."""
    features = FeatureMatrix(V, m, n, gram(V))
    if sigma is None:
        sigma = median_heuristic_sigma(features.G)
    cfg = TraversalConfig(
        tuple(scale / sigma for scale in DEMO_LAMBDA_SCALES),
        KernelConfig(sigma),
        MinimizeConfig(grad_tol=grad_tol),
    )
    return features, sigma, traverse(features, cfg)


def rel(a, b) -> float:
    """Largest deviation of a from b, relative to b's largest magnitude."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def assert_scored_points(features, sigma, records):
    # Each materialized point V^T(e_K + r) has, evaluated against the rows
    # themselves, the witness that the traversal computed from G.
    for rec in records:
        z = materialize(features, rec.r)
        direct = witness_direct(z, features.V, features.m, features.n, KernelConfig(sigma))
        assert rel(direct.value, rec.witness.value) <= 5e-13, rec.lam


@pytest.fixture(scope="module")
def demo_sweep(demo_runs):
    """(features, sigma, records, labels) of the demo's sweep on the V of its feature file."""
    _, demo, _, _ = demo_runs
    ff = formats.read_feature_file(demo / "features.dmtv")
    labels = formats.read_labels(demo / "labels.txt", ff.V.shape[0] - 1)
    return (*sweep(ff.V, ff.m, ff.n), labels)


def test_rotation_changes_no_output_after_the_gram(demo_sweep):
    features, sigma, records, labels = demo_sweep
    # Q is a product of three Householder reflections, each O(KD) to apply.
    rng = np.random.default_rng(17)
    V = features.V.copy()
    for _ in range(3):
        u = rng.standard_normal(features.D)
        u /= np.linalg.norm(u)
        V -= 2.0 * np.outer(V @ u, u)
    rotated, rotated_sigma, rotated_records = sweep(V, features.m, features.n)
    assert rel(rotated_sigma, sigma) <= 1e-12
    for rec, ref in zip(rotated_records, records):
        assert rec.trace.iterations == ref.trace.iterations
        assert rel(rec.witness.value, ref.witness.value) <= 5e-13
        assert rel(rec.objective, ref.objective) <= 5e-13
        assert rel(rec.budget, ref.budget) <= 4e-12
        assert rel(rec.r, ref.r) <= 3e-11
    assert_scored_points(rotated, rotated_sigma, rotated_records)

    def decisions(features, records):
        model = fit_classifier(features, labels)
        return sweep_decisions(model, [(rec.lam, rec.r) for rec in records], features)

    for got, want in zip(decisions(rotated, rotated_records), decisions(features, records)):
        assert rel(got.decision_value, want.decision_value) <= 2e-11
        assert abs(got.probability - want.probability) <= 1e-13


def test_duplicated_rows_keep_the_point_and_its_witness(demo_sweep, monkeypatch):
    # Every source and target row twice makes G singular, so the sweep runs
    # on the eigenvector embedding; at the same sigma and lambdas its points
    # are those of the full-rank sweep.
    features, sigma, records, _ = demo_sweep
    m, n, V = features.m, features.n, features.V
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    twice, _, twice_records = sweep(
        np.vstack([V[:n], V[:n], V[n:-1], V[n:-1], V[-1:]]), 2 * m, 2 * n, sigma
    )
    assert len(eighs) == 1
    for rec, ref in zip(twice_records, records):
        assert rec.trace.iterations == ref.trace.iterations
        assert rec.trace.termination_reason == "grad_tol"
        assert rel(materialize(twice, rec.r), materialize(features, ref.r)) <= 1e-11
        assert rel(rec.witness.value, ref.witness.value) <= 1e-13
    assert_scored_points(twice, sigma, twice_records)


def test_permuting_rows_within_a_class_permutes_r(demo_sweep):
    features, sigma, records, _ = demo_sweep
    m, n = features.m, features.n
    rng = np.random.default_rng(18)
    perm = np.concatenate([rng.permutation(n), n + rng.permutation(m), [m + n]])
    permuted, permuted_sigma, permuted_records = sweep(features.V[perm], m, n)
    assert rel(permuted_sigma, sigma) <= 1e-12
    for rec, ref in zip(permuted_records, records):
        assert rel(rec.r, ref.r[perm]) <= 1e-11
        assert rel(rec.witness.value, ref.witness.value) <= 1e-13
    assert_scored_points(permuted, permuted_sigma, permuted_records)


def test_scaling_v_keeps_r_and_scales_the_budget(demo_sweep):
    # grad_tol bounds the gradient in feature units, which scale by 1/s,
    # and the solver's first step is not scale-free, so the two sweeps stop
    # at different points within their tolerance. Both solve to 1e-9,
    # in the units of their own features, so r agrees to about 5e-8.
    features, _, _, _ = demo_sweep
    m, n, s = features.m, features.n, 3.0
    _, sigma, records = sweep(features.V, m, n, grad_tol=1e-9)
    scaled, scaled_sigma, scaled_records = sweep(s * features.V, m, n, grad_tol=1e-9 / s)
    assert rel(scaled_sigma, s**2 * sigma) <= 1e-12
    for rec, ref in zip(scaled_records, records):
        assert rec.trace.termination_reason == "grad_tol"
        assert rel(rec.r, ref.r) <= 5e-6
        assert rel(rec.budget, s**2 * ref.budget) <= 5e-7
    assert_scored_points(scaled, scaled_sigma, scaled_records)
