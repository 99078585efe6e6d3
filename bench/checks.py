"""Output checks for one operation of each workload, run outside the timed region.

Each check returns (problems, quality): a list of what is wrong with the
output tree (empty when it is correct) and the quality figures read from it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from dmtrav import formats, mmd, traversal
from inputs import extractor

DEMO_FLAGS = (
    "decision_monotone",
    "sign_flip_at_smallest",
    "probability_crosses_half",
    "adversarial_smaller",
)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _traverse_objective(out: Path) -> tuple[list, float]:
    """The records, and 1 + their mean final objective.

    The objective is at least -1 (witness >= -1, budget >= 0), so the shift
    reports it as a positive distance above its floor.
    """
    rows = formats.parse_traversal_records(
        (out / "traversal_records.txt").read_text(encoding="utf-8")
    )
    return rows, 1.0 + float(np.mean([row[1] for row in rows]))


def check_demo(out: Path, spec, weights) -> tuple[list[str], dict]:
    """Summary flags, the adversarial match, and the reconstructions' feature loss."""
    problems = []
    fields: dict[str, str] = {}
    recon_decisions = []
    for line in (out / "summary.txt").read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if parts[0] == "lambda":
            recon_decisions.append(float(dict(zip(parts[::2], parts[1::2]))["recon_decision"]))
        else:
            fields[parts[0]] = parts[1]
    for flag in DEMO_FLAGS:
        if fields.get(flag) != "true":
            problems.append(f"summary.txt {flag} is {fields.get(flag)}")
    adversarial = float(fields["adversarial_decision"])
    if abs(adversarial - recon_decisions[-1]) > 0.01 * abs(recon_decisions[-1]):
        problems.append(
            f"adversarial decision {adversarial!r} is not within 1% of {recon_decisions[-1]!r}"
        )
    rows, objective = _traverse_objective(out)
    forward = extractor()[0]
    loss = 0.0
    for i in range(len(rows)):
        resid = forward(spec, weights, formats.load_image(out / f"recon_{i}.ppm"))
        resid = resid - formats.read_vector(out / f"zt_{i}.dmtv")
        loss += 0.5 * float(resid @ resid)
    return problems, {"traverse_objective": objective, "recon_feature_loss": loss}


def check_traverse(out: Path, feature_path: Path, lambdas) -> tuple[list[str], dict]:
    """Every lambda's records and vectors exist, and the factored witness of the
    stored r equals the direct witness of the materialized point."""
    problems = []
    ff = formats.read_feature_file(feature_path)
    fm = ff.as_feature_matrix()
    kcfg = mmd.KernelConfig(mmd.median_heuristic_sigma(ff.G))
    rows, objective = _traverse_objective(out)
    if [row[0] for row in rows] != list(lambdas):
        problems.append(f"records list lambdas {[row[0] for row in rows]}, asked for {lambdas}")
    for i in range(len(lambdas)):
        if formats.read_vector(out / f"zt_{i}.dmtv").size != fm.D:
            problems.append(f"zt_{i}.dmtv does not hold {fm.D} values")
        r = formats.read_vector(out / f"r_{i}.dmtv")
        wf = mmd.witness_factored(r, ff.G, fm.m, fm.n, kcfg)
        wd = mmd.witness_direct(traversal.materialize(fm, r), fm.V, fm.m, fm.n, kcfg)
        for part in ("value", "source_term", "target_term"):
            a, b = getattr(wf, part), getattr(wd, part)
            if not _close(a, b, 1e-9):
                problems.append(f"lambda {i}: factored witness {part} {a!r} != direct {b!r}")
    return problems, {"traverse_objective": objective}


def check_extract(out: Path, rows: list[str], seed: int, sample: int, spec, weights):
    """A seeded sample of stored rows is bit-equal to a fresh extraction, and
    the stored Gram is V V^T of the stored f32 rows."""
    problems = []
    ff = formats.read_feature_file(out / "features.dmtv")
    if ff.V.shape != (len(rows), spec.feature_dim()):
        return [f"stored V has shape {ff.V.shape}"], {}
    forward = extractor()[0]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(rows), size=min(sample, len(rows)), replace=False)
    for i in sorted(int(p) for p in picks):
        fresh = forward(spec, weights, formats.load_image(rows[i])).astype("<f4")
        if fresh.tobytes() != ff.V[i].astype("<f4").tobytes():
            problems.append(f"row {i} ({rows[i]}) differs from a fresh extraction")
    if ff.G is None:
        problems.append("no Gram section")
    else:
        ref = ff.V @ ff.V.T
        err = float(np.max(np.abs(ff.G - ref)))
        if err > 1e-9 * float(np.max(np.abs(ref))):
            problems.append(f"stored Gram differs from V V^T by {err!r}")
    return problems, {}
