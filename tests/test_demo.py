"""The demo's forked inversions: failures, reaping, stdout order and fork hygiene.

run_demo inverts every lambda but the last in one forked child while the
process itself inverts the last lambda and matches the adversarial image.
These tests check that a failure on either side gives the CLI's exit code
and message, that no child outlives a run, and that the printed lines keep
their order.
"""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from conftest import PROC_STAT, assert_no_child_left, fork_thread_counts
from dmtrav import evaluate, reconstruct
from dmtrav.cli import _in_child, main
from dmtrav.demo import run_demo
from dmtrav.errors import NoMatchError, NumericalError
from dmtrav.formats import load_image, read_vector

class TestInChild:
    def test_returns_the_childs_value(self):
        assert _in_child(lambda: [1.5, "two"])() == [1.5, "two"]
        assert_no_child_left()

    def test_re_raises_the_childs_exception(self):
        def fail():
            raise NumericalError("the child failed")

        wait = _in_child(fail)
        with pytest.raises(NumericalError, match="the child failed"):
            wait()
        assert_no_child_left()

    @pytest.mark.parametrize(
        "end, how",
        [(lambda: os._exit(7), "exited with code 7"),
         (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9")],
        ids=["exit", "signal"],
    )
    def test_a_child_without_a_payload_is_a_child_process_error(self, end, how):
        with pytest.raises(ChildProcessError, match=how):
            _in_child(end)()
        assert_no_child_left()

    def test_a_child_that_dies_while_it_writes_is_a_child_process_error(self):
        def end():
            # SIGALRM ends the child while it blocks on writing a payload
            # larger than the pipe's buffer, which nobody reads yet
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.setitimer(signal.ITIMER_REAL, 0.1)
            return bytes(1 << 20)

        wait = _in_child(end)
        time.sleep(0.5)
        with pytest.raises(ChildProcessError, match=f"killed by signal {int(signal.SIGALRM)}"):
            wait()
        assert_no_child_left()


def test_a_failed_inversion_in_the_child_exits_3_and_leaves_no_child(
    tmp_path, monkeypatch, capsys
):
    out = tmp_path / "demo"
    original = reconstruct.invert

    def invert(spec, weights, z, cfg):
        if np.array_equal(z, read_vector(out / "zt_0.dmtv")):
            raise NumericalError("injected failure at zt_0")
        return original(spec, weights, z, cfg)

    monkeypatch.setattr(reconstruct, "invert", invert)
    assert main(["demo", "--seed", "0", "--out", str(out), "--quiet"]) == 3
    assert "numerical failure: injected failure at zt_0" in capsys.readouterr().err
    assert_no_child_left()
    assert not (out / "summary.txt").exists()


def test_a_failed_match_in_the_parent_exits_2_and_reaps_the_child(
    tmp_path, monkeypatch, capsys
):
    out = tmp_path / "demo"

    def match_regularizer(*args, **kwargs):
        raise NoMatchError("injected failure in the match")

    monkeypatch.setattr(evaluate, "match_regularizer", match_regularizer)
    assert main(["demo", "--seed", "0", "--out", str(out), "--quiet"]) == 2
    assert "error: injected failure in the match" in capsys.readouterr().err
    assert_no_child_left()
    # the child finished its inversions before it was reaped
    assert (out / "recon_0.ppm").exists() and (out / "recon_1.ppm").exists()
    assert not (out / "summary.txt").exists()


def test_the_demo_prints_its_lines_in_stage_order(tmp_path, capsys):
    outcome = run_demo(0, tmp_path, quiet=False)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["dataset", "features", "traversal"]
    # one line per lambda, in lambda order, each with the distance of its own
    # written image, whichever process inverted it
    test_image = load_image(tmp_path / "dataset" / "input.ppm").pixels
    for i, (line, lam) in enumerate(zip(lines[3:6], outcome.lambdas, strict=True)):
        l2 = np.linalg.norm(load_image(tmp_path / f"recon_{i}.ppm").pixels - test_image)
        assert line.startswith(f"reconstruct lambda={lam:.3g}: ")
        assert line.endswith(f" pixel_l2={l2:.4g}")
    assert [line.split(" ")[0] for line in lines[6:]] == ["eval:", "adversarial:", "summary"]
    assert lines[-1] == f"summary written to {tmp_path / 'summary.txt'}"


def test_the_fork_sees_one_thread_and_warns_nothing(tmp_path, monkeypatch):
    # The warning is recorded, not turned into an error: Python clears that
    # warning after issuing it, so under "error" it would raise nothing.
    counts = fork_thread_counts(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_demo(0, tmp_path, quiet=True)
    assert [str(w.message) for w in caught] == []
    # one fork extracts half the rows, the other inverts the earlier lambdas
    assert counts == ([1, 1] if PROC_STAT.exists() else [])
    assert_no_child_left()
