import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` importable

from dmtrav.demo import run_demo
from dmtrav.features import init_weights, reference_spec
from dmtrav.formats import write_feature_file
from dmtrav.optim import MinimizeConfig

# The solver settings of the demo's pixel solves (the iteration cap of its
# pixel_run); tests that rebuild a demo solve use them, and the demo tree's
# bytes tie the two together.
DEMO_PIXEL_SOLVER = MinimizeConfig(max_iters=100)


def count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call of module.<name>, which still runs."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def assert_no_child_left() -> None:
    # waitpid(-1) raises once this process has no child, running or zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


PROC_STAT = Path("/proc/self/stat")


def os_threads() -> int:
    """The OS thread count of this process, the 20th field of /proc/self/stat."""
    return int(PROC_STAT.read_text().rsplit(")", 1)[1].split()[17])


def fork_thread_counts(monkeypatch) -> list:
    """Record this process's OS thread count right after each os.fork, where /proc has it.

    Python 3.12+ issues a DeprecationWarning when os.fork runs in a process
    that has more than one OS thread, counted on Linux from /proc/self/stat
    right after the fork. OpenBLAS's fork handler stops its worker threads
    first, so a fork should see one thread at any BLAS thread count. The
    count is recorded here, so that this holds on every Python.
    """
    real_fork, counts = os.fork, []

    def fork():
        pid = real_fork()
        if pid and PROC_STAT.exists():
            counts.append(os_threads())
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return counts


def append_raw_gram(path, G) -> None:
    """Append a Gram section holding G as given, unchecked, to a DMTV file.

    The library's one Gram writer, formats.append_gram, computes G from the
    stored rows; this lets a test store a G that the reader must reject.
    """
    with open(path, "ab") as fh:
        fh.write(b"DMTG" + np.ascontiguousarray(G, dtype="<f8").tobytes())


def huge_k_file(directory):
    """A DMTV file of K = 10**6 one-value rows whose Gram section holds 16 bytes, not 8 K^2."""
    path = directory / "huge_k.dmtv"
    write_feature_file(path, np.ones((10**6, 1)), 500_000, 499_999)
    append_raw_gram(path, np.zeros(2))
    return path


@pytest.fixture(scope="session")
def reference():
    """(spec, weights) for the built-in desk extractor at its documented seed."""
    spec = reference_spec()
    return spec, init_weights(spec, 42)


@pytest.fixture(scope="session")
def demo_runs(tmp_path_factory):
    """Two full demo runs with the same seed, for the end-to-end criteria.

    Returns (outcome, dir_a, dir_b, seconds_per_run).
    """
    base = tmp_path_factory.mktemp("demo")
    t0 = time.perf_counter()
    outcome = run_demo(0, base / "a", quiet=True)
    elapsed = time.perf_counter() - t0
    run_demo(0, base / "b", quiet=True)
    return outcome, base / "a", base / "b", elapsed


def seeded_instance(seed: int, K: int, D: int, m: int | None = None):
    """Random feature matrix with a valid block split, as (V, m, n)."""
    rng = np.random.default_rng(seed)
    if m is None:
        m = (K - 1) // 2
    n = K - 1 - m
    return rng.standard_normal((K, D)), m, n
