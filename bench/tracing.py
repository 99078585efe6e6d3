"""Span tracing of dmtrav from outside the library, and the per-module metrics.

The tracer replaces each public function named in TARGETS with a wrapper
that records a span (name, start, end, parent) in memory. Python binds
`from .features import extract` as a separate name in the importing module,
so the wrapper is installed on every dmtrav module attribute that holds the
same function object, not only on the defining module. A target that no
longer exists is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# (module, function). Span names are "<last module component>.<function>".
TARGETS = (
    ("dmtrav.features", "extract"),
    ("dmtrav.features", "extract_vjp"),
    ("dmtrav.optim", "minimize"),
    ("dmtrav.mmd", "gram"),
    ("dmtrav.mmd", "witness_factored"),
    ("dmtrav.mmd", "witness_direct"),
    ("dmtrav.mmd", "witness_grad_r"),
    ("dmtrav.traversal", "traverse"),
    ("dmtrav.traversal", "materialize"),
    ("dmtrav.reconstruct", "invert"),
    ("dmtrav.evaluate", "train_svm"),
    ("dmtrav.evaluate", "platt_fit"),
    ("dmtrav.evaluate", "match_regularizer"),
    ("dmtrav.evaluate", "adversarial_perturb"),
    ("dmtrav.formats", "read_feature_file"),
    ("dmtrav.formats", "read_manifest"),
    ("dmtrav.formats", "read_labels"),
    ("dmtrav.formats", "load_image"),
    ("dmtrav.formats", "write_feature_file"),
    ("dmtrav.formats", "append_gram"),
    ("dmtrav.formats", "save_image"),
    ("dmtrav.cli", "main"),
)

# Leaf file functions; read_vector and write_vector delegate to these.
_READERS = {"formats.read_feature_file", "formats.read_manifest", "formats.read_labels"}
_WRITERS = {"formats.write_feature_file", "formats.append_gram"}
_IMAGE_IO = {"formats.load_image", "formats.save_image"}
_FORWARD = ("features.extract", "features.extract_vjp")

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Records spans while installed; spans of every op are kept until written."""

    def __init__(self) -> None:
        self.ops: list[list[list]] = []
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "optim.minimize":
                args, kwargs = tracer._wrap_callbacks(args, kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.spans[idx][INFO] = _span_info(name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_callbacks(self, args, kwargs):
        """Time the objective and gradient callbacks (the first two callables)."""
        names = iter(("optim.fun", "optim.grad"))
        args = list(args)
        for i, a in enumerate(args):
            if callable(a):
                args[i] = self._timed(next(names, "optim.callback"), a)
        for key in ("fun", "grad"):
            if callable(kwargs.get(key)):
                kwargs = {**kwargs, key: self._timed(f"optim.{key}", kwargs[key])}
        return tuple(args), kwargs

    def install(self) -> None:
        """Wrap every binding of every target; record targets that are gone."""
        self.absent = []
        for modname, attr in TARGETS:
            try:
                original = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(f"{modname.rsplit('.', 1)[-1]}.{attr}", original)
            for mname, mod in list(sys.modules.items()):
                if mname != "dmtrav" and not mname.startswith("dmtrav."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed = []

    def end_op(self) -> list[list]:
        """Close the current operation: keep its spans for writing and return them."""
        spans, self.spans = self.spans, []
        self.ops.append(spans)
        return spans

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_ns", "end_ns", "parent", "info"]
        path.write_text(json.dumps({"fields": fields, "ops": self.ops}), encoding="utf-8")


def _path_size(args, kwargs) -> int:
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _span_info(name: str, args, kwargs, result):
    if name == "optim.minimize":
        trace = result[1] if isinstance(result, tuple) and len(result) > 1 else result
        return {
            "iterations": int(getattr(trace, "iterations", 0)),
            "reason": str(getattr(trace, "termination_reason", "")),
        }
    if name == "mmd.gram":
        shape = getattr(args[0] if args else None, "shape", ())
        if len(shape) == 2:
            return {"flops": 2.0 * shape[0] * shape[0] * shape[1]}
    if name in _READERS or name == "formats.load_image":
        return {"bytes_read": _path_size(args, kwargs)}
    if name in _WRITERS or name == "formats.save_image":
        return {"bytes_written": _path_size(args, kwargs)}
    return None


def module_metrics(spans: list[list]) -> dict[str, float]:
    """Per-module counts and times of one traced operation, from its spans."""
    n = len(spans)
    dur = [(s[END] - s[START]) * 1e-9 for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_s = [dur[i] - child[i] for i in range(n)]

    def under(i: int, names: tuple[str, ...]) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(*names: str) -> list[int]:
        return [i for name in names for i in by_name.get(name, ())]

    def total(ids, values=dur) -> float:
        return float(sum(values[i] for i in ids))

    def info(i: int, key: str) -> float:
        return (spans[i][INFO] or {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solves = idx("optim.minimize")
    iters = {
        scope: sum(info(i, "iterations") for i in solves if under(i, (scope,)))
        for scope in ("traversal.traverse", "reconstruct.invert", "evaluate.adversarial_perturb")
    }
    forward = idx(*_FORWARD)
    fun, grad = idx("optim.fun"), idx("optim.grad")
    all_iters = sum(info(i, "iterations") for i in solves)
    gram_ids = idx("mmd.gram")
    gram_s = total(gram_ids)
    traverse_s = total(idx("traversal.traverse"))
    return {
        "features.extract_calls": len(idx("features.extract")),
        "features.vjp_calls": len(idx("features.extract_vjp")),
        "features.forward_passes": len(forward),
        "features.extract_s": total(idx("features.extract")),
        "features.vjp_s": total(idx("features.extract_vjp")),
        "optim.solves": len(solves),
        "optim.iterations": all_iters,
        "optim.fun_evals": len(fun),
        "optim.grad_evals": len(grad),
        "optim.evals_per_iter": ratio(len(fun) + len(grad), all_iters),
        "optim.max_iters_stops": sum(1 for i in solves if info(i, "reason") == "max_iters"),
        "optim.self_s": total(solves, self_s),
        "mmd.gram_s": gram_s,
        "mmd.gram_gflop_per_s": ratio(sum(info(i, "flops") for i in gram_ids), gram_s) * 1e-9,
        "mmd.witness_calls": len(idx("mmd.witness_factored", "mmd.witness_direct")),
        "mmd.witness_grad_calls": len(idx("mmd.witness_grad_r")),
        "mmd.witness_s": total(
            idx("mmd.witness_factored", "mmd.witness_direct", "mmd.witness_grad_r")
        ),
        "traversal.traverse_s": traverse_s,
        "traversal.us_per_iter": ratio(traverse_s * 1e6, iters["traversal.traverse"]),
        "traversal.materialize_s": total(idx("traversal.materialize")),
        "reconstruct.invert_s": total(idx("reconstruct.invert")),
        "reconstruct.iterations": iters["reconstruct.invert"],
        "reconstruct.forward_per_iter": ratio(
            sum(1 for i in forward if under(i, ("reconstruct.invert",))),
            iters["reconstruct.invert"],
        ),
        "evaluate.svm_s": total(idx("evaluate.train_svm")),
        "evaluate.match_s": total(idx("evaluate.match_regularizer")),
        "evaluate.adv_solves": len(idx("evaluate.adversarial_perturb")),
        "evaluate.adv_iterations": iters["evaluate.adversarial_perturb"],
        "evaluate.forward_per_adv_iter": ratio(
            sum(1 for i in forward if under(i, ("evaluate.adversarial_perturb",))),
            iters["evaluate.adversarial_perturb"],
        ),
        "formats.read_s": total(idx(*_READERS), self_s),
        "formats.write_s": total(idx(*_WRITERS), self_s),
        "formats.image_io_s": total(idx(*_IMAGE_IO), self_s),
        "formats.bytes_read": sum(
            info(i, "bytes_read") for i in idx(*_READERS, "formats.load_image")
        ),
        "formats.bytes_written": sum(
            info(i, "bytes_written") for i in idx(*_WRITERS, "formats.save_image")
        ),
        "cli.self_s": total(idx("cli.main"), self_s),
    }
