"""Outside-in tracing of the cdpa layers.

The benchmark does not edit the library.  Instead it replaces, for the
traced pass only, each public function listed in ``FUNCTIONS`` by a thin
wrapper that records a span (name, start, end, parent span, op id) in
memory.  A function is replaced in every ``cdpa.*`` namespace that binds
it, so calls made through any import path are seen.  ``kernel`` is not a
cdpa module: it stands for numpy's ``linalg.svd`` (bound at both
``numpy.linalg`` and ``numpy.linalg._linalg``, so the SVDs inside
``np.linalg.norm(x, 2)`` are counted) and for scipy's
``linear_sum_assignment`` as bound in ``cdpa.align``.

Spans are recorded from one thread; the library runs single-threaded on
every benchmark workload.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module that defines the function, function name)
FUNCTIONS = (
    ("matrixio", "cdpa.matrixio", "read_matrix"),
    ("matrixio", "cdpa.matrixio", "write_matrix_binary"),
    ("denoise", "cdpa.denoise", "center_rows"),
    ("denoise", "cdpa.denoise", "ed_select_rank"),
    ("denoise", "cdpa.denoise", "soft_threshold_denoise"),
    ("denoise", "cdpa.denoise", "correlation_screen"),
    ("denoise", "cdpa.denoise", "mdl_select_r12"),
    ("denoise", "cdpa.denoise", "noise_trace"),
    ("dcca", "cdpa.dcca", "canonical_system"),
    ("dcca", "cdpa.dcca", "source_decomposition"),
    ("subspace", "cdpa.subspace", "orthonormal_basis"),
    ("subspace", "cdpa.subspace", "principal_angles"),
    ("align", "cdpa.align", "build_match_problem"),
    ("align", "cdpa.align", "dspfp_match"),
    ("patterns", "cdpa.patterns", "estimate_cdpa"),
    ("patterns", "cdpa.patterns", "assemble_patterns"),
    ("patterns", "cdpa.patterns", "pattern_decomposition"),
    # defined in align, but it is the sign-resolution step of the pattern pipeline
    ("patterns", "cdpa.align", "choose_sign"),
    ("simulate", "cdpa.simulate", "generate_setup"),
    ("simulate", "cdpa.simulate", "error_metrics"),
    ("simulate", "cdpa.simulate", "run_replications"),
    ("cli", "cdpa.cli", "main"),
)

# functions that call other traced functions; they also report self time
ORCHESTRATORS = (
    "cli.main",
    "patterns.estimate_cdpa",
    "patterns.assemble_patterns",
    "simulate.run_replications",
    "simulate.error_metrics",
    "align.dspfp_match",
    "denoise.ed_select_rank",
    "denoise.soft_threshold_denoise",
    "denoise.mdl_select_r12",
    "dcca.canonical_system",
    "subspace.orthonormal_basis",
    "subspace.principal_angles",
)

# spans that also record the megabytes of the array argument they process
SIZED = {"kernel.svd": 0, "matrixio.write_matrix_binary": 1}

LAYERS = ("kernel", "matrixio", "denoise", "dcca", "subspace", "align", "patterns", "simulate", "cli")


def metric_names() -> list[str]:
    """Names of the per-layer metrics, in report order."""
    names = []
    for span in ["kernel.svd", "kernel.lsa"] + [f"{l}.{f}" for l, _, f in FUNCTIONS]:
        names += [f"{span}.calls", f"{span}.s"]
        if span in SIZED:
            names.append(f"{span}.mb")
        if span in ORCHESTRATORS:
            names.append(f"{span}.self_s")
    names += [f"{layer}.self_share" for layer in LAYERS]
    names.append("trace.overhead")
    return names


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op, mb]``; ``parent`` is the
    index of the enclosing span or -1.  Each benchmark op is a root span
    named ``op``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op, 0.0])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name: str, fn, sized_arg: int | None = None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mb = 0.0
            if sized_arg is not None and len(args) > sized_arg:
                mb = np.asarray(args[sized_arg]).nbytes / 1e6
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._op, mb])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, mb in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "mb": mb}) + "\n")


def _rebind(original, replacement, modules) -> list[tuple]:
    """Point every attribute of ``modules`` bound to ``original`` at ``replacement``."""
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function; returns the bindings to restore."""
    originals = [getattr(importlib.import_module(module), fname) for _, module, fname in FUNCTIONS]
    cdpa_modules = [m for n, m in sorted(sys.modules.items()) if n == "cdpa" or n.startswith("cdpa.")]
    undo = []
    for (layer, _, fname), original in zip(FUNCTIONS, originals):
        name = f"{layer}.{fname}"
        undo += _rebind(original, tracer.wrap(name, original, SIZED.get(name)), cdpa_modules)
    linalg = importlib.import_module("numpy.linalg")
    linalg_impl = importlib.import_module("numpy.linalg._linalg")
    svd = linalg.svd
    undo += _rebind(svd, tracer.wrap("kernel.svd", svd, SIZED["kernel.svd"]), [linalg, linalg_impl])
    align = importlib.import_module("cdpa.align")
    lsa = align.linear_sum_assignment
    undo += _rebind(lsa, tracer.wrap("kernel.lsa", lsa), [align])
    return undo


def uninstall(undo: list[tuple]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def summarize(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from the recorded spans.

    ``.calls``, ``.s`` and ``.mb`` are totals divided by the number of
    traced ops; ``.s`` is inclusive time and ``.self_s`` excludes the time
    covered by child spans.  ``<layer>.self_share`` is the layer's summed
    self time over the summed op time.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    mb = defaultdict(float)
    for i, (name, start, end, _, _, size) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - covered[i]
        mb[name] += size
    ops = max(calls["op"], 1)
    op_time = total["op"] or float("nan")
    out: dict[str, tuple[float, str]] = {}
    for metric in metric_names():
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = (calls[span] / ops, "count")
        elif kind == "s":
            out[metric] = (total[span] / ops, "s")
        elif kind == "self_s":
            out[metric] = (own[span] / ops, "s")
        elif kind == "mb":
            out[metric] = (mb[span] / ops, "MB")
        elif kind == "self_share":
            layer_self = sum(v for k, v in own.items() if k.split(".")[0] == span)
            out[metric] = (layer_self / op_time, "ratio")
    return out
