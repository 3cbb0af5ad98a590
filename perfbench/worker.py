"""One benchmark process, started by run.py.

``--role setup`` imports the library, makes and writes the inputs and
finishes one warm-up op, then prints its own elapsed time.  ``--role
run`` loads the inputs written by set-up, finishes one warm-up op and
runs the timed closed loop (and, with ``--trace 1``, an untraced and a
traced loop), then prints its measurements.  Each role runs in a fresh
process so that the peak resident set of ``run`` belongs to the
workload alone.  The last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()  # before the imports, which set-up time includes

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cdpa  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from cdpa import CdpaError  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def run_once(workload, i: int, tracer=None):
    """Run op ``i``; return (seconds, error or None, quality values).  Never retries."""
    if tracer is not None:
        tracer.begin_op(i)
    start = time.perf_counter()
    error = None
    try:
        out = workload.op(i)
    except CdpaError as exc:
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # an escaped non-package error is also a failed op
        error = f"unexpected {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    quality = {}
    if error is None:
        try:
            outcome = workload.check(i, out)
        except Exception as exc:  # an unreadable output fails the op
            outcome = workloads.Outcome(f"check raised {type(exc).__name__}: {exc}")
        error, quality = outcome.error, outcome.quality
    return elapsed, error, quality


class Loop:
    """Closed loop with one client, run until its ops have taken ``seconds``.

    The output checks between ops are not on the clock.  Quality values
    are kept per distinct input, so cycling over a pool does not weight
    any input twice.
    """

    def __init__(self, workload, start: int, seconds: float, tracer=None):
        self.durations: list[float] = []
        self.errors: list[str] = []
        self.quality: dict[str, dict[int, float]] = defaultdict(dict)
        i, busy = start, 0.0
        while busy < seconds:
            elapsed, error, quality = run_once(workload, i, tracer)
            self.durations.append(elapsed)
            busy += elapsed
            if error is not None:
                self.errors.append(f"op {i}: {error}")
            for key, value in quality.items():
                self.quality[key][i % workload.size["pool"]] = value
            i += 1
        self.next = i

    def p50(self) -> float:
        return statistics.median(self.durations)

    def tail(self) -> tuple[float, float]:
        """Highest percentile with at least ten samples beyond it, and that percentile.

        With fewer than 21 ops no percentile above the median has ten
        samples beyond it, and the median is reported.
        """
        ordered = sorted(self.durations)
        n = len(ordered)
        index = max(n - 11, n // 2)
        return ordered[index], 100.0 * (index + 1) / n


def setup(args, workload) -> dict:
    workload.generate(args.seed)
    workload.load()
    _, error, _ = run_once(workload, -1)
    if error is not None:
        print(f"warm-up op failed: {error}", file=sys.stderr)
    return {"setup_s": time.perf_counter() - _T0}


def run(args, workload) -> dict:
    workload.load()
    _, error, _ = run_once(workload, -1)
    if error is not None:
        print(f"warm-up op failed: {error}", file=sys.stderr)
    info = {"env": environment()}
    if not args.trace:
        loop = Loop(workload, 0, args.seconds)
        tail, tail_pct = loop.tail()
        ratio = loop.quality.get("align_objective_ratio", {})
        metrics = {
            "op_s.p50": (loop.p50(), "s"),
            "op_s.tail": (tail, "s"),
            "ops_per_s": (len(loop.durations) / sum(loop.durations), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "success_rate": (1.0 - len(loop.errors) / len(loop.durations), "ratio"),
            # with no successful op the ratio reads 0, its worst value
            "align_objective_ratio": (statistics.fmean(ratio.values()) if ratio else 0.0, "ratio"),
        }
        info["tail_percentile"] = tail_pct
        loops = [loop]
    else:
        plain = Loop(workload, 0, args.seconds / 2)
        tracer = layers.Tracer()
        undo = layers.install(tracer)
        try:
            traced = Loop(workload, plain.next, args.seconds / 2, tracer)
        finally:
            layers.uninstall(undo)
        metrics = layers.summarize(tracer)
        metrics["trace.overhead"] = (traced.p50() / plain.p50(), "ratio")
        info["traced_ops"] = len(traced.durations)
        suffix = "-smoke" if args.mode == "smoke" else ""
        spans = Path(args.results) / f"{args.workload}-seed{args.seed}{suffix}.spans.jsonl"
        tracer.write(spans)
        info["spans"] = str(spans)
        loops = [plain, traced]
    durations = [d for loop in loops for d in loop.durations]
    errors = [e for loop in loops for e in loop.errors]
    quality = defaultdict(dict)
    for loop in loops:
        for key, values in loop.quality.items():
            quality[key].update(values)
    info["quality"] = {key: statistics.fmean(v.values()) for key, v in quality.items()}
    info["durations"] = durations
    return {
        "attempted": len(durations),
        "failed": len(errors),
        "errors": errors[:10],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--results", required=True)
    args = parser.parse_args()
    if SRC.resolve() not in Path(cdpa.__file__).resolve().parents:
        print(f"cdpa was imported from {cdpa.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](workloads.SIZES[args.mode][args.workload], Path(args.inputs))
    result = setup(args, workload) if args.role == "setup" else run(args, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
