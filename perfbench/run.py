"""Benchmark of the cdpa package: whole-op metrics, or per-layer metrics from a traced pass.

Run from the repository root:

    python3 perfbench/run.py --workload decompose-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads are ``decompose-wide``, ``replicate-fixed`` and ``align-dspfp``
(see workloads.py); ``all`` runs each in turn.  With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of the traced pass.  ``--smoke`` runs the same code at tiny
sizes.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (with
``all``, one such line follows each workload).  Every result, with the
environment it was measured in, is also written to
``.perfbench/results/``.

The library is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("decompose-wide", "replicate-fixed", "align-dspfp")
SETUP_ROUNDS = 3  # set-up time is the median of this many fresh set-ups
# One BLAS thread: on a shared two-core machine a second thread gained at most
# 9% per op but doubled the run-to-run spread of align-dspfp (from 7% to 15%).
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # one workload, set-ups included, must end within this


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("CDPA_THREADS", None)  # the library's own thread pools stay off
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def call_worker(role: str, args, workload: str, inputs: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--role", role, "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", "smoke" if args.smoke else "full", "--inputs", str(inputs),
        "--results", str(STATE / "results"),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} {role} process did not end within {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} {role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = STATE / f"work-{workload}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        rounds = 1 if args.trace else SETUP_ROUNDS
        setups = [call_worker("setup", args, workload, inputs, deadline)["setup_s"] for _ in range(rounds)]
        result = call_worker("run", args, workload, inputs, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **result["metrics"]}
    result["info"]["setup_s_rounds"] = setups
    result["info"]["args"] = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                              "trace": args.trace, "smoke": args.smoke}
    name = f"{workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (STATE / "results" / name).write_text(json.dumps(result, indent=1))
    return result


def report(workload: str, result: dict) -> None:
    info = result["info"]
    print(f"[{workload}] env " + " ".join(f"{k}={v}" for k, v in info["env"].items()))
    line = f"[{workload}] {result['attempted']} ops, {result['failed']} failed"
    line += f", fail_rate {result['failed'] / result['attempted']:.4g}"
    if "tail_percentile" in info:
        line += f", op_s.tail is p{info['tail_percentile']:.1f} of {result['attempted']} samples"
    if "traced_ops" in info:
        line += f", {info['traced_ops']} traced ops, spans in {info['spans']}"
    print(line)
    for error in result["errors"]:
        print(f"[{workload}] FAILED {error}")
    for name, metric in result["metrics"].items():
        print(f"[{workload}] {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in sorted(info["quality"].items()):
        if name not in result["metrics"]:
            print(f"[{workload}] (unbounded) {name} = {value:.6g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    args = parser.parse_args()
    if not (SRC / "cdpa" / "__init__.py").is_file():
        print(f"error: the cdpa sources are not at {SRC}", file=sys.stderr)
        return 2
    # turn a termination request into an exception, so child processes are killed and awaited
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(args, workload)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(workload, result)
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
