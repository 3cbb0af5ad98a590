"""Command-line front end.

Subcommands: ``ranks`` (rank selection report), ``decompose`` (full
decomposition written to a directory), ``simulate`` (replication studies
over a parameter grid), ``oracle`` (population explained variance),
``match`` (standalone row alignment), and ``bootstrap`` (confidence
interval for the explained variance).

Machine-readable JSON goes to stdout; progress lines go to stderr.
Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .align import PermutationPlan, build_match_problem, dspfp_match, exhaustive_match
from .dcca import MixingChannel
from .denoise import ObservedMatrix, RankProfile, center_rows, select_ranks
from .errors import BadConfig, InputError, NumericalError
from .matrixio import read_matrix, write_matrix_binary
from .patterns import CdpaConfig, bootstrap_ci, estimate_cdpa
from .simulate import SimulationConfig, oracle_explained_variance, run_replications
from .subspace import orthonormal_basis
from ._linalg import pad_rows


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _load(path: str, center: bool) -> ObservedMatrix:
    m = ObservedMatrix(read_matrix(path))
    return center_rows(m) if center else m


def _default_threads() -> int:
    env = os.environ.get("CDPA_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        raise BadConfig(f"CDPA_THREADS must be an integer, got {env!r}") from None


def _parse_ranks(text: str) -> RankProfile:
    parts = text.split(",")
    if len(parts) != 3:
        raise BadConfig(f"--ranks expects r1,r2,r12 but got {text!r}")
    try:
        r1, r2, r12 = (int(p) for p in parts)
    except ValueError:
        raise BadConfig(f"--ranks expects integers, got {text!r}") from None
    return RankProfile(r1=r1, r2=r2, r12=r12)


def _perm_argument(value: str):
    if value in ("identity", "dspfp"):
        return value
    path = Path(value)
    if not path.exists():
        raise InputError(f"permutation file {value!r} does not exist")
    return PermutationPlan.from_json(path.read_text()).perm


# ---------------------------------------------------------------- ranks


def cmd_ranks(args) -> int:
    y1 = _load(args.y1, not args.no_center)
    y2 = _load(args.y2, not args.no_center)
    ranks, _, _, screen = select_ranks(y1, y2, args.alpha)
    _emit({"r1": ranks.r1, "r2": ranks.r2, "r12": ranks.r12, "screen": screen})
    return 0


# ------------------------------------------------------------ decompose


_OUTPUT_MATRICES = {
    "c": lambda res: res.patterns.c,
    "c_scaled_1": lambda res: res.patterns.c_scaled[0],
    "c_scaled_2": lambda res: res.patterns.c_scaled[1],
    "delta_1": lambda res: res.patterns.delta[0],
    "delta_2": lambda res: res.patterns.delta[1],
    "h_1": lambda res: res.patterns.h[0],
    "h_2": lambda res: res.patterns.h[1],
    "source_c_1": lambda res: res.sources[0].c,
    "source_c_2": lambda res: res.sources[1].c,
    "source_d_1": lambda res: res.sources[0].d,
    "source_d_2": lambda res: res.sources[1].d,
}


def cmd_decompose(args) -> int:
    t0 = time.time()
    y1 = _load(args.y1, not args.no_center)
    y2 = _load(args.y2, not args.no_center)
    ranks = _parse_ranks(args.ranks) if args.ranks else None
    if ranks is None and not args.auto_ranks:
        raise BadConfig("pass --ranks r1,r2,r12 or --auto-ranks")
    config = CdpaConfig(
        ranks=ranks,
        perm=_perm_argument(args.perm),
        sign=args.sign,
        center=False,  # centering already applied at load time
    )
    _progress(f"decomposing {args.y1} and {args.y2}")
    result = estimate_cdpa(y1, y2, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    for name, getter in _OUTPUT_MATRICES.items():
        path = out / f"{name}.cdpm"
        write_matrix_binary(path, getter(result))
        artifacts[name] = path.name
    interval = None
    if args.bootstrap:
        _progress(f"bootstrapping with {args.bootstrap} replicates")
        ci = bootstrap_ci(
            y1,
            y2,
            result.ranks,
            result.permutation,
            replicates=args.bootstrap,
            level=args.level,
            seed=args.seed,
            sign=result.sign,
            threads=args.threads,
        )
        interval = {
            "point": ci.point,
            "lower": ci.lower,
            "upper": ci.upper,
            "level": ci.level,
            "replicates": ci.replicates,
        }
    manifest = {
        "command": "decompose",
        "version": __version__,
        "inputs": {"y1": str(args.y1), "y2": str(args.y2)},
        "config": {
            "ranks": None if ranks is None else [ranks.r1, ranks.r2, ranks.r12],
            "auto_ranks": bool(args.auto_ranks),
            "perm": args.perm,
            "sign": args.sign,
            "center": not args.no_center,
            "seed": args.seed,
            "bootstrap": args.bootstrap,
            "level": args.level,
        },
        "ranks": [result.ranks.r1, result.ranks.r2, result.ranks.r12],
        "r12_zero": result.patterns.r12_zero,
        "permutation": {
            "method": result.permutation.method,
            "objective": result.permutation.objective,
            "indices": [int(i) for i in result.permutation.perm],
            "iterations": result.permutation.iterations,
            "converged": result.permutation.converged,
        },
        "sign": result.sign,
        "explained_variance": result.patterns.explained,
        "confidence_interval": interval,
        "delta_theta": result.diagnostics.delta_theta,
        "snr": list(result.diagnostics.snr),
        "seeds": {"master": args.seed},
        "artifacts": artifacts,
        "timings": {"seconds": time.time() - t0},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    _emit(manifest)
    return 0


# ------------------------------------------------------------- simulate


def _float_list(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise BadConfig(f"expected a comma-separated number list, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    return [int(v) for v in _float_list(text)]


def cmd_simulate(args) -> int:
    thetas = _float_list(args.theta)
    p1s = _int_list(args.p1)
    noises = _float_list(args.noise)
    cells = [
        SimulationConfig(
            setup=args.setup,
            theta_deg=theta,
            p1=p1,
            n=args.n,
            noise_var=noise,
            seed=args.seed,
            replications=args.reps,
            structure_seed=args.structure_seed,
        )
        for theta in thetas
        for p1 in p1s
        for noise in noises
    ]
    _progress(f"running {len(cells)} cells x {args.reps} replications")
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            studies = list(pool.map(run_replications, cells))
    else:
        studies = [run_replications(cell) for cell in cells]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    aggregate = []
    all_rows = []
    for study in studies:
        cfg = study.config
        cell_id = f"setup{cfg.setup}_theta{cfg.theta_deg:g}_p{cfg.p1}_noise{cfg.noise_var:g}"
        aggregate.append(
            {
                "cell": cell_id,
                "setup": cfg.setup,
                "theta_deg": cfg.theta_deg,
                "p1": cfg.p1,
                "p2": cfg.p2,
                "n": cfg.n,
                "noise_var": cfg.noise_var,
                "replications": cfg.replications,
                "oracle_explained": study.oracle,
                "means": study.means,
                "sds": study.sds,
            }
        )
        for row in study.rows:
            all_rows.append({"cell": cell_id, **row})
    fieldnames = ["cell"] + sorted({k for r in all_rows for k in r if k != "cell"})
    with open(out / "replications.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(all_rows)
    payload = {"command": "simulate", "seed": args.seed, "cells": aggregate}
    (out / "aggregate.json").write_text(json.dumps(payload, sort_keys=True, indent=2))
    _emit(payload)
    return 0


# --------------------------------------------------------------- oracle


def cmd_oracle(args) -> int:
    thetas = _float_list(args.theta)
    values = {}
    for theta in thetas:
        if not 0.0 <= theta <= 75.0:
            _progress(f"warning: theta={theta:g} is outside the standard sweep [0, 75]")
        values[f"{theta:g}"] = oracle_explained_variance(theta)
    _emit({"command": "oracle", "explained_variance": values})
    return 0


# ---------------------------------------------------------------- match


def cmd_match(args) -> int:
    b1 = read_matrix(args.b1)
    b2 = read_matrix(args.b2)
    if b1.shape[1] != b2.shape[1]:
        raise InputError(
            f"channel column counts differ: {b1.shape[1]} vs {b2.shape[1]}"
        )
    pmax = max(b1.shape[0], b2.shape[0])
    q1 = pad_rows(orthonormal_basis(MixingChannel(b=b1, dataset_index=1)), pmax)
    q2a = pad_rows(orthonormal_basis(MixingChannel(b=b2, dataset_index=2)), pmax)
    if args.method == "exhaustive":
        plan = exhaustive_match(q1, q2a)
    else:
        plan = dspfp_match(build_match_problem(q1, q2a))
    if args.out:
        Path(args.out).write_text(plan.to_json() + "\n")
    _emit(
        {
            "command": "match",
            "method": plan.method,
            "objective": plan.objective,
            "indices": [int(i) for i in plan.perm],
            "iterations": plan.iterations,
            "converged": plan.converged,
        }
    )
    return 0


# ------------------------------------------------------------ bootstrap


def cmd_bootstrap(args) -> int:
    y1 = _load(args.y1, not args.no_center)
    y2 = _load(args.y2, not args.no_center)
    ranks = _parse_ranks(args.ranks)
    perm_arg = _perm_argument(args.perm)
    config = CdpaConfig(ranks=ranks, perm=perm_arg, sign="plus", center=False)
    result = estimate_cdpa(y1, y2, config)
    ci = bootstrap_ci(
        y1,
        y2,
        ranks,
        result.permutation,
        replicates=args.replicates,
        level=args.level,
        seed=args.seed,
        threads=args.threads,
    )
    _emit(
        {
            "command": "bootstrap",
            "point": ci.point,
            "lower": ci.lower,
            "upper": ci.upper,
            "level": ci.level,
            "replicates": ci.replicates,
        }
    )
    return 0


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdpa",
        description="Common and distinctive pattern decomposition of paired datasets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ranks = sub.add_parser("ranks", help="select signal ranks and the shared rank")
    ranks.add_argument("y1")
    ranks.add_argument("y2")
    ranks.add_argument("--alpha", type=float, default=0.05)
    ranks.add_argument("--no-center", action="store_true")
    ranks.set_defaults(func=cmd_ranks)

    dec = sub.add_parser("decompose", help="run the full decomposition")
    dec.add_argument("y1")
    dec.add_argument("y2")
    group = dec.add_mutually_exclusive_group()
    group.add_argument("--ranks", help="fixed ranks r1,r2,r12")
    group.add_argument("--auto-ranks", action="store_true")
    dec.add_argument("--perm", default="identity", help="identity | dspfp | FILE")
    dec.add_argument("--sign", choices=("auto", "plus", "minus"), default="auto")
    dec.add_argument("--bootstrap", type=int, default=0, metavar="N")
    dec.add_argument("--level", type=float, default=0.95)
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument("--out", required=True)
    dec.add_argument("--no-center", action="store_true")
    dec.add_argument("--threads", type=int, default=_default_threads())
    dec.set_defaults(func=cmd_decompose)

    sim = sub.add_parser("simulate", help="replication studies over a grid")
    sim.add_argument("--setup", type=int, choices=(1, 2), required=True)
    sim.add_argument("--theta", required=True, help="comma-separated angle list")
    sim.add_argument("--p1", required=True, help="comma-separated p1 list")
    sim.add_argument("--noise", default="1.0", help="comma-separated noise variances")
    sim.add_argument("--n", type=int, default=300)
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--structure-seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--threads", type=int, default=_default_threads())
    sim.set_defaults(func=cmd_simulate)

    orc = sub.add_parser("oracle", help="population explained variance")
    orc.add_argument("--theta", required=True, help="comma-separated angle list")
    orc.set_defaults(func=cmd_oracle)

    mat = sub.add_parser("match", help="standalone row alignment of two channels")
    mat.add_argument("b1")
    mat.add_argument("b2")
    mat.add_argument("--method", choices=("dspfp", "exhaustive"), default="dspfp")
    mat.add_argument("--out")
    mat.set_defaults(func=cmd_match)

    boot = sub.add_parser("bootstrap", help="confidence interval for explained variance")
    boot.add_argument("y1")
    boot.add_argument("y2")
    boot.add_argument("--ranks", required=True, help="fixed ranks r1,r2,r12")
    boot.add_argument("--perm", default="identity", help="identity | dspfp | FILE")
    boot.add_argument("--replicates", type=int, default=1000)
    boot.add_argument("--level", type=float, default=0.95)
    boot.add_argument("--seed", type=int, default=0)
    boot.add_argument("--no-center", action="store_true")
    boot.add_argument("--threads", type=int, default=_default_threads())
    boot.set_defaults(func=cmd_bootstrap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
