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
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import sys
import time
from pathlib import Path

from . import __version__
from ._worker import map_shared
from .align import PermutationPlan, build_match_problem, dspfp_match, exhaustive_match
from .denoise import ObservedMatrix, RankProfile, center_rows, select_ranks
from .errors import BadConfig, InputError, NumericalError
from .matrixio import read_matrix, write_matrices
from .patterns import CdpaConfig, bootstrap_ci, check_bootstrap, estimate_cdpa
from .simulate import SimulationConfig, oracle_explained_variance, run_replications
from .subspace import orthonormal_basis
from ._linalg import pad_rows


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _load(path: str) -> ObservedMatrix:
    return ObservedMatrix(read_matrix(path))


def _parse_ranks(text: str) -> RankProfile:
    parts = text.split(",")
    if len(parts) != 3:
        raise BadConfig(f"--ranks expects r1,r2,r12 but got {text!r}")
    try:
        r1, r2, r12 = (int(p) for p in parts)
    except ValueError:
        raise BadConfig(f"--ranks expects integers, got {text!r}") from None
    return RankProfile(r1=r1, r2=r2, r12=r12)


@contextlib.contextmanager
def _output_dir(path: str):
    """The output directory ``path``, created with its parents if missing.

    If the command fails inside the block, the directories created here
    are removed again, as long as they are empty; one that existed stays.
    """
    out = Path(path)
    created = []
    try:
        try:
            created = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"--out {path}: {exc.strerror or exc}") from exc
        yield out
    except BaseException:
        for directory in created:  # deepest first
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; a failure is an ``InputError`` naming the path."""
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def _plan_payload(plan: PermutationPlan) -> dict:
    """The JSON form of a row alignment, shared by ``decompose`` and ``match``."""
    return {
        "method": plan.method,
        "objective": plan.objective,
        "indices": [int(i) for i in plan.perm],
        "iterations": plan.iterations,
        "converged": plan.converged,
    }


def _perm_argument(value: str):
    if value in ("identity", "dspfp"):
        return value
    try:
        text = Path(value).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"permutation file {value!r}: {getattr(exc, 'strerror', None) or exc}") from None
    return PermutationPlan.from_json(text).perm


# ---------------------------------------------------------------- ranks


def cmd_ranks(args) -> int:
    y1, y2 = _load(args.y1), _load(args.y2)
    if not args.no_center:
        y1, y2 = center_rows(y1), center_rows(y2)
    ranks, _, _ = select_ranks(y1, y2)
    _emit({"r1": ranks.r1, "r2": ranks.r2, "r12": ranks.r12, "screen": ranks.r12 > 0})
    return 0


# ------------------------------------------------------------ decompose


def _fit_inputs(args, ranks: RankProfile | None, sign: str, replicates: int | None):
    """Both inputs and the fit's configuration, shared by ``decompose`` and
    ``bootstrap``; the bootstrap settings are checked here, before any fit,
    unless ``replicates`` is None (no bootstrap)."""
    y1, y2 = _load(args.y1), _load(args.y2)
    perm = _perm_argument(args.perm)
    config = CdpaConfig(ranks=ranks, perm=perm, sign=sign, center=not args.no_center)
    if replicates is not None:
        check_bootstrap(replicates, args.level, args.seed)
    return y1, y2, config


def cmd_decompose(args) -> int:
    t0 = time.time()
    ranks = _parse_ranks(args.ranks) if args.ranks else None
    if ranks is None and not args.auto_ranks:
        raise BadConfig("pass --ranks r1,r2,r12 or --auto-ranks")
    y1, y2, config = _fit_inputs(args, ranks, args.sign, args.bootstrap or None)
    with _output_dir(args.out) as out:
        _progress(f"decomposing {args.y1} and {args.y2}")
        result = estimate_cdpa(y1, y2, config)
        columns = result.patterns.columns
        artifacts = {name: f"{name}.cdpm" for name, _ in columns(slice(0, 0))}

        def write_group(k):  # one dataset's files, on the caller or a worker
            paths = [out / artifacts[name] for name, _ in columns(slice(0, 0), k)]
            write_matrices(paths, result.patterns.shape[1], lambda cols: (b for _, b in columns(cols, k)))

        map_shared(write_group, (0, 1))
        interval = None
        if args.bootstrap:
            _progress(f"bootstrapping with {args.bootstrap} replicates")
            interval = dataclasses.asdict(bootstrap_ci(y1, y2, result, args.bootstrap, args.level, args.seed))
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
            "permutation": _plan_payload(result.permutation),
            "sign": result.sign,
            "explained_variance": result.patterns.explained,
            "confidence_interval": interval,
            "delta_theta": result.diagnostics.delta_theta,
            "snr": list(result.diagnostics.snr),
            "seeds": {"master": args.seed},
            "artifacts": artifacts,
            "timings": {"seconds": time.time() - t0},
        }
        text = json.dumps(manifest, sort_keys=True, indent=2)
        _write_text(out / "manifest.json", text)
    print(text)
    return 0


# ------------------------------------------------------------- simulate


def _number_list(text: str, kind=float) -> list:
    """A nonempty comma-separated list of ``kind`` (float or int) values."""
    what = "integer" if kind is int else "number"
    try:
        values = [kind(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise BadConfig(f"expected a comma-separated {what} list, got {text!r}") from None
    if not values:
        raise BadConfig(f"expected at least one {what}, got {text!r}")
    return values


def cmd_simulate(args) -> int:
    thetas = _number_list(args.theta)
    p1s = _number_list(args.p1, int)
    noises = _number_list(args.noise)
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
    with _output_dir(args.out) as out:
        _progress(f"running {len(cells)} cells x {args.reps} replications")
        aggregate = []
        all_rows = []
        for study in map_shared(run_replications, cells):
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
        table = io.StringIO()
        writer = csv.DictWriter(table, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(all_rows)
        _write_text(out / "replications.csv", table.getvalue())
        payload = {"command": "simulate", "seed": args.seed, "cells": aggregate}
        _write_text(out / "aggregate.json", json.dumps(payload, sort_keys=True, indent=2))
    _emit(payload)
    return 0


# --------------------------------------------------------------- oracle


def cmd_oracle(args) -> int:
    thetas = _number_list(args.theta)
    values = {}
    for theta in thetas:
        if not 0.0 <= theta <= 75.0:
            _progress(f"warning: theta={theta:g} is outside the standard sweep [0, 75]")
        values[f"{theta:g}"] = oracle_explained_variance(theta)
    _emit({"command": "oracle", "explained_variance": values})
    return 0


# ---------------------------------------------------------------- match


def cmd_match(args) -> int:
    if args.out:
        out = Path(args.out)
        if out.is_dir():
            raise InputError(f"{out}: cannot write: Is a directory")
        if not out.parent.is_dir():
            raise InputError(f"{out}: cannot write: {out.parent} is not a directory")
    b1 = read_matrix(args.b1)
    b2 = read_matrix(args.b2)
    if b1.shape[1] != b2.shape[1]:
        raise InputError(
            f"channel column counts differ: {b1.shape[1]} vs {b2.shape[1]}"
        )
    pmax = max(b1.shape[0], b2.shape[0])
    q1 = pad_rows(orthonormal_basis(b1), pmax)
    q2a = pad_rows(orthonormal_basis(b2), pmax)
    if args.method == "exhaustive":
        plan = exhaustive_match(q1, q2a)
    else:
        plan = dspfp_match(build_match_problem(q1, q2a))
    if args.out:
        _write_text(args.out, plan.to_json() + "\n")
    _emit({"command": "match", **_plan_payload(plan)})
    return 0


# ------------------------------------------------------------ bootstrap


def cmd_bootstrap(args) -> int:
    y1, y2, config = _fit_inputs(args, _parse_ranks(args.ranks), "plus", args.replicates)
    ci = bootstrap_ci(y1, y2, estimate_cdpa(y1, y2, config), args.replicates, args.level, args.seed)
    _emit({"command": "bootstrap", **dataclasses.asdict(ci)})
    return 0


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdpa",
        description="Common and distinctive pattern decomposition of paired datasets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by two or more subcommands, each declared once
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("y1")
    data.add_argument("y2")
    data.add_argument("--no-center", action="store_true")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    fit = argparse.ArgumentParser(add_help=False, parents=[data, seeded])
    fit.add_argument("--perm", default="identity", help="identity | dspfp | FILE")
    fit.add_argument("--level", type=float, default=0.95)

    ranks = sub.add_parser("ranks", parents=[data], help="select signal ranks and the shared rank")
    ranks.set_defaults(func=cmd_ranks)

    dec = sub.add_parser("decompose", parents=[fit], help="run the full decomposition", description=(
        "Fit the decomposition and write its eleven pattern matrices and a manifest to --out. "
        "Each dataset's rank selection, DSPFP's starts, two groups of output files and the "
        "bootstrap replicates run on the calling thread and the package's worker threads, one "
        "per further CPU the process may use; the files are byte-identical however the work "
        "was shared out."))
    group = dec.add_mutually_exclusive_group()
    group.add_argument("--ranks", help="fixed ranks r1,r2,r12")
    group.add_argument("--auto-ranks", action="store_true")
    dec.add_argument("--sign", choices=("auto", "plus", "minus"), default="auto")
    dec.add_argument("--bootstrap", type=int, default=0, metavar="N")
    dec.add_argument("--out", required=True)
    dec.set_defaults(func=cmd_decompose)

    sim = sub.add_parser("simulate", parents=[seeded], help="replication studies over a grid")
    sim.add_argument("--setup", type=int, choices=(1, 2), required=True)
    sim.add_argument("--theta", required=True, help="comma-separated angle list")
    sim.add_argument("--p1", required=True, help="comma-separated p1 list")
    sim.add_argument("--noise", default="1.0", help="comma-separated noise variances")
    sim.add_argument("--n", type=int, default=300)
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument("--structure-seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    orc = sub.add_parser("oracle", help="population explained variance")
    orc.add_argument("--theta", required=True, help="comma-separated angle list")
    orc.set_defaults(func=cmd_oracle)

    mat = sub.add_parser(
        "match",
        help="standalone row alignment of two channels",
        description=(
            "Align the rows of channel B2 to those of B1. dspfp runs its independent "
            "ascent starts on the calling thread and the package's worker threads, one per "
            "further CPU the process may use, and its plan is byte-identical however the "
            "starts were shared out. The objective "
            "rewards agreeing subspaces, not the planted pairing: on channels whose planted "
            "angle is 30 degrees or more (simulate --theta 30 and up) it can prefer a "
            "non-planted plan even on noiseless bases."
        ),
    )
    mat.add_argument("b1")
    mat.add_argument("b2")
    mat.add_argument("--method", choices=("dspfp", "exhaustive"), default="dspfp")
    mat.add_argument("--out")
    mat.set_defaults(func=cmd_match)

    boot = sub.add_parser(
        "bootstrap", parents=[fit], help="confidence interval for explained variance"
    )
    boot.add_argument("--ranks", required=True, help="fixed ranks r1,r2,r12")
    boot.add_argument("--replicates", type=int, default=1000)
    boot.set_defaults(func=cmd_bootstrap)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
