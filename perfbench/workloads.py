"""The three benchmark workloads: inputs, one op, and the check of its output.

Every workload is a closed loop with one client: op ``i`` starts when op
``i - 1`` has returned.  Inputs are made in set-up from the workload
seed with ``np.random.SeedSequence(seed).spawn(...)``, written to the
input directory, and cycled through by op index, so the program only
ever receives matrices or files.

* ``decompose-wide``: one in-process ``cdpa decompose Y1 Y2 --auto-ranks``
  on a setup-2 draw (p1 = 4000, p2 = 900, n = 400, theta = 30 degrees,
  unit noise), with sign ``auto`` and identity alignment.  It is the
  user path: rank selection, three SVDs per dataset, the dense p1 x p2
  correlation screen, two assemblies and eleven output matrices.  Ops
  cycle over a few distinct draws so that a cache keyed on the input
  cannot turn an op into a lookup.
* ``replicate-fixed``: one ``run_replications`` call with one replication
  of setup 1 (p1 = 300, n = 300, theta = 30 degrees) and a distinct seed
  per op: the paper's simulation cell, a fixed-rank fit plus
  ``error_metrics``, without rank selection or alignment.
* ``align-dspfp``: one ``estimate_cdpa`` call with ranks (5, 5, 5),
  ``perm="dspfp"`` and sign ``plus`` on a setup-1 draw (p = 100,
  n = 300) whose second dataset has its rows shuffled by a seeded
  permutation.  The DSPFP solver takes nearly all of the op, on its
  p > ``small_p`` path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import cdpa
import cdpa.cli
from cdpa import (
    CdpaConfig,
    ObservedMatrix,
    RankProfile,
    SimulationConfig,
    generate_setup,
    match_objective,
    read_matrix_binary,
    write_matrix_binary,
)

THETA_DEG = 30.0
C_ERROR_BOUND = 0.15  # criterion-3 bound on the scaled squared error of C

# sizes per mode; "smoke" runs every code path in seconds
SIZES = {
    "full": {
        "decompose-wide": {"p1": 4000, "n": 400, "pool": 4},
        "replicate-fixed": {"p1": 300, "n": 300, "pool": 4096},
        "align-dspfp": {"p": 100, "n": 300, "pool": 16},
    },
    "smoke": {
        "decompose-wide": {"p1": 300, "n": 100, "pool": 2},
        "replicate-fixed": {"p1": 60, "n": 100, "pool": 64},
        "align-dspfp": {"p": 20, "n": 100, "pool": 4},
    },
}


def _int_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class Outcome:
    """Result of checking one op: an error message or None, plus quality values."""

    def __init__(self, error: str | None = None, **quality: float):
        self.error = error
        self.quality = quality


class DecomposeWide:
    name = "decompose-wide"

    def __init__(self, size: dict, inputs: Path):
        self.size = size
        self.inputs = inputs
        self.out = inputs.parent / "out"

    def generate(self, seed: int) -> None:
        oracle = None
        for d, child in enumerate(np.random.SeedSequence(seed).spawn(self.size["pool"])):
            cfg = SimulationConfig(
                setup=2, theta_deg=THETA_DEG, p1=self.size["p1"], n=self.size["n"], seed=_int_seed(child)
            )
            y1, y2, truth = generate_setup(cfg)
            write_matrix_binary(self.inputs / f"y1_{d}.cdpm", y1.values)
            write_matrix_binary(self.inputs / f"y2_{d}.cdpm", y2.values)
            oracle = truth.explained
        (self.inputs / "meta.json").write_text(json.dumps({"oracle": oracle}))

    def load(self) -> None:
        self.oracle = json.loads((self.inputs / "meta.json").read_text())["oracle"]
        self.out.mkdir(exist_ok=True)

    def op(self, i: int):
        d = i % self.size["pool"]
        argv = ["decompose", str(self.inputs / f"y1_{d}.cdpm"), str(self.inputs / f"y2_{d}.cdpm"),
                "--auto-ranks", "--out", str(self.out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cdpa.cli.main(argv)

    def check(self, i: int, code) -> Outcome:
        try:
            if code != 0:
                return Outcome(f"exit code {code}")
            manifest = json.loads((self.out / "manifest.json").read_text())
            if manifest["ranks"] != [5, 5, 5]:
                return Outcome(f"ranks {manifest['ranks']}, expected [5, 5, 5]")
            if manifest["permutation"]["indices"] != list(range(len(manifest["permutation"]["indices"]))):
                return Outcome("alignment is not the identity")
            # read_matrix_binary is not traced, so the check adds no spans
            delta, h, d = (read_matrix_binary(self.out / f"{m}.cdpm") for m in ("delta_1", "h_1", "source_d_1"))
            d_padded = np.zeros_like(delta)  # dataset 1 is zero-padded when p1 < p2
            d_padded[: d.shape[0]] = d
            if not np.array_equal(delta, h + d_padded):
                return Outcome("delta_1 != h_1 + source_d_1")
            explained = manifest["explained_variance"]
            # the identity alignment is the planted one
            return Outcome(explained_err=abs(explained - self.oracle), align_objective_ratio=1.0)
        finally:
            # an op must write every output afresh
            for f in self.out.iterdir():
                f.unlink()


class ReplicateFixed:
    name = "replicate-fixed"

    def __init__(self, size: dict, inputs: Path):
        self.size = size
        self.inputs = inputs

    def generate(self, seed: int) -> None:
        seeds = [_int_seed(c) for c in np.random.SeedSequence(seed).spawn(self.size["pool"])]
        np.save(self.inputs / "seeds.npy", np.array(seeds, dtype=np.uint64))

    def load(self) -> None:
        self.seeds = [int(s) for s in np.load(self.inputs / "seeds.npy")]

    def op(self, i: int):
        cfg = SimulationConfig(
            setup=1, theta_deg=THETA_DEG, p1=self.size["p1"], n=self.size["n"], replications=1,
            seed=self.seeds[i % len(self.seeds)],
        )
        return cdpa.run_replications(cfg)

    def check(self, i: int, study) -> Outcome:
        row = study.rows[0]
        if not all(math.isfinite(v) for v in row.values()):
            return Outcome("non-finite error metric")
        c_error = row["scaled_sq_error_c_fro"]
        if not c_error < C_ERROR_BOUND:
            return Outcome(f"c_error {c_error:.4g} >= {C_ERROR_BOUND}")
        # the identity alignment is the planted one
        return Outcome(explained_err=row["trace_abs_error"], c_error=c_error, align_objective_ratio=1.0)


class AlignDspfp:
    name = "align-dspfp"

    def __init__(self, size: dict, inputs: Path):
        self.size = size
        self.inputs = inputs
        self.config = CdpaConfig(ranks=RankProfile(5, 5, 5), perm="dspfp", sign="plus")

    def generate(self, seed: int) -> None:
        p = self.size["p"]
        y1s, y2s, planted = [], [], []
        for child in np.random.SeedSequence(seed).spawn(self.size["pool"]):
            data_seq, perm_seq = child.spawn(2)
            cfg = SimulationConfig(setup=1, theta_deg=THETA_DEG, p1=p, n=self.size["n"], seed=_int_seed(data_seq))
            y1, y2, truth = generate_setup(cfg)
            shuffle = np.random.default_rng(perm_seq).permutation(p)
            y1s.append(y1.values)
            y2s.append(y2.values[shuffle])
            planted.append(np.argsort(shuffle))  # q2a[planted] restores the original rows
        np.savez(self.inputs / "pool.npz", y1=np.stack(y1s), y2=np.stack(y2s), planted=np.stack(planted),
                 oracle=truth.explained)

    def load(self) -> None:
        with np.load(self.inputs / "pool.npz") as pool:
            self.pairs = [(ObservedMatrix(a), ObservedMatrix(b)) for a, b in zip(pool["y1"], pool["y2"])]
            self.planted = list(pool["planted"])
            self.oracle = float(pool["oracle"])

    def op(self, i: int):
        y1, y2 = self.pairs[i % len(self.pairs)]
        return cdpa.estimate_cdpa(y1, y2, self.config)

    def check(self, i: int, result) -> Outcome:
        perm = result.permutation.perm
        p = perm.shape[0]
        if not np.array_equal(np.sort(perm), np.arange(p)):
            return Outcome("alignment is not a bijection")
        q1, q2a = result.pair.q1, result.pair.q2a
        found = match_objective(q1, q2a, perm)
        planted = match_objective(q1, q2a, self.planted[i % len(self.planted)])
        identity = match_objective(q1, q2a, np.arange(p))
        tol = 1e-9 * max(planted, identity, 1.0)
        if found < planted - tol or found < identity - tol:
            return Outcome(f"objective {found:.6g} below planted {planted:.6g} or identity {identity:.6g}")
        return Outcome(
            explained_err=abs(result.patterns.explained - self.oracle),
            align_objective_ratio=found / planted,
        )


WORKLOADS = {w.name: w for w in (DecomposeWide, ReplicateFixed, AlignDspfp)}
