"""Reference outputs of ``estimate_cdpa`` on a fixed panel of seeded fits.

A change to the numerical route (the factorization, the order of a sum)
cannot keep the outputs bit-identical, so ``tests/test_reference_panel.py``
compares every case of this panel with ``tests/data/reference_panel.json``
within one declared tolerance.  This module defines the panel and the
summary of a fit that is stored and compared; run it from the repository
root to rewrite the file:

    PYTHONPATH=src python tests/make_reference_panel.py

A change that moves the outputs on purpose regenerates the file and says
which values moved and why.

Each case records:

* discrete outputs, compared exactly: the ranks, the correlation screen
  (auto ranks only), the sign, the row permutation (``None`` for the
  identity) and the name of the error raised, if any;
* scalars: ``explained``, the canonical correlations, the principal-angle
  cosines, the pattern ``scales``, each estimate's ``tau``, the SNRs,
  ``delta_theta``, both sign traces and the alignment objective;
* dense outputs (``c``, ``h``, ``delta``, ``aligned_x`` and the sources):
  three seeded bilinear probes ``u.T @ M @ v`` and the Frobenius norm.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np

from cdpa import (
    CdpaConfig,
    CdpaError,
    ObservedMatrix,
    RankProfile,
    SimulationConfig,
    center_rows,
    estimate_cdpa,
    generate_setup,
    select_ranks,
    soft_threshold_denoise,
)

PATH = Path(__file__).resolve().parent / "data" / "reference_panel.json"
N = 300
FIXED = RankProfile(5, 5, 5)
PROBES = 3


@lru_cache(maxsize=None)
def _draw(setup: int, theta: float, p1: int, seed: int):
    y1, y2, _ = generate_setup(SimulationConfig(setup=setup, theta_deg=theta, p1=p1, n=N, seed=seed))
    return y1.values, y2.values


def cases() -> list[dict]:
    """Every case of the panel, in file order.

    A case names its draw (``setup``, ``theta``, ``p1``, ``seed``), how
    dataset 2 is changed before the fit (``negate``, ``shuffle``: rows
    permuted by a seeded permutation, ``independent``: replaced by an
    independent draw, ``offset``: rows shifted away from zero mean), and
    the fit's ranks (``None`` for auto), sign, alignment and centring.
    """
    out = []
    seed = 100
    for setup in (1, 2):
        for theta in (0.0, 30.0, 75.0):
            for p1 in (100, 300):
                seed += 1
                for negate in (False, True):
                    for ranks, sign in ((None, "auto"), (FIXED, "auto"), (FIXED, "plus"), (FIXED, "minus")):
                        name = f"s{setup}-t{theta:g}-p{p1}-{'neg' if negate else 'pos'}-" + (
                            "auto" if ranks is None else f"fixed-{sign}"
                        )
                        out.append(dict(id=name, setup=setup, theta=theta, p1=p1, seed=seed,
                                        negate=negate, ranks=ranks, sign=sign))
    base = dict(setup=1, theta=30.0, p1=100, seed=200, negate=False, sign="auto")
    out += [
        dict(base, id="dspfp-shuffled-fixed", ranks=FIXED, sign="plus", shuffle=True, perm="dspfp"),
        dict(base, id="dspfp-shuffled-auto", ranks=None, shuffle=True, perm="dspfp"),
        dict(base, id="provided-plan", ranks=FIXED, shuffle=True, perm="planted"),
        dict(base, id="r12-zero-fixed", ranks=RankProfile(5, 5, 0)),
        dict(base, id="r12-zero-screen", ranks=None, independent=True),
        dict(base, id="uncentred-auto", setup=2, ranks=None, offset=True),
        dict(base, id="uncentred-fixed", setup=2, ranks=FIXED, sign="minus", offset=True),
    ]
    return out


def _inputs(case: dict):
    """The two observed matrices and the configuration of a case."""
    y1, y2 = _draw(case["setup"], case["theta"], case["p1"], case["seed"])
    perm = "identity"
    if case.get("negate"):
        y2 = -y2
    if case.get("independent"):
        y2 = _draw(case["setup"], case["theta"], case["p1"], case["seed"] + 1)[0]
    if case.get("offset"):
        rows = np.random.default_rng(case["seed"]).standard_normal((y2.shape[0], 1))
        y2 = y2 + 3.0 * rows
    if case.get("shuffle"):
        shuffle = np.random.default_rng(case["seed"]).permutation(y2.shape[0])
        y2 = y2[shuffle]
        perm = np.argsort(shuffle) if case["perm"] == "planted" else case["perm"]
    config = CdpaConfig(ranks=case["ranks"], perm=perm, sign=case["sign"], center=not case.get("offset"))
    return ObservedMatrix(y1), ObservedMatrix(y2), config


def _probes(m: np.ndarray) -> list[float]:
    """Seeded bilinear probes ``u.T @ m @ v`` with standard normal ``u``, ``v``."""
    rng = np.random.default_rng(list(m.shape))
    return [float(rng.standard_normal(m.shape[0]) @ m @ rng.standard_normal(m.shape[1]))
            for _ in range(PROBES)]


def summarize(case: dict) -> dict:
    """The stored summary of one case's fit with the installed library."""
    y1, y2, config = _inputs(case)
    if config.center:
        y1, y2 = center_rows(y1), center_rows(y2)
    discrete = {"screen": select_ranks(y1, y2)[0].r12 > 0 if config.ranks is None else None}
    try:
        fit = estimate_cdpa(y1, y2, config)
    except CdpaError as exc:
        return {"discrete": dict(discrete, error=type(exc).__name__), "scalars": {}, "dense": {}}
    perm = fit.permutation.perm
    discrete.update(
        error=None,
        ranks=[fit.ranks.r1, fit.ranks.r2, fit.ranks.r12],
        sign=fit.sign,
        perm=None if np.array_equal(perm, np.arange(perm.shape[0])) else perm.tolist(),
    )
    estimates = (soft_threshold_denoise(y1, fit.ranks.r1), soft_threshold_denoise(y2, fit.ranks.r2))
    pat = fit.patterns
    scalars = {
        "explained": [pat.explained],
        "scales": list(pat.scales),
        "tau": [x.tau for x in estimates],
        "snr": list(fit.diagnostics.snr),
        "delta_theta": [fit.diagnostics.delta_theta],
        "objective": [fit.permutation.objective],
    }
    if fit.system is not None:
        scalars["correlations"] = fit.system.correlations.tolist()
        scalars["cosines"] = fit.pair.cosines.tolist()
    if fit.sign_choice is not None:
        scalars["sign_traces"] = [fit.sign_choice.trace_plus, fit.sign_choice.trace_minus]
    matrices = {"c": pat.c}
    for k in (0, 1):
        matrices.update({
            f"h_{k + 1}": pat.h[k],
            f"delta_{k + 1}": pat.delta[k],
            f"aligned_x_{k + 1}": pat.aligned_x[k],
            f"source_c_{k + 1}": fit.patterns.sources[k].c,
            f"source_d_{k + 1}": fit.patterns.sources[k].d,
        })
    dense = {name: {"probes": _probes(m), "fro": float(np.linalg.norm(m))} for name, m in matrices.items()}
    return {"discrete": discrete, "scalars": scalars, "dense": dense}


def main() -> None:
    PATH.parent.mkdir(exist_ok=True)
    lines = [json.dumps({"id": case["id"], **summarize(case)}, separators=(",", ":")) for case in cases()]
    PATH.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} cases to {PATH} ({PATH.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
