"""Synthetic data generation with planted structure, and replication studies.

Two benchmark designs are supported.  Both plant rank-5 signals with
eigenvalues 500, 400, 300, 200, 100, a diagonal cross-covariance between
the standardized factor scores driven by a single angle parameter, and a
matching diagonal alignment between the two channel subspaces.  Design 1
uses equal variable counts; design 2 fixes the second dataset at 900
variables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ._linalg import orthonormal_complement, pad_rows, random_orthonormal
from .align import match_objective
from .dcca import common_factor_coefficients
from .denoise import ObservedMatrix, RankProfile
from .errors import BadConfig
from .patterns import (
    CdpaConfig,
    PatternDecomposition,
    PopulationPatterns,
    estimate_cdpa,
    population_cdpa,
)

EIGENVALUES = np.array([500.0, 400.0, 300.0, 200.0, 100.0])
TOTAL_VARIANCE = float(EIGENVALUES.sum())
SIGNAL_RANK = 5


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation cell.

    ``seed`` drives the noise and factor scores of each replication;
    ``structure_seed`` fixes the factor matrices, which are shared across
    all replications of the cell.
    """

    setup: int
    theta_deg: float
    p1: int
    n: int
    noise_var: float = 1.0
    p2: int | None = None
    seed: int = 0
    replications: int = 1
    structure_seed: int = 0

    def __post_init__(self):
        if self.setup not in (1, 2):
            raise BadConfig(f"setup must be 1 or 2, got {self.setup}")
        if not 0.0 <= self.theta_deg <= 75.0:
            raise BadConfig(f"theta_deg must be in [0, 75], got {self.theta_deg}")
        if self.noise_var < 0:
            raise BadConfig("noise_var must be nonnegative")
        if self.replications < 1:
            raise BadConfig("replications must be >= 1")
        expected_p2 = self.p1 if self.setup == 1 else 900
        if self.p2 is None:
            object.__setattr__(self, "p2", expected_p2)
        elif self.p2 != expected_p2:
            raise BadConfig(
                f"setup {self.setup} forces p2 = {expected_p2}, got {self.p2}"
            )
        if min(self.p1, self.p2) < SIGNAL_RANK:
            raise BadConfig("variable counts must be at least the signal rank")


@dataclass(frozen=True)
class GroundTruth:
    """Planted structure and the per-replication true matrices.

    ``c_factors = (b_c, c0_true)`` holds the true common pattern's
    pmax x r12 loadings and r12 x n common factor scores, with
    ``c == b_c @ c0_true``.
    """

    v1: np.ndarray
    v2: np.ndarray
    eigvalues: np.ndarray
    cross_cov: np.ndarray
    r12: int
    x1: np.ndarray
    x2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    c: np.ndarray
    c_factors: tuple[np.ndarray, np.ndarray]
    c_scaled: tuple[np.ndarray, np.ndarray]
    h: tuple[np.ndarray, np.ndarray]
    delta: tuple[np.ndarray, np.ndarray]
    population: PopulationPatterns

    @property
    def explained(self) -> float:
        return self.population.explained


@dataclass(frozen=True)
class ErrorReport:
    """Estimation errors of one replication against the planted truth."""

    scaled_sq_error_c_fro: float
    scaled_sq_error_c_spec: float
    scaled_sq_error_c1_fro: float
    scaled_sq_error_c1_spec: float
    scaled_sq_error_c2_fro: float
    scaled_sq_error_c2_spec: float
    trace_abs_error: float
    trace_rel_error: float
    match_objective_abs_error: float | None = None
    match_objective_rel_error: float | None = None

    def as_dict(self) -> dict[str, float]:
        out = {}
        for name in (
            "scaled_sq_error_c_fro",
            "scaled_sq_error_c_spec",
            "scaled_sq_error_c1_fro",
            "scaled_sq_error_c1_spec",
            "scaled_sq_error_c2_fro",
            "scaled_sq_error_c2_spec",
            "trace_abs_error",
            "trace_rel_error",
        ):
            out[name] = float(getattr(self, name))
        if self.match_objective_abs_error is not None:
            out["match_objective_abs_error"] = float(self.match_objective_abs_error)
            out["match_objective_rel_error"] = float(self.match_objective_rel_error)
        return out


def planted_correlations(theta_deg: float) -> np.ndarray:
    """The five planted factor-score correlations for one angle.

    Angles are clamped into [0, 90] degrees so correlations stay
    nonnegative even outside the standard sweep, which ends at 75.
    """
    angles = np.array(
        [
            min(theta_deg, 30.0),
            min(theta_deg, 60.0),
            min(theta_deg, 90.0),
            min(theta_deg + 15.0, 90.0),
            min(theta_deg + 30.0, 90.0),
        ]
    )
    rho = np.cos(np.deg2rad(angles))
    rho[np.abs(rho) < 1e-12] = 0.0  # exact zero at a 90 degree angle
    return rho


@dataclass(frozen=True)
class _Structure:
    """Planted factor matrices plus analytic population quantities.

    ``b_c`` and the channel matrices are expressed in the planted
    coordinates (no SVD tie-breaking involved), so per-replication truth
    matrices can be paired consistently with the planted factor scores.
    """

    rho: np.ndarray
    r12: int
    v1: np.ndarray
    v2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b_c: np.ndarray
    population: PopulationPatterns


def _build_structure(config: SimulationConfig) -> _Structure:
    """Factor matrices with the planted channel-subspace alignment.

    The smaller dataset's leading block is drawn first; the larger
    dataset's is constructed so the product of the padded orthonormal
    blocks equals the diagonal of planted correlations exactly.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [
                config.structure_seed,
                config.setup,
                config.p1,
                int(round(1000 * config.theta_deg)),
            ]
        )
    )
    rho = planted_correlations(config.theta_deg)
    r12 = int(np.sum(rho > 0))
    p1, p2 = config.p1, config.p2
    pmax, pmin = max(p1, p2), min(p1, p2)
    q_small = random_orthonormal(rng, pmin, r12)
    q_small_padded = pad_rows(q_small, pmax)
    w = orthonormal_complement(rng, q_small_padded, r12)
    q_big = q_small_padded * rho[:r12] + w * np.sqrt(1.0 - rho[:r12] ** 2)

    def complete(q: np.ndarray, p: int) -> np.ndarray:
        extra = orthonormal_complement(rng, q, SIGNAL_RANK - r12)
        return np.hstack([q, extra])

    v_small = complete(q_small, pmin)
    v_big = complete(q_big, pmax)
    v1, v2 = (v_small, v_big) if p1 <= p2 else (v_big, v_small)
    population = population_cdpa(
        v1, EIGENVALUES, v2, EIGENVALUES, np.diag(rho)
    )
    # channel quantities in the planted coordinates: the padded leading
    # blocks are principal-vector pairs with cosines rho, so no SVD (and
    # no tie-breaking ambiguity) is involved
    root = np.sqrt(EIGENVALUES[:r12])
    b1 = v1[:, :r12] * root
    b2 = v2[:, :r12] * root
    q1p = pad_rows(v1[:, :r12], pmax)
    q2p = pad_rows(v2[:, :r12], pmax)
    tan_half = np.sqrt((1.0 - rho[:r12]) / (1.0 + rho[:r12]))
    c_b = (1.0 - tan_half) * (q1p + q2p) / 2.0
    b_c = c_b * (root / np.sqrt(TOTAL_VARIANCE))
    return _Structure(
        rho=rho, r12=r12, v1=v1, v2=v2, b1=b1, b2=b2, b_c=b_c, population=population
    )


_STRUCTURE_CACHE: dict[tuple, _Structure] = {}


def _structure_for(config: SimulationConfig) -> _Structure:
    key = (config.setup, config.theta_deg, config.p1, config.p2, config.structure_seed)
    if key not in _STRUCTURE_CACHE:
        _STRUCTURE_CACHE[key] = _build_structure(config)
    return _STRUCTURE_CACHE[key]


def generate_setup(
    config: SimulationConfig, exact_moments: bool = False
) -> tuple[ObservedMatrix, ObservedMatrix, GroundTruth]:
    """Draw one replication of observed data with its ground truth.

    With ``exact_moments`` the factor scores are orthonormalized so the
    sample second moments match the planted ones exactly; useful for
    tests of algebraic identities.
    """
    structure = _structure_for(config)
    rho, r12 = structure.rho, structure.r12
    n = config.n
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 97]))
    if exact_moments:
        if n < 2 * SIGNAL_RANK:
            raise BadConfig("exact_moments needs n >= 10")
        basis = random_orthonormal(rng, n, 2 * SIGNAL_RANK) * np.sqrt(n)
        g1 = basis[:, :SIGNAL_RANK].T
        g2 = basis[:, SIGNAL_RANK:].T
    else:
        g1 = rng.standard_normal((SIGNAL_RANK, n))
        g2 = rng.standard_normal((SIGNAL_RANK, n))
    z1 = g1
    z2 = rho[:, None] * g1 + np.sqrt(1.0 - rho**2)[:, None] * g2
    root = np.sqrt(EIGENVALUES)[:, None]
    x1 = structure.v1 @ (root * z1)
    x2 = structure.v2 @ (root * z2)
    e1 = rng.normal(0.0, np.sqrt(config.noise_var), size=x1.shape)
    e2 = rng.normal(0.0, np.sqrt(config.noise_var), size=x2.shape)

    a = common_factor_coefficients(rho[:r12])
    c0_true = a[:, None] * (z1[:r12] + z2[:r12])
    c_true = structure.b_c @ c0_true
    scale = np.sqrt(TOTAL_VARIANCE)
    c_scaled = (scale * c_true, scale * c_true)
    pmax = max(config.p1, config.p2)
    x1_pad, x2_pad = pad_rows(x1, pmax), pad_rows(x2, pmax)
    b1_pad, b2_pad = pad_rows(structure.b1, pmax), pad_rows(structure.b2, pmax)
    c_source = (b1_pad @ c0_true, b2_pad @ c0_true)
    h = tuple(c_source[k] - c_scaled[k] for k in range(2))
    delta = tuple(x_pad - cs for x_pad, cs in zip((x1_pad, x2_pad), c_scaled))
    truth = GroundTruth(
        v1=structure.v1,
        v2=structure.v2,
        eigvalues=EIGENVALUES,
        cross_cov=np.diag(rho),
        r12=r12,
        x1=x1,
        x2=x2,
        z1=z1,
        z2=z2,
        c=c_true,
        c_factors=(structure.b_c, c0_true),
        c_scaled=c_scaled,
        h=h,
        delta=delta,
        population=structure.population,
    )
    return (
        ObservedMatrix(x1 + e1),
        ObservedMatrix(x2 + e2),
        truth,
    )


def closed_form_explained_variance(theta_deg: float) -> float:
    """Independent closed-form evaluation of the population explained variance.

    Per planted pair: ``lam_l * (1 - tan(theta_l / 2))^4 * (1 + rho_l)^2
    / (4 * total_variance)`` summed over the nonzero correlations.
    """
    rho = planted_correlations(theta_deg)
    r12 = int(np.sum(rho > 0))
    rho = rho[:r12]
    tan_half = np.sqrt((1.0 - rho) / (1.0 + rho))
    contrib = (
        EIGENVALUES[:r12]
        * (1.0 - tan_half) ** 4
        * (1.0 + rho) ** 2
        / (4.0 * TOTAL_VARIANCE)
    )
    return float(np.sum(contrib))


def oracle_explained_variance(theta_deg: float, p: int = 40) -> float:
    """Population explained variance, validated by two independent routes.

    The matrix-level analytic pipeline on a randomly generated planted
    structure must agree with the closed-form sum to 1e-10; the common
    value is returned.  The result does not depend on ``p``.
    """
    if not 0.0 <= theta_deg <= 90.0:
        raise BadConfig(f"theta_deg must be in [0, 90], got {theta_deg}")
    closed = closed_form_explained_variance(theta_deg)
    config = SimulationConfig(
        setup=1, theta_deg=min(theta_deg, 75.0), p1=p, n=2 * SIGNAL_RANK
    )
    if theta_deg > 75.0:
        # outside the standard sweep: rebuild the structure directly
        rng = np.random.default_rng(3)
        rho = planted_correlations(theta_deg)
        r12 = int(np.sum(rho > 0))
        q1 = random_orthonormal(rng, p, r12)
        w = orthonormal_complement(rng, q1, r12)
        q2 = q1 * rho[:r12] + w * np.sqrt(1.0 - rho[:r12] ** 2)
        v1 = np.hstack([q1, orthonormal_complement(rng, q1, SIGNAL_RANK - r12)])
        v2 = np.hstack([q2, orthonormal_complement(rng, q2, SIGNAL_RANK - r12)])
        matrix_value = population_cdpa(
            v1, EIGENVALUES, v2, EIGENVALUES, np.diag(rho)
        ).explained
    else:
        matrix_value = _structure_for(config).population.explained
    if abs(matrix_value - closed) > 1e-10:
        raise AssertionError(
            f"oracle routes disagree at theta={theta_deg}: "
            f"{matrix_value!r} vs {closed!r}"
        )
    return closed


def _spectral_norm(left: np.ndarray, right: np.ndarray) -> float:
    """``||left @ right||_2`` from the factors, without forming the product.

    With thin QRs ``left = Q_L R_L`` and ``right.T = Q_R R_R`` the product
    is ``Q_L (R_L R_R.T) Q_R.T``, so its norm is that of the small core.
    """
    if left.shape[1] == 0:
        return 0.0
    core = np.linalg.qr(left, mode="r") @ np.linalg.qr(right.T, mode="r").T
    return float(np.linalg.norm(core, 2))


def error_metrics(
    estimate: PatternDecomposition,
    truth: GroundTruth,
    estimated_perm: np.ndarray | None = None,
) -> ErrorReport:
    """Scaled squared errors of the estimated patterns against the truth.

    The common-pattern error is scaled by the average squared norm of the
    trace-normalized signals; the rescaled patterns are scaled by each
    signal's own squared norm.  Spectral-norm variants accompany the
    Frobenius ones.  The Frobenius and trace errors are taken from the
    dense matrices.  Every spectral norm is taken from low-rank factors
    (``x_k = v_k @ (sqrt(lam) * z_k)``, and each pattern difference
    ``[loadings | b_c] @ [scores; -c0_true]`` with the scales on the two
    row blocks) by two thin QRs and an SVD of their small triangular core.
    When the estimated alignment ``estimated_perm`` is supplied, the
    alignment-objective error of that alignment on the true bases is
    included.
    """
    pmax = estimate.c.shape[0]
    c_true = pad_rows(truth.c, pmax)
    root = np.sqrt(truth.eigvalues)[:, None]
    x_sq_spec = [
        _spectral_norm(v, root * z) ** 2
        for v, z in ((truth.v1, truth.z1), (truth.v2, truth.z2))
    ]
    denom_fro = 0.5 * (np.sum(truth.x1**2) + np.sum(truth.x2**2)) / TOTAL_VARIANCE
    denom_spec = 0.5 * (x_sq_spec[0] + x_sq_spec[1]) / TOTAL_VARIANCE
    loadings, scores = estimate.c_factors
    b_c, c0_true = truth.c_factors
    left = np.hstack([loadings, pad_rows(b_c, pmax)])

    def diff_sq_spec(scale: float, true_scale: float) -> float:
        right = np.vstack([scale * scores, -true_scale * c0_true])
        return _spectral_norm(left, right) ** 2

    diff = estimate.c - c_true
    report: dict[str, Any] = {
        "scaled_sq_error_c_fro": float(np.sum(diff**2) / denom_fro),
        "scaled_sq_error_c_spec": float(diff_sq_spec(1.0, 1.0) / denom_spec),
    }
    for k, (x_true, c_scaled_true) in enumerate(
        zip((truth.x1, truth.x2), truth.c_scaled), start=1
    ):
        d = estimate.c_scaled[k - 1] - c_scaled_true
        report[f"scaled_sq_error_c{k}_fro"] = float(
            np.sum(d**2) / np.sum(x_true**2)
        )
        report[f"scaled_sq_error_c{k}_spec"] = float(
            diff_sq_spec(estimate.scales[k - 1], np.sqrt(TOTAL_VARIANCE))
            / x_sq_spec[k - 1]
        )
    trace_abs = abs(estimate.explained - truth.explained)
    report["trace_abs_error"] = float(trace_abs)
    report["trace_rel_error"] = float(trace_abs / truth.explained)
    if estimated_perm is not None:
        q1 = pad_rows(truth.v1[:, : truth.r12], pmax)
        q2 = pad_rows(truth.v2[:, : truth.r12], pmax)
        ref = match_objective(q1, q2, np.arange(pmax))
        got = match_objective(q1, q2, estimated_perm)
        report["match_objective_abs_error"] = float(abs(got - ref))
        report["match_objective_rel_error"] = float(abs(got - ref) / max(ref, 1e-12))
    return ErrorReport(**report)


@dataclass(frozen=True)
class ReplicationStudy:
    """Aggregated error metrics over the replications of one cell."""

    config: SimulationConfig
    rows: tuple[dict[str, float], ...]
    means: dict[str, float]
    sds: dict[str, float]
    oracle: float


def run_replications(config: SimulationConfig) -> ReplicationStudy:
    """Estimate on ``config.replications`` independent replications.

    Replication ``i`` draws data with seed ``config.seed ^ i``; the
    planted structure stays fixed.  Each fit uses the true ranks.
    Aggregates are deterministic given the master seed.
    """
    structure = _structure_for(config)
    ranks = RankProfile(r1=SIGNAL_RANK, r2=SIGNAL_RANK, r12=structure.r12)
    rows = []
    for i in range(config.replications):
        y1, y2, truth = generate_setup(
            replace(config, seed=config.seed ^ i, replications=1)
        )
        fit = estimate_cdpa(
            y1,
            y2,
            CdpaConfig(ranks=ranks, perm="identity", sign="plus", center=False),
        )
        row = error_metrics(fit.patterns, truth).as_dict()
        row["replication"] = float(i)
        row["explained"] = fit.patterns.explained
        if fit.pair is not None:
            cos1 = float(np.clip(fit.pair.cosines[0], 0.0, 1.0))
            row["first_cosine"] = cos1
            row["first_angle_deg"] = float(np.degrees(np.arccos(cos1)))
        rows.append(row)
    keys = [k for k in rows[0] if k != "replication"]
    means = {k: float(np.mean([r[k] for r in rows])) for k in keys}
    if config.replications > 1:
        sds = {k: float(np.std([r[k] for r in rows], ddof=1)) for k in keys}
    else:
        sds = {k: 0.0 for k in keys}
    return ReplicationStudy(
        config=config,
        rows=tuple(rows),
        means=means,
        sds=sds,
        oracle=structure.population.explained,
    )
