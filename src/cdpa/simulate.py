"""Synthetic data generation with planted structure, and replication studies.

Two benchmark designs are supported.  Both plant rank-5 signals with
eigenvalues 500, 400, 300, 200, 100, a diagonal cross-covariance between
the standardized factor scores driven by a single angle parameter, and a
matching diagonal alignment between the two channel subspaces.  Design 1
uses equal variable counts; design 2 fixes the second dataset at 900
variables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from ._linalg import orthonormal_complement, pad_rows, random_orthonormal, svd
from .dcca import common_factor_coefficients
from .denoise import ObservedMatrix, RankProfile
from .errors import BadConfig, check_count, check_real
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
    seed: int = 0
    replications: int = 1
    structure_seed: int = 0

    def __post_init__(self):
        for name in ("setup", "p1", "n", "seed", "replications", "structure_seed"):
            check_count(getattr(self, name), name, BadConfig)
        for name in ("theta_deg", "noise_var"):
            check_real(getattr(self, name), name, BadConfig)
        if self.setup not in (1, 2):
            raise BadConfig(f"setup must be 1 or 2, got {self.setup}")
        if not 0.0 <= self.theta_deg <= 75.0:
            raise BadConfig(f"theta_deg must be in [0, 75], got {self.theta_deg}")
        if not 0.0 <= self.noise_var < math.inf:
            raise BadConfig(f"noise_var must be finite and nonnegative, got {self.noise_var}")
        if self.n < 2:
            raise BadConfig(f"n must be at least 2, got {self.n}")
        if self.replications < 1:
            raise BadConfig("replications must be >= 1")
        if min(self.seed, self.structure_seed) < 0:
            raise BadConfig("seeds must be nonnegative")
        if min(self.p1, self.p2) < SIGNAL_RANK:
            raise BadConfig("variable counts must be at least the signal rank")

    @property
    def p2(self) -> int:
        """Dataset 2's variable count: ``p1`` in setup 1, 900 in setup 2."""
        return self.p1 if self.setup == 1 else 900


@dataclass(frozen=True)
class GroundTruth:
    """Planted structure and the per-replication true signals.

    The true signals ``x_k = v_k @ (sqrt(EIGENVALUES) * z_k)`` are kept as
    their factors and formed only when read.  The true common pattern is
    kept as its factors ``c_factors = (b_c, c0_true)``, the pmax x r12
    loadings and the r12 x n common factor scores; ``c = b_c @ c0_true``
    is formed only when read, and both rescaled true patterns are
    ``sqrt(TOTAL_VARIANCE) * c``.
    """

    v1: np.ndarray
    v2: np.ndarray
    r12: int
    z1: np.ndarray
    z2: np.ndarray
    c_factors: tuple[np.ndarray, np.ndarray]
    population: PopulationPatterns

    @property
    def x1(self) -> np.ndarray:
        return self.v1 @ (np.sqrt(EIGENVALUES)[:, None] * self.z1)

    @property
    def x2(self) -> np.ndarray:
        return self.v2 @ (np.sqrt(EIGENVALUES)[:, None] * self.z2)

    @property
    def explained(self) -> float:
        return self.population.explained

    @cached_property
    def c(self) -> np.ndarray:
        return self.c_factors[0] @ self.c_factors[1]


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

    def as_dict(self) -> dict[str, float]:
        """The errors in field order."""
        return asdict(self)


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

    ``b_c`` is expressed in the planted coordinates (no SVD tie-breaking
    involved), so the true common pattern pairs consistently with the
    planted factor scores.
    """

    rho: np.ndarray
    r12: int
    v1: np.ndarray
    v2: np.ndarray
    b_c: np.ndarray
    population: PopulationPatterns


@functools.lru_cache(maxsize=None)
def _build_structure(
    setup: int, theta_deg: float, p1: int, p2: int, structure_seed: int
) -> _Structure:
    """Factor matrices with the planted channel-subspace alignment.

    The smaller dataset's leading block is drawn first; the larger
    dataset's is constructed so the product of the padded orthonormal
    blocks equals the diagonal of planted correlations exactly.  The
    structure is shared by every replication of a cell, so it is built
    once per argument tuple.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [structure_seed, setup, p1, int(round(1000 * theta_deg))]
        )
    )
    rho = planted_correlations(theta_deg)
    r12 = int(np.sum(rho > 0))
    pmax, pmin = max(p1, p2), min(p1, p2)
    q_small = random_orthonormal(rng, pmin, r12)
    q_small_padded = pad_rows(q_small, pmax)
    w = orthonormal_complement(rng, q_small_padded, r12)
    q_big = q_small_padded * rho[:r12] + w * np.sqrt(1.0 - rho[:r12] ** 2)

    def complete(q: np.ndarray) -> np.ndarray:
        extra = orthonormal_complement(rng, q, SIGNAL_RANK - r12)
        return np.hstack([q, extra])

    v_small = complete(q_small)
    v_big = complete(q_big)
    v1, v2 = (v_small, v_big) if p1 <= p2 else (v_big, v_small)
    population = population_cdpa(
        v1, EIGENVALUES, v2, EIGENVALUES, np.diag(rho)
    )
    # the common loadings in the planted coordinates: the padded leading
    # blocks are principal-vector pairs with cosines rho, so no SVD (and
    # no tie-breaking ambiguity) is involved
    root = np.sqrt(EIGENVALUES[:r12])
    q1p = pad_rows(v1[:, :r12], pmax)
    q2p = pad_rows(v2[:, :r12], pmax)
    c_b = common_factor_coefficients(rho[:r12]) * (q1p + q2p)
    b_c = c_b * (root / np.sqrt(TOTAL_VARIANCE))
    return _Structure(rho=rho, r12=r12, v1=v1, v2=v2, b_c=b_c, population=population)


def generate_setup(
    config: SimulationConfig, exact_moments: bool = False
) -> tuple[ObservedMatrix, ObservedMatrix, GroundTruth]:
    """Draw one replication of observed data with its ground truth.

    With ``exact_moments`` the factor scores are orthonormalized so the
    sample second moments match the planted ones exactly; useful for
    tests of algebraic identities.
    """
    structure = _build_structure(
        config.setup, config.theta_deg, config.p1, config.p2, config.structure_seed
    )
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
    truth = GroundTruth(
        v1=structure.v1,
        v2=structure.v2,
        r12=r12,
        z1=z1,
        z2=z2,
        c_factors=(structure.b_c, c0_true),
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


def oracle_explained_variance(theta_deg: float) -> float:
    """Population explained variance, validated by two independent routes.

    The matrix-level analytic pipeline on the planted structure of the
    simulation studies (setup 1, p1 = 40, structure seed 0) must agree
    with the closed-form sum to 1e-10; the common value is returned.
    """
    if not 0.0 <= theta_deg <= 90.0:
        raise BadConfig(f"theta_deg must be in [0, 90], got {theta_deg}")
    closed = closed_form_explained_variance(theta_deg)
    matrix_value = _build_structure(1, theta_deg, 40, 40, 0).population.explained
    if abs(matrix_value - closed) > 1e-10:
        raise AssertionError(
            f"oracle routes disagree at theta={theta_deg}: "
            f"{matrix_value!r} vs {closed!r}"
        )
    return closed


def _factor_norms(left: np.ndarray, right: np.ndarray) -> tuple[float, float]:
    """``(||left @ right||_F, ||left @ right||_2)`` from the factors,
    without forming the product.

    With thin QRs ``left = Q_L R_L`` and ``right.T = Q_R R_R`` the product
    is ``Q_L (R_L R_R.T) Q_R.T``, so both norms are those of the small
    core, read off its singular values ``s`` as ``hypot(*s)`` and
    ``s[0]``; no value is squared.
    """
    if left.shape[1] == 0:
        return 0.0, 0.0
    core = np.linalg.qr(left, mode="r") @ np.linalg.qr(right.T, mode="r").T
    s = svd(core, compute_uv=False)
    return math.hypot(*s), float(s[0])


def error_metrics(estimate: PatternDecomposition, truth: GroundTruth) -> ErrorReport:
    """Scaled squared errors of the estimated patterns against the truth.

    The common-pattern error is scaled by the average squared norm of the
    trace-normalized signals; the rescaled patterns are scaled by each
    signal's own squared norm.  Spectral-norm variants accompany the
    Frobenius ones.  Every norm is taken from low-rank factors by
    ``_factor_norms``: the signals ``x_k`` from ``(v_k, sqrt(lam) *
    z_k)``, and each pattern difference from ``[loadings | b_c] @
    [scale * scores; -true_scale * c0_true]``.  No p x n matrix is formed
    and nothing is cached on ``estimate`` or ``truth``.
    """
    root = np.sqrt(EIGENVALUES)[:, None]
    x_sq = [
        np.square(_factor_norms(v, root * z))
        for v, z in ((truth.v1, truth.z1), (truth.v2, truth.z2))
    ]
    mean_sq = 0.5 * (x_sq[0] + x_sq[1]) / TOTAL_VARIANCE
    loadings, scores = estimate.c_factors
    b_c, c0_true = truth.c_factors
    left = np.hstack([loadings, b_c])
    true_scale = math.sqrt(TOTAL_VARIANCE)
    report: dict[str, float] = {}
    for name, scale, scale_true, denom in (
        ("c", 1.0, 1.0, mean_sq),
        ("c1", estimate.scales[0], true_scale, x_sq[0]),
        ("c2", estimate.scales[1], true_scale, x_sq[1]),
    ):
        right = np.vstack([scale * scores, -scale_true * c0_true])
        fro, spec = np.square(_factor_norms(left, right)) / denom
        report[f"scaled_sq_error_{name}_fro"] = float(fro)
        report[f"scaled_sq_error_{name}_spec"] = float(spec)
    trace_abs = abs(estimate.explained - truth.explained)
    report["trace_abs_error"] = float(trace_abs)
    report["trace_rel_error"] = float(trace_abs / truth.explained)
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

    Replication ``i`` draws data with a 64-bit seed taken from the
    ``i``-th child of ``SeedSequence(config.seed).spawn(replications)``,
    so different master seeds give independent streams; the planted
    structure stays fixed.  Each fit uses the true ranks.  Aggregates are
    deterministic given the master seed.
    """
    rows = []
    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    for i, child in enumerate(children):
        seed = int(child.generate_state(1, np.uint64)[0])
        y1, y2, truth = generate_setup(replace(config, seed=seed, replications=1))
        ranks = RankProfile(r1=SIGNAL_RANK, r2=SIGNAL_RANK, r12=truth.r12)
        fit = estimate_cdpa(
            y1,
            y2,
            CdpaConfig(ranks=ranks, perm="identity", sign="plus", center=False),
        )
        row = error_metrics(fit.patterns, truth).as_dict()
        row["replication"] = float(i)
        row["explained"] = fit.patterns.explained
        if fit.pair is not None:
            cos1 = float(fit.pair.cosines[0])
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
        oracle=truth.explained,
    )
